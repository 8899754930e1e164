//! The code generators: each selects from allocated RTL plus its
//! [`til_lir::LirFun`] side tables.
//!
//! * [`vm`] — the simulated ALPHA-style VM the rest of the toolchain
//!   links, runs, verifies, and profiles. The reference target: its
//!   output is pinned byte-for-byte by the golden-image test.
//! * [`x64`] — textual x86-64 (AT&T syntax) with GC stack maps derived
//!   from the same target-independent safe-point data, demonstrating
//!   that the §2.3 table discipline ports to a real ISA.

pub mod vm;
pub mod x64;

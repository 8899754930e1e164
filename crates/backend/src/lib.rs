//! The backend (paper §3.7): register allocation, frame construction,
//! GC-table generation, machine-code emission, and linking. Code
//! generation is split target-independent / per-target: [`emit`]
//! attaches [`til_lir`]'s side tables (assignment, safe points,
//! signature) to each allocated RTL function, and the [`targets`]
//! module selects machine code from the RTL directly — for the
//! simulated ALPHA-style VM (the reference target, linked and run) and
//! for textual x86-64 (assembly with re-derived GC stack maps).

// The backend is library code on the compile path: failures must
// surface as diagnostics, never as panics. Narrow, justified
// exceptions carry scoped allows.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod emit;
pub mod link;
pub mod liveness;
pub mod mcv;
pub mod regalloc;
pub mod tables_check;
pub mod targets;

pub use link::{fun_label, link, Linked, LinkOptions};
pub use tables_check::{check_gc_tables, check_gc_tables_jobs};
pub use targets::x64::{emit_x64, X64Module};

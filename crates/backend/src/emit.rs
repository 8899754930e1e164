//! The target-independent step between register allocation and
//! instruction selection: [`lir_fun`] wraps an allocated RTL function
//! in its [`LirFun`] side tables — the allocator's [`til_lir::Assignment`],
//! a [`SafePoint`] (sorted live-in/live-out virtual-register sets) for
//! every instruction that can reach a collection or a stack walk, and
//! the calling-convention [`FunSig`]. Instruction selection proper
//! lives in [`crate::targets`], matching the RTL instructions directly.
//!
//! [`emit_fun`] is the VM-target pipeline entry: attach the side
//! tables, then select with [`crate::targets::vm::select_fun`].

use crate::regalloc::Alloc;
use til_lir::{LirFun, SafePoint};
use til_rtl::{RInstr, RtlFun, VReg};

pub use crate::targets::vm::EmittedFun;
pub use til_lir::{FunSig, MRep, Reloc};

/// Attaches the side tables to one allocated RTL function.
pub fn lir_fun<'a>(f: &'a RtlFun, al: &'a Alloc, tagged: bool) -> LirFun<'a> {
    let sorted = |set: &std::collections::HashSet<VReg>| {
        let mut v: Vec<VReg> = set.iter().copied().collect();
        v.sort_unstable();
        v
    };
    let safe_points = f
        .instrs
        .iter()
        .enumerate()
        .filter(|(_, ins)| {
            matches!(
                ins,
                RInstr::Call { .. }
                    | RInstr::CallRt { .. }
                    | RInstr::Alloc { .. }
                    | RInstr::AllocArr { .. }
            )
        })
        .map(|(i, _)| {
            let sp = SafePoint {
                live_in: sorted(&al.live.live_in[i]),
                live_out: sorted(&al.live.live_out[i]),
            };
            (i, sp)
        })
        .collect();
    LirFun {
        rtl: f,
        assign: &al.assign,
        safe_points,
        sig: til_lir::fun_sig(f, tagged),
    }
}

/// Emits one function for the VM target: attach the side tables, then
/// select.
pub fn emit_fun(f: &RtlFun, al: &Alloc, tagged: bool, statics_addr: &[u64]) -> EmittedFun {
    crate::targets::vm::select_fun(&lir_fun(f, al, tagged), tagged, statics_addr)
}

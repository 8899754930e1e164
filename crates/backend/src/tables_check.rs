//! Cross-check of the nearly-tag-free GC tables against liveness
//! (paper §2.3): the collector's only knowledge of the mutator is the
//! per-site tables, so a missing or stale entry is a silent
//! memory-corruption bug. This check recomputes, for every GC point
//! and call site, the set of pointer-typed frame slots that are live
//! there and demands the emitted table describe exactly that set:
//!
//! * every live `Trace`- or `Computed`-representation value that the
//!   allocator spilled to a frame slot must be described by a table
//!   entry (a `Trace` descriptor, or a `Computed` descriptor naming
//!   its companion type slot);
//! * no table entry may name a slot that is dead at that site (tracing
//!   a stale slot resurrects garbage or chases a dangling pointer);
//! * a `Computed` descriptor's companion slot must be in bounds for
//!   the frame.
//!
//! Only nearly-tag-free mode has these tables; tagged (baseline) mode
//! is vacuously fine.

use crate::emit::{emit_fun, EmittedFun};
use crate::regalloc::{allocate, Alloc, Loc};
use crate::targets::vm::VmFrame;
use std::collections::BTreeMap;
use til_common::{Diagnostic, Result, Tracer};
use til_lir::FrameLayout;
use til_runtime::{FrameInfo, LocRep, RepLoc};
use til_rtl::{RRep, RtlFun, RtlProgram, VReg};

/// Verifies the GC tables of a whole program by re-deriving every
/// function's allocation and emission. Call targets and static
/// addresses do not influence the tables, so the re-emission uses
/// placeholder addresses.
pub fn check_gc_tables(p: &RtlProgram) -> Result<()> {
    check_gc_tables_jobs(p, 1, None)
}

/// [`check_gc_tables`] on up to `jobs` worker threads, one function
/// per task; the first failure in function order is reported. With a
/// tracer, each function's check records its own span.
pub fn check_gc_tables_jobs(p: &RtlProgram, jobs: usize, tracer: Option<&Tracer>) -> Result<()> {
    if p.tagged {
        return Ok(());
    }
    let statics_addr = vec![0u64; p.statics.len()];
    let span = tracer.map(|t| t.span("gc-check-functions"));
    let results = til_common::par::map_traced(jobs, &p.funs, tracer, |_, f, t| {
        let _span = t.map(|t| t.span(format!("gc-check {}", fun_name(f))));
        let al = allocate(f);
        let em = emit_fun(f, &al, false, &statics_addr);
        check_fun_tables(f, &al, &em)
    });
    drop(span);
    results.into_iter().collect()
}

fn fun_name(f: &RtlFun) -> String {
    f.name.map(|v| v.to_string()).unwrap_or_else(|| "<entry>".to_string())
}

/// The pointer-typed frame slots live in `live`, as the emitter must
/// describe them: byte offset (in the VM target's frame geometry) →
/// descriptor. Derived from liveness and the allocation alone, not
/// from the shared table derivation the emitter itself uses.
fn expected_slots(
    f: &RtlFun,
    al: &Alloc,
    layout: &VmFrame,
    live: &std::collections::HashSet<VReg>,
) -> BTreeMap<u32, LocRep> {
    let mut out = BTreeMap::new();
    for v in live {
        let Some(Loc::Slot(s)) = al.assign.loc.get(v).copied() else {
            continue;
        };
        let rep = match f.reps.get(v) {
            Some(RRep::Trace) => LocRep::Trace,
            Some(RRep::Computed(rv)) => match al.assign.loc.get(rv).copied() {
                Some(Loc::Slot(rs)) => {
                    LocRep::Computed(RepLoc::Slot(layout.slot_byte_off(rs)))
                }
                // Register-resident rep: the emitter conservatively
                // marks the value unconditionally traced.
                _ => LocRep::Trace,
            },
            _ => continue,
        };
        out.insert(layout.slot_byte_off(s), rep);
    }
    out
}

fn check_site(
    f: &RtlFun,
    al: &Alloc,
    what: &str,
    rtl_at: usize,
    live: &std::collections::HashSet<VReg>,
    fi: &FrameInfo,
) -> Result<()> {
    let err = |msg: String| {
        Diagnostic::ice(
            "gc-check",
            format!("fun {} {what} at rtl instr {rtl_at}: {msg}", fun_name(f)),
        )
    };
    // The VM frame the site's descriptor declares.
    let layout = VmFrame {
        frame_bytes: fi.size,
    };
    let expected = expected_slots(f, al, &layout, live);
    let mut actual: BTreeMap<u32, LocRep> = BTreeMap::new();
    for (off, rep) in &fi.slots {
        if actual.insert(*off, *rep).is_some() {
            return Err(err(format!("frame slot offset {off} described twice")));
        }
    }
    for (off, rep) in &expected {
        match actual.get(off) {
            None => {
                return Err(err(format!(
                    "live pointer slot at frame offset {off} has no table entry"
                )));
            }
            Some(got) if got != rep => {
                return Err(err(format!(
                    "slot at frame offset {off} described as {got:?}, liveness says {rep:?}"
                )));
            }
            Some(_) => {}
        }
    }
    for (off, rep) in &actual {
        if !expected.contains_key(off) {
            return Err(err(format!(
                "table entry at frame offset {off} names a dead slot"
            )));
        }
        if let LocRep::Computed(RepLoc::Slot(roff)) = rep {
            if *roff >= fi.size {
                return Err(err(format!(
                    "computed descriptor's companion slot {roff} is outside the {}-byte frame",
                    fi.size
                )));
            }
        }
    }
    Ok(())
}

/// Cross-checks one function's emitted tables against its own
/// liveness and allocation.
pub fn check_fun_tables(f: &RtlFun, al: &Alloc, em: &EmittedFun) -> Result<()> {
    for (_, rtl_at, point) in &em.gc_points {
        if *rtl_at == usize::MAX {
            continue; // baseline prologue point; tagged mode has no tables
        }
        check_site(
            f,
            al,
            "gc point",
            *rtl_at,
            &al.live.live_in[*rtl_at],
            &point.frame,
        )?;
    }
    for (_, rtl_at, fi) in &em.call_sites {
        check_site(f, al, "call site", *rtl_at, &al.live.live_out[*rtl_at], fi)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use til_common::VarSupply;
    use til_rtl::{CallTarget, RInstr, ROp};

    /// A function with one traced value live across a call: the
    /// allocator must spill it, and the call-site table must describe
    /// the spill slot.
    fn fun_with_spilled_pointer() -> RtlFun {
        let mut vs = VarSupply::new();
        let callee = vs.fresh_named("callee");
        let v0: VReg = 0; // traced parameter, live across the call
        let v1: VReg = 1; // call result
        let mut reps = std::collections::HashMap::new();
        reps.insert(v0, RRep::Trace);
        reps.insert(v1, RRep::Int);
        RtlFun {
            name: Some(vs.fresh_named("f")),
            params: vec![v0],
            instrs: vec![
                RInstr::Call {
                    target: CallTarget::Code(callee),
                    args: vec![],
                    dst: Some(v1),
                },
                RInstr::Mov {
                    dst: v1,
                    src: ROp::V(v0),
                },
                RInstr::Ret(Some(v1)),
            ],
            reps,
            nlabels: 0,
            nhandlers: 0,
        }
    }

    fn emitted(f: &RtlFun) -> (Alloc, EmittedFun) {
        let al = allocate(f);
        let em = emit_fun(f, &al, false, &[]);
        (al, em)
    }

    #[test]
    fn intact_tables_pass() {
        let f = fun_with_spilled_pointer();
        let (al, em) = emitted(&f);
        // The scenario only tests something if the pointer really was
        // spilled and recorded.
        assert!(em.call_sites.iter().any(|(_, _, fi)| !fi.slots.is_empty()));
        check_fun_tables(&f, &al, &em).unwrap();
    }

    #[test]
    fn missing_descriptor_for_live_pointer_slot_is_rejected() {
        let f = fun_with_spilled_pointer();
        let (al, mut em) = emitted(&f);
        for (_, _, fi) in &mut em.call_sites {
            fi.slots.clear();
        }
        let err = check_fun_tables(&f, &al, &em).unwrap_err();
        assert!(
            err.message.contains("no table entry"),
            "unexpected diagnostic: {}",
            err.message
        );
    }

    #[test]
    fn entry_naming_dead_slot_is_rejected() {
        let f = fun_with_spilled_pointer();
        let (al, mut em) = emitted(&f);
        for (_, _, fi) in &mut em.call_sites {
            let layout = VmFrame {
                frame_bytes: fi.size,
            };
            fi.slots
                .push((layout.slot_byte_off(al.assign.nslots + 7), LocRep::Trace));
        }
        let err = check_fun_tables(&f, &al, &em).unwrap_err();
        assert!(
            err.message.contains("dead slot"),
            "unexpected diagnostic: {}",
            err.message
        );
    }
}

//! Structural verifier for RTL (the machine-checkable counterpart of
//! the Bform and closure typecheckers, pushed one stage further down):
//!
//! * every pseudo-register is defined on every path before it is used
//!   (forward must-defined dataflow over the same CFG the backend's
//!   liveness uses — [`crate::analysis::successors`], including a
//!   handler edge from every may-raise point in a protected region);
//! * every referenced label resolves to exactly one `Label`
//!   instruction and every handler slot is within the declared depth;
//! * the calling convention is respected: at most `NUM_ARGS` register
//!   arguments, direct calls name an existing function with matching
//!   arity, indirect calls go through a `Code`-representation register;
//! * every pseudo-register that appears has a representation
//!   annotation, and computed representations point at an annotated
//!   register (the GC tables are built from these, so a missing or
//!   dangling annotation is a collector bug waiting to happen);
//! * global and static references are in bounds.

use crate::analysis::{defs, uses};
use crate::ir::{CallTarget, Lbl, RInstr, ROp, RRep, RtlFun, RtlProgram, VReg};
use std::collections::HashMap;
use til_common::{Diagnostic, Result};
use til_vm::regs::NUM_ARGS;

/// Verifies a whole lowered program on a single thread.
pub fn verify_rtl(p: &RtlProgram) -> Result<()> {
    verify_rtl_jobs(p, 1, None)
}

/// Verifies a whole lowered program, checking functions on up to
/// `jobs` worker threads. On multiple failures the first in function
/// order is reported, matching the sequential verifier. With a tracer,
/// each function's check records its own span (buffered per worker,
/// merged in function order).
pub fn verify_rtl_jobs(
    p: &RtlProgram,
    jobs: usize,
    tracer: Option<&til_common::Tracer>,
) -> Result<()> {
    let mut arities: HashMap<til_common::Var, usize> = HashMap::new();
    for f in &p.funs {
        if let Some(name) = f.name {
            arities.insert(name, f.params.len());
        }
    }
    let span = tracer.map(|t| t.span("verify-functions"));
    let results = til_common::par::map_traced(jobs, &p.funs, tracer, |_, f, t| {
        let _span = t.map(|t| t.span(format!("verify {}", fun_name(f))));
        verify_fun(p, f, &arities)
    });
    drop(span);
    results.into_iter().collect()
}

fn fun_name(f: &RtlFun) -> String {
    f.name.map(|v| v.to_string()).unwrap_or_else(|| "<entry>".to_string())
}

fn err(f: &RtlFun, at: usize, msg: impl std::fmt::Display) -> Diagnostic {
    Diagnostic::ice(
        "rtl-verify",
        format!("fun {} instr {at}: {msg}", fun_name(f)),
    )
}

fn verify_fun(
    p: &RtlProgram,
    f: &RtlFun,
    arities: &HashMap<til_common::Var, usize>,
) -> Result<()> {
    let n = f.instrs.len();

    // Labels: unique definitions, within the declared count.
    let mut label_at: HashMap<Lbl, usize> = HashMap::new();
    for (i, ins) in f.instrs.iter().enumerate() {
        if let RInstr::Label(l) = ins {
            if *l >= f.nlabels {
                return Err(err(f, i, format!("label L{l} >= nlabels {}", f.nlabels)));
            }
            if label_at.insert(*l, i).is_some() {
                return Err(err(f, i, format!("label L{l} defined twice")));
            }
        }
    }
    let resolve = |f: &RtlFun, i: usize, l: Lbl| -> Result<usize> {
        label_at
            .get(&l)
            .copied()
            .ok_or_else(|| err(f, i, format!("branch to undefined label L{l}")))
    };

    // Representation annotations.
    let rep_of = |f: &RtlFun, i: usize, v: VReg| -> Result<RRep> {
        f.reps
            .get(&v)
            .copied()
            .ok_or_else(|| err(f, i, format!("v{v} has no representation annotation")))
    };
    for (i, ins) in f.instrs.iter().enumerate() {
        for v in uses(ins).into_iter().chain(defs(ins)) {
            if let RRep::Computed(rv) = rep_of(f, i, v)? {
                rep_of(f, i, rv).map_err(|_| {
                    err(f, i, format!("v{v}'s computed representation names unannotated v{rv}"))
                })?;
            }
        }
    }
    for v in &f.params {
        if !f.reps.contains_key(v) {
            return Err(err(f, 0, format!("parameter v{v} has no representation annotation")));
        }
    }

    // Per-instruction structural checks.
    for (i, ins) in f.instrs.iter().enumerate() {
        match ins {
            RInstr::Br(l) | RInstr::Beqz(_, l) | RInstr::Bnez(_, l) => {
                resolve(f, i, *l)?;
            }
            // Representation consistency across moves: in the nearly
            // tag-free scheme an untraced register flowing into a
            // traced destination would make the collector trace a raw
            // word. (The converse — a traced value narrowed into an
            // untraced slot — is legal: the lowering does it for
            // pointer compares and spills, and an untraced copy merely
            // opts out of GC. Immediates and computed representations
            // are skipped: small constants are filtered at trace time,
            // and computed reps are only resolvable at run time. The
            // tagged baseline is exempt: there every word carries its
            // own tag, so the collector can scan any register.)
            RInstr::Mov {
                dst,
                src: ROp::V(s),
            } if !p.tagged => {
                let srep = rep_of(f, i, *s)?;
                if rep_of(f, i, *dst)? == RRep::Trace
                    && matches!(srep, RRep::Int | RRep::Float | RRep::Code | RRep::Locative)
                {
                    return Err(err(
                        f,
                        i,
                        format!("mov of untraced v{s} ({srep:?}) into traced v{dst}"),
                    ));
                }
            }
            RInstr::PushHandler { lbl, idx } => {
                resolve(f, i, *lbl)?;
                if *idx >= f.nhandlers {
                    return Err(err(f, i, format!("handler slot {idx} >= nhandlers {}", f.nhandlers)));
                }
            }
            RInstr::PopHandler { idx } if *idx >= f.nhandlers => {
                return Err(err(f, i, format!("handler slot {idx} >= nhandlers {}", f.nhandlers)));
            }
            RInstr::Call { target, args, .. } | RInstr::TailCall { target, args } => {
                if args.len() > NUM_ARGS {
                    return Err(err(
                        f,
                        i,
                        format!("{} args exceed the {NUM_ARGS} argument registers", args.len()),
                    ));
                }
                match target {
                    CallTarget::Code(v) => match arities.get(v) {
                        None => {
                            return Err(err(f, i, format!("call to unknown code {v}")));
                        }
                        Some(want) if *want != args.len() => {
                            return Err(err(
                                f,
                                i,
                                format!("call to {v} passes {} args, code takes {want}", args.len()),
                            ));
                        }
                        Some(_) => {}
                    },
                    CallTarget::Reg(v) => {
                        if rep_of(f, i, *v)? != RRep::Code {
                            return Err(err(
                                f,
                                i,
                                format!("indirect call through v{v} whose representation is not Code"),
                            ));
                        }
                    }
                }
            }
            RInstr::CallRt { args, .. } if args.len() > NUM_ARGS => {
                return Err(err(
                    f,
                    i,
                    format!("{} args exceed the {NUM_ARGS} argument registers", args.len()),
                ));
            }
            RInstr::LdGlobal { gid, .. } | RInstr::StGlobal { gid, .. }
                if *gid as usize >= p.globals.len() =>
            {
                return Err(err(f, i, format!("global g{gid} out of bounds ({} slots)", p.globals.len())));
            }
            RInstr::LeaStatic { obj, .. } if *obj as usize >= p.statics.len() => {
                return Err(err(f, i, format!("static s{obj} out of bounds ({} objects)", p.statics.len())));
            }
            RInstr::LeaCode { code, .. } if !arities.contains_key(code) => {
                return Err(err(f, i, format!("address of unknown code {code}")));
            }
            _ => {}
        }
    }
    if f.params.len() > NUM_ARGS {
        return Err(err(
            f,
            0,
            format!("{} params exceed the {NUM_ARGS} argument registers", f.params.len()),
        ));
    }

    // Definite assignment: forward must-defined analysis, meet =
    // intersection over predecessors, entry seeded with the params.
    if n == 0 {
        return Ok(());
    }
    // Sets are dense bitsets over the function's vregs, each vreg
    // indexed by its sorted position among the annotated ones (the
    // representation check above guarantees every vreg that appears
    // is annotated), so the meet is a word-wise AND.
    let mut vregs: Vec<VReg> = f.reps.keys().copied().collect();
    vregs.sort_unstable();
    let ix = |v: VReg| vregs.binary_search(&v).ok();
    let words = vregs.len().div_ceil(64);
    let def_ix: Vec<Option<usize>> = f.instrs.iter().map(|ins| defs(ins).and_then(ix)).collect();
    // Shared successor model (`analysis::successors`): includes an
    // edge to the handler label from every instruction in a protected
    // region, since any of them may raise.
    let succ = crate::analysis::successors(f);
    // `reached[i]` false = not yet reached (top); otherwise
    // `defined[i * words..][..words]` is the set defined on entry.
    let mut reached = vec![false; n];
    let mut defined = vec![0u64; n * words];
    reached[0] = true;
    for k in f.params.iter().filter_map(|&v| ix(v)) {
        insert(&mut defined[..words], k);
    }
    let mut out = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if !reached[i] {
                continue;
            }
            out.copy_from_slice(&defined[i * words..][..words]);
            if let Some(k) = def_ix[i] {
                insert(&mut out, k);
            }
            for &s in &succ[i] {
                let cur = &mut defined[s * words..][..words];
                if !reached[s] {
                    reached[s] = true;
                    cur.copy_from_slice(&out);
                    changed = true;
                    continue;
                }
                for (c, o) in cur.iter_mut().zip(&out) {
                    if *c & !*o != 0 {
                        *c &= *o;
                        changed = true;
                    }
                }
            }
        }
    }
    for (i, ins) in f.instrs.iter().enumerate() {
        if !reached[i] {
            continue; // unreachable code
        }
        let inn = &defined[i * words..][..words];
        for u in uses(ins) {
            let is_defined = ix(u).is_some_and(|k| contains(inn, k));
            if !is_defined {
                return Err(err(
                    f,
                    i,
                    format!("v{u} used before it is defined on some path"),
                ));
            }
        }
    }
    Ok(())
}

fn insert(set: &mut [u64], k: usize) {
    set[k / 64] |= 1 << (k % 64);
}

fn contains(set: &[u64], k: usize) -> bool {
    set[k / 64] >> (k % 64) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{RtlFun, RtlProgram};

    /// A one-function program: the entry defines v0 and v1 by
    /// immediate moves, runs `instrs`, and returns.
    fn prog(reps: &[(VReg, RRep)], instrs: Vec<RInstr>) -> RtlProgram {
        let mut all = vec![
            RInstr::Mov {
                dst: 0,
                src: ROp::I(0),
            },
            RInstr::Mov {
                dst: 1,
                src: ROp::I(0),
            },
        ];
        all.extend(instrs);
        all.push(RInstr::Ret(None));
        RtlProgram {
            funs: vec![RtlFun {
                name: None,
                params: vec![],
                instrs: all,
                reps: reps.iter().copied().collect(),
                nlabels: 0,
                nhandlers: 0,
            }],
            globals: vec![],
            statics: vec![],
            data_table: vec![],
            tagged: false,
        }
    }

    /// A one-function program over untraced vregs: every vreg that
    /// appears is annotated `Int`, every label used is declared, and
    /// one handler slot is available.
    fn cfg_prog(instrs: Vec<RInstr>) -> RtlProgram {
        let mut reps = HashMap::new();
        let mut nlabels = 0;
        for ins in &instrs {
            for v in uses(ins).into_iter().chain(defs(ins)) {
                reps.insert(v, RRep::Int);
            }
            if let RInstr::Label(l) = ins {
                nlabels = nlabels.max(l + 1);
            }
        }
        RtlProgram {
            funs: vec![RtlFun {
                name: None,
                params: vec![],
                instrs,
                reps,
                nlabels,
                nhandlers: 1,
            }],
            globals: vec![],
            statics: vec![],
            data_table: vec![],
            tagged: false,
        }
    }

    fn def(dst: VReg) -> RInstr {
        RInstr::Mov {
            dst,
            src: ROp::I(1),
        }
    }

    /// Defines v9 from `v`: a plain use of `v`.
    fn use_of(v: VReg) -> RInstr {
        RInstr::Mov {
            dst: 9,
            src: ROp::V(v),
        }
    }

    fn rejected_at(p: &RtlProgram, at: usize, v: VReg) {
        let e = verify_rtl(p).expect_err("verifier must reject the use");
        let want = format!("fun <entry> instr {at}: v{v} used before it is defined on some path");
        assert!(e.to_string().contains(&want), "want `{want}`, got: {e}");
    }

    /// A def on one arm of a diamond does not reach the join: the use
    /// after it is rejected at the use's index.
    #[test]
    fn def_on_one_arm_only_is_rejected_after_the_join() {
        let p = cfg_prog(vec![
            def(0),
            RInstr::Beqz(0, 0),
            def(1),
            RInstr::Br(1),
            RInstr::Label(0),
            RInstr::Label(1),
            use_of(1),
            RInstr::Ret(None),
        ]);
        rejected_at(&p, 6, 1);
    }

    #[test]
    fn defs_on_both_arms_are_accepted() {
        let p = cfg_prog(vec![
            def(0),
            RInstr::Beqz(0, 0),
            def(1),
            RInstr::Br(1),
            RInstr::Label(0),
            def(1),
            RInstr::Label(1),
            use_of(1),
            RInstr::Ret(None),
        ]);
        verify_rtl(&p).expect("v1 is defined on both arms");
    }

    /// The loop head meets the entry path with the back-edge, which
    /// carries every def of the body: a value defined before the loop
    /// and redefined in it is defined at the head, while one defined
    /// only in the body is not (the first iteration misses it).
    #[test]
    fn loop_back_edge_carrying_a_def_is_accepted() {
        let body = |head_use: VReg| {
            cfg_prog(vec![
                def(0),
                def(1),
                RInstr::Label(0),
                use_of(head_use),
                def(1),
                def(2),
                RInstr::Bnez(0, 0),
                use_of(2),
                RInstr::Ret(None),
            ])
        };
        verify_rtl(&body(1)).expect("v1 is defined on entry and on the back-edge");
        rejected_at(&body(2), 3, 2);
    }

    /// Every instruction of a protected region may raise, so a vreg
    /// defined inside the region is not definitely defined in the
    /// handler (nothing branches to the handler label: the only edges
    /// into it are handler edges), while one defined before the
    /// `PushHandler` is.
    #[test]
    fn def_inside_protected_region_is_rejected_in_the_handler() {
        let p = cfg_prog(vec![
            def(0),
            RInstr::PushHandler { lbl: 0, idx: 0 },
            def(1),
            RInstr::PopHandler { idx: 0 },
            RInstr::Br(1),
            RInstr::Label(0),
            RInstr::HandlerEntry { dst: 2 },
            use_of(0),
            use_of(1),
            RInstr::Label(1),
            RInstr::Ret(None),
        ]);
        rejected_at(&p, 8, 1);
    }

    /// Unreachable code is not checked: the analysis never reaches it.
    #[test]
    fn use_in_unreachable_code_is_skipped() {
        let p = cfg_prog(vec![
            RInstr::Br(0),
            use_of(1),
            RInstr::Label(0),
            RInstr::Ret(None),
        ]);
        verify_rtl(&p).expect("the use of v1 is unreachable");
    }

    /// Fault injection: an untraced register moved into a traced
    /// destination must fail verification — the collector would trace
    /// a raw word.
    #[test]
    fn untraced_source_into_traced_destination_is_rejected() {
        for srep in [RRep::Int, RRep::Float, RRep::Code, RRep::Locative] {
            let p = prog(
                &[(0, srep), (1, RRep::Trace), (2, RRep::Trace)],
                vec![RInstr::Mov {
                    dst: 2,
                    src: ROp::V(0),
                }],
            );
            let e = verify_rtl(&p).expect_err("verifier must reject the rep-changing mov");
            assert!(
                e.to_string().contains("untraced"),
                "unexpected diagnostic: {e}"
            );
        }
    }

    /// The narrowing direction is legal (pointer compares and spills
    /// copy traced values into untraced registers), as are immediate
    /// sources into traced destinations (small-constant filtering).
    #[test]
    fn traced_narrowing_and_immediates_stay_legal() {
        let p = prog(
            &[(0, RRep::Int), (1, RRep::Trace), (2, RRep::Int)],
            vec![
                RInstr::Mov {
                    dst: 2,
                    src: ROp::V(1),
                },
                RInstr::Mov {
                    dst: 1,
                    src: ROp::I(42),
                },
            ],
        );
        verify_rtl(&p).expect("Trace→Int and immediate moves verify");
    }

    /// The tagged baseline is exempt: every word carries its own tag,
    /// so the collector can scan any register and the same mov is
    /// legal.
    #[test]
    fn tagged_mode_permits_rep_changing_moves() {
        let mut p = prog(
            &[(0, RRep::Int), (1, RRep::Trace), (2, RRep::Trace)],
            vec![RInstr::Mov {
                dst: 2,
                src: ROp::V(0),
            }],
        );
        p.tagged = true;
        verify_rtl(&p).expect("tagged programs may move untraced into traced");
    }

    /// The parallel verifier agrees with the sequential one on both
    /// accept and reject.
    #[test]
    fn parallel_verifier_matches_sequential() {
        let bad = prog(
            &[(0, RRep::Int), (1, RRep::Trace), (2, RRep::Trace)],
            vec![RInstr::Mov {
                dst: 2,
                src: ROp::V(0),
            }],
        );
        let good = prog(&[(0, RRep::Int), (1, RRep::Trace)], vec![]);
        for jobs in [1, 8] {
            assert!(verify_rtl_jobs(&bad, jobs, None).is_err());
            assert!(verify_rtl_jobs(&good, jobs, None).is_ok());
        }
    }
}

//! Compile-cost regression guard for the two per-function analyses
//! that once grew quadratically with function size: the RTL
//! verifier's definite-assignment check and the register allocator's
//! simplify loop. A synthetic, mostly straight-line function of more
//! than 20k instructions over more than 10k vregs (with diamonds,
//! runtime calls and one protected region) goes through `verify_rtl`
//! and `regalloc::allocate`. The assertions are on verdicts and slot
//! counts, not wall-clock: a quadratic regression shows up as a test
//! that takes minutes in the debug profile.

use til_backend::regalloc::{allocate, Loc, K};
use til_rtl::{verify_rtl, RInstr, ROp, RRep, RtlFun, RtlProgram, VReg};
use til_vm::{Alu, RtFn};

/// Chain steps; each defines one fresh vreg.
const STEPS: u32 = 10_240;
/// Live from the entry to both exits: across every call and into the
/// handler.
const KEEP: VReg = 1;
/// The handler's packet.
const EXN: VReg = 2;
/// The normal exit's result.
const RESULT: VReg = 3;
/// Defined by a broken diamond arm instead of the chain vreg.
const STRAY: VReg = 4;
/// Handler label, and the label the protected region's normal exit
/// branches over the handler to; diamond labels follow them.
const HANDLER: u32 = 0;
const RESUME: u32 = 1;
/// The protected region covers steps `PUSH_AT..POP_AT`.
const PUSH_AT: u32 = 5_250;
const POP_AT: u32 = 5_350;
/// The diamond whose taken arm a broken variant spoils.
const BROKEN_DIAMOND: u32 = 9_500;

/// The chain vreg defined by step `i - 1`.
fn chain(i: u32) -> VReg {
    10 + i
}

/// What a variant of the function breaks.
#[derive(Clone, Copy, PartialEq)]
enum Break {
    Nothing,
    /// `BROKEN_DIAMOND`'s taken arm defines a stray vreg instead of the
    /// chain vreg.
    DiamondArm,
    /// The handler returns a vreg defined inside the protected region.
    HandlerUse,
}

/// The function and the index of the instruction a broken variant
/// must be rejected at.
fn build(brk: Break) -> (RtlProgram, usize) {
    let mut code = vec![
        RInstr::Mov {
            dst: chain(0),
            src: ROp::I(0),
        },
        RInstr::Mov {
            dst: KEEP,
            src: ROp::I(7),
        },
    ];
    let mut nlabels = RESUME + 1;
    let mut reject_at = 0;
    for i in 0..STEPS {
        let (cur, next) = (chain(i), chain(i + 1));
        if i == PUSH_AT {
            code.push(RInstr::PushHandler {
                lbl: HANDLER,
                idx: 0,
            });
        }
        if i == POP_AT {
            code.extend([
                RInstr::PopHandler { idx: 0 },
                RInstr::Br(RESUME),
                RInstr::Label(HANDLER),
                RInstr::HandlerEntry { dst: EXN },
            ]);
            if brk == Break::HandlerUse {
                reject_at = code.len();
                code.push(RInstr::Ret(Some(chain(PUSH_AT + 50))));
            } else {
                code.push(RInstr::Ret(Some(KEEP)));
            }
            code.push(RInstr::Label(RESUME));
        }
        if i % 1000 == 500 {
            // A diamond that defines `next` on both arms.
            let (taken, join) = (nlabels, nlabels + 1);
            nlabels += 2;
            let broken = brk == Break::DiamondArm && i == BROKEN_DIAMOND;
            let arm = if broken { STRAY } else { next };
            code.extend([
                RInstr::Beqz(cur, taken),
                RInstr::Mov {
                    dst: next,
                    src: ROp::V(cur),
                },
                RInstr::Br(join),
                RInstr::Label(taken),
                RInstr::Mov {
                    dst: arm,
                    src: ROp::I(1),
                },
                RInstr::Label(join),
            ]);
            if broken {
                // `next`'s first use is the next step's first
                // instruction.
                reject_at = code.len();
            }
        } else if i % 1000 == 0 && i > 0 {
            code.push(RInstr::CallRt {
                f: RtFn::IntToStr,
                args: vec![cur],
                dst: Some(next),
                alloc: false,
            });
        } else {
            code.extend([
                RInstr::Alu {
                    op: Alu::Add,
                    dst: next,
                    a: ROp::V(cur),
                    b: ROp::I(1),
                },
                RInstr::Alu {
                    op: Alu::Xor,
                    dst: next,
                    a: ROp::V(next),
                    b: ROp::I(3),
                },
            ]);
        }
    }
    code.extend([
        RInstr::Alu {
            op: Alu::Add,
            dst: RESULT,
            a: ROp::V(KEEP),
            b: ROp::V(chain(STEPS)),
        },
        RInstr::Ret(Some(RESULT)),
    ]);
    let mut reps: std::collections::HashMap<VReg, RRep> =
        (0..=STEPS).map(|i| (chain(i), RRep::Int)).collect();
    for v in [KEEP, EXN, RESULT, STRAY] {
        reps.insert(v, RRep::Int);
    }
    let f = RtlFun {
        name: None,
        params: vec![],
        instrs: code,
        reps,
        nlabels,
        nhandlers: 1,
    };
    let p = RtlProgram {
        funs: vec![f],
        globals: vec![],
        statics: vec![],
        data_table: vec![],
        tagged: false,
    };
    (p, reject_at)
}

#[test]
fn large_function_verifies_and_allocates() {
    let (p, _) = build(Break::Nothing);
    let f = &p.funs[0];
    assert!(f.instrs.len() >= 20_000, "{} instructions", f.instrs.len());
    assert!(f.reps.len() >= 10_000, "{} vregs", f.reps.len());
    verify_rtl(&p).expect("the well-formed function verifies");

    let a = allocate(f);
    // Two values are live across a call or into the handler: KEEP
    // everywhere, and the chain vreg live out of the PushHandler.
    assert_eq!(a.assign.nslots, 2);
    let slotted = [KEEP, chain(PUSH_AT)];
    for v in slotted {
        assert!(
            matches!(a.assign.loc[&v], Loc::Slot(_)),
            "v{v} must live in a frame slot"
        );
    }
    // Everything else fits in registers: at most a handful of values
    // are live at any point.
    let mut regs = 0;
    for (v, l) in &a.assign.loc {
        if let Loc::Reg(c) = l {
            assert!((*c as usize) < K, "v{v} colored {c}");
            regs += 1;
        }
    }
    assert_eq!(regs + slotted.len(), a.assign.loc.len());
    assert!(a.assign.loc.len() >= 10_000, "{} vregs allocated", a.assign.loc.len());
}

#[test]
fn large_function_faults_are_reported_at_the_use() {
    for (brk, v) in [
        (Break::DiamondArm, chain(BROKEN_DIAMOND + 1)),
        (Break::HandlerUse, chain(PUSH_AT + 50)),
    ] {
        let (p, at) = build(brk);
        let e = verify_rtl(&p).expect_err("the broken function must be rejected");
        let want = format!("fun <entry> instr {at}: v{v} used before it is defined on some path");
        assert!(e.to_string().contains(&want), "want `{want}`, got: {e}");
    }
}

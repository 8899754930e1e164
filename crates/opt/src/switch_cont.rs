//! Switch-continuation inlining (paper §3.3): when all but one arm of
//! a switch raises an exception, the code *after* the switch is moved
//! into the non-raising arm, making its bindings visible to CSE and
//! the other reduction optimizations — exactly the paper's
//! `let x = if y then e2 else raise e3 in e4` example.

use crate::clone::splice_ret;
use til_bform::{Atom, BExp, BProgram, BRhs, BSwitch};
use til_common::VarSupply;
use til_lmli::con::Con;

/// Runs one round; returns true if any continuation moved.
pub fn inline_switch_continuations(p: &mut BProgram, vs: &mut VarSupply) -> bool {
    let mut changed = false;
    let body = std::mem::replace(&mut p.body, BExp::Ret(Atom::Int(0)));
    let con = p.con.clone();
    p.body = exp(body, &con, &mut changed, vs);
    changed
}

/// Does this arm do nothing but (eventually, along its spine) raise?
fn arm_raises(e: &BExp) -> bool {
    match e {
        BExp::Let { rhs, body, .. } => matches!(rhs, BRhs::Raise { .. }) || arm_raises(body),
        BExp::Fix { body, .. } => arm_raises(body),
        BExp::Ret(_) => false,
    }
}

/// Rewrites every spine-level `Raise` result type to `con`.
fn retype_raises(e: &mut BExp, con: &Con) {
    match e {
        BExp::Let { rhs, body, .. } => {
            if let BRhs::Raise { con: c, .. } = rhs {
                *c = con.clone();
            }
            retype_raises(body, con);
        }
        BExp::Fix { body, .. } => retype_raises(body, con),
        BExp::Ret(_) => {}
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Arm(usize),
    Default,
}

/// If exactly one arm of an int/data switch does not raise (and at
/// least one does), identify it.
fn live_slot(sw: &BSwitch) -> Option<Slot> {
    let (mut live, mut raising) = (Vec::new(), 0usize);
    match sw {
        BSwitch::Int { arms, default, .. } => {
            for (i, (_, a)) in arms.iter().enumerate() {
                if arm_raises(a) {
                    raising += 1;
                } else {
                    live.push(Slot::Arm(i));
                }
            }
            if arm_raises(default) {
                raising += 1;
            } else {
                live.push(Slot::Default);
            }
        }
        BSwitch::Data { arms, default, .. } => {
            for (i, (_, _, a)) in arms.iter().enumerate() {
                if arm_raises(a) {
                    raising += 1;
                } else {
                    live.push(Slot::Arm(i));
                }
            }
            if let Some(d) = default {
                if arm_raises(d) {
                    raising += 1;
                } else {
                    live.push(Slot::Default);
                }
            }
        }
        _ => return None,
    }
    if live.len() == 1 && raising >= 1 {
        Some(live[0])
    } else {
        None
    }
}

fn with_live_arm(sw: &mut BSwitch, slot: Slot, f: impl FnOnce(BExp) -> BExp) {
    let placeholder = BExp::Ret(Atom::Int(0));
    match (sw, slot) {
        (BSwitch::Int { arms, .. }, Slot::Arm(i)) => {
            let a = std::mem::replace(&mut arms[i].1, placeholder);
            arms[i].1 = f(a);
        }
        (BSwitch::Int { default, .. }, Slot::Default) => {
            let a = std::mem::replace(&mut **default, placeholder);
            **default = f(a);
        }
        (BSwitch::Data { arms, .. }, Slot::Arm(i)) => {
            let a = std::mem::replace(&mut arms[i].2, placeholder);
            arms[i].2 = f(a);
        }
        (BSwitch::Data { default: Some(d), .. }, Slot::Default) => {
            let a = std::mem::replace(&mut **d, placeholder);
            **d = f(a);
        }
        _ => unreachable!(),
    }
}

fn retype_all(sw: &mut BSwitch, con: &Con, live: Slot) {
    match sw {
        BSwitch::Int {
            arms,
            default,
            con: c,
            ..
        } => {
            *c = con.clone();
            for (i, (_, a)) in arms.iter_mut().enumerate() {
                if Slot::Arm(i) != live {
                    retype_raises(a, con);
                }
            }
            if Slot::Default != live {
                retype_raises(default, con);
            }
        }
        BSwitch::Data {
            arms,
            default,
            con: c,
            ..
        } => {
            *c = con.clone();
            for (i, (_, _, a)) in arms.iter_mut().enumerate() {
                if Slot::Arm(i) != live {
                    retype_raises(a, con);
                }
            }
            if let Some(d) = default {
                if Slot::Default != live {
                    retype_raises(d, con);
                }
            }
        }
        _ => {}
    }
}

fn exp(e: BExp, result_con: &Con, changed: &mut bool, vs: &mut VarSupply) -> BExp {
    match e {
        BExp::Ret(a) => BExp::Ret(a),
        BExp::Fix { funs, body } => BExp::Fix {
            funs: funs
                .into_iter()
                .map(|mut f| {
                    let b = std::mem::replace(&mut f.body, BExp::Ret(Atom::Int(0)));
                    let ret = f.ret.clone();
                    f.body = exp(b, &ret, changed, vs);
                    f
                })
                .collect(),
            body: Box::new(exp(*body, result_con, changed, vs)),
        },
        BExp::Let { var, rhs, body } => {
            let rhs = rhs_rec(rhs, changed, vs);
            let body = exp(*body, result_con, changed, vs);
            if let BRhs::Switch(mut sw) = rhs {
                if let Some(slot) = live_slot(&sw) {
                    *changed = true;
                    with_live_arm(&mut sw, slot, |arm| {
                        splice_ret(arm, |a| BExp::Let {
                            var,
                            rhs: BRhs::Atom(a),
                            body: Box::new(body),
                        })
                    });
                    retype_all(&mut sw, result_con, slot);
                    let t = vs.fresh_named("swc");
                    return BExp::Let {
                        var: t,
                        rhs: BRhs::Switch(sw),
                        body: Box::new(BExp::Ret(Atom::Var(t))),
                    };
                }
                return BExp::Let {
                    var,
                    rhs: BRhs::Switch(sw),
                    body: Box::new(body),
                };
            }
            BExp::Let {
                var,
                rhs,
                body: Box::new(body),
            }
        }
    }
}

fn rhs_rec(r: BRhs, changed: &mut bool, vs: &mut VarSupply) -> BRhs {
    match r {
        BRhs::Switch(sw) => BRhs::Switch(match sw {
            BSwitch::Int {
                scrut,
                arms,
                default,
                con,
            } => {
                let c = con.clone();
                BSwitch::Int {
                    scrut,
                    arms: arms
                        .into_iter()
                        .map(|(k, a)| (k, exp(a, &c, changed, vs)))
                        .collect(),
                    default: Box::new(exp(*default, &c, changed, vs)),
                    con,
                }
            }
            BSwitch::Data {
                scrut,
                data,
                cargs,
                arms,
                default,
                con,
            } => {
                let c = con.clone();
                BSwitch::Data {
                    scrut,
                    data,
                    cargs,
                    arms: arms
                        .into_iter()
                        .map(|(t, b, a)| (t, b, exp(a, &c, changed, vs)))
                        .collect(),
                    default: default.map(|d| Box::new(exp(*d, &c, changed, vs))),
                    con,
                }
            }
            BSwitch::Str {
                scrut,
                arms,
                default,
                con,
            } => {
                let c = con.clone();
                BSwitch::Str {
                    scrut,
                    arms: arms
                        .into_iter()
                        .map(|(k, a)| (k, exp(a, &c, changed, vs)))
                        .collect(),
                    default: Box::new(exp(*default, &c, changed, vs)),
                    con,
                }
            }
            BSwitch::Exn {
                scrut,
                arms,
                default,
                con,
            } => {
                let c = con.clone();
                BSwitch::Exn {
                    scrut,
                    arms: arms
                        .into_iter()
                        .map(|(id, b, a)| (id, b, exp(a, &c, changed, vs)))
                        .collect(),
                    default: Box::new(exp(*default, &c, changed, vs)),
                    con,
                }
            }
        }),
        BRhs::Typecase {
            scrut,
            int,
            float,
            ptr,
            con,
        } => {
            let c = con.clone();
            BRhs::Typecase {
                scrut,
                int: Box::new(exp(*int, &c, changed, vs)),
                float: Box::new(exp(*float, &c, changed, vs)),
                ptr: Box::new(exp(*ptr, &c, changed, vs)),
                con,
            }
        }
        BRhs::Handle { body, var, handler } => BRhs::Handle {
            body,
            var,
            handler,
        },
        other => other,
    }
}

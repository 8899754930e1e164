//! Alpha-renaming clones and constructor substitution over Bform.
//!
//! Inlining duplicates function bodies; every binder in the clone must
//! be freshened to preserve Bform's globally-unique-binders invariant.
//! Inlining a *polymorphic* function additionally substitutes the
//! call's constructor arguments for the function's constructor
//! parameters everywhere in the clone.

use std::collections::HashMap;
use til_bform::{Atom, BExp, BFun, BRhs, BSwitch};
use til_common::{Var, VarSupply};
use til_lmli::con::{CVar, Con};

/// Substitutes constructors through an expression in place.
pub fn subst_cons_exp(e: &mut BExp, map: &HashMap<CVar, Con>) {
    if map.is_empty() {
        return;
    }
    match e {
        BExp::Ret(_) => {}
        BExp::Let { rhs, body, .. } => {
            subst_cons_rhs(rhs, map);
            subst_cons_exp(body, map);
        }
        BExp::Fix { funs, body } => {
            for f in funs {
                // Inner binders shadow (ids are unique, so no capture).
                for (_, c) in &mut f.params {
                    *c = c.subst(map);
                }
                f.ret = f.ret.subst(map);
                subst_cons_exp(&mut f.body, map);
            }
            subst_cons_exp(body, map);
        }
    }
}

fn subst_cons_rhs(r: &mut BRhs, map: &HashMap<CVar, Con>) {
    match r {
        BRhs::Atom(_) | BRhs::Float(_) | BRhs::Str(_) | BRhs::Record(_) | BRhs::Select(..) => {}
        BRhs::Con { cargs, .. } => {
            for c in cargs {
                *c = c.subst(map);
            }
        }
        BRhs::ExnCon { .. } => {}
        BRhs::Prim { cargs, .. } => {
            for c in cargs {
                *c = c.subst(map);
            }
        }
        BRhs::App { cargs, .. } => {
            for c in cargs {
                *c = c.subst(map);
            }
        }
        BRhs::Raise { con, .. } => *con = con.subst(map),
        BRhs::Handle { body, handler, .. } => {
            subst_cons_exp(body, map);
            subst_cons_exp(handler, map);
        }
        BRhs::Typecase {
            scrut,
            int,
            float,
            ptr,
            con,
        } => {
            *scrut = scrut.subst(map);
            *con = con.subst(map);
            subst_cons_exp(int, map);
            subst_cons_exp(float, map);
            subst_cons_exp(ptr, map);
        }
        BRhs::Switch(sw) => match sw {
            BSwitch::Int { arms, default, con, .. } => {
                *con = con.subst(map);
                for (_, a) in arms {
                    subst_cons_exp(a, map);
                }
                subst_cons_exp(default, map);
            }
            BSwitch::Data {
                cargs,
                arms,
                default,
                con,
                ..
            } => {
                for c in cargs.iter_mut() {
                    *c = c.subst(map);
                }
                *con = con.subst(map);
                for (_, _, a) in arms {
                    subst_cons_exp(a, map);
                }
                if let Some(d) = default {
                    subst_cons_exp(d, map);
                }
            }
            BSwitch::Str { arms, default, con, .. } => {
                *con = con.subst(map);
                for (_, a) in arms {
                    subst_cons_exp(a, map);
                }
                subst_cons_exp(default, map);
            }
            BSwitch::Exn { arms, default, con, .. } => {
                *con = con.subst(map);
                for (_, _, a) in arms {
                    subst_cons_exp(a, map);
                }
                subst_cons_exp(default, map);
            }
        },
    }
}

/// Clones an expression with every binder freshened and free variables
/// redirected through `env` (bound variables are added to `env` as the
/// clone proceeds).
pub fn alpha_clone(e: &BExp, env: &mut HashMap<Var, Var>, vs: &mut VarSupply) -> BExp {
    match e {
        BExp::Ret(a) => BExp::Ret(ren_atom(a, env)),
        BExp::Let { var, rhs, body } => {
            let rhs = clone_rhs(rhs, env, vs);
            let nv = vs.rename(*var);
            env.insert(*var, nv);
            BExp::Let {
                var: nv,
                rhs,
                body: Box::new(alpha_clone(body, env, vs)),
            }
        }
        BExp::Fix { funs, body } => {
            let names: Vec<Var> = funs
                .iter()
                .map(|f| {
                    let nv = vs.rename(f.var);
                    env.insert(f.var, nv);
                    nv
                })
                .collect();
            let funs = funs
                .iter()
                .zip(names)
                .map(|(f, nv)| {
                    let params: Vec<(Var, Con)> = f
                        .params
                        .iter()
                        .map(|(v, c)| {
                            let np = vs.rename(*v);
                            env.insert(*v, np);
                            (np, c.clone())
                        })
                        .collect();
                    BFun {
                        var: nv,
                        cparams: f.cparams.clone(),
                        params,
                        ret: f.ret.clone(),
                        body: alpha_clone(&f.body, env, vs),
                    }
                })
                .collect();
            BExp::Fix {
                funs,
                body: Box::new(alpha_clone(body, env, vs)),
            }
        }
    }
}

fn ren_atom(a: &Atom, env: &HashMap<Var, Var>) -> Atom {
    match a {
        Atom::Var(v) => Atom::Var(env.get(v).copied().unwrap_or(*v)),
        Atom::Int(n) => Atom::Int(*n),
    }
}

fn clone_rhs(r: &BRhs, env: &mut HashMap<Var, Var>, vs: &mut VarSupply) -> BRhs {
    match r {
        BRhs::Atom(a) => BRhs::Atom(ren_atom(a, env)),
        BRhs::Float(f) => BRhs::Float(*f),
        BRhs::Str(s) => BRhs::Str(s.clone()),
        BRhs::Record(atoms) => BRhs::Record(atoms.iter().map(|a| ren_atom(a, env)).collect()),
        BRhs::Select(i, a) => BRhs::Select(*i, ren_atom(a, env)),
        BRhs::Con {
            data,
            cargs,
            tag,
            args,
        } => BRhs::Con {
            data: *data,
            cargs: cargs.clone(),
            tag: *tag,
            args: args.iter().map(|a| ren_atom(a, env)).collect(),
        },
        BRhs::ExnCon { exn, arg } => BRhs::ExnCon {
            exn: *exn,
            arg: arg.as_ref().map(|a| ren_atom(a, env)),
        },
        BRhs::Prim { prim, cargs, args } => BRhs::Prim {
            prim: *prim,
            cargs: cargs.clone(),
            args: args.iter().map(|a| ren_atom(a, env)).collect(),
        },
        BRhs::App { f, cargs, args } => BRhs::App {
            f: ren_atom(f, env),
            cargs: cargs.clone(),
            args: args.iter().map(|a| ren_atom(a, env)).collect(),
        },
        BRhs::Raise { exn, con } => BRhs::Raise {
            exn: ren_atom(exn, env),
            con: con.clone(),
        },
        BRhs::Handle { body, var, handler } => {
            let body = alpha_clone(body, env, vs);
            let nv = vs.rename(*var);
            env.insert(*var, nv);
            BRhs::Handle {
                body: Box::new(body),
                var: nv,
                handler: Box::new(alpha_clone(handler, env, vs)),
            }
        }
        BRhs::Typecase {
            scrut,
            int,
            float,
            ptr,
            con,
        } => BRhs::Typecase {
            scrut: scrut.clone(),
            int: Box::new(alpha_clone(int, env, vs)),
            float: Box::new(alpha_clone(float, env, vs)),
            ptr: Box::new(alpha_clone(ptr, env, vs)),
            con: con.clone(),
        },
        BRhs::Switch(sw) => BRhs::Switch(match sw {
            BSwitch::Int {
                scrut,
                arms,
                default,
                con,
            } => BSwitch::Int {
                scrut: ren_atom(scrut, env),
                arms: arms
                    .iter()
                    .map(|(k, a)| (*k, alpha_clone(a, env, vs)))
                    .collect(),
                default: Box::new(alpha_clone(default, env, vs)),
                con: con.clone(),
            },
            BSwitch::Data {
                scrut,
                data,
                cargs,
                arms,
                default,
                con,
            } => BSwitch::Data {
                scrut: ren_atom(scrut, env),
                data: *data,
                cargs: cargs.clone(),
                arms: arms
                    .iter()
                    .map(|(tag, binders, a)| {
                        let nb: Vec<Var> = binders
                            .iter()
                            .map(|v| {
                                let nv = vs.rename(*v);
                                env.insert(*v, nv);
                                nv
                            })
                            .collect();
                        (*tag, nb, alpha_clone(a, env, vs))
                    })
                    .collect(),
                default: default.as_ref().map(|d| Box::new(alpha_clone(d, env, vs))),
                con: con.clone(),
            },
            BSwitch::Str {
                scrut,
                arms,
                default,
                con,
            } => BSwitch::Str {
                scrut: ren_atom(scrut, env),
                arms: arms
                    .iter()
                    .map(|(k, a)| (k.clone(), alpha_clone(a, env, vs)))
                    .collect(),
                default: Box::new(alpha_clone(default, env, vs)),
                con: con.clone(),
            },
            BSwitch::Exn {
                scrut,
                arms,
                default,
                con,
            } => BSwitch::Exn {
                scrut: ren_atom(scrut, env),
                arms: arms
                    .iter()
                    .map(|(id, binder, a)| {
                        let nb = binder.map(|v| {
                            let nv = vs.rename(v);
                            env.insert(v, nv);
                            nv
                        });
                        (*id, nb, alpha_clone(a, env, vs))
                    })
                    .collect(),
                default: Box::new(alpha_clone(default, env, vs)),
                con: con.clone(),
            },
        }),
    }
}

/// Walks the linear spine of `e` to its final `Ret` and replaces it
/// with `k(atom)` — the inliner's splice (a spine has exactly one
/// `Ret`, so `k` runs once).
pub fn splice_ret(e: BExp, k: impl FnOnce(Atom) -> BExp) -> BExp {
    match e {
        BExp::Ret(a) => k(a),
        BExp::Let { var, rhs, body } => BExp::Let {
            var,
            rhs,
            body: Box::new(splice_ret(*body, k)),
        },
        BExp::Fix { funs, body } => BExp::Fix {
            funs,
            body: Box::new(splice_ret(*body, k)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_freshens_binders() {
        let mut vs = VarSupply::new();
        let x = vs.fresh();
        let e = BExp::Let {
            var: x,
            rhs: BRhs::Record(vec![Atom::Int(1)]),
            body: Box::new(BExp::Ret(Atom::Var(x))),
        };
        let mut env = HashMap::new();
        let c = alpha_clone(&e, &mut env, &mut vs);
        let BExp::Let { var, body, .. } = c else {
            panic!()
        };
        assert_ne!(var, x);
        let BExp::Ret(Atom::Var(v)) = *body else {
            panic!()
        };
        assert_eq!(v, var);
    }

    #[test]
    fn splice_replaces_final_ret() {
        let mut vs = VarSupply::new();
        let x = vs.fresh();
        let e = BExp::Let {
            var: x,
            rhs: BRhs::Atom(Atom::Int(5)),
            body: Box::new(BExp::Ret(Atom::Var(x))),
        };
        let out = splice_ret(e, |a| {
            BExp::Let {
                var: Var::from_raw(99, None),
                rhs: BRhs::Atom(a),
                body: Box::new(BExp::Ret(Atom::Int(0))),
            }
        });
        let BExp::Let { body, .. } = out else { panic!() };
        assert!(matches!(*body, BExp::Let { .. }));
    }

    #[test]
    fn subst_cons_rewrites_cargs() {
        let mut vs = VarSupply::new();
        let x = vs.fresh();
        let a = CVar(7);
        let mut e = BExp::Let {
            var: x,
            rhs: BRhs::App {
                f: Atom::Int(0),
                cargs: vec![Con::Var(a)],
                args: vec![],
            },
            body: Box::new(BExp::Ret(Atom::Var(x))),
        };
        let mut map = HashMap::new();
        map.insert(a, Con::Int);
        subst_cons_exp(&mut e, &map);
        let BExp::Let { rhs, .. } = &e else { panic!() };
        let BRhs::App { cargs, .. } = rhs else {
            panic!()
        };
        assert_eq!(cargs[0], Con::Int);
    }
}

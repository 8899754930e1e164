//! The Bform IR.
//!
//! Bform is the paper's A-normal-form subset of Lmli (§3.3, after
//! Flanagan et al.): every intermediate computation is named by a
//! `let`, every potentially heap-allocated value (strings, records,
//! functions) is named, atoms are variables or integer constants, and
//! nested expressions appear only inside the arms of switches,
//! typecases, and handlers. There is no explicit tail-call form — the
//! paper's Figure 4 binds even the recursive `dot(h,g)` call to a
//! variable and returns it; tail positions are recovered during RTL
//! conversion.

use til_common::Var;
use til_lambda::env::{DataId, ExnId};
pub use til_lmli::con::{CVar, Con};
pub use til_lmli::data::{MDataEnv, MExnEnv};
pub use til_lmli::prim::MPrim;

/// A complete Bform program.
#[derive(Clone, Debug)]
pub struct BProgram {
    /// Datatype representations.
    pub data: MDataEnv,
    /// Exception argument representations.
    pub exns: MExnEnv,
    /// Whole-program body.
    pub body: BExp,
    /// Its constructor.
    pub con: Con,
}

/// An atom: a value that needs no computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Atom {
    /// A variable.
    Var(Var),
    /// An integer constant (also bools, chars, enum constructors).
    Int(i64),
}

impl Atom {
    /// The variable, if this is one.
    pub fn as_var(&self) -> Option<Var> {
        match self {
            Atom::Var(v) => Some(*v),
            Atom::Int(_) => None,
        }
    }
}

/// One function of a Bform `fix` nest.
#[derive(Clone, Debug)]
pub struct BFun {
    /// Name.
    pub var: Var,
    /// Run-time type parameters.
    pub cparams: Vec<CVar>,
    /// Value parameters.
    pub params: Vec<(Var, Con)>,
    /// Result constructor.
    pub ret: Con,
    /// Body.
    pub body: BExp,
}

impl BFun {
    /// The function's constructor.
    pub fn con(&self) -> Con {
        Con::Arrow {
            cparams: self.cparams.clone(),
            params: self.params.iter().map(|(_, c)| c.clone()).collect(),
            ret: Box::new(self.ret.clone()),
        }
    }
}

/// A Bform expression: a linear sequence of bindings ending in a
/// return or a raise.
#[derive(Clone, Debug)]
pub enum BExp {
    /// `let var = rhs in body`.
    Let {
        /// Bound variable.
        var: Var,
        /// Right-hand side.
        rhs: BRhs,
        /// Continuation.
        body: Box<BExp>,
    },
    /// Named mutually recursive functions.
    Fix {
        /// The nest.
        funs: Vec<BFun>,
        /// Scope.
        body: Box<BExp>,
    },
    /// Return an atom (to the enclosing function *or* to the `let`
    /// binding of an enclosing switch/typecase/handle arm).
    Ret(Atom),
}

/// A right-hand side.
#[derive(Clone, Debug)]
pub enum BRhs {
    /// Copy an atom.
    Atom(Atom),
    /// Unboxed float constant.
    Float(f64),
    /// String constant (heap-allocated, hence named).
    Str(String),
    /// Record allocation.
    Record(Vec<Atom>),
    /// Positional selection.
    Select(usize, Atom),
    /// Datatype constructor (flattened fields).
    Con {
        /// Datatype.
        data: DataId,
        /// Instantiation.
        cargs: Vec<Con>,
        /// Tag.
        tag: usize,
        /// Fields.
        args: Vec<Atom>,
    },
    /// Exception packet.
    ExnCon {
        /// Exception.
        exn: ExnId,
        /// Carried value.
        arg: Option<Atom>,
    },
    /// Primitive application.
    Prim {
        /// Operation.
        prim: MPrim,
        /// Type arguments.
        cargs: Vec<Con>,
        /// Arguments.
        args: Vec<Atom>,
    },
    /// Function call (tail-ness recovered later).
    App {
        /// Callee.
        f: Atom,
        /// Run-time type arguments.
        cargs: Vec<Con>,
        /// Value arguments.
        args: Vec<Atom>,
    },
    /// Multi-way branch; the arms' `Ret`s deliver the bound value.
    Switch(BSwitch),
    /// Intensional type analysis; arm `Ret`s deliver the bound value.
    Typecase {
        /// Analyzed constructor.
        scrut: Con,
        /// Int arm.
        int: Box<BExp>,
        /// Float arm (scrutinee refines to `Boxed`).
        float: Box<BExp>,
        /// Pointer arm.
        ptr: Box<BExp>,
        /// Result constructor.
        con: Con,
    },
    /// Exception handler; `body`'s `Ret` or `handler`'s `Ret` delivers
    /// the bound value.
    Handle {
        /// Protected body.
        body: Box<BExp>,
        /// Bound to the packet in the handler.
        var: Var,
        /// Handler.
        handler: Box<BExp>,
    },
    /// Raise (the binding never actually receives a value; the
    /// continuation is unreachable).
    Raise {
        /// Packet.
        exn: Atom,
        /// The type the context expects.
        con: Con,
    },
}

/// A multi-way branch over atoms.
#[derive(Clone, Debug)]
pub enum BSwitch {
    /// On an integer.
    Int {
        /// Scrutinee.
        scrut: Atom,
        /// `(value, arm)`.
        arms: Vec<(i64, BExp)>,
        /// Fallback.
        default: Box<BExp>,
        /// Result constructor.
        con: Con,
    },
    /// On a non-enum datatype constructor, binding flattened fields.
    Data {
        /// Scrutinee.
        scrut: Atom,
        /// Datatype.
        data: DataId,
        /// Instantiation.
        cargs: Vec<Con>,
        /// `(tag, field binders, arm)`.
        arms: Vec<(usize, Vec<Var>, BExp)>,
        /// Fallback (`None` when exhaustive).
        default: Option<Box<BExp>>,
        /// Result constructor.
        con: Con,
    },
    /// On a string.
    Str {
        /// Scrutinee.
        scrut: Atom,
        /// `(value, arm)`.
        arms: Vec<(String, BExp)>,
        /// Fallback.
        default: Box<BExp>,
        /// Result constructor.
        con: Con,
    },
    /// On an exception constructor.
    Exn {
        /// Scrutinee.
        scrut: Atom,
        /// `(exception, binder, arm)`.
        arms: Vec<(ExnId, Option<Var>, BExp)>,
        /// Fallback.
        default: Box<BExp>,
        /// Result constructor.
        con: Con,
    },
}

impl BExp {
    /// Counts nodes (bindings + tails), for inliner size budgets.
    pub fn size(&self) -> usize {
        let mut left = usize::MAX;
        self.count(&mut left);
        usize::MAX - left
    }

    /// Whether [`BExp::size`] is at most `cap`. Counting stops once
    /// the cap is passed, so the test costs O(`cap`), not O(size).
    pub fn size_at_most(&self, cap: usize) -> bool {
        let mut left = cap;
        self.count(&mut left)
    }

    /// Takes one unit of `left` per node; false once it runs out.
    fn count(&self, left: &mut usize) -> bool {
        match self {
            BExp::Let { rhs, body, .. } => take(left) && rhs.count(left) && body.count(left),
            BExp::Fix { funs, body } => {
                take(left) && funs.iter().all(|f| f.body.count(left)) && body.count(left)
            }
            BExp::Ret(_) => take(left),
        }
    }
}

fn take(left: &mut usize) -> bool {
    match left.checked_sub(1) {
        Some(l) => {
            *left = l;
            true
        }
        None => false,
    }
}

impl BRhs {
    /// Counts nodes.
    pub fn size(&self) -> usize {
        let mut left = usize::MAX;
        self.count(&mut left);
        usize::MAX - left
    }

    fn count(&self, left: &mut usize) -> bool {
        take(left)
            && match self {
                BRhs::Switch(sw) => match sw {
                    BSwitch::Int { arms, default, .. } => {
                        arms.iter().all(|(_, a)| a.count(left)) && default.count(left)
                    }
                    BSwitch::Data { arms, default, .. } => {
                        arms.iter().all(|(_, _, a)| a.count(left))
                            && default.as_ref().is_none_or(|d| d.count(left))
                    }
                    BSwitch::Str { arms, default, .. } => {
                        arms.iter().all(|(_, a)| a.count(left)) && default.count(left)
                    }
                    BSwitch::Exn { arms, default, .. } => {
                        arms.iter().all(|(_, _, a)| a.count(left)) && default.count(left)
                    }
                },
                BRhs::Typecase {
                    int, float, ptr, ..
                } => int.count(left) && float.count(left) && ptr.count(left),
                BRhs::Handle { body, handler, .. } => body.count(left) && handler.count(left),
                _ => true,
            }
    }

    /// True when evaluating this RHS can have no observable effect
    /// (used by dead-code elimination). Switches and similar are
    /// conservatively judged by their sub-expressions' RHSs.
    pub fn is_pure(&self, pure_fun: &impl Fn(Var) -> bool) -> bool {
        match self {
            BRhs::Atom(_)
            | BRhs::Float(_)
            | BRhs::Str(_)
            | BRhs::Record(_)
            | BRhs::Select(..)
            | BRhs::Con { .. }
            | BRhs::ExnCon { .. } => true,
            BRhs::Prim { prim, .. } => prim.is_pure(),
            BRhs::App { f, .. } => f.as_var().is_some_and(pure_fun),
            BRhs::Raise { .. } => false,
            BRhs::Switch(sw) => {
                let arms_pure = |exps: Vec<&BExp>| exps.iter().all(|e| e.is_pure(pure_fun));
                match sw {
                    BSwitch::Int { arms, default, .. } => arms_pure(
                        arms.iter()
                            .map(|(_, a)| a)
                            .chain(std::iter::once(&**default))
                            .collect(),
                    ),
                    BSwitch::Data { arms, default, .. } => arms_pure(
                        arms.iter()
                            .map(|(_, _, a)| a)
                            .chain(default.iter().map(|d| &**d))
                            .collect(),
                    ),
                    BSwitch::Str { arms, default, .. } => arms_pure(
                        arms.iter()
                            .map(|(_, a)| a)
                            .chain(std::iter::once(&**default))
                            .collect(),
                    ),
                    BSwitch::Exn { arms, default, .. } => arms_pure(
                        arms.iter()
                            .map(|(_, _, a)| a)
                            .chain(std::iter::once(&**default))
                            .collect(),
                    ),
                }
            }
            BRhs::Typecase {
                int, float, ptr, ..
            } => int.is_pure(pure_fun) && float.is_pure(pure_fun) && ptr.is_pure(pure_fun),
            // A handler that is reached discards an effect (the raise),
            // so treat handles conservatively.
            BRhs::Handle { .. } => false,
        }
    }
}

impl BExp {
    /// True when the expression performs no observable effects.
    pub fn is_pure(&self, pure_fun: &impl Fn(Var) -> bool) -> bool {
        match self {
            BExp::Ret(_) => true,
            BExp::Let { rhs, body, .. } => rhs.is_pure(pure_fun) && body.is_pure(pure_fun),
            BExp::Fix { body, .. } => body.is_pure(pure_fun),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_accumulate() {
        let mut vs = til_common::VarSupply::new();
        let v = vs.fresh();
        let e = BExp::Let {
            var: v,
            rhs: BRhs::Record(vec![Atom::Int(1), Atom::Int(2)]),
            body: Box::new(BExp::Ret(Atom::Var(v))),
        };
        assert_eq!(e.size(), 3);
        let w = vs.fresh();
        let sw = BExp::Let {
            var: w,
            rhs: BRhs::Switch(BSwitch::Int {
                scrut: Atom::Int(0),
                arms: vec![(1, e)],
                default: Box::new(BExp::Ret(Atom::Int(0))),
                con: Con::Int,
            }),
            body: Box::new(BExp::Ret(Atom::Var(w))),
        };
        assert_eq!(sw.size(), 7);
        assert!(sw.size_at_most(7));
        assert!(!sw.size_at_most(6));
        assert!(!sw.size_at_most(0));
    }

    #[test]
    fn purity_judgement() {
        let never = |_v: til_common::Var| false;
        assert!(BRhs::Record(vec![Atom::Int(1)]).is_pure(&never));
        assert!(!BRhs::Prim {
            prim: MPrim::Print,
            cargs: vec![],
            args: vec![Atom::Int(0)]
        }
        .is_pure(&never));
        assert!(!BRhs::Prim {
            prim: MPrim::IAdd,
            cargs: vec![],
            args: vec![Atom::Int(1), Atom::Int(2)]
        }
        .is_pure(&never));
        assert!(BRhs::Prim {
            prim: MPrim::ILt,
            cargs: vec![],
            args: vec![Atom::Int(1), Atom::Int(2)]
        }
        .is_pure(&never));
    }
}

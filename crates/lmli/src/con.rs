//! The constructor (type) language of λML_i.
//!
//! Constructors are the *run-time representable* types of Lmli: they are
//! passed to polymorphic functions as values, analyzed by term-level
//! `typecase`, and carried through to the garbage collector. The
//! type-level [`Con::Typecase`] is the (restricted) induction
//! elimination form of Harper–Morrisett: it lets the type of a
//! term-level `typecase` track its run-time control flow.
//!
//! After the Lambda→Lmli conversion, `char` has merged into `int`,
//! `'a ref` has become a one-element array, record labels have become
//! positions, and `real` has split into [`Con::Float`] (unboxed, only
//! inside float arrays and primitive operations) and [`Con::Boxed`]
//! (the default boxed representation, §3.2 of the paper).

use std::collections::HashMap;
use til_common::Symbol;
use til_lambda::env::DataId;
pub use til_lambda::ty::{TyVar as CVar, TyVarSupply as CVarSupply};

/// A constructor — an Lmli type.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Con {
    /// A constructor variable (bound by a polymorphic function).
    Var(CVar),
    /// Word-sized integer (also chars and words).
    Int,
    /// Unboxed 64-bit float. Appears only as a float-array element
    /// type and transiently in float primitives.
    Float,
    /// Boxed float: pointer to a one-float heap cell.
    Boxed,
    /// String (byte array).
    Str,
    /// Exception packet.
    Exn,
    /// Multi-argument (possibly polymorphic) function.
    Arrow {
        /// Bound constructor parameters (run-time type arguments).
        cparams: Vec<CVar>,
        /// Value parameter types.
        params: Vec<Con>,
        /// Result type.
        ret: Box<Con>,
    },
    /// Record with positional fields (labels were resolved during the
    /// Lambda→Lmli conversion). The empty record is `unit`.
    Record(Vec<Con>),
    /// Array (element representation decided by [`rep_class`]).
    Array(Box<Con>),
    /// *Specialized* array (paper §3.2): normalizes to `Array(Float)`
    /// when the element is `real` (i.e. [`Con::Boxed`]), to an ordinary
    /// array otherwise, and is stuck on an unknown element, where the
    /// term-level `typecase` selects int/float/pointer operations at
    /// run time.
    SpecArray(Box<Con>),
    /// Saturated datatype application (representation in
    /// [`crate::data::MData`]).
    Data(DataId, Vec<Con>),
    /// Type-level typecase: reduces when the scrutinee's representation
    /// class is known.
    Typecase {
        /// Analyzed constructor.
        scrut: Box<Con>,
        /// Result when `scrut` is int-like.
        int: Box<Con>,
        /// Result when `scrut` is an unboxed float.
        float: Box<Con>,
        /// Result when `scrut` is a pointer.
        ptr: Box<Con>,
    },
}

/// Run-time representation class of a constructor — exactly the three
/// cases the paper's `sub` example analyzes (§2.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RepClass {
    /// Untraced machine word (ints, chars, enum datatypes).
    Int,
    /// Unboxed 64-bit float.
    Float,
    /// Traced pointer (records, strings, arrays, closures, boxed
    /// floats, non-enum datatypes — whose values may also be small
    /// constants, which the collector filters).
    Ptr,
    /// Not known at compile time (a constructor variable); requires
    /// run-time type analysis.
    Unknown,
}

/// Classifies a constructor's run-time representation.
///
/// `enum_datatype` reports whether a datatype is all-nullary (its
/// values are untraced small integers).
pub fn rep_class(c: &Con, enum_datatype: &impl Fn(DataId) -> bool) -> RepClass {
    match c {
        Con::Var(_) => RepClass::Unknown,
        Con::Int => RepClass::Int,
        Con::Float => RepClass::Float,
        Con::Boxed
        | Con::Str
        | Con::Exn
        | Con::Arrow { .. }
        | Con::Record(_)
        | Con::Array(_)
        | Con::SpecArray(_) => RepClass::Ptr,
        Con::Data(id, _) => {
            if enum_datatype(*id) {
                RepClass::Int
            } else {
                RepClass::Ptr
            }
        }
        Con::Typecase { .. } => RepClass::Unknown,
    }
}

/// Classifies a constructor by its *run-time type representation tag*
/// — what a `typecase` sees. This differs from [`rep_class`] in exactly
/// one case: a boxed float reports [`RepClass::Float`], because the
/// type representation of `real` is the FLOAT tag even though `real`
/// *values* travel boxed (only float arrays store them unboxed).
pub fn rep_tag(c: &Con, enum_datatype: &impl Fn(DataId) -> bool) -> RepClass {
    match c {
        Con::Boxed | Con::Float => RepClass::Float,
        other => rep_class(other, enum_datatype),
    }
}

impl Con {
    /// The unit type.
    pub fn unit() -> Con {
        Con::Record(Vec::new())
    }

    /// A monomorphic n-ary function type.
    pub fn arrow(params: Vec<Con>, ret: Con) -> Con {
        Con::Arrow {
            cparams: vec![],
            params,
            ret: Box::new(ret),
        }
    }

    /// Capture-avoiding substitution of constructors for variables.
    /// Bound `cparams` shadow the substitution (our supplies never
    /// reuse ids, so shadowing is the only capture concern).
    pub fn subst(&self, map: &HashMap<CVar, Con>) -> Con {
        if map.is_empty() {
            return self.clone();
        }
        match self {
            Con::Var(v) => map.get(v).cloned().unwrap_or_else(|| self.clone()),
            Con::Int | Con::Float | Con::Boxed | Con::Str | Con::Exn => self.clone(),
            Con::Arrow {
                cparams,
                params,
                ret,
            } => {
                if cparams.iter().any(|c| map.contains_key(c)) {
                    let mut inner = map.clone();
                    for c in cparams {
                        inner.remove(c);
                    }
                    Con::Arrow {
                        cparams: cparams.clone(),
                        params: params.iter().map(|p| p.subst(&inner)).collect(),
                        ret: Box::new(ret.subst(&inner)),
                    }
                } else {
                    Con::Arrow {
                        cparams: cparams.clone(),
                        params: params.iter().map(|p| p.subst(map)).collect(),
                        ret: Box::new(ret.subst(map)),
                    }
                }
            }
            Con::Record(fs) => Con::Record(fs.iter().map(|f| f.subst(map)).collect()),
            Con::Array(t) => Con::Array(Box::new(t.subst(map))),
            Con::SpecArray(t) => Con::SpecArray(Box::new(t.subst(map))),
            Con::Data(id, args) => {
                Con::Data(*id, args.iter().map(|a| a.subst(map)).collect())
            }
            Con::Typecase {
                scrut,
                int,
                float,
                ptr,
            } => Con::Typecase {
                scrut: Box::new(scrut.subst(map)),
                int: Box::new(int.subst(map)),
                float: Box::new(float.subst(map)),
                ptr: Box::new(ptr.subst(map)),
            },
        }
    }

    /// Normalizes the constructor: reduces every type-level typecase
    /// whose scrutinee's representation class is known.
    pub fn normalize(&self, enum_datatype: &impl Fn(DataId) -> bool) -> Con {
        match self {
            Con::Typecase {
                scrut,
                int,
                float,
                ptr,
            } => {
                let s = scrut.normalize(enum_datatype);
                match rep_tag(&s, enum_datatype) {
                    RepClass::Int => int.normalize(enum_datatype),
                    RepClass::Float => float.normalize(enum_datatype),
                    RepClass::Ptr => ptr.normalize(enum_datatype),
                    RepClass::Unknown => Con::Typecase {
                        scrut: Box::new(s),
                        int: Box::new(int.normalize(enum_datatype)),
                        float: Box::new(float.normalize(enum_datatype)),
                        ptr: Box::new(ptr.normalize(enum_datatype)),
                    },
                }
            }
            Con::Arrow {
                cparams,
                params,
                ret,
            } => Con::Arrow {
                cparams: cparams.clone(),
                params: params.iter().map(|p| p.normalize(enum_datatype)).collect(),
                ret: Box::new(ret.normalize(enum_datatype)),
            },
            Con::Record(fs) => {
                Con::Record(fs.iter().map(|f| f.normalize(enum_datatype)).collect())
            }
            Con::Array(t) => Con::Array(Box::new(t.normalize(enum_datatype))),
            Con::SpecArray(t) => {
                let elem = t.normalize(enum_datatype);
                match rep_tag(&elem, enum_datatype) {
                    RepClass::Float => Con::Array(Box::new(Con::Float)),
                    RepClass::Int | RepClass::Ptr => Con::Array(Box::new(elem)),
                    RepClass::Unknown => Con::SpecArray(Box::new(elem)),
                }
            }
            Con::Data(id, args) => Con::Data(
                *id,
                args.iter().map(|a| a.normalize(enum_datatype)).collect(),
            ),
            other => other.clone(),
        }
    }

    /// Collects free constructor variables.
    pub fn free_cvars(&self, out: &mut Vec<CVar>) {
        self.free_cvars_under(&mut Vec::new(), out);
    }

    fn free_cvars_under(&self, bound: &mut Vec<CVar>, out: &mut Vec<CVar>) {
        match self {
            Con::Var(v) => {
                if !bound.contains(v) && !out.contains(v) {
                    out.push(*v);
                }
            }
            Con::Int | Con::Float | Con::Boxed | Con::Str | Con::Exn => {}
            Con::Arrow {
                cparams,
                params,
                ret,
            } => {
                let n = bound.len();
                bound.extend_from_slice(cparams);
                for p in params {
                    p.free_cvars_under(bound, out);
                }
                ret.free_cvars_under(bound, out);
                bound.truncate(n);
            }
            Con::Record(fs) => {
                for f in fs {
                    f.free_cvars_under(bound, out);
                }
            }
            Con::Array(t) | Con::SpecArray(t) => t.free_cvars_under(bound, out),
            Con::Data(_, args) => {
                for a in args {
                    a.free_cvars_under(bound, out);
                }
            }
            Con::Typecase {
                scrut,
                int,
                float,
                ptr,
            } => {
                scrut.free_cvars_under(bound, out);
                int.free_cvars_under(bound, out);
                float.free_cvars_under(bound, out);
                ptr.free_cvars_under(bound, out);
            }
        }
    }

    /// Renders the constructor for IR dumps.
    pub fn display(&self, name_of: &impl Fn(DataId) -> Symbol) -> String {
        match self {
            Con::Var(v) => v.to_string(),
            Con::Int => "int".into(),
            Con::Float => "float".into(),
            Con::Boxed => "boxedfloat".into(),
            Con::Str => "string".into(),
            Con::Exn => "exn".into(),
            Con::Arrow {
                cparams,
                params,
                ret,
            } => {
                let cps = if cparams.is_empty() {
                    String::new()
                } else {
                    format!(
                        "[{}]",
                        cparams
                            .iter()
                            .map(|c| c.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                let ps = params
                    .iter()
                    .map(|p| p.display(name_of))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("{cps}({ps}) -> {}", ret.display(name_of))
            }
            Con::Record(fs) if fs.is_empty() => "unit".into(),
            Con::Record(fs) => {
                let inner = fs
                    .iter()
                    .map(|f| f.display(name_of))
                    .collect::<Vec<_>>()
                    .join(" * ");
                format!("{{{inner}}}")
            }
            Con::Array(t) => format!("({}) array", t.display(name_of)),
            Con::SpecArray(t) => format!("({}) spec_array", t.display(name_of)),
            Con::Data(id, args) => {
                let name = name_of(*id);
                if args.is_empty() {
                    name.to_string()
                } else {
                    let inner = args
                        .iter()
                        .map(|a| a.display(name_of))
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!("({inner}) {name}")
                }
            }
            Con::Typecase {
                scrut,
                int,
                float,
                ptr,
            } => format!(
                "Typecase {} of int => {} | float => {} | ptr => {}",
                scrut.display(name_of),
                int.display(name_of),
                float.display(name_of),
                ptr.display(name_of)
            ),
        }
    }
}

/// Alpha-aware constructor equality (the `Arrow` binder is the only
/// binding form).
pub fn con_eq(a: &Con, b: &Con) -> bool {
    fn go(a: &Con, b: &Con, env: &mut Vec<(CVar, CVar)>) -> bool {
        match (a, b) {
            (Con::Var(x), Con::Var(y)) => {
                for (bx, by) in env.iter().rev() {
                    if bx == x || by == y {
                        return bx == x && by == y;
                    }
                }
                x == y
            }
            (Con::Int, Con::Int)
            | (Con::Float, Con::Float)
            | (Con::Boxed, Con::Boxed)
            | (Con::Str, Con::Str)
            | (Con::Exn, Con::Exn) => true,
            (
                Con::Arrow {
                    cparams: c1,
                    params: p1,
                    ret: r1,
                },
                Con::Arrow {
                    cparams: c2,
                    params: p2,
                    ret: r2,
                },
            ) => {
                if c1.len() != c2.len() || p1.len() != p2.len() {
                    return false;
                }
                let n = env.len();
                env.extend(c1.iter().copied().zip(c2.iter().copied()));
                let ok = p1.iter().zip(p2).all(|(x, y)| go(x, y, env)) && go(r1, r2, env);
                env.truncate(n);
                ok
            }
            (Con::Record(f1), Con::Record(f2)) => {
                f1.len() == f2.len() && f1.iter().zip(f2).all(|(x, y)| go(x, y, env))
            }
            (Con::Array(x), Con::Array(y)) | (Con::SpecArray(x), Con::SpecArray(y)) => {
                go(x, y, env)
            }
            (Con::Data(i1, a1), Con::Data(i2, a2)) => {
                i1 == i2
                    && a1.len() == a2.len()
                    && a1.iter().zip(a2).all(|(x, y)| go(x, y, env))
            }
            (
                Con::Typecase {
                    scrut: s1,
                    int: i1,
                    float: f1,
                    ptr: p1,
                },
                Con::Typecase {
                    scrut: s2,
                    int: i2,
                    float: f2,
                    ptr: p2,
                },
            ) => go(s1, s2, env) && go(i1, i2, env) && go(f1, f2, env) && go(p1, p2, env),
            _ => false,
        }
    }
    go(a, b, &mut Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_enum(_: DataId) -> bool {
        false
    }

    #[test]
    fn typecase_con_reduces_on_ground_scrutinee() {
        let tc = Con::Typecase {
            scrut: Box::new(Con::Int),
            int: Box::new(Con::Str),
            float: Box::new(Con::Exn),
            ptr: Box::new(Con::unit()),
        };
        assert_eq!(tc.normalize(&no_enum), Con::Str);
    }

    #[test]
    fn typecase_con_stuck_on_variable() {
        let v = CVar(0);
        let tc = Con::Typecase {
            scrut: Box::new(Con::Var(v)),
            int: Box::new(Con::Int),
            float: Box::new(Con::Float),
            ptr: Box::new(Con::Str),
        };
        assert!(matches!(tc.normalize(&no_enum), Con::Typecase { .. }));
        // Substituting a ground type then normalizing reduces; a boxed
        // float selects the *float* arm (rep_tag semantics).
        let mut m = HashMap::new();
        m.insert(v, Con::Boxed);
        assert_eq!(tc.subst(&m).normalize(&no_enum), Con::Float);
        let mut m2 = HashMap::new();
        m2.insert(v, Con::Str);
        assert_eq!(tc.subst(&m2).normalize(&no_enum), Con::Str);
    }

    #[test]
    fn alpha_equality_of_polymorphic_arrows() {
        let a = CVar(1);
        let b = CVar(2);
        let f1 = Con::Arrow {
            cparams: vec![a],
            params: vec![Con::Var(a)],
            ret: Box::new(Con::Var(a)),
        };
        let f2 = Con::Arrow {
            cparams: vec![b],
            params: vec![Con::Var(b)],
            ret: Box::new(Con::Var(b)),
        };
        assert!(con_eq(&f1, &f2));
        let f3 = Con::Arrow {
            cparams: vec![b],
            params: vec![Con::Var(b)],
            ret: Box::new(Con::Int),
        };
        assert!(!con_eq(&f1, &f3));
    }

    #[test]
    fn rep_class_matches_paper_cases() {
        assert_eq!(rep_class(&Con::Int, &no_enum), RepClass::Int);
        assert_eq!(rep_class(&Con::Float, &no_enum), RepClass::Float);
        assert_eq!(rep_class(&Con::Boxed, &no_enum), RepClass::Ptr);
        assert_eq!(rep_class(&Con::Var(CVar(9)), &no_enum), RepClass::Unknown);
        assert_eq!(
            rep_class(&Con::Data(DataId::BOOL, vec![]), &|_| true),
            RepClass::Int
        );
        assert_eq!(
            rep_class(&Con::Data(DataId::LIST, vec![Con::Int]), &no_enum),
            RepClass::Ptr
        );
    }

    #[test]
    fn subst_respects_binders() {
        let a = CVar(5);
        let inner = Con::Arrow {
            cparams: vec![a],
            params: vec![Con::Var(a)],
            ret: Box::new(Con::Var(a)),
        };
        let mut m = HashMap::new();
        m.insert(a, Con::Int);
        // The bound occurrence must not be substituted.
        assert!(con_eq(&inner.subst(&m), &inner));
    }

    #[test]
    fn free_cvars_skips_bound() {
        let a = CVar(1);
        let b = CVar(2);
        let c = Con::Arrow {
            cparams: vec![a],
            params: vec![Con::Var(a), Con::Var(b)],
            ret: Box::new(Con::Int),
        };
        let mut out = Vec::new();
        c.free_cvars(&mut out);
        assert_eq!(out, vec![b]);
    }
}

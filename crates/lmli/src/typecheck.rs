//! The Lmli typechecker.
//!
//! The interesting rule is `typecase` (paper §2.1): when the scrutinee
//! is a constructor variable, each arm is checked under a *refinement*
//! of that variable — `Int` in the int arm, `Boxed` in the float arm
//! (real values travel boxed), and an abstract "some pointer type" in
//! the ptr arm. Refinements drive normalization: `SpecArray(a)` reduces
//! to `Array(Float)` once `a` is refined to `Boxed`, which is what lets
//! the specialized float-array primitives typecheck inside the float
//! arm. Constructor equality is alpha-equality of refined normal forms,
//! keeping the system decidable as the paper requires.

use crate::con::{con_eq, rep_tag, CVar, Con, RepClass};
use crate::data::{DataRep, MDataEnv, MExnEnv};
use crate::exp::{MExp, MFun, MProgram, MSwitch};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use til_common::{Diagnostic, Result, Var};

const PHASE: &str = "lmli-typecheck";

/// A refinement of a constructor variable inside a typecase arm.
#[derive(Clone, Debug)]
pub enum Refinement {
    /// The variable is exactly this constructor.
    Exact(Con),
    /// The variable is *some* pointer type (ptr arm).
    PtrClass,
}

/// Typechecks a whole Lmli program, returning its constructor.
pub fn typecheck_lmli(prog: &MProgram) -> Result<Con> {
    let mut tc = Tc {
        data: &prog.data,
        exns: &prog.exns,
        vars: HashMap::new(),
        cscope: Vec::new(),
        cx: ConCtx::new(&prog.data),
        hole: None,
        captured: None,
    };
    let con = tc.check(&prog.body)?;
    if !tc.eq(&con, &prog.con) {
        return Err(err(format!(
            "program body constructor mismatch: computed {:?}, recorded {:?}",
            con, prog.con
        )));
    }
    Ok(con)
}

/// The Lmli typing environment in scope at the prelude skeleton's
/// splice hole (the hole sits at the top level, outside every
/// constructor binder, so the variable environment is the whole
/// context). Produced by [`typecheck_lmli_prelude`], consumed by
/// [`typecheck_lmli_fragment`].
pub struct FragmentTcEnv {
    vars: HashMap<Var, Con>,
}

/// Typechecks the prelude skeleton (innermost body = the free
/// unit-typed variable `hole`), capturing the environment at the hole.
pub fn typecheck_lmli_prelude(prog: &MProgram, hole: Var) -> Result<FragmentTcEnv> {
    let mut tc = Tc {
        data: &prog.data,
        exns: &prog.exns,
        vars: HashMap::new(),
        cscope: Vec::new(),
        cx: ConCtx::new(&prog.data),
        hole: Some(hole),
        captured: None,
    };
    let con = tc.check(&prog.body)?;
    if !tc.eq(&con, &prog.con) {
        return Err(err(format!(
            "prelude skeleton constructor mismatch: computed {:?}, recorded {:?}",
            con, prog.con
        )));
    }
    let vars = tc
        .captured
        .ok_or_else(|| err(format!("prelude skeleton never reached its hole {hole}")))?;
    Ok(FragmentTcEnv { vars })
}

/// Typechecks a user fragment under the captured prelude environment.
/// `prog` carries the joined datatype/exception environments and the
/// fragment as its body.
pub fn typecheck_lmli_fragment(prog: &MProgram, env: &FragmentTcEnv) -> Result<Con> {
    let mut tc = Tc {
        data: &prog.data,
        exns: &prog.exns,
        vars: env.vars.clone(),
        cscope: Vec::new(),
        cx: ConCtx::new(&prog.data),
        hole: None,
        captured: None,
    };
    let con = tc.check(&prog.body)?;
    if !tc.eq(&con, &prog.con) {
        return Err(err(format!(
            "fragment body constructor mismatch: computed {:?}, recorded {:?}",
            con, prog.con
        )));
    }
    Ok(con)
}

fn err(msg: String) -> Diagnostic {
    Diagnostic::ice(PHASE, msg)
}

/// Reusable refined-normalization context, shared by the Lmli and
/// Bform typecheckers.
pub struct ConCtx<'a> {
    /// Datatype representations.
    pub data: &'a MDataEnv,
    /// Active typecase refinements.
    pub refine: HashMap<CVar, Refinement>,
}

impl<'a> ConCtx<'a> {
    /// A context with no refinements.
    pub fn new(data: &'a MDataEnv) -> ConCtx<'a> {
        ConCtx {
            data,
            refine: HashMap::new(),
        }
    }

    /// Refined representation tag.
    pub fn tag_of(&self, c: &Con) -> RepClass {
        match c {
            Con::Var(v) => match self.refine.get(v) {
                Some(Refinement::PtrClass) => RepClass::Ptr,
                Some(Refinement::Exact(e)) => self.tag_of(e),
                None => RepClass::Unknown,
            },
            other => rep_tag(other, &|id| self.data.is_enum(id)),
        }
    }

    /// Refined normalization.
    pub fn norm(&self, c: &Con) -> Con {
        self.norm_cow(c).into_owned()
    }

    /// Refined normalization that borrows `c` when it is already in
    /// normal form: only a refinement, a `SpecArray` or a `Typecase`
    /// that actually rewrites allocates.
    pub fn norm_cow<'c>(&self, c: &'c Con) -> Cow<'c, Con> {
        match c {
            Con::Var(v) => match self.refine.get(v) {
                Some(Refinement::Exact(e)) => Cow::Owned(self.norm(e)),
                _ => Cow::Borrowed(c),
            },
            Con::Int | Con::Float | Con::Boxed | Con::Str | Con::Exn => Cow::Borrowed(c),
            Con::Arrow {
                cparams,
                params,
                ret,
            } => {
                let nparams = self.norm_all(params);
                let nret = self.norm_cow(ret);
                if nparams.is_none() && matches!(nret, Cow::Borrowed(_)) {
                    return Cow::Borrowed(c);
                }
                Cow::Owned(Con::Arrow {
                    cparams: cparams.clone(),
                    params: nparams.unwrap_or_else(|| params.clone()),
                    ret: Box::new(nret.into_owned()),
                })
            }
            Con::Record(fs) => match self.norm_all(fs) {
                Some(fs) => Cow::Owned(Con::Record(fs)),
                None => Cow::Borrowed(c),
            },
            Con::Array(t) => match self.norm_cow(t) {
                Cow::Owned(t) => Cow::Owned(Con::Array(Box::new(t))),
                Cow::Borrowed(_) => Cow::Borrowed(c),
            },
            Con::SpecArray(t) => {
                let elem = self.norm_cow(t);
                match self.tag_of(&elem) {
                    RepClass::Float => Cow::Owned(Con::Array(Box::new(Con::Float))),
                    RepClass::Int | RepClass::Ptr => {
                        Cow::Owned(Con::Array(Box::new(elem.into_owned())))
                    }
                    RepClass::Unknown => match elem {
                        Cow::Owned(e) => Cow::Owned(Con::SpecArray(Box::new(e))),
                        Cow::Borrowed(_) => Cow::Borrowed(c),
                    },
                }
            }
            Con::Data(id, args) => match self.norm_all(args) {
                Some(args) => Cow::Owned(Con::Data(*id, args)),
                None => Cow::Borrowed(c),
            },
            Con::Typecase {
                scrut,
                int,
                float,
                ptr,
            } => {
                let s = self.norm_cow(scrut);
                match self.tag_of(&s) {
                    RepClass::Int => self.norm_cow(int),
                    RepClass::Float => self.norm_cow(float),
                    RepClass::Ptr => self.norm_cow(ptr),
                    RepClass::Unknown => {
                        let i = self.norm_cow(int);
                        let f = self.norm_cow(float);
                        let p = self.norm_cow(ptr);
                        let borrowed = |x: &Cow<Con>| matches!(x, Cow::Borrowed(_));
                        if borrowed(&s) && borrowed(&i) && borrowed(&f) && borrowed(&p) {
                            return Cow::Borrowed(c);
                        }
                        Cow::Owned(Con::Typecase {
                            scrut: Box::new(s.into_owned()),
                            int: Box::new(i.into_owned()),
                            float: Box::new(f.into_owned()),
                            ptr: Box::new(p.into_owned()),
                        })
                    }
                }
            }
        }
    }

    /// Normalizes every element; `None` when all are already normal.
    fn norm_all(&self, cs: &[Con]) -> Option<Vec<Con>> {
        for (i, c) in cs.iter().enumerate() {
            if let Cow::Owned(n) = self.norm_cow(c) {
                let mut out = Vec::with_capacity(cs.len());
                out.extend_from_slice(&cs[..i]);
                out.push(n);
                out.extend(cs[i + 1..].iter().map(|c| self.norm(c)));
                return Some(out);
            }
        }
        None
    }

    /// Equality of refined normal forms. Syntactically equal
    /// constructors have equal normal forms, so they skip normalizing.
    pub fn eq(&self, a: &Con, b: &Con) -> bool {
        a == b || con_eq(&self.norm_cow(a), &self.norm_cow(b))
    }

    /// Requires `got` to equal `want`, reporting `what` otherwise.
    /// `what` is rendered only on failure.
    pub fn expect(&self, what: impl fmt::Display, got: &Con, want: &Con) -> Result<()> {
        if self.eq(got, want) {
            Ok(())
        } else {
            Err(err(format!(
                "{what}: expected {:?}, got {:?}",
                self.norm(want),
                self.norm(got)
            )))
        }
    }
}

struct Tc<'a> {
    data: &'a MDataEnv,
    exns: &'a MExnEnv,
    vars: HashMap<Var, Con>,
    cscope: Vec<CVar>,
    cx: ConCtx<'a>,
    /// The prelude skeleton's splice hole, when checking a skeleton.
    hole: Option<Var>,
    /// Environment snapshot taken at the hole (it sits at the top
    /// level, so no constructor variables or refinements are live).
    captured: Option<HashMap<Var, Con>>,
}

impl<'a> Tc<'a> {
    fn tag_of(&self, c: &Con) -> RepClass {
        self.cx.tag_of(c)
    }

    fn norm(&self, c: &Con) -> Con {
        self.cx.norm(c)
    }

    fn eq(&self, a: &Con, b: &Con) -> bool {
        self.cx.eq(a, b)
    }

    fn expect(&self, what: impl fmt::Display, got: &Con, want: &Con) -> Result<()> {
        self.cx.expect(what, got, want)
    }

    fn scope_check(&self, c: &Con) -> Result<()> {
        let mut free = Vec::new();
        c.free_cvars(&mut free);
        for v in free {
            if !self.cscope.contains(&v) {
                return Err(err(format!("constructor variable {v} out of scope")));
            }
        }
        Ok(())
    }

    fn bind(&mut self, v: Var, c: Con) -> Option<Con> {
        self.vars.insert(v, c)
    }

    fn unbind(&mut self, v: Var, old: Option<Con>) {
        match old {
            Some(c) => {
                self.vars.insert(v, c);
            }
            None => {
                self.vars.remove(&v);
            }
        }
    }

    fn check(&mut self, e: &MExp) -> Result<Con> {
        match e {
            MExp::Var(v) => {
                if self.hole == Some(*v) {
                    if self.captured.is_none() {
                        self.captured = Some(self.vars.clone());
                    }
                    return Ok(Con::Record(vec![]));
                }
                self.vars
                    .get(v)
                    .cloned()
                    .ok_or_else(|| err(format!("unbound variable {v}")))
            }
            MExp::Int(_) => Ok(Con::Int),
            MExp::Float(_) => Ok(Con::Float),
            MExp::Str(_) => Ok(Con::Str),
            MExp::Fix { funs, body } => {
                let mut saved = Vec::new();
                for f in funs {
                    saved.push((f.var, self.bind(f.var, f.con())));
                }
                for f in funs {
                    self.check_fun(f)?;
                }
                let out = self.check(body)?;
                for (v, old) in saved.into_iter().rev() {
                    self.unbind(v, old);
                }
                Ok(out)
            }
            MExp::App { f, cargs, args } => {
                let fcon = self.check(f)?;
                let Con::Arrow {
                    cparams,
                    params,
                    ret,
                } = self.norm(&fcon)
                else {
                    return Err(err(format!(
                        "application of non-function constructor {:?}",
                        self.norm(&fcon)
                    )));
                };
                if cparams.len() != cargs.len() {
                    return Err(err(format!(
                        "type-argument arity mismatch: {} vs {}",
                        cargs.len(),
                        cparams.len()
                    )));
                }
                for c in cargs {
                    self.scope_check(c)?;
                }
                let map: HashMap<CVar, Con> = cparams
                    .iter()
                    .copied()
                    .zip(cargs.iter().cloned())
                    .collect();
                if params.len() != args.len() {
                    return Err(err(format!(
                        "argument arity mismatch: {} vs {}",
                        args.len(),
                        params.len()
                    )));
                }
                for (a, p) in args.iter().zip(&params) {
                    let got = self.check(a)?;
                    let want = p.subst(&map);
                    self.expect("application argument", &got, &want)?;
                }
                Ok(ret.subst(&map))
            }
            MExp::Let { var, rhs, body } => {
                let rcon = self.check(rhs)?;
                let old = self.bind(*var, rcon);
                let out = self.check(body)?;
                self.unbind(*var, old);
                Ok(out)
            }
            MExp::Record(fs) => {
                let mut cons = Vec::with_capacity(fs.len());
                for f in fs {
                    cons.push(self.check(f)?);
                }
                Ok(Con::Record(cons))
            }
            MExp::Select(i, e) => {
                let c = self.check(e)?;
                match self.norm(&c) {
                    Con::Record(fs) if *i < fs.len() => Ok(fs[*i].clone()),
                    other => Err(err(format!(
                        "selection #{i} from non-record constructor {other:?}"
                    ))),
                }
            }
            MExp::Con {
                data,
                cargs,
                tag,
                args,
            } => {
                let md = self.data.get(*data);
                if md.is_enum() {
                    return Err(err("constructor node for enum datatype".into()));
                }
                match md.fields_at(*tag, cargs) {
                    None => {
                        if !args.is_empty() {
                            return Err(err("nullary constructor with arguments".into()));
                        }
                    }
                    Some(fields) => {
                        if fields.len() != args.len() {
                            return Err(err(format!(
                                "constructor field arity: {} vs {}",
                                args.len(),
                                fields.len()
                            )));
                        }
                        for (a, want) in args.iter().zip(&fields) {
                            let got = self.check(a)?;
                            self.expect("constructor field", &got, want)?;
                        }
                    }
                }
                Ok(Con::Data(*data, cargs.clone()))
            }
            MExp::ExnCon { exn, arg } => {
                match (self.exns.arg(*exn).cloned(), arg) {
                    (None, None) => {}
                    (Some(want), Some(a)) => {
                        let got = self.check(a)?;
                        self.expect("exception argument", &got, &want)?;
                    }
                    _ => return Err(err("exception argument arity mismatch".into())),
                }
                Ok(Con::Exn)
            }
            MExp::Switch(sw) => self.check_switch(sw),
            MExp::Raise { exn, con } => {
                let got = self.check(exn)?;
                self.expect("raise operand", &got, &Con::Exn)?;
                Ok(con.clone())
            }
            MExp::Handle { body, var, handler } => {
                let bcon = self.check(body)?;
                let old = self.bind(*var, Con::Exn);
                let hcon = self.check(handler)?;
                self.unbind(*var, old);
                self.expect("handler", &hcon, &bcon)?;
                Ok(bcon)
            }
            MExp::Prim { prim, cargs, args } => {
                // `length` is representation-independent: it accepts any
                // array constructor, specialized or not.
                if matches!(prim, crate::prim::MPrim::ALen) {
                    if args.len() != 1 {
                        return Err(err("length arity mismatch".into()));
                    }
                    let got = self.check(&args[0])?;
                    return match self.norm(&got) {
                        Con::Array(_) | Con::SpecArray(_) => Ok(Con::Int),
                        other => Err(err(format!(
                            "length of non-array constructor {other:?}"
                        ))),
                    };
                }
                let sig = prim.sig();
                if sig.cparams != cargs.len() {
                    return Err(err(format!(
                        "primitive {prim} type-arity: {} vs {}",
                        cargs.len(),
                        sig.cparams
                    )));
                }
                if sig.args.len() != args.len() {
                    return Err(err(format!(
                        "primitive {prim} arity: {} vs {}",
                        args.len(),
                        sig.args.len()
                    )));
                }
                let map: HashMap<CVar, Con> = (0..sig.cparams)
                    .map(|i| (CVar(i as u32), cargs[i].clone()))
                    .collect();
                for (a, want) in args.iter().zip(&sig.args) {
                    let got = self.check(a)?;
                    let want = want.subst(&map);
                    self.expect(format_args!("argument of {prim}"), &got, &want)?;
                }
                Ok(sig.ret.subst(&map))
            }
            MExp::Typecase {
                scrut,
                int,
                float,
                ptr,
                con,
            } => {
                let s = self.norm(scrut);
                match self.tag_of(&s) {
                    RepClass::Int => {
                        let got = self.check(int)?;
                        self.expect("typecase int arm", &got, con)?;
                        Ok(con.clone())
                    }
                    RepClass::Float => {
                        let got = self.check(float)?;
                        self.expect("typecase float arm", &got, con)?;
                        Ok(con.clone())
                    }
                    RepClass::Ptr => {
                        let got = self.check(ptr)?;
                        self.expect("typecase ptr arm", &got, con)?;
                        Ok(con.clone())
                    }
                    RepClass::Unknown => {
                        let Con::Var(v) = s else {
                            return Err(err(format!(
                                "typecase on irreducible non-variable constructor {s:?}"
                            )));
                        };
                        let old = self.cx.refine.insert(v, Refinement::Exact(Con::Int));
                        let got = self.check(int)?;
                        self.expect("typecase int arm", &got, con)?;
                        // Float arm: real values are boxed.
                        self.cx.refine.insert(v, Refinement::Exact(Con::Boxed));
                        let got = self.check(float)?;
                        self.expect("typecase float arm", &got, con)?;
                        // Ptr arm: abstract pointer class.
                        self.cx.refine.insert(v, Refinement::PtrClass);
                        let got = self.check(ptr)?;
                        self.expect("typecase ptr arm", &got, con)?;
                        match old {
                            Some(r) => {
                                self.cx.refine.insert(v, r);
                            }
                            None => {
                                self.cx.refine.remove(&v);
                            }
                        }
                        Ok(con.clone())
                    }
                }
            }
        }
    }

    fn check_fun(&mut self, f: &MFun) -> Result<()> {
        let n = self.cscope.len();
        self.cscope.extend_from_slice(&f.cparams);
        let mut saved = Vec::new();
        for (v, c) in &f.params {
            self.scope_check(c)?;
            saved.push((*v, self.bind(*v, c.clone())));
        }
        let got = self.check(&f.body)?;
        self.expect(format_args!("body of {}", f.var), &got, &f.ret)?;
        for (v, old) in saved.into_iter().rev() {
            self.unbind(v, old);
        }
        self.cscope.truncate(n);
        Ok(())
    }

    fn check_switch(&mut self, sw: &MSwitch) -> Result<Con> {
        match sw {
            MSwitch::Int {
                scrut,
                arms,
                default,
                con,
            } => {
                let got = self.check(scrut)?;
                self.expect("int switch scrutinee", &got, &Con::Int)?;
                for (_, a) in arms {
                    let ac = self.check(a)?;
                    self.expect("int switch arm", &ac, con)?;
                }
                let dc = self.check(default)?;
                self.expect("int switch default", &dc, con)?;
                Ok(con.clone())
            }
            MSwitch::Data {
                scrut,
                data,
                cargs,
                arms,
                default,
                con,
            } => {
                let got = self.check(scrut)?;
                self.expect(
                    "data switch scrutinee",
                    &got,
                    &Con::Data(*data, cargs.clone()),
                )?;
                let md = self.data.get(*data).clone();
                if matches!(md.rep, DataRep::Enum) {
                    return Err(err("data switch on enum datatype".into()));
                }
                let mut covered = vec![false; md.cons.len()];
                for (tag, binders, arm) in arms {
                    covered[*tag] = true;
                    let fields = md.fields_at(*tag, cargs);
                    let mut saved = Vec::new();
                    match fields {
                        None => {
                            if !binders.is_empty() {
                                return Err(err("binders on nullary arm".into()));
                            }
                        }
                        Some(fs) => {
                            if fs.len() != binders.len() {
                                return Err(err(format!(
                                    "arm binder arity: {} vs {}",
                                    binders.len(),
                                    fs.len()
                                )));
                            }
                            for (v, c) in binders.iter().zip(fs) {
                                saved.push((*v, self.bind(*v, c)));
                            }
                        }
                    }
                    let ac = self.check(arm)?;
                    for (v, old) in saved.into_iter().rev() {
                        self.unbind(v, old);
                    }
                    self.expect("data switch arm", &ac, con)?;
                }
                match default {
                    Some(d) => {
                        let dc = self.check(d)?;
                        self.expect("data switch default", &dc, con)?;
                    }
                    None => {
                        if covered.iter().any(|c| !c) {
                            return Err(err(
                                "non-exhaustive data switch without default".into(),
                            ));
                        }
                    }
                }
                Ok(con.clone())
            }
            MSwitch::Str {
                scrut,
                arms,
                default,
                con,
            } => {
                let got = self.check(scrut)?;
                self.expect("string switch scrutinee", &got, &Con::Str)?;
                for (_, a) in arms {
                    let ac = self.check(a)?;
                    self.expect("string switch arm", &ac, con)?;
                }
                let dc = self.check(default)?;
                self.expect("string switch default", &dc, con)?;
                Ok(con.clone())
            }
            MSwitch::Exn {
                scrut,
                arms,
                default,
                con,
            } => {
                let got = self.check(scrut)?;
                self.expect("exn switch scrutinee", &got, &Con::Exn)?;
                for (id, binder, a) in arms {
                    let argc = self.exns.arg(*id).cloned();
                    let saved = match (binder, argc) {
                        (Some(v), Some(c)) => Some((*v, self.bind(*v, c))),
                        (None, _) => None,
                        (Some(_), None) => {
                            return Err(err("binder on constant exception arm".into()))
                        }
                    };
                    let ac = self.check(a)?;
                    if let Some((v, old)) = saved {
                        self.unbind(v, old);
                    }
                    self.expect("exn switch arm", &ac, con)?;
                }
                let dc = self.check(default)?;
                self.expect("exn switch default", &dc, con)?;
                Ok(con.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prim::MPrim;

    fn prog(body: MExp, con: Con) -> MProgram {
        MProgram {
            data: MDataEnv::new(),
            exns: MExnEnv::new(),
            body,
            con,
        }
    }

    #[test]
    fn literals() {
        assert!(typecheck_lmli(&prog(MExp::Int(1), Con::Int)).is_ok());
        assert!(typecheck_lmli(&prog(MExp::Float(1.0), Con::Float)).is_ok());
        assert!(typecheck_lmli(&prog(MExp::Int(1), Con::Float)).is_err());
    }

    #[test]
    fn box_unbox_roundtrip_types() {
        let boxed = MExp::Prim {
            prim: MPrim::BoxFloat,
            cargs: vec![],
            args: vec![MExp::Float(1.5)],
        };
        let unboxed = MExp::Prim {
            prim: MPrim::UnboxFloat,
            cargs: vec![],
            args: vec![boxed],
        };
        assert!(typecheck_lmli(&prog(unboxed, Con::Float)).is_ok());
    }

    #[test]
    fn polymorphic_identity_applies() {
        let mut vs = til_common::VarSupply::new();
        let mut cs = crate::con::CVarSupply::new();
        let a = cs.fresh();
        let id = vs.fresh_named("id");
        let x = vs.fresh_named("x");
        let body = MExp::Fix {
            funs: vec![MFun {
                var: id,
                cparams: vec![a],
                params: vec![(x, Con::Var(a))],
                ret: Con::Var(a),
                body: MExp::Var(x),
            }],
            body: Box::new(MExp::App {
                f: Box::new(MExp::Var(id)),
                cargs: vec![Con::Int],
                args: vec![MExp::Int(7)],
            }),
        };
        assert!(typecheck_lmli(&prog(body, Con::Int)).is_ok());
    }

    #[test]
    fn typecase_refines_each_arm() {
        // The paper's `sub` example: each arm uses the specialized
        // subscript for its representation, all at result type `a`.
        let mut vs = til_common::VarSupply::new();
        let mut cs = crate::con::CVarSupply::new();
        let a = cs.fresh();
        let f = vs.fresh_named("sub");
        let x = vs.fresh_named("x");
        let arr = vs.fresh_named("arr");
        let body = MExp::Typecase {
            scrut: Con::Var(a),
            int: Box::new(MExp::Prim {
                prim: MPrim::IASub,
                cargs: vec![],
                args: vec![MExp::Var(arr), MExp::Int(0)],
            }),
            float: Box::new(MExp::Prim {
                prim: MPrim::BoxFloat,
                cargs: vec![],
                args: vec![MExp::Prim {
                    prim: MPrim::FASub,
                    cargs: vec![],
                    args: vec![MExp::Var(arr), MExp::Int(0)],
                }],
            }),
            ptr: Box::new(MExp::Prim {
                prim: MPrim::PASub,
                cargs: vec![Con::Var(a)],
                args: vec![MExp::Var(arr), MExp::Int(0)],
            }),
            con: Con::Var(a),
        };
        let fix = MExp::Fix {
            funs: vec![MFun {
                var: f,
                cparams: vec![a],
                params: vec![
                    (x, Con::Var(a)),
                    (arr, Con::SpecArray(Box::new(Con::Var(a)))),
                ],
                ret: Con::Var(a),
                body,
            }],
            body: Box::new(MExp::Int(0)),
        };
        typecheck_lmli(&prog(fix, Con::Int)).unwrap();
    }

    #[test]
    fn typecase_wrong_arm_type_rejected() {
        let mut cs = crate::con::CVarSupply::new();
        let a = cs.fresh();
        let mut vs = til_common::VarSupply::new();
        let f = vs.fresh();
        let x = vs.fresh();
        // The int arm returns a raw float where `a` (= int) is expected.
        let body = MExp::Typecase {
            scrut: Con::Var(a),
            int: Box::new(MExp::Float(0.0)),
            float: Box::new(MExp::Var(x)),
            ptr: Box::new(MExp::Var(x)),
            con: Con::Var(a),
        };
        let fix = MExp::Fix {
            funs: vec![MFun {
                var: f,
                cparams: vec![a],
                params: vec![(x, Con::Var(a))],
                ret: Con::Var(a),
                body,
            }],
            body: Box::new(MExp::Int(0)),
        };
        assert!(typecheck_lmli(&prog(fix, Con::Int)).is_err());
    }

    #[test]
    fn escaping_cvar_is_rejected() {
        let mut cs = crate::con::CVarSupply::new();
        let a = cs.fresh();
        let mut vs = til_common::VarSupply::new();
        let f = vs.fresh();
        let x = vs.fresh();
        let fix = MExp::Fix {
            funs: vec![MFun {
                var: f,
                cparams: vec![],
                params: vec![(x, Con::Var(a))],
                ret: Con::Var(a),
                body: MExp::Var(x),
            }],
            body: Box::new(MExp::Int(0)),
        };
        assert!(typecheck_lmli(&prog(fix, Con::Int)).is_err());
    }

    #[test]
    fn ground_typecase_checks_only_live_arm() {
        // Scrutinee is ground Int: the float/ptr arms may be ill-typed
        // garbage (they are unreachable and will be folded away).
        let tc = MExp::Typecase {
            scrut: Con::Int,
            int: Box::new(MExp::Int(1)),
            float: Box::new(MExp::Str("dead".into())),
            ptr: Box::new(MExp::Str("dead".into())),
            con: Con::Int,
        };
        assert!(typecheck_lmli(&prog(tc, Con::Int)).is_ok());
    }
}

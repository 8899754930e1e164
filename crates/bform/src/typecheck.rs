//! The Bform typechecker: the Lmli rules restricted to A-normal form,
//! plus the Bform structural invariant that every binder is globally
//! unique (the optimizer depends on it).
//!
//! The checker runs after every optimizer pass, so a successful check
//! allocates little: binders live in a table indexed by variable id,
//! atoms are looked up by reference, constructors are normalized by
//! borrowing, and diagnostic context strings are built only on failure.

use crate::ir::{Atom, BExp, BFun, BProgram, BRhs, BSwitch};
use std::borrow::Cow;
use std::collections::HashMap;
use til_common::{Diagnostic, Result, Var};
use til_lmli::con::{CVar, Con, RepClass};
use til_lmli::data::{DataRep, MDataEnv, MExnEnv};
use til_lmli::prim::MPrim;
use til_lmli::typecheck::{ConCtx, Refinement};

const PHASE: &str = "bform-typecheck";

fn err(msg: String) -> Diagnostic {
    Diagnostic::ice(PHASE, msg)
}

/// Typechecks a Bform program and returns the constructor of every
/// bound variable (used by closure conversion to type captures).
pub fn infer_var_cons(p: &BProgram) -> Result<HashMap<Var, Con>> {
    let mut tc = Tc::new(p);
    tc.exp(&p.body)?;
    Ok(tc.vars.bound.into_iter().collect())
}

/// Typechecks a Bform program, returning its constructor.
pub fn typecheck_bform(p: &BProgram) -> Result<Con> {
    let mut tc = Tc::new(p);
    let con = tc.exp(&p.body)?;
    if !tc.cx.eq(&con, &p.con) {
        return Err(err(format!(
            "program body constructor mismatch: computed {con:?}, recorded {:?}",
            p.con
        )));
    }
    Ok(con)
}

static INT: Con = Con::Int;

/// Every binder seen so far, indexed by `Var::id()`. Ids come from one
/// supply per compilation, so an id names exactly one variable; the
/// index holds 4 bytes per id up to the largest id bound, and the
/// constructors sit densely in binding order.
#[derive(Default)]
struct Binders {
    slot: Vec<u32>,
    bound: Vec<(Var, Con)>,
}

const UNBOUND: u32 = u32::MAX;

impl Binders {
    fn bind(&mut self, v: Var, c: Con) -> Result<()> {
        let id = v.id() as usize;
        if id >= self.slot.len() {
            self.slot.resize(id + 1, UNBOUND);
        }
        if self.slot[id] != UNBOUND {
            return Err(err(format!("binder {v} is not globally unique")));
        }
        self.slot[id] = self.bound.len() as u32;
        self.bound.push((v, c));
        Ok(())
    }

    fn get(&self, v: Var) -> Option<&Con> {
        match self.slot.get(v.id() as usize) {
            Some(&i) if i != UNBOUND => Some(&self.bound[i as usize].1),
            _ => None,
        }
    }
}

/// `c` with `map` substituted, borrowed when there is nothing to
/// substitute.
fn subst<'c>(c: &'c Con, map: &HashMap<CVar, Con>) -> Cow<'c, Con> {
    if map.is_empty() {
        Cow::Borrowed(c)
    } else {
        Cow::Owned(c.subst(map))
    }
}

struct Tc<'a> {
    exns: &'a MExnEnv,
    vars: Binders,
    cscope: Vec<CVar>,
    cx: ConCtx<'a>,
}

impl<'a> Tc<'a> {
    fn new(p: &'a BProgram) -> Tc<'a> {
        Tc {
            exns: &p.exns,
            vars: Binders::default(),
            cscope: Vec::new(),
            cx: ConCtx::new(&p.data),
        }
    }

    fn data(&self) -> &'a MDataEnv {
        self.cx.data
    }

    fn atom(&self, a: &Atom) -> Result<&Con> {
        match a {
            Atom::Int(_) => Ok(&INT),
            Atom::Var(v) => self
                .vars
                .get(*v)
                .ok_or_else(|| err(format!("unbound variable {v}"))),
        }
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

    fn exp(&mut self, e: &BExp) -> Result<Con> {
        match e {
            BExp::Ret(a) => self.atom(a).cloned(),
            BExp::Let { var, rhs, body } => {
                let c = self.rhs(rhs)?;
                self.vars.bind(*var, c)?;
                self.exp(body)
            }
            BExp::Fix { funs, body } => {
                for f in funs {
                    let c = f.con();
                    self.vars.bind(f.var, c)?;
                }
                for f in funs {
                    self.fun(f)?;
                }
                self.exp(body)
            }
        }
    }

    fn fun(&mut self, f: &BFun) -> Result<()> {
        let n = self.cscope.len();
        self.cscope.extend_from_slice(&f.cparams);
        for (v, c) in &f.params {
            self.scope_check(c)?;
            self.vars.bind(*v, c.clone())?;
        }
        let got = self.exp(&f.body)?;
        self.cx
            .expect(format_args!("body of {}", f.var), &got, &f.ret)?;
        self.cscope.truncate(n);
        Ok(())
    }

    fn rhs(&mut self, r: &BRhs) -> Result<Con> {
        match r {
            BRhs::Atom(a) => self.atom(a).cloned(),
            BRhs::Float(_) => Ok(Con::Float),
            BRhs::Str(_) => Ok(Con::Str),
            BRhs::Record(atoms) => {
                let mut cons = Vec::with_capacity(atoms.len());
                for a in atoms {
                    cons.push(self.atom(a)?.clone());
                }
                Ok(Con::Record(cons))
            }
            BRhs::Select(i, a) => {
                let c = self.atom(a)?;
                match &*self.cx.norm_cow(c) {
                    Con::Record(fs) if *i < fs.len() => Ok(fs[*i].clone()),
                    other => Err(err(format!("selection #{i} from {other:?}"))),
                }
            }
            BRhs::Con {
                data,
                cargs,
                tag,
                args,
            } => {
                let md = self.data().get(*data);
                if md.is_enum() {
                    return Err(err("constructor node for enum datatype".into()));
                }
                match md.fields_at(*tag, cargs) {
                    None => {
                        if !args.is_empty() {
                            return Err(err("nullary constructor with fields".into()));
                        }
                    }
                    Some(fields) => {
                        if fields.len() != args.len() {
                            return Err(err("constructor field arity".into()));
                        }
                        for (a, want) in args.iter().zip(&fields) {
                            let got = self.atom(a)?;
                            self.cx.expect("constructor field", got, want)?;
                        }
                    }
                }
                Ok(Con::Data(*data, cargs.clone()))
            }
            BRhs::ExnCon { exn, arg } => {
                match (self.exns.arg(*exn), arg) {
                    (None, None) => {}
                    (Some(want), Some(a)) => {
                        let got = self.atom(a)?;
                        self.cx.expect("exception argument", got, want)?;
                    }
                    _ => return Err(err("exception argument arity".into())),
                }
                Ok(Con::Exn)
            }
            BRhs::Prim { prim, cargs, args } => {
                if matches!(prim, MPrim::ALen) {
                    let got = self.atom(&args[0])?;
                    return match &*self.cx.norm_cow(got) {
                        Con::Array(_) | Con::SpecArray(_) => Ok(Con::Int),
                        other => Err(err(format!("length of {other:?}"))),
                    };
                }
                let sig = prim.sig();
                if sig.cparams != cargs.len() || sig.args.len() != args.len() {
                    return Err(err(format!("primitive {prim} arity mismatch")));
                }
                let map: HashMap<CVar, Con> = (0..sig.cparams)
                    .map(|i| (CVar(i as u32), cargs[i].clone()))
                    .collect();
                for (a, want) in args.iter().zip(&sig.args) {
                    let got = self.atom(a)?;
                    self.cx
                        .expect(format_args!("argument of {prim}"), got, &subst(want, &map))?;
                }
                Ok(subst(&sig.ret, &map).into_owned())
            }
            BRhs::App { f, cargs, args } => {
                let fcon = self.cx.norm_cow(self.atom(f)?);
                let Con::Arrow {
                    cparams,
                    params,
                    ret,
                } = &*fcon
                else {
                    return Err(err(format!("application of non-function {fcon:?}")));
                };
                if cparams.len() != cargs.len() || params.len() != args.len() {
                    return Err(err("application arity mismatch".into()));
                }
                for c in cargs {
                    self.scope_check(c)?;
                }
                let map: HashMap<CVar, Con> = cparams
                    .iter()
                    .copied()
                    .zip(cargs.iter().cloned())
                    .collect();
                for (a, p) in args.iter().zip(params) {
                    let got = self.atom(a)?;
                    self.cx
                        .expect("application argument", got, &subst(p, &map))?;
                }
                Ok(subst(ret, &map).into_owned())
            }
            BRhs::Raise { exn, con } => {
                let got = self.atom(exn)?;
                self.cx.expect("raise operand", got, &Con::Exn)?;
                Ok(con.clone())
            }
            BRhs::Handle { body, var, handler } => {
                let bcon = self.exp(body)?;
                self.vars.bind(*var, Con::Exn)?;
                let hcon = self.exp(handler)?;
                self.cx.expect("handler", &hcon, &bcon)?;
                Ok(bcon)
            }
            BRhs::Typecase {
                scrut,
                int,
                float,
                ptr,
                con,
            } => {
                let s = self.cx.norm_cow(scrut);
                match self.cx.tag_of(&s) {
                    RepClass::Int => {
                        let got = self.exp(int)?;
                        self.cx.expect("typecase int arm", &got, con)?;
                        Ok(con.clone())
                    }
                    RepClass::Float => {
                        let got = self.exp(float)?;
                        self.cx.expect("typecase float arm", &got, con)?;
                        Ok(con.clone())
                    }
                    RepClass::Ptr => {
                        let got = self.exp(ptr)?;
                        self.cx.expect("typecase ptr arm", &got, con)?;
                        Ok(con.clone())
                    }
                    RepClass::Unknown => {
                        let Con::Var(v) = *s else {
                            return Err(err(format!("typecase on irreducible {s:?}")));
                        };
                        let old = self.cx.refine.insert(v, Refinement::Exact(Con::Int));
                        let got = self.exp(int)?;
                        self.cx.expect("typecase int arm", &got, con)?;
                        self.cx.refine.insert(v, Refinement::Exact(Con::Boxed));
                        let got = self.exp(float)?;
                        self.cx.expect("typecase float arm", &got, con)?;
                        self.cx.refine.insert(v, Refinement::PtrClass);
                        let got = self.exp(ptr)?;
                        self.cx.expect("typecase ptr arm", &got, con)?;
                        match old {
                            Some(o) => {
                                self.cx.refine.insert(v, o);
                            }
                            None => {
                                self.cx.refine.remove(&v);
                            }
                        }
                        Ok(con.clone())
                    }
                }
            }
            BRhs::Switch(sw) => self.switch(sw),
        }
    }

    fn switch(&mut self, sw: &BSwitch) -> Result<Con> {
        match sw {
            BSwitch::Int {
                scrut,
                arms,
                default,
                con,
            } => {
                let got = self.atom(scrut)?;
                self.cx.expect("int switch scrutinee", got, &Con::Int)?;
                for (_, a) in arms {
                    let ac = self.exp(a)?;
                    self.cx.expect("int switch arm", &ac, con)?;
                }
                let dc = self.exp(default)?;
                self.cx.expect("int switch default", &dc, con)?;
                Ok(con.clone())
            }
            BSwitch::Data {
                scrut,
                data,
                cargs,
                arms,
                default,
                con,
            } => {
                let got = self.atom(scrut)?;
                // Syntactic equality implies equality; only a scrutinee
                // that needs normalizing builds the expected constructor.
                if !matches!(got, Con::Data(id, a) if id == data && a == cargs) {
                    self.cx.expect(
                        "data switch scrutinee",
                        got,
                        &Con::Data(*data, cargs.clone()),
                    )?;
                }
                let md = self.data().get(*data);
                if matches!(md.rep, DataRep::Enum) {
                    return Err(err("data switch on enum".into()));
                }
                let mut covered = vec![false; md.cons.len()];
                for (tag, binders, arm) in arms {
                    covered[*tag] = true;
                    match md.fields_at(*tag, cargs) {
                        None => {
                            if !binders.is_empty() {
                                return Err(err("binders on nullary arm".into()));
                            }
                        }
                        Some(fs) => {
                            if fs.len() != binders.len() {
                                return Err(err("arm binder arity".into()));
                            }
                            for (v, c) in binders.iter().zip(fs) {
                                self.vars.bind(*v, c)?;
                            }
                        }
                    }
                    let ac = self.exp(arm)?;
                    self.cx.expect("data switch arm", &ac, con)?;
                }
                match default {
                    Some(d) => {
                        let dc = self.exp(d)?;
                        self.cx.expect("data switch default", &dc, con)?;
                    }
                    None => {
                        if covered.iter().any(|c| !c) {
                            return Err(err("non-exhaustive data switch".into()));
                        }
                    }
                }
                Ok(con.clone())
            }
            BSwitch::Str {
                scrut,
                arms,
                default,
                con,
            } => {
                let got = self.atom(scrut)?;
                self.cx.expect("string switch scrutinee", got, &Con::Str)?;
                for (_, a) in arms {
                    let ac = self.exp(a)?;
                    self.cx.expect("string switch arm", &ac, con)?;
                }
                let dc = self.exp(default)?;
                self.cx.expect("string switch default", &dc, con)?;
                Ok(con.clone())
            }
            BSwitch::Exn {
                scrut,
                arms,
                default,
                con,
            } => {
                let got = self.atom(scrut)?;
                self.cx.expect("exn switch scrutinee", got, &Con::Exn)?;
                let exns = self.exns;
                for (id, binder, a) in arms {
                    match (binder, exns.arg(*id)) {
                        (Some(v), Some(c)) => self.vars.bind(*v, c.clone())?,
                        (None, _) => {}
                        (Some(_), None) => {
                            return Err(err("binder on constant exception".into()))
                        }
                    }
                    let ac = self.exp(a)?;
                    self.cx.expect("exn switch arm", &ac, con)?;
                }
                let dc = self.exp(default)?;
                self.cx.expect("exn switch default", &dc, con)?;
                Ok(con.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use til_common::{Symbol, VarSupply};
    use til_lambda::env::DataId;
    use til_lmli::data::MData;

    fn prog(body: BExp, con: Con) -> BProgram {
        BProgram {
            data: MDataEnv::new(),
            exns: MExnEnv::new(),
            body,
            con,
        }
    }

    fn let_(var: Var, rhs: BRhs, body: BExp) -> BExp {
        BExp::Let {
            var,
            rhs,
            body: Box::new(body),
        }
    }

    /// The exact rendered diagnostic of a program that must not check.
    /// Constructor mismatches come from the shared `ConCtx`, so they
    /// carry the Lmli checker's phase tag.
    fn rejection(p: &BProgram) -> String {
        match typecheck_bform(p) {
            Ok(c) => panic!("ill-typed program accepted at {c:?}"),
            Err(d) => d.to_string(),
        }
    }

    #[test]
    fn unbound_variable_is_named() {
        let mut vs = VarSupply::new();
        let x = vs.fresh_named("x");
        let y = vs.fresh_named("y");
        let ok = prog(
            let_(x, BRhs::Atom(Atom::Int(1)), BExp::Ret(Atom::Var(x))),
            Con::Int,
        );
        assert_eq!(typecheck_bform(&ok).ok(), Some(Con::Int));
        let bad = prog(
            let_(x, BRhs::Atom(Atom::Var(y)), BExp::Ret(Atom::Var(x))),
            Con::Int,
        );
        assert_eq!(
            rejection(&bad),
            "ICE [bform-typecheck]: unbound variable y_1"
        );
    }

    #[test]
    fn duplicate_binder_is_named() {
        let mut vs = VarSupply::new();
        let x = vs.fresh_named("x");
        let body = let_(
            x,
            BRhs::Atom(Atom::Int(1)),
            let_(x, BRhs::Atom(Atom::Int(2)), BExp::Ret(Atom::Var(x))),
        );
        assert_eq!(
            rejection(&prog(body, Con::Int)),
            "ICE [bform-typecheck]: binder x_0 is not globally unique"
        );
    }

    #[test]
    fn prim_argument_mismatch_names_the_prim() {
        let mut vs = VarSupply::new();
        let s = vs.fresh_named("s");
        let r = vs.fresh_named("r");
        let body = let_(
            s,
            BRhs::Str("a".into()),
            let_(
                r,
                BRhs::Prim {
                    prim: MPrim::IAdd,
                    cargs: vec![],
                    args: vec![Atom::Int(1), Atom::Var(s)],
                },
                BExp::Ret(Atom::Var(r)),
            ),
        );
        assert_eq!(
            rejection(&prog(body, Con::Int)),
            "ICE [lmli-typecheck]: argument of iadd: expected Int, got Str"
        );
    }

    fn identity_fun(f: Var, x: Var, ret: Con) -> BFun {
        BFun {
            var: f,
            cparams: vec![],
            params: vec![(x, Con::Int)],
            ret,
            body: BExp::Ret(Atom::Var(x)),
        }
    }

    #[test]
    fn function_body_against_declared_return() {
        let mut vs = VarSupply::new();
        let f = vs.fresh_named("f");
        let x = vs.fresh_named("x");
        let body = BExp::Fix {
            funs: vec![identity_fun(f, x, Con::Str)],
            body: Box::new(BExp::Ret(Atom::Int(0))),
        };
        assert_eq!(
            rejection(&prog(body, Con::Int)),
            "ICE [lmli-typecheck]: body of f_0: expected Str, got Int"
        );
    }

    #[test]
    fn application_arity_is_checked() {
        let mut vs = VarSupply::new();
        let f = vs.fresh_named("f");
        let x = vs.fresh_named("x");
        let r = vs.fresh_named("r");
        let call = |args: Vec<Atom>| BExp::Fix {
            funs: vec![identity_fun(f, x, Con::Int)],
            body: Box::new(let_(
                r,
                BRhs::App {
                    f: Atom::Var(f),
                    cargs: vec![],
                    args,
                },
                BExp::Ret(Atom::Var(r)),
            )),
        };
        assert_eq!(
            typecheck_bform(&prog(call(vec![Atom::Int(1)]), Con::Int)).ok(),
            Some(Con::Int)
        );
        assert_eq!(
            rejection(&prog(call(vec![Atom::Int(1), Atom::Int(2)]), Con::Int)),
            "ICE [bform-typecheck]: application arity mismatch"
        );
    }

    #[test]
    fn data_switch_must_be_exhaustive() {
        // datatype t = A of int | B
        let mut data = MDataEnv::new();
        data.push(MData {
            name: Symbol::intern("t"),
            params: vec![],
            rep: til_lmli::data::DataRep::Tagless,
            cons: vec![Some(vec![Con::Int]), None],
        });
        let t = DataId(0);
        let mut vs = VarSupply::new();
        let d = vs.fresh_named("d");
        let b = vs.fresh_named("b");
        let r = vs.fresh_named("r");
        let switch = |default: Option<Box<BExp>>| {
            let body = let_(
                d,
                BRhs::Con {
                    data: t,
                    cargs: vec![],
                    tag: 0,
                    args: vec![Atom::Int(7)],
                },
                let_(
                    r,
                    BRhs::Switch(BSwitch::Data {
                        scrut: Atom::Var(d),
                        data: t,
                        cargs: vec![],
                        arms: vec![(0, vec![b], BExp::Ret(Atom::Var(b)))],
                        default,
                        con: Con::Int,
                    }),
                    BExp::Ret(Atom::Var(r)),
                ),
            );
            BProgram {
                data: data.clone(),
                exns: MExnEnv::new(),
                body,
                con: Con::Int,
            }
        };
        let total = switch(Some(Box::new(BExp::Ret(Atom::Int(0)))));
        assert_eq!(typecheck_bform(&total).ok(), Some(Con::Int));
        assert_eq!(
            rejection(&switch(None)),
            "ICE [bform-typecheck]: non-exhaustive data switch"
        );
    }
}

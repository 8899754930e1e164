//! The environment-passing simplifier: one traversal implementing the
//! paper's *reduction* optimizations (§3.3) — constant folding (of
//! arithmetic, switches, typecases, and known-record projections), copy
//! propagation, common-subexpression elimination, dead-code
//! elimination, redundant-switch elimination, redundant-comparison
//! elimination (relation propagation + rule-of-signs ranges), inlining
//! of functions called once, and (optionally, scheduled separately from
//! once-inlining) size-bounded inlining of small non-recursive
//! functions. Each sub-optimization is individually toggleable so the
//! Table 7 loop-optimization ablation can disable exactly the paper's
//! loop-oriented set.

use crate::census::{census_with_nests, Census, NestCounts};
use crate::clone::{alpha_clone, splice_ret, subst_cons_exp};
use std::collections::{HashMap, HashSet};
use til_bform::{Atom, BExp, BFun, BProgram, BRhs, BSwitch};
use til_common::{Var, VarSupply};
use til_lambda::DataId;
use til_lmli::con::{Con, RepClass};
use til_lmli::data::MDataEnv;
use til_lmli::prim::MPrim;
use til_lmli::rep_tag;

/// Which sub-optimizations run.
#[derive(Clone, Copy, Debug)]
pub struct SimplifyOpts {
    /// Constant folding / algebraic identities / typecase reduction.
    pub const_fold: bool,
    /// Dead pure bindings and dead functions are removed.
    pub dead_code: bool,
    /// Common-subexpression elimination (loop-oriented; Table 7).
    pub cse: bool,
    /// Inline non-escaping functions called exactly once.
    pub inline_once: bool,
    /// Clone-inline small non-recursive functions. Never enable
    /// together with `inline_once` in the same run.
    pub inline_small: bool,
    /// Size bound for small-function inlining.
    pub max_inline_size: usize,
    /// Propagate switch-arm facts (redundant switch elim; Table 7).
    pub redundant_switch: bool,
    /// Fold comparisons entailed by propagated relations and ranges
    /// (array-bounds-check removal; Table 7).
    pub compare_elim: bool,
}

impl SimplifyOpts {
    /// The reduction-pass configuration (paper's first group).
    pub fn reduce(loop_opts: bool) -> SimplifyOpts {
        SimplifyOpts {
            const_fold: true,
            dead_code: true,
            cse: loop_opts,
            inline_once: true,
            inline_small: false,
            max_inline_size: 0,
            redundant_switch: loop_opts,
            compare_elim: loop_opts,
        }
    }

    /// The small-inlining configuration (paper's second group).
    pub fn inline(max_size: usize, loop_opts: bool) -> SimplifyOpts {
        SimplifyOpts {
            const_fold: true,
            dead_code: true,
            cse: loop_opts,
            inline_once: false,
            inline_small: true,
            max_inline_size: max_size,
            redundant_switch: loop_opts,
            compare_elim: loop_opts,
        }
    }
}

/// Runs the simplifier once over the program; returns true if anything
/// changed.
pub fn simplify(p: &mut BProgram, vs: &mut VarSupply, opts: &SimplifyOpts) -> bool {
    simplify_with_signs(p, vs, opts, &HashMap::new())
}

/// Like [`simplify`], seeded with interprocedural lower bounds from the
/// rule-of-signs analysis (paper §3.3) so comparison elimination can
/// discharge `i < 0` tests on loop counters.
pub fn simplify_with_signs(
    p: &mut BProgram,
    vs: &mut VarSupply,
    opts: &SimplifyOpts,
    signs: &HashMap<Var, i64>,
) -> bool {
    let mut s = Simp::new(&p.body, &p.data, vs, opts, signs);
    let body = std::mem::replace(&mut p.body, BExp::Ret(Atom::Int(0)));
    p.body = s.exp(body);
    s.changed
}

#[derive(Clone, Debug)]
enum Def {
    Atom(Atom),
    Record(Vec<Atom>),
    ConVal {
        data: DataId,
        tag: usize,
        fields: Vec<Atom>,
    },
    Boxed(Atom),
    FloatConst(f64),
    Cmp(MPrim, Atom, Atom),
    Len,
    ArrOfLen(Atom),
    Fun,
}

/// A variable's known range: inclusive lower and upper bounds.
type Range = (Option<i64>, Option<i64>);

/// Integer facts: per-variable ranges (rule of signs generalized to
/// intervals) and strict/non-strict order relations between atoms.
///
/// Facts are scoped: [`Facts::unwind`] undoes every change made since
/// a [`Facts::mark`], at the cost of the changes rather than of the
/// whole fact set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Facts {
    range: HashMap<Var, Range>,
    lt: Vec<(Atom, Atom)>,
    le: Vec<(Atom, Atom)>,
    /// Each range entry as it was before a `narrow`, oldest first.
    undo: Vec<(Var, Option<Range>)>,
}

/// A point to [`Facts::unwind`] to.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FactsMark {
    undo: usize,
    lt: usize,
    le: usize,
}

impl Facts {
    /// The current state, to unwind to later.
    pub(crate) fn mark(&self) -> FactsMark {
        FactsMark {
            undo: self.undo.len(),
            lt: self.lt.len(),
            le: self.le.len(),
        }
    }

    /// Undoes every change made since `m` was taken.
    pub(crate) fn unwind(&mut self, m: FactsMark) {
        for (v, old) in self.undo.drain(m.undo..).rev() {
            match old {
                Some(r) => self.range.insert(v, r),
                None => self.range.remove(&v),
            };
        }
        self.lt.truncate(m.lt);
        self.le.truncate(m.le);
    }

    /// Sets (intersects) a variable's known range.
    pub fn narrow(&mut self, v: Var, lo: Option<i64>, hi: Option<i64>) {
        self.undo.push((v, self.range.get(&v).copied()));
        let e = self.range.entry(v).or_insert((None, None));
        if let Some(l) = lo {
            e.0 = Some(e.0.map_or(l, |x| x.max(l)));
        }
        if let Some(h) = hi {
            e.1 = Some(e.1.map_or(h, |x| x.min(h)));
        }
    }

    fn range_of(&self, a: &Atom) -> Range {
        match a {
            Atom::Int(n) => (Some(*n), Some(*n)),
            Atom::Var(v) => self.range.get(v).copied().unwrap_or((None, None)),
        }
    }

    /// Records `a < b`.
    pub fn add_lt(&mut self, a: Atom, b: Atom) {
        self.lt.push((a, b));
        // Range consequences against constants.
        if let (Atom::Var(v), Atom::Int(n)) = (a, b) {
            self.narrow(v, None, Some(n - 1));
        }
        if let (Atom::Int(n), Atom::Var(v)) = (a, b) {
            self.narrow(v, Some(n + 1), None);
        }
    }

    /// Records `a <= b`.
    pub fn add_le(&mut self, a: Atom, b: Atom) {
        self.le.push((a, b));
        if let (Atom::Var(v), Atom::Int(n)) = (a, b) {
            self.narrow(v, None, Some(n));
        }
        if let (Atom::Int(n), Atom::Var(v)) = (a, b) {
            self.narrow(v, Some(n), None);
        }
    }

    /// Can we prove `a < b`?
    pub fn proves_lt(&self, a: &Atom, b: &Atom) -> bool {
        let (_, ahi) = self.range_of(a);
        let (blo, _) = self.range_of(b);
        if let (Some(ah), Some(bl)) = (ahi, blo) {
            if ah < bl {
                return true;
            }
        }
        if self.lt.iter().any(|(x, y)| x == a && y == b) {
            return true;
        }
        // One step of transitivity: a < c <= b or a <= c < b.
        for (x, c) in &self.lt {
            if x == a
                && (self.le.iter().any(|(p, q)| p == c && q == b)
                    || self.lt.iter().any(|(p, q)| p == c && q == b)
                    || c == b)
            {
                return true;
            }
        }
        for (x, c) in &self.le {
            if x == a && self.lt.iter().any(|(p, q)| p == c && q == b) {
                return true;
            }
        }
        false
    }

    /// Can we prove `a <= b`?
    pub fn proves_le(&self, a: &Atom, b: &Atom) -> bool {
        if a == b {
            return true;
        }
        let (_, ahi) = self.range_of(a);
        let (blo, _) = self.range_of(b);
        if let (Some(ah), Some(bl)) = (ahi, blo) {
            if ah <= bl {
                return true;
            }
        }
        self.le.iter().any(|(x, y)| x == a && y == b) || self.proves_lt(a, b)
    }
}

enum Outcome {
    /// The binding reduces to an atom (copy-propagated away).
    Atom(Atom),
    /// The binding expands to an expression whose final `Ret` feeds the
    /// bound variable (switch folding, inlining).
    Inline(BExp),
    /// An ordinary right-hand side.
    Rhs(BRhs),
}

struct Simp<'a> {
    /// Variables with ids at or above this were created during this
    /// pass (inliner clones); the pass-start census knows nothing about
    /// them, so dead-code decisions must not trust its zero counts.
    census_boundary: u32,
    vs: &'a mut VarSupply,
    data: &'a MDataEnv,
    opts: &'a SimplifyOpts,
    census: Census,
    /// Sibling occurrences in every `fix` nest of the pass-start
    /// program.
    nests: NestCounts,
    /// Binders of clone-inlined nest members → the pass-start member
    /// they copy, so a copy's nest resolves in `nests`.
    cloned_from: HashMap<Var, Var>,
    changed: bool,
    env: HashMap<Var, Def>,
    cse: CseTable,
    used: HashSet<Var>,
    once: HashMap<Var, BFun>,
    small: HashMap<Var, BFun>,
    facts: Facts,
    inline_budget: usize,
}

impl<'a> Simp<'a> {
    /// A simplifier for one pass over `body`, taking its census and
    /// nest table.
    fn new(
        body: &BExp,
        data: &'a MDataEnv,
        vs: &'a mut VarSupply,
        opts: &'a SimplifyOpts,
        signs: &HashMap<Var, i64>,
    ) -> Simp<'a> {
        let (census, nests) = census_with_nests(body);
        let mut facts = Facts::default();
        if opts.compare_elim {
            for (v, lo) in signs {
                facts.narrow(*v, Some(*lo), None);
            }
        }
        Simp {
            census_boundary: vs.count(),
            vs,
            data,
            opts,
            census,
            nests,
            cloned_from: HashMap::new(),
            changed: false,
            env: HashMap::new(),
            cse: CseTable::default(),
            used: HashSet::new(),
            once: HashMap::new(),
            small: HashMap::new(),
            facts,
            inline_budget: 1000,
        }
    }

    fn is_enum(&self, id: DataId) -> bool {
        self.data.is_enum(id)
    }

    fn resolve(&self, a: Atom) -> Atom {
        let mut a = a;
        for _ in 0..64 {
            match a {
                Atom::Var(v) => match self.env.get(&v) {
                    Some(Def::Atom(next)) => a = *next,
                    _ => return a,
                },
                Atom::Int(_) => return a,
            }
        }
        a
    }

    fn mark(&mut self, a: &Atom) {
        if let Atom::Var(v) = a {
            self.used.insert(*v);
        }
    }

    fn mark_rhs(&mut self, r: &BRhs) {
        match r {
            BRhs::Atom(a) | BRhs::Select(_, a) | BRhs::Raise { exn: a, .. } => self.mark(a),
            BRhs::Float(_) | BRhs::Str(_) => {}
            BRhs::Record(atoms) | BRhs::Con { args: atoms, .. } => {
                for a in atoms {
                    self.mark(a);
                }
            }
            BRhs::ExnCon { arg, .. } => {
                if let Some(a) = arg {
                    self.mark(a);
                }
            }
            BRhs::Prim { args, .. } => {
                for a in args {
                    self.mark(a);
                }
            }
            BRhs::App { f, args, .. } => {
                self.mark(f);
                for a in args {
                    self.mark(a);
                }
            }
            // Arm interiors were marked while they were rebuilt; only
            // the scrutinee remains.
            BRhs::Switch(sw) => match sw {
                BSwitch::Int { scrut, .. }
                | BSwitch::Data { scrut, .. }
                | BSwitch::Str { scrut, .. }
                | BSwitch::Exn { scrut, .. } => self.mark(&scrut.clone()),
            },
            BRhs::Typecase { .. } | BRhs::Handle { .. } => {}
        }
    }

    /// Opens a scope for facts and CSE entries: [`Simp::unwind`]
    /// forgets what the scope added.
    fn scope(&self) -> Mark {
        Mark {
            facts: self.facts.mark(),
            cse: self.cse.added.len(),
        }
    }

    fn unwind(&mut self, m: Mark) {
        self.facts.unwind(m.facts);
        self.cse.unwind(m.cse);
    }

    /// The pass-start name of nest member `v`.
    fn origin(&self, v: Var) -> Var {
        self.cloned_from.get(&v).copied().unwrap_or(v)
    }

    /// Occurrences of `g` in `f`'s body, for `f` and `g` of one nest.
    fn uses_in(&self, f: Var, g: Var) -> usize {
        self.nests.uses_in(self.origin(f), self.origin(g))
    }

    fn exp(&mut self, e: BExp) -> BExp {
        match e {
            BExp::Ret(a) => {
                let a = self.resolve(a);
                self.mark(&a);
                BExp::Ret(a)
            }
            BExp::Let { var, rhs, body } => self.do_let(var, rhs, *body),
            BExp::Fix { funs, body } => self.do_fix(funs, *body),
        }
    }

    /// A `fix` nest reaches here as it was at the start of the pass, up
    /// to the renaming of clone-inlined copies: the traversal is
    /// top-down, and inlined bodies and folded arms are moved or cloned
    /// before they are simplified. So every recursion question is
    /// answered from the pass-start nest table.
    fn do_fix(&mut self, funs: Vec<BFun>, body: BExp) -> BExp {
        // Whole-nest dead-code elimination: if every reference to every
        // function of the nest comes from within the nest itself, the
        // entire (possibly mutually recursive) group is unreachable.
        if self.opts.dead_code
            && funs.iter().all(|f| {
                f.var.id() < self.census_boundary
                    && self.census.uses(f.var) == self.nests.uses_within_nest(f.var)
            })
        {
            self.changed = true;
            return self.exp(body);
        }
        let mut kept = Vec::new();
        for f in funs {
            // Drop functions nobody references.
            if self.opts.dead_code
                && f.var.id() < self.census_boundary
                && self.census.uses(f.var) == 0
            {
                self.changed = true;
                continue;
            }
            if self.opts.inline_once
                && self.census.calls(f.var) == 1
                && self.census.escapes(f.var) == 0
                && self.nests.nest_uses_in(self.origin(f.var)) == 0
            {
                // Stash for inlining at its unique call site.
                self.once.insert(f.var, f);
                self.changed = true;
                continue;
            }
            self.env.insert(f.var, Def::Fun);
            kept.push(f);
        }
        // Register small functions for clone-inlining *before* the
        // bodies are simplified, so a sibling wrapper (worker/wrapper
        // pairs from uncurrying and argument flattening) inlines into
        // its worker's recursive call this same pass. Cloning keeps the
        // original, so only *self*-recursive functions are excluded.
        if self.opts.inline_small {
            let mut cands: Vec<&BFun> = Vec::new();
            for f in &kept {
                let self_recursive = self.uses_in(f.var, f.var) > 0;
                if !self_recursive && f.body.size_at_most(self.opts.max_inline_size) {
                    cands.push(f);
                }
            }
            // Mutually recursive candidate pairs would ping-pong the
            // inliner forever; keep only the smaller of each pair (the
            // wrapper).
            let mut excluded: Vec<Var> = Vec::new();
            for i in 0..cands.len() {
                for j in (i + 1)..cands.len() {
                    let f = cands[i];
                    let g = cands[j];
                    let f_calls_g = self.uses_in(f.var, g.var) > 0;
                    let g_calls_f = self.uses_in(g.var, f.var) > 0;
                    if f_calls_g && g_calls_f {
                        if f.body.size() >= g.body.size() {
                            excluded.push(f.var);
                        } else {
                            excluded.push(g.var);
                        }
                    }
                }
            }
            let chosen: Vec<BFun> = cands
                .into_iter()
                .filter(|f| !excluded.contains(&f.var))
                .cloned()
                .collect();
            for f in chosen {
                self.small.insert(f.var, f);
            }
        }
        // Simplify the retained bodies.
        let mut out_funs = Vec::with_capacity(kept.len());
        for mut f in kept {
            let mark = self.scope();
            let b = std::mem::replace(&mut f.body, BExp::Ret(Atom::Int(0)));
            f.body = self.exp(b);
            self.unwind(mark);
            out_funs.push(f);
        }
        let body = self.exp(body);
        if out_funs.is_empty() {
            body
        } else {
            BExp::Fix {
                funs: out_funs,
                body: Box::new(body),
            }
        }
    }

    fn do_let(&mut self, var: Var, rhs: BRhs, body: BExp) -> BExp {
        match self.simplify_rhs(var, rhs) {
            Outcome::Atom(a) => {
                self.changed = true;
                self.env.insert(var, Def::Atom(a));
                self.exp(body)
            }
            Outcome::Inline(e) => {
                self.changed = true;
                let grafted = splice_ret(e, |a| BExp::Let {
                    var,
                    rhs: BRhs::Atom(a),
                    body: Box::new(BExp::Ret(Atom::Int(0))), // placeholder
                });
                // Re-stitch the real continuation: the placeholder body
                // above is replaced by the actual `body` expression.
                let grafted = replace_placeholder(grafted, var, body);
                self.exp(grafted)
            }
            Outcome::Rhs(r) => {
                // Record knowledge about var.
                self.record_def(var, &r);
                // CSE.
                if self.opts.cse {
                    if let Some(key) = cse_key(&r) {
                        if let Some(prev) = self.cse.map.get(&key) {
                            self.changed = true;
                            self.env.insert(var, Def::Atom(Atom::Var(*prev)));
                            return self.exp(body);
                        }
                        self.cse.insert(key, var);
                    }
                }
                let bodyout = self.exp(body);
                let pure = r.is_pure(&|_| false);
                if self.opts.dead_code && pure && !self.used.contains(&var) {
                    self.changed = true;
                    return bodyout;
                }
                self.mark_rhs(&r);
                BExp::Let {
                    var,
                    rhs: r,
                    body: Box::new(bodyout),
                }
            }
        }
    }

    fn record_def(&mut self, var: Var, r: &BRhs) {
        match r {
            BRhs::Record(atoms) => {
                self.env.insert(var, Def::Record(atoms.clone()));
            }
            BRhs::Con {
                data, tag, args, ..
            } => {
                self.env.insert(
                    var,
                    Def::ConVal {
                        data: *data,
                        tag: *tag,
                        fields: args.clone(),
                    },
                );
            }
            BRhs::Float(f) => {
                self.env.insert(var, Def::FloatConst(*f));
            }
            BRhs::Prim { prim, args, .. } => match prim {
                MPrim::BoxFloat => {
                    self.env.insert(var, Def::Boxed(args[0]));
                }
                MPrim::ILt | MPrim::ILe | MPrim::IGt | MPrim::IGe | MPrim::IEq | MPrim::INe => {
                    self.env.insert(var, Def::Cmp(*prim, args[0], args[1]));
                }
                MPrim::ALen | MPrim::StrSize => {
                    self.env.insert(var, Def::Len);
                    self.facts.narrow(var, Some(0), None);
                }
                MPrim::IANew | MPrim::FANew | MPrim::PANew => {
                    self.env.insert(var, Def::ArrOfLen(args[0]));
                }
                MPrim::IMod => {
                    // x mod y has the sign of y; for a positive constant
                    // modulus the result is in [0, y-1].
                    if let Atom::Int(m) = args[1] {
                        if m > 0 {
                            self.facts.narrow(var, Some(0), Some(m - 1));
                        }
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }

    /// Simplifies one right-hand side (operands already need resolving).
    fn simplify_rhs(&mut self, bound: Var, r: BRhs) -> Outcome {
        let _ = bound;
        match r {
            BRhs::Atom(a) => Outcome::Atom(self.resolve(a)),
            BRhs::Float(f) => Outcome::Rhs(BRhs::Float(f)),
            BRhs::Str(s) => Outcome::Rhs(BRhs::Str(s)),
            BRhs::Record(atoms) => Outcome::Rhs(BRhs::Record(
                atoms.into_iter().map(|a| self.resolve(a)).collect(),
            )),
            BRhs::Select(i, a) => {
                let a = self.resolve(a);
                if self.opts.const_fold {
                    if let til_bform::Atom::Var(v) = a {
                        if let Some(Def::Record(fields)) = self.env.get(&v) {
                            if i < fields.len() {
                                return Outcome::Atom(self.resolve(fields[i]));
                            }
                        }
                    }
                }
                Outcome::Rhs(BRhs::Select(i, a))
            }
            BRhs::Con {
                data,
                cargs,
                tag,
                args,
            } => Outcome::Rhs(BRhs::Con {
                data,
                cargs,
                tag,
                args: args.into_iter().map(|a| self.resolve(a)).collect(),
            }),
            BRhs::ExnCon { exn, arg } => Outcome::Rhs(BRhs::ExnCon {
                exn,
                arg: arg.map(|a| self.resolve(a)),
            }),
            BRhs::Prim { prim, cargs, args } => {
                let args: Vec<til_bform::Atom> =
                    args.into_iter().map(|a| self.resolve(a)).collect();
                self.fold_prim(prim, cargs, args)
            }
            BRhs::App { f, cargs, args } => {
                let f = self.resolve(f);
                let args: Vec<til_bform::Atom> =
                    args.into_iter().map(|a| self.resolve(a)).collect();
                if let til_bform::Atom::Var(fv) = f {
                    if self.opts.inline_once {
                        if let Some(fun) = self.once.remove(&fv) {
                            return Outcome::Inline(inline_moved(fun, &cargs, &args));
                        }
                    }
                    if self.opts.inline_small && self.inline_budget > 0 {
                        if let Some(e) = self.inline_clone(fv, &cargs, &args) {
                            self.inline_budget -= 1;
                            return Outcome::Inline(e);
                        }
                    }
                }
                Outcome::Rhs(BRhs::App { f, cargs, args })
            }
            BRhs::Raise { exn, con } => Outcome::Rhs(BRhs::Raise {
                exn: self.resolve(exn),
                con,
            }),
            BRhs::Handle { body, var, handler } => {
                let mark = self.scope();
                let body = self.exp(*body);
                self.unwind(mark);
                let handler = self.exp(*handler);
                self.unwind(mark);
                // A handle whose body cannot raise could drop the
                // handler; conservatively keep it.
                Outcome::Rhs(BRhs::Handle {
                    body: Box::new(body),
                    var,
                    handler: Box::new(handler),
                })
            }
            BRhs::Typecase {
                scrut,
                int,
                float,
                ptr,
                con,
            } => {
                let enum_fn = |id: DataId| self.is_enum(id);
                let s = scrut.normalize(&enum_fn);
                if self.opts.const_fold {
                    match rep_tag(&s, &enum_fn) {
                        RepClass::Int => return Outcome::Inline(*int),
                        RepClass::Float => return Outcome::Inline(*float),
                        RepClass::Ptr => return Outcome::Inline(*ptr),
                        RepClass::Unknown => {}
                    }
                }
                let mark = self.scope();
                let int = Box::new(self.exp(*int));
                self.unwind(mark);
                let float = Box::new(self.exp(*float));
                self.unwind(mark);
                let ptr = Box::new(self.exp(*ptr));
                self.unwind(mark);
                Outcome::Rhs(BRhs::Typecase {
                    scrut: s,
                    int,
                    float,
                    ptr,
                    con,
                })
            }
            BRhs::Switch(sw) => self.fold_switch(sw),
        }
    }

    /// Clone-inlines small function `fv` if it is registered: a copy
    /// with every binder freshened and the parameters bound to `args`.
    /// The copy's nest members are recorded under the pass-start
    /// members they copy.
    fn inline_clone(&mut self, fv: Var, cargs: &[Con], args: &[Atom]) -> Option<BExp> {
        let fun = self.small.get(&fv)?;
        let mut env = HashMap::new();
        // Params must map to fresh names too.
        let params: Vec<Var> = fun
            .params
            .iter()
            .map(|(v, _)| {
                let nv = self.vs.rename(*v);
                env.insert(*v, nv);
                nv
            })
            .collect();
        let mut e = alpha_clone(&fun.body, &mut env, self.vs);
        // Bind parameters.
        for (p, a) in params.iter().zip(args).rev() {
            e = BExp::Let {
                var: *p,
                rhs: BRhs::Atom(*a),
                body: Box::new(e),
            };
        }
        subst_cons_exp(&mut e, &con_args(&fun.cparams, cargs));
        for (old, new) in env {
            let origin = self.origin(old);
            if self.nests.is_member(origin) {
                self.cloned_from.insert(new, origin);
            }
        }
        Some(e)
    }

    // ---------------------------------------------------------- prims

    fn fold_prim(&mut self, prim: MPrim, cargs: Vec<Con>, args: Vec<Atom>) -> Outcome {
        if !self.opts.const_fold {
            return Outcome::Rhs(BRhs::Prim { prim, cargs, args });
        }
        let int2 = |args: &[Atom]| match (args[0], args[1]) {
            (Atom::Int(a), Atom::Int(b)) => Some((a, b)),
            _ => None,
        };
        // Constant folding and identities.
        match prim {
            MPrim::IAdd => {
                if let Some((a, b)) = int2(&args) {
                    if let Some(v) = a.checked_add(b) {
                        return Outcome::Atom(Atom::Int(v));
                    }
                }
                if args[1] == Atom::Int(0) {
                    return Outcome::Atom(args[0]);
                }
                if args[0] == Atom::Int(0) {
                    return Outcome::Atom(args[1]);
                }
            }
            MPrim::ISub => {
                if let Some((a, b)) = int2(&args) {
                    if let Some(v) = a.checked_sub(b) {
                        return Outcome::Atom(Atom::Int(v));
                    }
                }
                if args[1] == Atom::Int(0) {
                    return Outcome::Atom(args[0]);
                }
            }
            MPrim::IMul => {
                if let Some((a, b)) = int2(&args) {
                    if let Some(v) = a.checked_mul(b) {
                        return Outcome::Atom(Atom::Int(v));
                    }
                }
                if args[1] == Atom::Int(1) {
                    return Outcome::Atom(args[0]);
                }
                if args[0] == Atom::Int(1) {
                    return Outcome::Atom(args[1]);
                }
                if args[0] == Atom::Int(0) || args[1] == Atom::Int(0) {
                    return Outcome::Atom(Atom::Int(0));
                }
            }
            MPrim::IDiv => {
                if let Some((a, b)) = int2(&args) {
                    if b != 0 && !(a == i64::MIN && b == -1) {
                        return Outcome::Atom(Atom::Int(a.div_euclid(b)));
                    }
                }
                if args[1] == Atom::Int(1) {
                    return Outcome::Atom(args[0]);
                }
            }
            MPrim::IMod => {
                if let Some((a, b)) = int2(&args) {
                    if b != 0 && !(a == i64::MIN && b == -1) {
                        return Outcome::Atom(Atom::Int(a.rem_euclid(b)));
                    }
                }
            }
            MPrim::INeg => {
                if let Atom::Int(a) = args[0] {
                    if let Some(v) = a.checked_neg() {
                        return Outcome::Atom(Atom::Int(v));
                    }
                }
            }
            MPrim::IAbs => {
                if let Atom::Int(a) = args[0] {
                    if let Some(v) = a.checked_abs() {
                        return Outcome::Atom(Atom::Int(v));
                    }
                }
            }
            MPrim::AndB | MPrim::OrB | MPrim::XorB | MPrim::Lsl | MPrim::Lsr | MPrim::Asr => {
                if let Some((a, b)) = int2(&args) {
                    let v = match prim {
                        MPrim::AndB => a & b,
                        MPrim::OrB => a | b,
                        MPrim::XorB => a ^ b,
                        MPrim::Lsl => ((a as u64) << (b as u64 & 63)) as i64,
                        MPrim::Lsr => ((a as u64) >> (b as u64 & 63)) as i64,
                        _ => a >> (b as u64 & 63),
                    };
                    return Outcome::Atom(Atom::Int(v));
                }
            }
            MPrim::NotB => {
                if let Atom::Int(a) = args[0] {
                    return Outcome::Atom(Atom::Int(!a));
                }
            }
            MPrim::ILt | MPrim::ILe | MPrim::IGt | MPrim::IGe | MPrim::IEq | MPrim::INe => {
                if let Some(v) = self.fold_compare(prim, &args[0], &args[1]) {
                    return Outcome::Atom(Atom::Int(v as i64));
                }
            }
            MPrim::ALen => {
                if let Atom::Var(v) = args[0] {
                    if let Some(Def::ArrOfLen(n)) = self.env.get(&v) {
                        return Outcome::Atom(self.resolve(*n));
                    }
                }
            }
            MPrim::UnboxFloat => {
                if let Atom::Var(v) = args[0] {
                    if let Some(Def::Boxed(inner)) = self.env.get(&v) {
                        return Outcome::Atom(self.resolve(*inner));
                    }
                }
            }
            MPrim::FAdd | MPrim::FSub | MPrim::FMul | MPrim::FDiv => {
                if let (Some(a), Some(b)) = (self.float_of(&args[0]), self.float_of(&args[1])) {
                    let v = match prim {
                        MPrim::FAdd => a + b,
                        MPrim::FSub => a - b,
                        MPrim::FMul => a * b,
                        _ => a / b,
                    };
                    if v.is_finite() {
                        return Outcome::Rhs(BRhs::Float(v));
                    }
                }
            }
            MPrim::FNeg => {
                if let Some(a) = self.float_of(&args[0]) {
                    return Outcome::Rhs(BRhs::Float(-a));
                }
            }
            MPrim::FLt | MPrim::FLe | MPrim::FGt | MPrim::FGe | MPrim::FEq | MPrim::FNe => {
                if let (Some(a), Some(b)) = (self.float_of(&args[0]), self.float_of(&args[1])) {
                    let v = match prim {
                        MPrim::FLt => a < b,
                        MPrim::FLe => a <= b,
                        MPrim::FGt => a > b,
                        MPrim::FGe => a >= b,
                        MPrim::FEq => a == b,
                        _ => a != b,
                    };
                    return Outcome::Atom(Atom::Int(v as i64));
                }
            }
            MPrim::ItoF => {
                if let Atom::Int(a) = args[0] {
                    return Outcome::Rhs(BRhs::Float(a as f64));
                }
            }
            MPrim::PolyEq => {
                // Intensional-polymorphism payoff: equality at a known
                // representation becomes a primitive comparison.
                let enum_fn = |id: DataId| self.is_enum(id);
                let c = cargs[0].normalize(&enum_fn);
                match &c {
                    Con::Int => {
                        return self.fold_prim(MPrim::IEq, vec![], args);
                    }
                    Con::Str => {
                        return Outcome::Rhs(BRhs::Prim {
                            prim: MPrim::SEq,
                            cargs: vec![],
                            args,
                        });
                    }
                    Con::Boxed => {
                        // Unbox both then compare.
                        let u1 = self.vs.fresh_named("u");
                        let u2 = self.vs.fresh_named("u");
                        let res = self.vs.fresh_named("feq");
                        return Outcome::Inline(BExp::Let {
                            var: u1,
                            rhs: BRhs::Prim {
                                prim: MPrim::UnboxFloat,
                                cargs: vec![],
                                args: vec![args[0]],
                            },
                            body: Box::new(BExp::Let {
                                var: u2,
                                rhs: BRhs::Prim {
                                    prim: MPrim::UnboxFloat,
                                    cargs: vec![],
                                    args: vec![args[1]],
                                },
                                body: Box::new(BExp::Let {
                                    var: res,
                                    rhs: BRhs::Prim {
                                        prim: MPrim::FEq,
                                        cargs: vec![],
                                        args: vec![Atom::Var(u1), Atom::Var(u2)],
                                    },
                                    body: Box::new(BExp::Ret(Atom::Var(res))),
                                }),
                            }),
                        });
                    }
                    Con::Record(fs) if fs.is_empty() => return Outcome::Atom(Atom::Int(1)),
                    Con::Array(_) | Con::SpecArray(_) => {
                        return Outcome::Rhs(BRhs::Prim {
                            prim: MPrim::PtrEq,
                            cargs,
                            args,
                        });
                    }
                    _ => {}
                }
                return Outcome::Rhs(BRhs::Prim {
                    prim,
                    cargs: vec![c],
                    args,
                });
            }
            MPrim::PtrEq if args[0] == args[1] => {
                return Outcome::Atom(Atom::Int(1));
            }
            MPrim::StrSize => {}
            _ => {}
        }
        Outcome::Rhs(BRhs::Prim { prim, cargs, args })
    }

    fn float_of(&self, a: &Atom) -> Option<f64> {
        match a {
            Atom::Var(v) => match self.env.get(v) {
                Some(Def::FloatConst(f)) => Some(*f),
                _ => None,
            },
            Atom::Int(_) => None,
        }
    }

    fn fold_compare(&self, prim: MPrim, a: &Atom, b: &Atom) -> Option<bool> {
        // Constant comparisons always fold; fact-based folding is the
        // loop-oriented comparison elimination and is gated.
        if let (Atom::Int(x), Atom::Int(y)) = (a, b) {
            return Some(match prim {
                MPrim::ILt => x < y,
                MPrim::ILe => x <= y,
                MPrim::IGt => x > y,
                MPrim::IGe => x >= y,
                MPrim::IEq => x == y,
                _ => x != y,
            });
        }
        match prim {
            MPrim::ILt if a == b => return Some(false),
            MPrim::IGt if a == b => return Some(false),
            MPrim::ILe | MPrim::IGe | MPrim::IEq if a == b => return Some(true),
            MPrim::INe if a == b => return Some(false),
            _ => {}
        }
        if !self.opts.compare_elim {
            return None;
        }
        let f = &self.facts;
        match prim {
            MPrim::ILt => {
                if f.proves_lt(a, b) {
                    Some(true)
                } else if f.proves_le(b, a) {
                    Some(false)
                } else {
                    None
                }
            }
            MPrim::ILe => {
                if f.proves_le(a, b) {
                    Some(true)
                } else if f.proves_lt(b, a) {
                    Some(false)
                } else {
                    None
                }
            }
            MPrim::IGt => {
                if f.proves_lt(b, a) {
                    Some(true)
                } else if f.proves_le(a, b) {
                    Some(false)
                } else {
                    None
                }
            }
            MPrim::IGe => {
                if f.proves_le(b, a) {
                    Some(true)
                } else if f.proves_lt(a, b) {
                    Some(false)
                } else {
                    None
                }
            }
            MPrim::IEq => {
                if f.proves_lt(a, b) || f.proves_lt(b, a) {
                    Some(false)
                } else {
                    None
                }
            }
            MPrim::INe => {
                if f.proves_lt(a, b) || f.proves_lt(b, a) {
                    Some(true)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    // -------------------------------------------------------- switches

    fn fold_switch(&mut self, sw: BSwitch) -> Outcome {
        match sw {
            BSwitch::Int {
                scrut,
                arms,
                default,
                con,
            } => {
                let scrut = self.resolve(scrut);
                if self.opts.const_fold {
                    if let Atom::Int(k) = scrut {
                        for (v, arm) in &arms {
                            if *v == k {
                                return Outcome::Inline(arm.clone());
                            }
                        }
                        return Outcome::Inline(*default);
                    }
                }
                // Rebuild arms with branch facts.
                let mut out_arms = Vec::with_capacity(arms.len());
                for (k, arm) in arms {
                    let mark = self.scope();
                    let saved_def = scrut.as_var().and_then(|v| self.env.get(&v).cloned());
                    if self.opts.redundant_switch {
                        if let Atom::Var(v) = scrut {
                            self.push_scrut_fact(v, k);
                        }
                    }
                    let arm = self.exp(arm);
                    self.unwind(mark);
                    if let Atom::Var(v) = scrut {
                        match saved_def {
                            Some(ref d) => {
                                self.env.insert(v, d.clone());
                            }
                            None => {
                                self.env.remove(&v);
                            }
                        }
                    }
                    out_arms.push((k, arm));
                }
                let mark = self.scope();
                if self.opts.redundant_switch && out_arms.len() == 1 {
                    // Binary comparison switch: the default is the
                    // negation when the scrutinee is a comparison.
                    if let Atom::Var(v) = scrut {
                        self.push_negated_fact(v, out_arms[0].0);
                    }
                }
                let default = Box::new(self.exp(*default));
                self.unwind(mark);
                Outcome::Rhs(BRhs::Switch(BSwitch::Int {
                    scrut,
                    arms: out_arms,
                    default,
                    con,
                }))
            }
            BSwitch::Data {
                scrut,
                data,
                cargs,
                arms,
                default,
                con,
            } => {
                let scrut = self.resolve(scrut);
                if self.opts.const_fold {
                    if let Atom::Var(v) = scrut {
                        if let Some(Def::ConVal {
                            data: d2,
                            tag,
                            fields,
                        }) = self.env.get(&v).cloned()
                        {
                            if d2 == data {
                                for (t, binders, arm) in &arms {
                                    if *t == tag {
                                        let mut e = arm.clone();
                                        for (b, f) in binders.iter().zip(&fields).rev() {
                                            e = BExp::Let {
                                                var: *b,
                                                rhs: BRhs::Atom(*f),
                                                body: Box::new(e),
                                            };
                                        }
                                        return Outcome::Inline(e);
                                    }
                                }
                                if let Some(d) = default {
                                    return Outcome::Inline(*d);
                                }
                            }
                        }
                    }
                }
                let mut out_arms = Vec::with_capacity(arms.len());
                for (tag, binders, arm) in arms {
                    let mark = self.scope();
                    let saved_def = scrut.as_var().and_then(|v| self.env.get(&v).cloned());
                    if self.opts.redundant_switch {
                        if let Atom::Var(v) = scrut {
                            self.env.insert(
                                v,
                                Def::ConVal {
                                    data,
                                    tag,
                                    fields: binders.iter().map(|b| Atom::Var(*b)).collect(),
                                },
                            );
                        }
                    }
                    let arm = self.exp(arm);
                    self.unwind(mark);
                    if let Atom::Var(v) = scrut {
                        match saved_def {
                            Some(ref d) => {
                                self.env.insert(v, d.clone());
                            }
                            None => {
                                self.env.remove(&v);
                            }
                        }
                    }
                    out_arms.push((tag, binders, arm));
                }
                let default = match default {
                    Some(d) => {
                        let mark = self.scope();
                        let d = self.exp(*d);
                        self.unwind(mark);
                        Some(Box::new(d))
                    }
                    None => None,
                };
                Outcome::Rhs(BRhs::Switch(BSwitch::Data {
                    scrut,
                    data,
                    cargs,
                    arms: out_arms,
                    default,
                    con,
                }))
            }
            BSwitch::Str {
                scrut,
                arms,
                default,
                con,
            } => {
                let scrut = self.resolve(scrut);
                let mut out_arms = Vec::with_capacity(arms.len());
                for (k, arm) in arms {
                    let mark = self.scope();
                    let arm = self.exp(arm);
                    self.unwind(mark);
                    out_arms.push((k, arm));
                }
                let mark = self.scope();
                let default = Box::new(self.exp(*default));
                self.unwind(mark);
                Outcome::Rhs(BRhs::Switch(BSwitch::Str {
                    scrut,
                    arms: out_arms,
                    default,
                    con,
                }))
            }
            BSwitch::Exn {
                scrut,
                arms,
                default,
                con,
            } => {
                let scrut = self.resolve(scrut);
                let mut out_arms = Vec::with_capacity(arms.len());
                for (id, binder, arm) in arms {
                    let mark = self.scope();
                    let arm = self.exp(arm);
                    self.unwind(mark);
                    out_arms.push((id, binder, arm));
                }
                let mark = self.scope();
                let default = Box::new(self.exp(*default));
                self.unwind(mark);
                Outcome::Rhs(BRhs::Switch(BSwitch::Exn {
                    scrut,
                    arms: out_arms,
                    default,
                    con,
                }))
            }
        }
    }

    /// Inside the arm `scrut = k`: substitute the constant and, when
    /// the scrutinee is a comparison result, push the relation.
    fn push_scrut_fact(&mut self, v: Var, k: i64) {
        if let Some(Def::Cmp(prim, a, b)) = self.env.get(&v).cloned() {
            let truth = k != 0;
            self.push_cmp_fact(prim, a, b, truth);
        }
        self.env.insert(v, Def::Atom(Atom::Int(k)));
    }

    /// Inside the default of a single-arm switch on `scrut = k`: the
    /// comparison took the other value.
    fn push_negated_fact(&mut self, v: Var, k: i64) {
        if let Some(Def::Cmp(prim, a, b)) = self.env.get(&v).cloned() {
            // In the default branch the value is != k; for 0/1-valued
            // comparisons that means the negation of (k != 0).
            let truth = k == 0;
            self.push_cmp_fact(prim, a, b, truth);
        }
    }

    fn push_cmp_fact(&mut self, prim: MPrim, a: Atom, b: Atom, truth: bool) {
        match (prim, truth) {
            (MPrim::ILt, true) | (MPrim::IGe, false) => self.facts.add_lt(a, b),
            (MPrim::ILt, false) | (MPrim::IGe, true) => self.facts.add_le(b, a),
            (MPrim::ILe, true) | (MPrim::IGt, false) => self.facts.add_le(a, b),
            (MPrim::ILe, false) | (MPrim::IGt, true) => self.facts.add_lt(b, a),
            (MPrim::IEq, true) => {
                self.facts.add_le(a, b);
                self.facts.add_le(b, a);
            }
            _ => {}
        }
    }
}

/// Inlines `fun` at its unique call site: its body, constructor
/// arguments substituted, under bindings of its parameters to `args`.
fn inline_moved(fun: BFun, cargs: &[Con], args: &[Atom]) -> BExp {
    let mut body = fun.body;
    subst_cons_exp(&mut body, &con_args(&fun.cparams, cargs));
    for ((p, _), a) in fun.params.iter().zip(args).rev() {
        body = BExp::Let {
            var: *p,
            rhs: BRhs::Atom(*a),
            body: Box::new(body),
        };
    }
    body
}

fn con_args(cparams: &[til_lmli::con::CVar], cargs: &[Con]) -> HashMap<til_lmli::con::CVar, Con> {
    cparams.iter().copied().zip(cargs.iter().cloned()).collect()
}

/// Replaces the placeholder `Ret 0` body of the freshly grafted binding
/// of `var` with the real continuation.
fn replace_placeholder(e: BExp, var: Var, cont: BExp) -> BExp {
    match e {
        BExp::Let { var: v, rhs, body } => {
            if v == var {
                if let BRhs::Atom(_) = rhs {
                    if matches!(*body, BExp::Ret(Atom::Int(0))) {
                        return BExp::Let {
                            var: v,
                            rhs,
                            body: Box::new(cont),
                        };
                    }
                }
            }
            BExp::Let {
                var: v,
                rhs,
                body: Box::new(replace_placeholder(*body, var, cont)),
            }
        }
        BExp::Fix { funs, body } => BExp::Fix {
            funs,
            body: Box::new(replace_placeholder(*body, var, cont)),
        },
        BExp::Ret(a) => BExp::Ret(a),
    }
}

/// A point to [`Simp::unwind`] to.
#[derive(Clone, Copy)]
struct Mark {
    facts: FactsMark,
    cse: usize,
}

/// The CSE table with an undo log of the keys added, newest last.
#[derive(Clone, Debug, Default, PartialEq)]
struct CseTable {
    map: HashMap<CseKey, Var>,
    added: Vec<CseKey>,
}

impl CseTable {
    /// Binds a key not yet in the table.
    fn insert(&mut self, key: CseKey, v: Var) {
        self.added.push(key.clone());
        self.map.insert(key, v);
    }

    /// Forgets every key added after the first `mark`.
    fn unwind(&mut self, mark: usize) {
        for k in self.added.drain(mark..) {
            self.map.remove(&k);
        }
    }
}

/// An atom as a CSE key sees it: a variable by its id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum AtomKey {
    Var(u32),
    Int(i64),
}

fn atom_key(a: &Atom) -> AtomKey {
    match a {
        Atom::Var(v) => AtomKey::Var(v.id()),
        Atom::Int(n) => AtomKey::Int(*n),
    }
}

fn atom_keys(atoms: &[Atom]) -> Vec<AtomKey> {
    atoms.iter().map(atom_key).collect()
}

/// What makes two right-hand sides the same computation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum CseKey {
    Prim(MPrim, Vec<AtomKey>, Vec<Con>),
    Len(Vec<AtomKey>),
    Select(usize, AtomKey),
    Record(Vec<AtomKey>),
    Con(DataId, usize, Vec<AtomKey>, Vec<Con>),
    Str(String),
}

/// A CSE key for RHSs that are safe to share: pure primitives and
/// primitives that can only raise (§3.3), selections, and immutable
/// allocations (records, constructors, strings — SML gives them no
/// identity).
fn cse_key(r: &BRhs) -> Option<CseKey> {
    match r {
        BRhs::Prim { prim, cargs, args } => {
            if matches!(prim, MPrim::ALen) {
                Some(CseKey::Len(atom_keys(args)))
            } else if prim.is_pure() || prim.only_raises() {
                Some(CseKey::Prim(*prim, atom_keys(args), cargs.clone()))
            } else {
                None
            }
        }
        BRhs::Select(i, a) => Some(CseKey::Select(*i, atom_key(a))),
        BRhs::Record(atoms) => Some(CseKey::Record(atom_keys(atoms))),
        BRhs::Con {
            data,
            cargs,
            tag,
            args,
        } => Some(CseKey::Con(*data, *tag, atom_keys(args), cargs.clone())),
        BRhs::Str(s) => Some(CseKey::Str(s.clone())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn let_(var: Var, rhs: BRhs, body: BExp) -> BExp {
        BExp::Let {
            var,
            rhs,
            body: Box::new(body),
        }
    }

    fn call(f: Var, args: Vec<Atom>) -> BRhs {
        BRhs::App {
            f: Atom::Var(f),
            cargs: vec![],
            args,
        }
    }

    fn prim(prim: MPrim, args: Vec<Atom>) -> BRhs {
        BRhs::Prim {
            prim,
            cargs: vec![],
            args,
        }
    }

    #[test]
    fn clone_inlined_local_loops_stay_self_recursive() {
        // fix wrap(x) = (fix lp(n) = if n = 0 then 0 else lp(n - 1)
        //                in lp(x))
        // in wrap(1) + wrap(2)
        let mut vs = VarSupply::new();
        let v = |vs: &mut VarSupply, n: &str| vs.fresh_named(n);
        let (wrap, x, lp, n) = (
            v(&mut vs, "wrap"),
            v(&mut vs, "x"),
            v(&mut vs, "lp"),
            v(&mut vs, "n"),
        );
        let (c, r, m, y, z) = (
            v(&mut vs, "c"),
            v(&mut vs, "r"),
            v(&mut vs, "m"),
            v(&mut vs, "y"),
            v(&mut vs, "z"),
        );
        let (a, b, sum) = (v(&mut vs, "a"), v(&mut vs, "b"), v(&mut vs, "sum"));
        let lp_body = let_(
            c,
            prim(MPrim::IEq, vec![Atom::Var(n), Atom::Int(0)]),
            let_(
                r,
                BRhs::Switch(BSwitch::Int {
                    scrut: Atom::Var(c),
                    arms: vec![(1, BExp::Ret(Atom::Int(0)))],
                    default: Box::new(let_(
                        m,
                        prim(MPrim::ISub, vec![Atom::Var(n), Atom::Int(1)]),
                        let_(y, call(lp, vec![Atom::Var(m)]), BExp::Ret(Atom::Var(y))),
                    )),
                    con: Con::Int,
                }),
                BExp::Ret(Atom::Var(r)),
            ),
        );
        let fun = |var, param, body| BFun {
            var,
            cparams: vec![],
            params: vec![(param, Con::Int)],
            ret: Con::Int,
            body,
        };
        let wrap_body = BExp::Fix {
            funs: vec![fun(lp, n, lp_body)],
            body: Box::new(let_(
                z,
                call(lp, vec![Atom::Var(x)]),
                BExp::Ret(Atom::Var(z)),
            )),
        };
        let body = BExp::Fix {
            funs: vec![fun(wrap, x, wrap_body)],
            body: Box::new(let_(
                a,
                call(wrap, vec![Atom::Int(1)]),
                let_(
                    b,
                    call(wrap, vec![Atom::Int(2)]),
                    let_(
                        sum,
                        prim(MPrim::IAdd, vec![Atom::Var(a), Atom::Var(b)]),
                        BExp::Ret(Atom::Var(sum)),
                    ),
                ),
            )),
        };
        let data = MDataEnv::new();
        let opts = SimplifyOpts::inline(60, false);
        let mut s = Simp::new(&body, &data, &mut vs, &opts, &HashMap::new());
        // Enough for the two calls of `wrap`; a loop misclassified as
        // non-recursive would spend the rest inlining into itself.
        s.inline_budget = 4;
        let out = s.exp(body);
        // Both call sites of `wrap` received a copy of `lp`, under fresh
        // names that resolve to `lp` in the nest table.
        let copies: Vec<Var> = s
            .cloned_from
            .iter()
            .filter(|(_, o)| **o == lp)
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(copies.len(), 2, "two clones of lp: {:?}", s.cloned_from);
        for c in &copies {
            assert_ne!(*c, lp);
            assert_eq!(
                s.uses_in(*c, *c),
                1,
                "clone {c} of lp must count its self-call"
            );
        }
        // Only `wrap` was registered for clone-inlining: the original
        // loop and both copies were classified self-recursive.
        let small: Vec<Var> = s.small.keys().copied().collect();
        assert_eq!(small, vec![wrap]);
        assert!(out.size() > 0);
    }

    /// SplitMix64, for reproducible random scopes.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_atom(r: &mut SplitMix, vars: &[Var]) -> Atom {
        if r.below(3) == 0 {
            Atom::Int(r.below(9) as i64 - 4)
        } else {
            Atom::Var(vars[r.below(vars.len() as u64) as usize])
        }
    }

    fn random_bound(r: &mut SplitMix) -> Option<i64> {
        (r.below(3) != 0).then(|| r.below(21) as i64 - 10)
    }

    /// Random changes and nested scopes; every scope checks that its
    /// unwind restores exactly the state at its mark.
    fn random_scope(
        r: &mut SplitMix,
        vars: &[Var],
        facts: &mut Facts,
        cse: &mut CseTable,
        depth: usize,
    ) {
        for _ in 0..r.below(12) {
            match r.below(5) {
                0 => {
                    let v = vars[r.below(vars.len() as u64) as usize];
                    let (lo, hi) = (random_bound(r), random_bound(r));
                    facts.narrow(v, lo, hi);
                }
                1 => facts.add_lt(random_atom(r, vars), random_atom(r, vars)),
                2 => facts.add_le(random_atom(r, vars), random_atom(r, vars)),
                3 => {
                    let key = CseKey::Select(r.below(4) as usize, atom_key(&random_atom(r, vars)));
                    if !cse.map.contains_key(&key) {
                        cse.insert(key, vars[r.below(vars.len() as u64) as usize]);
                    }
                }
                _ if depth < 4 => {
                    let at_mark = (facts.clone(), cse.clone());
                    let (fm, cm) = (facts.mark(), cse.added.len());
                    random_scope(r, vars, facts, cse, depth + 1);
                    facts.unwind(fm);
                    cse.unwind(cm);
                    assert_eq!(facts, &at_mark.0, "facts differ after unwind");
                    assert_eq!(cse, &at_mark.1, "CSE table differs after unwind");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn unwinding_a_scope_restores_the_state_at_its_mark() {
        let mut vs = VarSupply::new();
        let vars: Vec<Var> = (0..5).map(|_| vs.fresh()).collect();
        for seed in 0..300 {
            let r = &mut SplitMix(seed);
            let mut facts = Facts::default();
            let mut cse = CseTable::default();
            // Outer state that no scope may disturb.
            facts.narrow(vars[0], Some(0), None);
            for _ in 0..8 {
                let at_mark = (facts.clone(), cse.clone());
                let (fm, cm) = (facts.mark(), cse.added.len());
                random_scope(r, &vars, &mut facts, &mut cse, 0);
                facts.unwind(fm);
                cse.unwind(cm);
                assert_eq!(facts, at_mark.0, "seed {seed}: facts differ after unwind");
                assert_eq!(
                    cse, at_mark.1,
                    "seed {seed}: CSE table differs after unwind"
                );
                // Changes outside any scope persist.
                random_scope(r, &vars, &mut facts, &mut cse, 4);
            }
        }
    }
}

//! Occurrence counting over Bform.
//!
//! The inliner's decisions (paper §3.3: "non-escaping functions that
//! are called only once are always inlined") need to know, for every
//! variable, how many times it occurs, how many of those occurrences
//! are in callee position, and whether it escapes (occurs anywhere
//! else).

use std::collections::HashMap;
use til_bform::{Atom, BExp, BRhs, BSwitch};
use til_common::Var;

/// Per-variable occurrence counts.
#[derive(Debug, Default, Clone)]
pub struct Census {
    /// Occurrences in callee position of an `App`.
    pub calls: HashMap<Var, usize>,
    /// All other occurrences (arguments, record fields, scrutinees...).
    pub escapes: HashMap<Var, usize>,
}

impl Census {
    /// Total occurrences of `v`.
    pub fn uses(&self, v: Var) -> usize {
        self.calls.get(&v).copied().unwrap_or(0) + self.escapes.get(&v).copied().unwrap_or(0)
    }

    /// Number of call-position occurrences.
    pub fn calls(&self, v: Var) -> usize {
        self.calls.get(&v).copied().unwrap_or(0)
    }

    /// Number of escaping (non-call) occurrences.
    pub fn escapes(&self, v: Var) -> usize {
        self.escapes.get(&v).copied().unwrap_or(0)
    }
}

/// Counts occurrences in a whole expression.
pub fn census(e: &BExp) -> Census {
    let mut w = Walker::default();
    w.exp(e);
    w.census
}

/// Counts occurrences in a whole expression and, in the same walk,
/// builds the [`NestCounts`] of every `fix` nest in it.
pub fn census_with_nests(e: &BExp) -> (Census, NestCounts) {
    let mut w = Walker {
        nests: Some(NestWalk::default()),
        ..Walker::default()
    };
    w.exp(e);
    (w.census, w.nests.unwrap_or_default().counts)
}

/// Occurrences of `fix` nest members inside their own nest: for a
/// member `f` and a member `g` of the same nest, how often `g` occurs
/// in `f`'s body, nested functions included. This is
/// `census(&f.body).uses(g)` for every such pair, from one walk over
/// the whole program instead of one walk per body.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NestCounts {
    /// `(f, g)` → occurrences of `g` in `f`'s body.
    pairs: HashMap<(Var, Var), usize>,
    /// `f` → occurrences of any member of `f`'s nest in `f`'s body.
    in_body: HashMap<Var, usize>,
    /// `g` → occurrences of `g` in the bodies of its nest.
    in_nest: HashMap<Var, usize>,
    /// Member → index of its nest.
    nest_of: HashMap<Var, usize>,
}

impl NestCounts {
    /// Occurrences of `g` in `f`'s body (`f`, `g` in one nest).
    pub fn uses_in(&self, f: Var, g: Var) -> usize {
        self.pairs.get(&(f, g)).copied().unwrap_or(0)
    }

    /// Occurrences of any member of `f`'s nest in `f`'s body.
    pub fn nest_uses_in(&self, f: Var) -> usize {
        self.in_body.get(&f).copied().unwrap_or(0)
    }

    /// Occurrences of `g` in the bodies of its own nest.
    pub fn uses_within_nest(&self, g: Var) -> usize {
        self.in_nest.get(&g).copied().unwrap_or(0)
    }

    /// Whether `v` names a function of some nest.
    pub fn is_member(&self, v: Var) -> bool {
        self.nest_of.contains_key(&v)
    }
}

/// The nest bookkeeping of a [`census_with_nests`] walk.
#[derive(Default)]
struct NestWalk {
    /// Per nest, the member whose body the walk is inside, if any.
    inside: Vec<Option<Var>>,
    counts: NestCounts,
}

impl NestWalk {
    fn occurrence(&mut self, g: Var) {
        let Some(&n) = self.counts.nest_of.get(&g) else {
            return;
        };
        if let Some(f) = self.inside[n] {
            let c = &mut self.counts;
            *c.pairs.entry((f, g)).or_insert(0) += 1;
            *c.in_body.entry(f).or_insert(0) += 1;
            *c.in_nest.entry(g).or_insert(0) += 1;
        }
    }
}

#[derive(Default)]
struct Walker {
    census: Census,
    nests: Option<NestWalk>,
}

impl Walker {
    fn call(&mut self, a: &Atom) {
        if let Atom::Var(v) = a {
            *self.census.calls.entry(*v).or_insert(0) += 1;
            if let Some(n) = &mut self.nests {
                n.occurrence(*v);
            }
        }
    }

    fn escape(&mut self, a: &Atom) {
        if let Atom::Var(v) = a {
            *self.census.escapes.entry(*v).or_insert(0) += 1;
            if let Some(n) = &mut self.nests {
                n.occurrence(*v);
            }
        }
    }

    fn exp(&mut self, e: &BExp) {
        match e {
            BExp::Ret(a) => self.escape(a),
            BExp::Let { rhs, body, .. } => {
                self.rhs(rhs);
                self.exp(body);
            }
            BExp::Fix { funs, body } => {
                let nest = self.nests.as_mut().map(|n| {
                    let id = n.inside.len();
                    n.inside.push(None);
                    for f in funs {
                        n.counts.nest_of.insert(f.var, id);
                    }
                    id
                });
                for f in funs {
                    self.enter(nest, Some(f.var));
                    self.exp(&f.body);
                }
                self.enter(nest, None);
                self.exp(body);
            }
        }
    }

    /// Records that the walk is now inside `member`'s body of `nest`
    /// (or inside neither body, for `None`).
    fn enter(&mut self, nest: Option<usize>, member: Option<Var>) {
        if let (Some(n), Some(id)) = (&mut self.nests, nest) {
            n.inside[id] = member;
        }
    }

    fn rhs(&mut self, r: &BRhs) {
        match r {
            BRhs::Atom(a) | BRhs::Select(_, a) => self.escape(a),
            BRhs::Float(_) | BRhs::Str(_) => {}
            BRhs::Record(atoms) => atoms.iter().for_each(|a| self.escape(a)),
            BRhs::Con { args, .. } => args.iter().for_each(|a| self.escape(a)),
            BRhs::ExnCon { arg, .. } => {
                if let Some(a) = arg {
                    self.escape(a);
                }
            }
            BRhs::Prim { args, .. } => args.iter().for_each(|a| self.escape(a)),
            BRhs::App { f, args, .. } => {
                self.call(f);
                args.iter().for_each(|a| self.escape(a));
            }
            BRhs::Raise { exn, .. } => self.escape(exn),
            BRhs::Handle { body, handler, .. } => {
                self.exp(body);
                self.exp(handler);
            }
            BRhs::Typecase {
                int, float, ptr, ..
            } => {
                self.exp(int);
                self.exp(float);
                self.exp(ptr);
            }
            BRhs::Switch(sw) => match sw {
                BSwitch::Int {
                    scrut,
                    arms,
                    default,
                    ..
                } => {
                    self.escape(scrut);
                    arms.iter().for_each(|(_, a)| self.exp(a));
                    self.exp(default);
                }
                BSwitch::Data {
                    scrut,
                    arms,
                    default,
                    ..
                } => {
                    self.escape(scrut);
                    arms.iter().for_each(|(_, _, a)| self.exp(a));
                    if let Some(d) = default {
                        self.exp(d);
                    }
                }
                BSwitch::Str {
                    scrut,
                    arms,
                    default,
                    ..
                } => {
                    self.escape(scrut);
                    arms.iter().for_each(|(_, a)| self.exp(a));
                    self.exp(default);
                }
                BSwitch::Exn {
                    scrut,
                    arms,
                    default,
                    ..
                } => {
                    self.escape(scrut);
                    arms.iter().for_each(|(_, _, a)| self.exp(a));
                    self.exp(default);
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OptOptions;
    use til_bench::gen::{generate_class, Class};
    use til_bform::BProgram;
    use til_common::VarSupply;
    use til_lmli::LmliOptions;

    /// Every nest of `e`, as its members' `(var, body)` pairs.
    fn nests<'e>(e: &'e BExp, out: &mut Vec<Vec<(Var, &'e BExp)>>) {
        match e {
            BExp::Ret(_) => {}
            BExp::Let { rhs, body, .. } => {
                match rhs {
                    BRhs::Handle { body, handler, .. } => {
                        nests(body, out);
                        nests(handler, out);
                    }
                    BRhs::Typecase {
                        int, float, ptr, ..
                    } => {
                        for x in [int, float, ptr] {
                            nests(x, out);
                        }
                    }
                    BRhs::Switch(BSwitch::Int { arms, default, .. }) => {
                        arms.iter().for_each(|(_, a)| nests(a, out));
                        nests(default, out);
                    }
                    BRhs::Switch(BSwitch::Str { arms, default, .. }) => {
                        arms.iter().for_each(|(_, a)| nests(a, out));
                        nests(default, out);
                    }
                    BRhs::Switch(BSwitch::Exn { arms, default, .. }) => {
                        arms.iter().for_each(|(_, _, a)| nests(a, out));
                        nests(default, out);
                    }
                    BRhs::Switch(BSwitch::Data { arms, default, .. }) => {
                        arms.iter().for_each(|(_, _, a)| nests(a, out));
                        if let Some(d) = default {
                            nests(d, out);
                        }
                    }
                    _ => {}
                }
                nests(body, out);
            }
            BExp::Fix { funs, body } => {
                out.push(funs.iter().map(|f| (f.var, &f.body)).collect());
                for f in funs {
                    nests(&f.body, out);
                }
                nests(body, out);
            }
        }
    }

    /// The per-body oracle: `census(&f.body).uses(g)` for every member
    /// `f` and sibling `g` of every nest, against the one-walk table.
    fn assert_table_matches_per_body_census(what: &str, e: &BExp) {
        let (whole, table) = census_with_nests(e);
        assert_eq!(whole.calls, census(e).calls, "{what}: census calls");
        assert_eq!(whole.escapes, census(e).escapes, "{what}: census escapes");
        let mut all = Vec::new();
        nests(e, &mut all);
        assert!(!all.is_empty(), "{what}: no fix nests");
        for nest in &all {
            let per_body: Vec<Census> = nest.iter().map(|(_, b)| census(b)).collect();
            for (i, (f, _)) in nest.iter().enumerate() {
                assert!(table.is_member(*f), "{what}: {f} not a member");
                let mut in_body = 0;
                let mut in_nest = 0;
                for (j, (g, _)) in nest.iter().enumerate() {
                    let want = per_body[i].uses(*g);
                    assert_eq!(table.uses_in(*f, *g), want, "{what}: uses of {g} in {f}");
                    in_body += want;
                    in_nest += per_body[j].uses(*f);
                }
                assert_eq!(table.nest_uses_in(*f), in_body, "{what}: nest uses in {f}");
                assert_eq!(
                    table.uses_within_nest(*f),
                    in_nest,
                    "{what}: uses of {f} in its nest"
                );
            }
        }
    }

    fn bform(src: &str, lmli: &LmliOptions) -> (BProgram, VarSupply) {
        til_common::with_big_stack(|| {
            let prelude = til_syntax::parse(til_elab::PRELUDE).expect("prelude parses");
            let unit = til_elab::prelude_unit(&prelude).expect("prelude elaborates");
            let user = til_syntax::parse(src).expect("program parses");
            let e = til_elab::elaborate_user(&unit, &user).expect("program elaborates");
            let mut vars = e.vars;
            let mut m = til_lmli::from_lambda(&e.program, lmli, &mut vars).expect("to Lmli");
            til_lmli::prune_dead(&mut m);
            let b = til_bform::from_lmli(&m, &mut vars).expect("to Bform");
            (b, vars)
        })
    }

    #[test]
    fn nest_table_matches_per_body_census_on_the_corpus() {
        let mut programs: Vec<(String, String)> = til_bench::suite()
            .into_iter()
            .map(|b| (b.name.to_string(), b.source.to_string()))
            .collect();
        // The corpus seed of the differential suite, whose baseline
        // Mixed program grows several-fold under inlining.
        for class in Class::ALL {
            programs.push((
                format!("{class:?}"),
                generate_class(0x05ee_d711_0002, class).source,
            ));
        }
        let configs = [
            ("til", LmliOptions::til(), OptOptions::til()),
            ("baseline", LmliOptions::baseline(), OptOptions::baseline()),
        ];
        for (name, src) in &programs {
            for (config, lmli, opt) in &configs {
                let (mut p, mut vs) = bform(src, lmli);
                assert_table_matches_per_body_census(&format!("{name}/{config}/before"), &p.body);
                til_common::with_big_stack(|| crate::optimize(&mut p, &mut vs, opt))
                    .expect("optimizes");
                assert_table_matches_per_body_census(&format!("{name}/{config}/after"), &p.body);
            }
        }
    }

    #[test]
    fn counts_calls_vs_escapes() {
        let mut vs = VarSupply::new();
        let f = vs.fresh();
        let x = vs.fresh();
        let y = vs.fresh();
        // let x = f(f) in ret x  — one call of f, one escape of f.
        let e = BExp::Let {
            var: x,
            rhs: BRhs::App {
                f: Atom::Var(f),
                cargs: vec![],
                args: vec![Atom::Var(f)],
            },
            body: Box::new(BExp::Ret(Atom::Var(x))),
        };
        let c = census(&e);
        assert_eq!(c.calls(f), 1);
        assert_eq!(c.escapes(f), 1);
        assert_eq!(c.uses(x), 1);
        assert_eq!(c.uses(y), 0);
    }
}

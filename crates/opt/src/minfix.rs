//! Fix minimization (paper §3.3): break each `fix` nest into its
//! strongly connected components and re-nest them in dependency order.
//! Separating non-recursive functions from recursive ones improves
//! both inlining (non-recursive singletons become inlinable) and
//! dead-code elimination.

use crate::census::census;
use std::collections::HashMap;
use til_bform::{Atom, BExp, BFun, BProgram, BRhs};
use til_common::Var;

/// Runs fix minimization; returns true if any nest was split.
pub fn minimize_fix(p: &mut BProgram) -> bool {
    let mut changed = false;
    let body = std::mem::replace(&mut p.body, BExp::Ret(Atom::Int(0)));
    p.body = exp(body, &mut changed);
    changed
}

fn exp(e: BExp, changed: &mut bool) -> BExp {
    match e {
        BExp::Ret(a) => BExp::Ret(a),
        BExp::Let { var, mut rhs, body } => {
            rewrite_nested(&mut rhs, changed);
            BExp::Let {
                var,
                rhs,
                body: Box::new(exp(*body, changed)),
            }
        }
        BExp::Fix { funs, body } => {
            let funs: Vec<BFun> = funs
                .into_iter()
                .map(|mut f| {
                    let b = std::mem::replace(&mut f.body, BExp::Ret(Atom::Int(0)));
                    f.body = exp(b, changed);
                    f
                })
                .collect();
            let body = exp(*body, changed);
            if funs.len() <= 1 {
                return BExp::Fix {
                    funs,
                    body: Box::new(body),
                };
            }
            // Dependency graph: i -> j if fun i's body references fun j.
            let idx: HashMap<Var, usize> =
                funs.iter().enumerate().map(|(i, f)| (f.var, i)).collect();
            let edges: Vec<Vec<usize>> = funs
                .iter()
                .map(|f| {
                    let c = census(&f.body);
                    funs.iter()
                        .enumerate()
                        .filter(|(_, g)| c.uses(g.var) > 0)
                        .map(|(j, _)| j)
                        .collect()
                })
                .collect();
            let sccs = tarjan(funs.len(), &edges);
            if sccs.len() <= 1 {
                return BExp::Fix {
                    funs,
                    body: Box::new(body),
                };
            }
            *changed = true;
            // Tarjan emits SCCs in reverse topological order (callees
            // first); nest so that later components see earlier ones.
            // The SCCs partition the nest, so every slot is taken once.
            let mut slots: Vec<Option<BFun>> = funs.into_iter().map(Some).collect();
            let mut out = body;
            for comp in sccs.into_iter().rev() {
                let group: Vec<BFun> = comp.into_iter().filter_map(|i| slots[i].take()).collect();
                out = BExp::Fix {
                    funs: group,
                    body: Box::new(out),
                };
            }
            let _ = idx;
            out
        }
    }
}

fn rewrite_nested(r: &mut BRhs, changed: &mut bool) {
    use til_bform::BSwitch;
    let subs: Vec<&mut BExp> = match r {
        BRhs::Switch(sw) => match sw {
            BSwitch::Int { arms, default, .. } => arms
                .iter_mut()
                .map(|(_, a)| a)
                .chain(std::iter::once(&mut **default))
                .collect(),
            BSwitch::Data { arms, default, .. } => arms
                .iter_mut()
                .map(|(_, _, a)| a)
                .chain(default.iter_mut().map(|d| &mut **d))
                .collect(),
            BSwitch::Str { arms, default, .. } => arms
                .iter_mut()
                .map(|(_, a)| a)
                .chain(std::iter::once(&mut **default))
                .collect(),
            BSwitch::Exn { arms, default, .. } => arms
                .iter_mut()
                .map(|(_, _, a)| a)
                .chain(std::iter::once(&mut **default))
                .collect(),
        },
        BRhs::Typecase {
            int, float, ptr, ..
        } => vec![int, float, ptr],
        BRhs::Handle { body, handler, .. } => vec![body, handler],
        _ => vec![],
    };
    for sub in subs {
        let owned = std::mem::replace(sub, BExp::Ret(Atom::Int(0)));
        *sub = exp(owned, changed);
    }
}

/// Tarjan's SCC algorithm; returns components in reverse topological
/// order (callees before callers).
fn tarjan(n: usize, edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    /// `index` of a vertex not yet visited.
    const UNVISITED: usize = usize::MAX;
    struct St<'a> {
        edges: &'a [Vec<usize>],
        index: Vec<usize>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        counter: usize,
        out: Vec<Vec<usize>>,
    }
    fn strong(v: usize, st: &mut St) {
        st.index[v] = st.counter;
        st.low[v] = st.counter;
        st.counter += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        let edges = st.edges;
        for &w in &edges[v] {
            if st.index[w] == UNVISITED {
                strong(w, st);
                st.low[v] = st.low[v].min(st.low[w]);
            } else if st.on_stack[w] {
                st.low[v] = st.low[v].min(st.index[w]);
            }
        }
        if st.low[v] == st.index[v] {
            // Pop the component: everything above and including `v`.
            let mut comp = Vec::new();
            while let Some(w) = st.stack.pop() {
                st.on_stack[w] = false;
                comp.push(w);
                if w == v {
                    break;
                }
            }
            st.out.push(comp);
        }
    }
    let mut st = St {
        edges,
        index: vec![UNVISITED; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        counter: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if st.index[v] == UNVISITED {
            strong(v, &mut st);
        }
    }
    st.out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tarjan_splits_chain() {
        // 0 -> 1 -> 2, no cycles: three components, callees first.
        let edges = vec![vec![1], vec![2], vec![]];
        let sccs = tarjan(3, &edges);
        assert_eq!(sccs.len(), 3);
        assert_eq!(sccs[0], vec![2]);
        assert_eq!(sccs[2], vec![0]);
    }

    #[test]
    fn tarjan_keeps_cycles_together() {
        // 0 <-> 1, 2 isolated.
        let edges = vec![vec![1], vec![0], vec![]];
        let sccs = tarjan(3, &edges);
        assert_eq!(sccs.iter().filter(|c| c.len() == 2).count(), 1);
    }
}

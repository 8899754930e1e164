//! Register allocation (paper §3.7): values live across calls (all
//! registers are caller-save in our convention) get stack-frame slots
//! — which is exactly what the nearly tag-free GC tables describe —
//! and the remaining, call-free live ranges are colored by
//! Chaitin-style graph coloring over the target's allocatable
//! registers (described by a [`RegFile`], so every target shares this
//! allocator). Tail calls keep loop-carried values in registers
//! (nothing is live across a tail call), so tight loops run
//! register-resident, as in the paper's Figure 7.

use crate::liveness::{defs, liveness, uses, Liveness};
use std::collections::{BTreeSet, HashMap, HashSet};
use til_lir::{Assignment, RegFile};
use til_rtl::{RInstr, RtlFun, VReg};

pub use til_lir::Loc;

/// Number of colorable registers on the VM target (r0..r21; r22/r23
/// are backend scratch, r24+ are special).
pub const K: usize = crate::targets::vm::VM_REG_FILE.allocatable;

/// Allocation result.
pub struct Alloc {
    /// vreg locations and the number of frame slots used.
    pub assign: Assignment,
    /// Liveness (reused by the emitter for GC tables).
    pub live: Liveness,
}

fn is_call(i: &RInstr) -> bool {
    matches!(
        i,
        RInstr::Call { .. } | RInstr::CallRt { .. } | RInstr::PushHandler { .. }
    )
}

/// Allocates registers and slots for one function against the VM
/// target's register file.
pub fn allocate(f: &RtlFun) -> Alloc {
    allocate_for(f, &crate::targets::vm::VM_REG_FILE)
}

/// Allocates registers and slots for one function against an arbitrary
/// target register file: colors `0..rf.allocatable` are handed out,
/// everything else spills to frame slots. Colors `0..rf.num_args` are
/// the argument registers of the target's convention.
pub fn allocate_for(f: &RtlFun, rf: &RegFile) -> Alloc {
    let live = liveness(f);
    // 1. Values live across calls (or into handlers) get slots.
    let mut slotted = live_across_calls(f, &live);
    // 2. Color the rest; on failure move more vregs to slots.
    let mut loc: HashMap<VReg, Loc> = HashMap::new();
    loop {
        match try_color(f, &live, &slotted, rf.allocatable) {
            Ok(colors) => {
                for (v, c) in colors {
                    loc.insert(v, Loc::Reg(c));
                }
                break;
            }
            Err(spill) => {
                slotted.insert(spill);
            }
        }
    }
    let mut slots: Vec<VReg> = slotted.into_iter().collect();
    slots.sort();
    for (i, v) in slots.iter().enumerate() {
        loc.insert(*v, Loc::Slot(i as u32));
    }
    Alloc {
        assign: Assignment {
            loc,
            nslots: slots.len() as u32,
        },
        live,
    }
}

/// The vregs live across a call (or into a handler), other than the
/// call's own result.
fn live_across_calls(f: &RtlFun, live: &Liveness) -> HashSet<VReg> {
    let mut slotted: HashSet<VReg> = HashSet::new();
    for (i, ins) in f.instrs.iter().enumerate() {
        if is_call(ins) {
            for v in &live.live_out[i] {
                if Some(*v) != defs(ins) {
                    slotted.insert(*v);
                }
            }
        }
    }
    slotted
}

/// Interference graph: every node's neighbour set.
type Adjacency = HashMap<VReg, HashSet<VReg>>;

/// Builds the interference graph over non-slotted vregs and colors it;
/// returns a spill candidate on failure.
fn try_color(
    f: &RtlFun,
    live: &Liveness,
    slotted: &HashSet<VReg>,
    k: usize,
) -> Result<HashMap<VReg, u8>, VReg> {
    let (nodes, adj) = interference(f, live, slotted);
    select(simplify(&nodes, &adj, k), &adj, k)
}

/// The interference graph over non-slotted vregs; nodes come back
/// sorted.
fn interference(f: &RtlFun, live: &Liveness, slotted: &HashSet<VReg>) -> (Vec<VReg>, Adjacency) {
    let mut nodes: HashSet<VReg> = HashSet::new();
    for ins in &f.instrs {
        if let Some(d) = defs(ins) {
            nodes.insert(d);
        }
        for u in uses(ins) {
            nodes.insert(u);
        }
    }
    for p in &f.params {
        nodes.insert(*p);
    }
    nodes.retain(|v| !slotted.contains(v));
    let mut adj: Adjacency = nodes.iter().map(|v| (*v, HashSet::new())).collect();
    let add_edge = |adj: &mut Adjacency, a: VReg, b: VReg| {
        if a != b {
            if let Some(s) = adj.get_mut(&a) {
                s.insert(b);
            }
            if let Some(s) = adj.get_mut(&b) {
                s.insert(a);
            }
        }
    };
    // Parameters are mutually live at entry.
    for (i, a) in f.params.iter().enumerate() {
        for b in &f.params[i + 1..] {
            add_edge(&mut adj, *a, *b);
        }
    }
    for (i, ins) in f.instrs.iter().enumerate() {
        if let Some(d) = defs(ins) {
            if !slotted.contains(&d) {
                for v in &live.live_out[i] {
                    if !slotted.contains(v) {
                        add_edge(&mut adj, d, *v);
                    }
                }
            }
        }
    }
    let mut nodes: Vec<VReg> = nodes.into_iter().collect();
    nodes.sort_unstable();
    (nodes, adj)
}

/// Simplify with optimistic coloring: repeatedly removes a low-degree
/// node (smallest degree first), else the highest-degree one, ties
/// broken by the smallest vreg. Returns the removal stack.
fn simplify(nodes: &[VReg], adj: &Adjacency, k: usize) -> Vec<VReg> {
    let key = |d: usize| if d < k { (0, d) } else { (1, usize::MAX - d) };
    let mut degree: HashMap<VReg, usize> = adj.iter().map(|(v, s)| (*v, s.len())).collect();
    let mut queue: BTreeSet<((usize, usize), VReg)> =
        nodes.iter().map(|v| (key(degree[v]), *v)).collect();
    let mut stack: Vec<VReg> = Vec::with_capacity(nodes.len());
    while let Some((_, pick)) = queue.pop_first() {
        stack.push(pick);
        for n in &adj[&pick] {
            if let Some(d) = degree.get_mut(n) {
                // Only neighbours still queued are re-keyed; a removed
                // one's degree is never read again.
                if queue.remove(&(key(*d), *n)) {
                    *d -= 1;
                    queue.insert((key(*d), *n));
                }
            }
        }
    }
    stack
}

/// Assigns colors in reverse removal order; returns the first node
/// left without a color as the spill candidate.
fn select(mut stack: Vec<VReg>, adj: &Adjacency, k: usize) -> Result<HashMap<VReg, u8>, VReg> {
    let mut colors: HashMap<VReg, u8> = HashMap::new();
    while let Some(v) = stack.pop() {
        let used: HashSet<u8> = adj[&v]
            .iter()
            .filter_map(|n| colors.get(n).copied())
            .collect();
        match (0..k as u8).find(|c| !used.contains(c)) {
            Some(c) => {
                colors.insert(v, c);
            }
            None => return Err(v),
        }
    }
    Ok(colors)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference picker the ordered set replaced: every step
    /// rescans all unremoved nodes, in vreg order, for the smallest
    /// key. Quadratic in the node count; kept only as the oracle.
    fn simplify_linear_scan(nodes: &[VReg], adj: &Adjacency, k: usize) -> Vec<VReg> {
        let mut degree: HashMap<VReg, usize> = adj.iter().map(|(v, s)| (*v, s.len())).collect();
        let mut stack: Vec<VReg> = Vec::new();
        let mut removed: HashSet<VReg> = HashSet::new();
        while removed.len() < nodes.len() {
            let pick = nodes
                .iter()
                .filter(|v| !removed.contains(v))
                .min_by_key(|v| {
                    let d = degree[v];
                    if d < k {
                        (0usize, d)
                    } else {
                        (1usize, usize::MAX - d)
                    }
                })
                .copied()
                .expect("nonempty");
            removed.insert(pick);
            stack.push(pick);
            for n in &adj[&pick] {
                if let Some(d) = degree.get_mut(n) {
                    *d = d.saturating_sub(1);
                }
            }
        }
        stack
    }

    /// Both pickers give the same removal stack, hence the same colors
    /// (or the same spill candidate).
    fn assert_pickers_agree(
        nodes: &[VReg],
        adj: &Adjacency,
        k: usize,
    ) -> Result<HashMap<VReg, u8>, VReg> {
        let fast = simplify(nodes, adj, k);
        let slow = simplify_linear_scan(nodes, adj, k);
        assert_eq!(fast, slow, "removal stacks differ at k = {k}");
        let colors = select(fast, adj, k);
        assert_eq!(colors, select(slow, adj, k), "colors differ at k = {k}");
        colors
    }

    /// splitmix64.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn ordered_picker_matches_linear_scan_on_random_graphs() {
        let mut rng = 0x5eed_c010_u64;
        let (mut spilled, mut colored) = (0, 0);
        for _ in 0..300 {
            let n = 1 + (next(&mut rng) % 120) as usize;
            // Sparse, sorted vreg numbering; edge density from empty to
            // dense.
            let nodes: Vec<VReg> = (0..n as u32)
                .map(|i| i * 7 + (next(&mut rng) % 7) as u32)
                .collect();
            let density = next(&mut rng) % 101;
            let mut adj: Adjacency = nodes.iter().map(|v| (*v, HashSet::new())).collect();
            for (i, &a) in nodes.iter().enumerate() {
                for &b in &nodes[i + 1..] {
                    if next(&mut rng) % 100 < density {
                        adj.get_mut(&a).expect("node").insert(b);
                        adj.get_mut(&b).expect("node").insert(a);
                    }
                }
            }
            let max_degree = adj.values().map(HashSet::len).max().unwrap_or(0);
            for k in [1, 2, max_degree / 2, max_degree, max_degree + 1, K] {
                match assert_pickers_agree(&nodes, &adj, k.max(1)) {
                    Ok(_) => colored += 1,
                    Err(_) => spilled += 1,
                }
            }
        }
        assert!(
            spilled > 0 && colored > 0,
            "both outcomes exercised: {spilled} / {colored}"
        );
    }

    /// Lowers a program to RTL the way the compiler does.
    fn rtl_of(src: &str, opts: &til::Options) -> til_rtl::RtlProgram {
        til_common::with_big_stack(|| {
            let prelude = til_syntax::parse(til_elab::PRELUDE)?;
            let unit = til_elab::prelude_unit(&prelude)?;
            let e = til_elab::elaborate_user(&unit, &til_syntax::parse(src)?)?;
            let mut vars = e.vars;
            let mut m = til_lmli::from_lambda(&e.program, &opts.lmli, &mut vars)?;
            til_lmli::prune_dead(&mut m);
            let mut b = til_bform::from_lmli(&m, &mut vars)?;
            til_opt::optimize_traced(&mut b, &mut vars, &opts.opt, None)?;
            let copts = til_closure::ClosureOptions::til(false);
            let (c, _) = til_closure::convert_and_optimize(&b, &mut vars, &copts, None)?;
            til_rtl::lower(&c, opts.mode == til::Mode::Baseline, 1, None)
        })
        .expect("generated program compiles")
    }

    /// On every function of one program per generator class, in both
    /// modes, the pickers agree at every coloring attempt of the
    /// allocator's spill loop.
    #[test]
    fn ordered_picker_matches_linear_scan_on_generated_programs() {
        use til_bench::gen::{generate_class, Class};
        let classes = [
            Class::Mixed,
            Class::Exceptions,
            Class::Strings,
            Class::Readers,
            Class::HigherOrder,
        ];
        let mut funs = 0;
        for class in classes {
            let src = generate_class(0x05ee_d711_0002, class).source;
            for opts in [til::Options::til(), til::Options::baseline()] {
                for f in &rtl_of(&src, &opts).funs {
                    let live = liveness(f);
                    let mut slotted = live_across_calls(f, &live);
                    loop {
                        let (nodes, adj) = interference(f, &live, &slotted);
                        match assert_pickers_agree(&nodes, &adj, K) {
                            Ok(_) => break,
                            Err(spill) => {
                                slotted.insert(spill);
                            }
                        }
                    }
                    funs += 1;
                }
            }
        }
        assert!(funs > 10, "{funs} functions checked");
    }
}

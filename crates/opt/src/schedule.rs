//! The pass schedule (paper §3.3): first iterate the *reduction*
//! optimizations to a fixpoint — dead-code elimination, constant
//! folding, inlining functions called once, CSE, redundant-switch
//! elimination, invariant removal — then run switch-continuation
//! inlining, sinking, uncurrying, comparison elimination, fix
//! minimization, and (small-function) inlining; the entire process is
//! iterated two or more times. Polymorphic-instance specialization is
//! interleaved so that ground applications of recursive polymorphic
//! functions monomorphize (see `specialize.rs`).
//!
//! With `verify` set, the Bform typechecker runs after *every* pass —
//! the paper's headline engineering practice ("type-checking the
//! output of each optimization ... helps us identify and eliminate
//! bugs in the compiler"). A verify failure is attributed to the pass
//! that produced it and comes with pretty-printed before/after IR
//! dumps, turning any miscompile into a one-pass bisection; see
//! [`fault`] for the injection hook that keeps this machinery tested.

use crate::flatten::flatten_args;
use crate::invariant::{hoist_constants, invariant_removal};
use crate::minfix::minimize_fix;
use crate::signs::sign_analysis;
use crate::simplify::{simplify, simplify_with_signs, SimplifyOpts};
use crate::sink::sink;
use crate::specialize::{count_polymorphic, count_typecases, specialize};
use crate::switch_cont::inline_switch_continuations;
use crate::uncurry::uncurry;
use til_bform::{typecheck_bform, BProgram};
use til_common::{Diagnostic, Result, Tracer, VarSupply};

/// Optimizer configuration.
#[derive(Clone, Copy, Debug)]
pub struct OptOptions {
    /// Master switch: false skips the whole optimizer.
    pub enabled: bool,
    /// The paper's loop-oriented set (CSE, invariant removal, hoisting,
    /// comparison elimination, redundant-switch elimination) — the
    /// Table 7 / Figure 12 ablation toggle.
    pub loop_opts: bool,
    /// Allow inlining (once + small) and uncurrying.
    pub inline: bool,
    /// Argument flattening (worker/wrapper; paper §3.2).
    pub flatten: bool,
    /// Size bound for small-function inlining.
    pub max_inline_size: usize,
    /// Specialize polymorphic instances at ground types.
    pub specialize: bool,
    /// Enable sinking.
    pub sink: bool,
    /// Enable fix minimization.
    pub minfix: bool,
    /// Enable switch-continuation inlining.
    pub switch_cont: bool,
    /// Outer iterations (paper: "two or more times").
    pub rounds: usize,
    /// Typecheck after every pass.
    pub verify: bool,
}

impl OptOptions {
    /// Full TIL optimization.
    pub fn til() -> OptOptions {
        OptOptions {
            enabled: true,
            loop_opts: true,
            inline: true,
            flatten: true,
            max_inline_size: 60,
            specialize: true,
            sink: true,
            minfix: true,
            switch_cont: true,
            rounds: 3,
            verify: false,
        }
    }

    /// TIL without the loop-oriented optimizations (Table 7).
    pub fn til_no_loop_opts() -> OptOptions {
        OptOptions {
            loop_opts: false,
            ..OptOptions::til()
        }
    }

    /// The baseline comparator's optimizer: inlining and uncurrying
    /// only (SML/NJ's defaults did not include the loop-oriented set —
    /// Appel reports CSE "was not useful" there, §6).
    pub fn baseline() -> OptOptions {
        OptOptions {
            enabled: true,
            loop_opts: false,
            inline: true,
            flatten: false,
            max_inline_size: 40,
            specialize: true,
            sink: false,
            minfix: true,
            switch_cont: false,
            rounds: 2,
            verify: false,
        }
    }

    /// No optimization at all.
    pub fn none() -> OptOptions {
        OptOptions {
            enabled: false,
            loop_opts: false,
            inline: false,
            flatten: false,
            max_inline_size: 0,
            specialize: false,
            sink: false,
            minfix: false,
            switch_cont: false,
            rounds: 0,
            verify: false,
        }
    }
}

/// Aggregate record of every execution of one named pass.
#[derive(Clone, Debug, Default)]
pub struct PassStat {
    /// Pass name as attributed in verify diagnostics.
    pub name: &'static str,
    /// Times the pass ran.
    pub runs: usize,
    /// Total wall-clock seconds across runs.
    pub seconds: f64,
    /// Bform nodes removed (sum of shrinkage across runs).
    pub nodes_eliminated: u64,
    /// Bform nodes introduced (sum of growth across runs — inlining
    /// and flattening legitimately grow the program).
    pub nodes_added: u64,
}

/// What the optimizer did.
#[derive(Clone, Debug, Default)]
pub struct OptStats {
    /// Total passes executed.
    pub passes: usize,
    /// Reduction-fixpoint iterations used.
    pub reduce_iterations: usize,
    /// Polymorphic functions remaining after optimization (the paper
    /// reports 0 across its whole suite).
    pub remaining_polymorphic: usize,
    /// `typecase` expressions remaining after optimization.
    pub remaining_typecases: usize,
    /// Program size (Bform nodes) before optimization.
    pub size_before: usize,
    /// Program size after optimization.
    pub size_after: usize,
    /// Per-pass aggregates, in first-execution order.
    pub pass_stats: Vec<PassStat>,
}

impl OptStats {
    fn record(
        &mut self,
        name: &'static str,
        seconds: f64,
        size_before: usize,
        size_after: usize,
    ) {
        self.passes += 1;
        let i = match self.pass_stats.iter().position(|s| s.name == name) {
            Some(i) => i,
            None => {
                self.pass_stats.push(PassStat {
                    name,
                    ..PassStat::default()
                });
                self.pass_stats.len() - 1
            }
        };
        let stat = &mut self.pass_stats[i];
        stat.runs += 1;
        stat.seconds += seconds;
        stat.nodes_eliminated += size_before.saturating_sub(size_after) as u64;
        stat.nodes_added += size_after.saturating_sub(size_before) as u64;
    }
}

/// Fault injection: deliberately break a named pass so the verify
/// machinery itself stays tested.
///
/// When armed for pass `P` (programmatically via [`fault::break_pass`]
/// or with the `TIL_BREAK_PASS` environment variable), the scheduler
/// corrupts the program immediately after `P` runs by inserting a
/// reference to an unbound variable — a minimal, always-ill-typed
/// mutation. With `verify` on, the very next typecheck must then fail
/// *attributed to `P`*, proving the pass-bisection diagnostics work
/// end to end.
///
/// The arming registry is shared with every other pass-running stage
/// (it lives in [`til_common::fault`]), so the same hook also breaks
/// closure-stage passes by name.
pub mod fault {
    pub use til_common::fault::{armed, break_pass, Injection};
}

/// Scheduler context: runs one pass, times it, applies fault
/// injection, and — with `verify` — typechecks the result, attributing
/// failures to the pass and dumping before/after IR.
struct Runner<'a> {
    verify: bool,
    tracer: Option<&'a Tracer>,
    stats: OptStats,
}

impl Runner<'_> {
    fn run_pass(
        &mut self,
        p: &mut BProgram,
        vs: &mut VarSupply,
        name: &'static str,
        pass: impl FnOnce(&mut BProgram, &mut VarSupply) -> bool,
    ) -> Result<bool> {
        let size_before = p.body.size();
        let snapshot = if self.verify { Some(p.clone()) } else { None };
        let start = std::time::Instant::now();
        let changed = pass(p, vs);
        let seconds = start.elapsed().as_secs_f64();
        if fault::armed(name) {
            inject_unbound_var(p, vs);
        }
        let size_after = p.body.size();
        self.stats.record(name, seconds, size_before, size_after);
        if let Some(t) = self.tracer {
            t.event(
                name,
                seconds,
                &[
                    ("nodes-before", size_before as i64),
                    ("nodes-after", size_after as i64),
                ],
            );
        }
        if let Some(before) = snapshot {
            typecheck_bform(p).map_err(|d| attribute(name, &before, p, d))?;
        }
        Ok(changed)
    }
}

/// The minimal always-ill-typed mutation used by [`fault`]: bind a
/// fresh variable to another fresh — hence unbound — variable.
fn inject_unbound_var(p: &mut BProgram, vs: &mut VarSupply) {
    use til_bform::{Atom, BExp, BRhs};
    let body = std::mem::replace(&mut p.body, BExp::Ret(Atom::Int(0)));
    p.body = BExp::Let {
        var: vs.fresh_named("injected"),
        rhs: BRhs::Atom(Atom::Var(vs.fresh_named("unbound"))),
        body: Box::new(body),
    };
}

/// Builds the pass-attributed verify diagnostic via the shared
/// forensics helper: names the pass and writes pretty-printed
/// before/after IR dumps.
fn attribute(
    pass: &str,
    before: &BProgram,
    after: &BProgram,
    d: Diagnostic,
) -> Diagnostic {
    til_common::verify::attribute_pass_failure(
        "optimize",
        pass,
        &til_bform::print::program(before),
        &til_bform::print::program(after),
        "bform",
        d,
    )
}

/// Runs the full schedule.
pub fn optimize(
    p: &mut BProgram,
    vs: &mut VarSupply,
    opts: &OptOptions,
) -> Result<OptStats> {
    optimize_traced(p, vs, opts, None)
}

/// Runs the full schedule, reporting each pass as a span on `tracer`
/// (with node-count counters) when one is supplied.
pub fn optimize_traced(
    p: &mut BProgram,
    vs: &mut VarSupply,
    opts: &OptOptions,
    tracer: Option<&Tracer>,
) -> Result<OptStats> {
    let size_before = p.body.size();
    if !opts.enabled {
        return Ok(OptStats {
            size_before,
            size_after: size_before,
            remaining_polymorphic: count_polymorphic(&p.body),
            remaining_typecases: count_typecases(&p.body),
            ..OptStats::default()
        });
    }
    let mut r = Runner {
        verify: opts.verify,
        tracer,
        stats: OptStats {
            size_before,
            ..OptStats::default()
        },
    };
    for _round in 0..opts.rounds.max(1) {
        // Reduction fixpoint.
        let reduce = SimplifyOpts {
            inline_once: opts.inline,
            ..SimplifyOpts::reduce(opts.loop_opts)
        };
        for _ in 0..12 {
            r.stats.reduce_iterations += 1;
            let changed = r.run_pass(p, vs, "simplify-reduce", |p, vs| {
                let signs = if opts.loop_opts {
                    sign_analysis(p)
                } else {
                    Default::default()
                };
                simplify_with_signs(p, vs, &reduce, &signs)
            })?;
            let mut more = false;
            if opts.loop_opts {
                more |= r.run_pass(p, vs, "invariant-removal", |p, _| invariant_removal(p))?;
            }
            if !changed && !more {
                break;
            }
        }
        // Second group.
        if opts.specialize {
            r.run_pass(p, vs, "specialize", |p, vs| {
                specialize(p, vs);
                true
            })?;
        }
        if opts.switch_cont {
            r.run_pass(p, vs, "switch-continuations", |p, vs| {
                inline_switch_continuations(p, vs);
                true
            })?;
        }
        if opts.sink {
            r.run_pass(p, vs, "sink", |p, _| {
                sink(p);
                true
            })?;
        }
        if opts.inline {
            r.run_pass(p, vs, "uncurry", |p, vs| {
                uncurry(p, vs);
                true
            })?;
        }
        if opts.flatten {
            r.run_pass(p, vs, "flatten-args", |p, vs| {
                flatten_args(p, vs);
                true
            })?;
        }
        if opts.minfix {
            r.run_pass(p, vs, "minimize-fix", |p, _| {
                minimize_fix(p);
                true
            })?;
        }
        if opts.inline {
            let inline_opts = SimplifyOpts::inline(opts.max_inline_size, opts.loop_opts);
            r.run_pass(p, vs, "simplify-inline", |p, vs| {
                simplify(p, vs, &inline_opts)
            })?;
        }
        if opts.loop_opts {
            r.run_pass(p, vs, "hoist-constants", |p, _| {
                hoist_constants(p);
                true
            })?;
        }
    }
    // Final cleanup reduction.
    let reduce = SimplifyOpts {
        inline_once: opts.inline,
        ..SimplifyOpts::reduce(opts.loop_opts)
    };
    for _ in 0..6 {
        let changed = r.run_pass(p, vs, "simplify-final", |p, vs| simplify(p, vs, &reduce))?;
        if !changed {
            break;
        }
    }
    let mut stats = r.stats;
    stats.remaining_polymorphic = count_polymorphic(&p.body);
    stats.remaining_typecases = count_typecases(&p.body);
    stats.size_after = p.body.size();
    Ok(stats)
}

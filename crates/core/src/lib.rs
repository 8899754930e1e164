//! **TIL** — a type-directed optimizing compiler for core Standard ML,
//! reproducing Tarditi et al., *TIL: A Type-Directed Optimizing
//! Compiler for ML* (PLDI 1996).
//!
//! The pipeline follows the paper's Figure 1: parse/elaborate →
//! **Lambda** → **Lmli** (intensional polymorphism + type-directed
//! representation optimizations) → **Bform** (A-normal form, all
//! conventional and loop-oriented optimization) → typed closure
//! conversion → untyped representation analysis → **RTL** → register
//! allocation + GC tables → machine code for a simulated ALPHA-style
//! target with a nearly tag-free copying collector.
//!
//! # Quick start
//!
//! ```
//! use til::{Compiler, Options};
//!
//! let exe = Compiler::new(Options::til())
//!     .compile("val _ = print (Int.toString (6 * 7))")
//!     .unwrap();
//! let out = exe.run(100_000_000).unwrap();
//! assert_eq!(out.output, "42");
//! ```

use std::sync::OnceLock;
use til_common::{Diagnostic, Result, Tracer, VarSupply};

pub mod chrome;
pub mod pipeline;

pub use chrome::chrome_trace_json;
pub use pipeline::{Phase, Pipeline};
pub use til_backend::{Linked, LinkOptions};
pub use til_closure::{ClosureOptions, ClosureStats};
pub use til_common::TraceEvent;
pub use til_lmli::LmliOptions;
pub use til_opt::{OptOptions, OptStats, PassStat};
pub use til_runtime::{
    CensusClasses, CensusWhen, CollectMode, GcPause, HeapCensus, SiteCensus, DEFAULT_PAUSE_BUDGET,
};
pub use til_vm::{FuncProfile, SiteProfile, Stats, VmError};

/// The SML prelude prefixed onto every compilation unit.
pub use til_elab::PRELUDE;

/// Compilation mode: which compiler the paper's tables compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// TIL: specialized representations, nearly tag-free GC, full
    /// optimization.
    Til,
    /// The SML/NJ-like comparator: universal tagged representation,
    /// boxed values, heap-allocated frames, tagged GC.
    Baseline,
}

/// How much of the prelude's compilation a [`Compiler`] caches across
/// `compile()` calls. Every level runs the *same* compilation-unit
/// split (prelude unit + user unit, joined at elaboration), so the
/// generated code is byte-identical whether the prelude came from the
/// cache or was rebuilt; the level only decides how much work a warm
/// compile skips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PreludeCache {
    /// Rebuild the prelude unit on every compile (the split still
    /// runs; nothing is stored).
    Off,
    /// Cache the parsed + elaborated prelude (the zonked Lambda
    /// skeleton and the elaborator snapshot); everything from Lmli
    /// conversion down still sees the whole program.
    Elab,
    /// Additionally cache the prelude's Lmli conversion and its
    /// typing environment: warm compiles elaborate, convert and
    /// typecheck only the user fragment, splicing it into the cached
    /// skeleton at the Lmli level.
    Lmli,
}

/// Compiler configuration.
#[derive(Clone, Debug)]
pub struct Options {
    /// Compilation mode.
    pub mode: Mode,
    /// Representation choices (argument/constructor flattening, float
    /// boxing, array specialization).
    pub lmli: LmliOptions,
    /// Optimizer schedule and toggles (loop optimizations etc.).
    pub opt: OptOptions,
    /// Typecheck between all typed phases (the paper's engineering
    /// discipline; cheap and recommended).
    pub verify: bool,
    /// Stream a hierarchical phase/pass trace to stderr (wall-clock,
    /// IR node counts, size deltas). Also enabled by setting the
    /// `TIL_TRACE` environment variable; structured trace events are
    /// recorded into [`CompileInfo::events`] either way.
    pub trace: bool,
    /// Heap/stack sizing.
    pub link: LinkOptions,
    /// Worker threads for the per-function backend stages (RTL
    /// lowering, verification, GC-table checking, allocation and
    /// emission). `None` = the machine's available parallelism; the
    /// `TIL_JOBS` environment variable overrides either. The output
    /// is byte-identical for every value.
    pub jobs: Option<usize>,
    /// Prelude caching level (see [`PreludeCache`]).
    pub prelude_cache: PreludeCache,
    /// How the collector schedules its work: one stop-the-world pause
    /// per collection, or bounded incremental slices (see
    /// [`CollectMode`]). The `TIL_GC_MODE` environment variable
    /// overrides this at run time. Program results and [`Stats`] are
    /// identical under every value; only the pause structure differs.
    pub gc_mode: CollectMode,
    /// Also emit textual x86-64 through the second backend target
    /// (structurally validated and mcv-checked when [`Options::verify`]
    /// is on); retrieve it with [`Executable::asm`]. The VM image is
    /// byte-identical either way.
    pub emit_asm: bool,
    /// Mid-run heap-census cadence for profiled runs: `None` (the
    /// default) records at most one mid-run sample, and only while the
    /// run has not collected yet; `Some(n)` samples roughly every `n`
    /// retired instructions, collections or not. The
    /// `TIL_CENSUS_EVERY` environment variable overrides this at run
    /// time (`0` = the default behaviour). Strictly observational:
    /// program output and [`Stats`] are identical under every value.
    pub census_every: Option<u64>,
}

impl Options {
    /// Full TIL configuration.
    pub fn til() -> Options {
        Options {
            mode: Mode::Til,
            lmli: LmliOptions::til(),
            opt: OptOptions::til(),
            verify: true,
            trace: false,
            link: LinkOptions::default(),
            jobs: None,
            prelude_cache: PreludeCache::Elab,
            gc_mode: CollectMode::StopTheWorld,
            emit_asm: false,
            census_every: None,
        }
    }

    /// TIL without the loop-oriented optimizations (the Table 7 /
    /// Figure 12 ablation).
    pub fn til_no_loop_opts() -> Options {
        Options {
            opt: OptOptions::til_no_loop_opts(),
            ..Options::til()
        }
    }

    /// TIL representations with the optimizer disabled entirely — the
    /// differential suite's oracle configuration (O0).
    pub fn o0() -> Options {
        Options {
            opt: OptOptions::none(),
            ..Options::til()
        }
    }

    /// Every single-flag ablation of the full TIL optimizer, as
    /// `(name, options)` pairs. The differential suite compiles each
    /// generated program under all of these and compares outputs
    /// against the O0 oracle.
    pub fn ablations() -> Vec<(&'static str, Options)> {
        fn with(f: impl FnOnce(&mut OptOptions)) -> Options {
            let mut o = Options::til();
            f(&mut o.opt);
            o
        }
        vec![
            ("no-loop-opts", with(|o| o.loop_opts = false)),
            ("no-inline", with(|o| o.inline = false)),
            ("no-flatten", with(|o| o.flatten = false)),
            ("no-specialize", with(|o| o.specialize = false)),
            ("no-sink", with(|o| o.sink = false)),
            ("no-minfix", with(|o| o.minfix = false)),
            ("no-switch-cont", with(|o| o.switch_cont = false)),
        ]
    }

    /// The baseline comparator.
    pub fn baseline() -> Options {
        Options {
            mode: Mode::Baseline,
            lmli: LmliOptions::baseline(),
            opt: OptOptions::baseline(),
            verify: true,
            trace: false,
            link: LinkOptions::default(),
            jobs: None,
            prelude_cache: PreludeCache::Elab,
            gc_mode: CollectMode::StopTheWorld,
            emit_asm: false,
            census_every: None,
        }
    }

    /// Every *pair* of optimizer ablations, as `(name, options)`
    /// triples of the two disabled flags. The deep differential suite
    /// samples a seeded subset of these: single-flag ablations miss
    /// bugs that only show when two passes stop covering for each
    /// other.
    pub fn ablation_pairs() -> Vec<(String, Options)> {
        let singles = Options::ablations();
        let mut out = Vec::new();
        for i in 0..singles.len() {
            for j in (i + 1)..singles.len() {
                let (na, _) = &singles[i];
                let (nb, ob) = &singles[j];
                let mut o = singles[i].1.clone();
                // Apply the second ablation on top of the first: the
                // single-flag constructors each clear exactly one
                // field, so merging = copying the cleared field over.
                merge_disabled(&mut o.opt, &ob.opt);
                out.push((format!("{na}+{nb}"), o));
            }
        }
        out
    }
}

/// Copies every disabled optimizer flag of `b` into `a` (used to
/// compose two single-flag ablations into a pair).
fn merge_disabled(a: &mut OptOptions, b: &OptOptions) {
    a.loop_opts &= b.loop_opts;
    a.inline &= b.inline;
    a.flatten &= b.flatten;
    a.specialize &= b.specialize;
    a.sink &= b.sink;
    a.minfix &= b.minfix;
    a.switch_cont &= b.switch_cont;
}

/// One pipeline phase's measurements.
#[derive(Clone, Debug)]
pub struct PhaseInfo {
    /// Phase name, in pipeline order (e.g. `"parse"`, `"optimize"`).
    pub name: &'static str,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// IR node count after the phase (None for phases without a
    /// counted IR, e.g. parse and backend).
    pub ir_nodes: Option<usize>,
    /// Node-count change relative to the previous counted phase
    /// (negative = the phase shrank the program).
    pub ir_delta: Option<i64>,
}

/// Per-phase compile-time measurements (Table 6's metric) and sizes.
#[derive(Clone, Debug, Default)]
pub struct CompileInfo {
    /// Per-phase wall-clock and IR-size measurements, in pipeline
    /// order.
    pub phases: Vec<PhaseInfo>,
    /// Optimizer statistics (including per-pass aggregates).
    pub opt_stats: Option<OptStats>,
    /// Closure-stage statistics (conversion plus cleanup passes).
    pub closure_stats: Option<ClosureStats>,
    /// Generated code size in bytes.
    pub code_bytes: usize,
    /// Executable size (code + GC tables + static data).
    pub executable_bytes: usize,
    /// The full structured trace (phases plus nested optimizer
    /// passes), in span-closing order.
    pub events: Vec<TraceEvent>,
    /// Machine-code-verifier precision counters (typed-heap loads
    /// refined vs ⊤, indirect calls signature-proven vs conservative);
    /// `None` when the `mc-verify` phase did not run.
    pub mcv: Option<til_backend::mcv::McvStats>,
}

impl CompileInfo {
    /// Total compile time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.seconds).sum()
    }

    /// Seconds spent in the named phase (0.0 if it did not run).
    pub fn phase_seconds(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.seconds)
            .sum()
    }
}

/// A compiled, runnable executable.
pub struct Executable {
    linked: Linked,
    /// Textual x86-64 from the second backend target (only with
    /// [`Options::emit_asm`]).
    asm: Option<til_backend::X64Module>,
    /// Compilation measurements.
    pub info: CompileInfo,
    /// Echo the runtime spans of profiled runs to stderr (inherited
    /// from the compile's tracing setting).
    trace_echo: bool,
    /// Collection scheduling (inherited from [`Options::gc_mode`];
    /// `TIL_GC_MODE` overrides it at run time).
    gc_mode: CollectMode,
    /// Mid-run census cadence (inherited from
    /// [`Options::census_every`]; `TIL_CENSUS_EVERY` overrides it at
    /// run time).
    census_every: Option<u64>,
}

/// A profiled run's observability payload. Every field is a pure
/// function of the deterministic instruction stream: profiles are
/// byte-identical across runs and machines, and collecting them leaves
/// [`Stats`] untouched.
#[derive(Clone, Debug)]
pub struct RunProfile {
    /// Per-opcode retired-instruction histogram (nonzero entries, in
    /// fixed opcode order).
    pub opcodes: Vec<(&'static str, u64)>,
    /// Per-function profiles in code order (plus a trailing
    /// `"(stubs)"` bucket when linker stub code executed).
    pub functions: Vec<FuncProfile>,
    /// GC pause records, in collection order. Under
    /// [`CollectMode::StopTheWorld`] there is exactly one per
    /// collection; under [`CollectMode::Incremental`] each collection
    /// cycle contributes one record per slice (slices of one cycle
    /// share a [`GcPause::cycle`] value).
    pub pauses: Vec<GcPause>,
    /// Type-indexed heap censuses: one per collection
    /// ([`CensusWhen::AfterGc`]), mid-run samples per the census
    /// cadence ([`CensusWhen::MidRun`] — by default at most one, only
    /// for runs that never collect), plus an exit-time sample
    /// ([`CensusWhen::Exit`]). Each sample also carries a per-site
    /// breakdown ([`HeapCensus::sites`]).
    pub censuses: Vec<HeapCensus>,
    /// Per-allocation-site lifetime statistics (words allocated,
    /// survival histogram by collection count, words live at exit),
    /// sorted by site pc with the `(rt)` pseudo-site last. Site
    /// identity is carried across semispace flips by the collector
    /// reporting every forwarding copy to the profiler's heap side
    /// map.
    pub sites: Vec<SiteProfile>,
}

impl RunProfile {
    /// The longest pause cost over the run (0 when nothing collected).
    pub fn max_pause(&self) -> u64 {
        self.pauses.iter().map(|p| p.pause_cost).max().unwrap_or(0)
    }

    /// Nearest-rank percentile of the pause-cost distribution
    /// (`q` in `(0, 100]`; 0 when nothing collected). `q = 100` is
    /// [`max_pause`](RunProfile::max_pause).
    pub fn pause_percentile(&self, q: f64) -> u64 {
        let mut costs: Vec<u64> = self.pauses.iter().map(|p| p.pause_cost).collect();
        if costs.is_empty() {
            return 0;
        }
        costs.sort_unstable();
        let rank = (q / 100.0 * costs.len() as f64).ceil() as usize;
        costs[rank.clamp(1, costs.len()) - 1]
    }

    /// The top `k` allocation sites by words allocated (ties broken by
    /// site pc, so the ranking is deterministic).
    pub fn top_sites(&self, k: usize) -> Vec<&SiteProfile> {
        let mut v: Vec<&SiteProfile> = self.sites.iter().filter(|s| s.alloc_words > 0).collect();
        v.sort_by(|a, b| b.alloc_words.cmp(&a.alloc_words).then_with(|| a.pc.cmp(&b.pc)));
        v.truncate(k);
        v
    }

    /// Slice counts per collection cycle, in cycle order. Every entry
    /// is 1 under [`CollectMode::StopTheWorld`].
    pub fn cycle_slices(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for p in &self.pauses {
            let cycle = p.cycle as usize;
            if out.len() <= cycle {
                out.resize(cycle + 1, 0);
            }
            out[cycle] += 1;
        }
        out
    }

    /// The top `k` functions by instructions retired (ties broken by
    /// name, so the ranking is deterministic).
    pub fn top_functions(&self, k: usize) -> Vec<&FuncProfile> {
        let mut v: Vec<&FuncProfile> = self.functions.iter().filter(|f| f.instrs > 0).collect();
        v.sort_by(|a, b| b.instrs.cmp(&a.instrs).then_with(|| a.name.cmp(&b.name)));
        v.truncate(k);
        v
    }

    /// Renders the profile as trace events on the deterministic
    /// instruction timeline (1 instruction-equivalent = 1 µs, so a
    /// printed "ms" is a thousand instruction-equivalents). Children
    /// (pauses, censuses, hot functions) precede the depth-0 `run`
    /// event, matching the tracer's children-close-first convention.
    pub fn trace_events(&self, stats: &Stats) -> Vec<TraceEvent> {
        let at_us = |n: u64| n as f64 * 1e-6;
        let mut evs = Vec::new();
        for (i, p) in self.pauses.iter().enumerate() {
            evs.push(TraceEvent {
                name: "gc-pause".into(),
                depth: 1,
                start: at_us(p.at_instr),
                seconds: at_us(p.pause_cost),
                counters: vec![
                    ("trigger-pc", p.trigger_pc as i64),
                    ("cost", p.pause_cost as i64),
                    ("copied-words", p.copied_words as i64),
                    ("live-words", p.live_words as i64),
                ],
            });
            // Attach the cycle's census to its last slice (for
            // stop-the-world pauses, the pause itself).
            let last_of_cycle = self.pauses.get(i + 1).is_none_or(|q| q.cycle != p.cycle);
            if last_of_cycle {
                if let Some(c) = self
                    .censuses
                    .iter()
                    .find(|c| c.after_gc() == Some(p.cycle))
                {
                    evs.push(census_event(c, at_us(p.at_instr)));
                }
            }
        }
        for c in &self.censuses {
            match c.when {
                CensusWhen::MidRun { at_instr, .. } => evs.push(census_event(c, at_us(at_instr))),
                CensusWhen::Exit => evs.push(census_event(c, at_us(stats.instrs))),
                CensusWhen::AfterGc(_) => {}
            }
        }
        for s in self.top_sites(8) {
            evs.push(TraceEvent {
                name: format!("site {}", s.name),
                depth: 1,
                start: 0.0,
                seconds: 0.0,
                counters: vec![
                    ("alloc-words", s.alloc_words as i64),
                    (
                        "survived-1-words",
                        s.survived_words.first().copied().unwrap_or(0) as i64,
                    ),
                    ("live-at-exit-words", s.live_at_exit_words as i64),
                ],
            });
        }
        for f in self.top_functions(8) {
            evs.push(TraceEvent {
                name: format!("fn {}", f.name),
                depth: 1,
                start: 0.0,
                seconds: at_us(f.instrs),
                counters: vec![
                    ("instrs", f.instrs as i64),
                    ("alloc-bytes", f.alloc_bytes as i64),
                    ("traps", f.traps as i64),
                ],
            });
        }
        evs.push(TraceEvent {
            name: "run".into(),
            depth: 0,
            start: 0.0,
            seconds: at_us(stats.time()),
            counters: vec![
                ("instrs", stats.instrs as i64),
                ("rt-cost", stats.rt_cost as i64),
                ("gc-count", stats.gc_count as i64),
                ("allocated-bytes", stats.allocated_bytes as i64),
                ("max-live-words", stats.max_live_words as i64),
            ],
        });
        evs
    }
}

fn census_event(c: &HeapCensus, start: f64) -> TraceEvent {
    let mut counters = vec![("after-gc", c.after_gc().map_or(-1, |i| i as i64))];
    if let CensusWhen::MidRun { seq, .. } = c.when {
        counters.push(("midrun-seq", seq as i64));
    }
    TraceEvent {
        name: "heap-census".into(),
        depth: 1,
        start,
        seconds: 0.0,
        counters: {
            counters.extend([
                ("record-words", c.classes.record_words as i64),
                ("array-words", c.classes.array_words as i64),
                ("string-words", c.classes.string_words as i64),
                ("closure-words", c.classes.closure_words as i64),
                ("exn-words", c.classes.exn_words as i64),
                ("unknown-words", c.classes.unknown_words as i64),
                ("total-words", c.classes.total_words() as i64),
            ]);
            counters
        },
    }
}

/// `TIL_CENSUS_EVERY` parsed as a run-time override: `Some(Some(n))`
/// for a cadence of `n` instructions, `Some(None)` when set to `0`
/// (force the default single-sample behaviour), `None` when unset or
/// unparsable (fall back to [`Options::census_every`]).
fn census_every_from_env() -> Option<Option<u64>> {
    let v = std::env::var("TIL_CENSUS_EVERY").ok()?;
    let n: u64 = v.trim().parse().ok()?;
    Some((n > 0).then_some(n))
}

/// The result of running an executable.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Everything the program printed.
    pub output: String,
    /// Machine counters (time/allocation/memory metrics). Identical
    /// whether or not the run was profiled.
    pub stats: Stats,
    /// The observability payload of a profiled run (`None` when
    /// profiling was off).
    pub profile: Option<RunProfile>,
}

impl Executable {
    /// Runs the program with the given instruction budget. Profiling
    /// follows the `TIL_PROFILE` environment variable.
    pub fn run(&self, fuel: u64) -> std::result::Result<RunOutcome, VmError> {
        self.run_with(fuel, til_vm::profile::env_enabled())
    }

    /// Runs the program, explicitly profiled or not. A profiled run
    /// additionally returns a [`RunProfile`] (and echoes runtime spans
    /// to stderr when the compile traced); its `Stats` are identical
    /// to an unprofiled run's.
    pub fn run_with(&self, fuel: u64, profile: bool) -> std::result::Result<RunOutcome, VmError> {
        self.run_with_gc_mode(fuel, profile, CollectMode::from_env().unwrap_or(self.gc_mode))
    }

    /// Runs under an explicit collection-scheduling mode, ignoring
    /// both the compile-time [`Options::gc_mode`] and `TIL_GC_MODE`
    /// (the differential suite uses this to drive one compiled image
    /// through both modes).
    pub fn run_with_gc_mode(
        &self,
        fuel: u64,
        profile: bool,
        gc_mode: CollectMode,
    ) -> std::result::Result<RunOutcome, VmError> {
        let mut m = self.linked.machine();
        let mut rt = self.linked.runtime();
        rt.gc.collect_mode = gc_mode;
        rt.gc
            .set_census_every(census_every_from_env().unwrap_or(self.census_every));
        if profile {
            m.profiler = Some(Box::new(
                til_vm::Profiler::new(self.linked.fun_ranges.clone())
                    .with_exn_allocs(self.linked.exn_alloc_pcs.clone()),
            ));
            let fun_code_start = self
                .linked
                .fun_ranges
                .first()
                .map_or(self.linked.code.len() as u32, |r| r.start);
            rt.gc.profile = Some(til_runtime::GcProfile::new(fun_code_start));
        }
        m.run(&mut rt, fuel)?;
        // Final accounting: meter the allocation tail and fold the
        // final resident heap into the memory high-water mark (a
        // program whose high-water is its final live set would
        // otherwise under-report the Table 4 metric).
        rt.gc.finish(&mut m);
        let profile = m.profiler.take().map(|p| {
            let g = rt.gc.profile.take().unwrap_or_default();
            RunProfile {
                opcodes: p.opcode_histogram(),
                functions: p.function_profiles(),
                pauses: g.pauses,
                censuses: g.censuses,
                sites: p.site_profiles(),
            }
        });
        if let (Some(rp), true) = (&profile, self.trace_echo) {
            Tracer::new(true).replay_events(rp.trace_events(&m.stats));
        }
        Ok(RunOutcome {
            output: m.output.clone(),
            stats: m.stats.clone(),
            profile,
        })
    }

    /// The linked image (for inspection).
    pub fn linked(&self) -> &Linked {
        &self.linked
    }

    /// The textual x86-64 module, when compiled with
    /// [`Options::emit_asm`].
    pub fn asm(&self) -> Option<&til_backend::X64Module> {
        self.asm.as_ref()
    }
}

/// Intermediate-representation dumps for one program (the paper's
/// Section 4 walkthrough).
#[derive(Clone, Debug, Default)]
pub struct PhaseDumps {
    /// Lambda (Figure 2's stage).
    pub lambda: String,
    /// Lmli after conversion.
    pub lmli: String,
    /// Bform before optimization (Figure 3).
    pub bform: String,
    /// Bform after optimization (Figure 4).
    pub bform_optimized: String,
    /// Instruction listing (Figures 6–7).
    pub assembly: String,
}

/// The prelude's compilation state, computed once per [`Compiler`]
/// (lazily, on the first `compile()`) and shared by every subsequent
/// call. Cold and warm compiles run the same split code path, so the
/// cache cannot change the generated code — only how often this is
/// rebuilt.
struct CachedPrelude {
    /// Elaborator snapshot + zonked Lambda skeleton with its hole.
    unit: til_elab::PreludeUnit,
    /// Lambda typing environment at the hole (captured when
    /// verification is on; drives fragment typechecking at the Lmli
    /// cache level).
    lambda_env: Option<til_lambda::typecheck::FragmentEnv>,
    /// The Lmli-level extension (only at [`PreludeCache::Lmli`]).
    lmli: Option<LmliPrelude>,
}

/// The prelude converted to Lmli: the skeleton program, the
/// conversion environment at the hole, the Lmli typing environment,
/// and the variable supply after conversion (user elaboration resumes
/// from it so fragment ids never collide with skeleton ids).
struct LmliPrelude {
    skel: til_lmli::MProgram,
    fcx: til_lmli::FragmentCx,
    tc_env: Option<til_lmli::FragmentTcEnv>,
    vars_after: VarSupply,
}

/// The compiler.
pub struct Compiler {
    opts: Options,
    prelude: OnceLock<CachedPrelude>,
}

impl Compiler {
    /// A compiler with the given options.
    pub fn new(opts: Options) -> Compiler {
        Compiler {
            opts,
            prelude: OnceLock::new(),
        }
    }

    /// Compiles `src` (with the prelude) to a runnable executable.
    pub fn compile(&self, src: &str) -> Result<Executable> {
        til_common::with_big_stack(|| self.compile_impl(src, None))
    }

    /// Compiles and collects per-phase IR dumps.
    pub fn compile_with_dumps(&self, src: &str) -> Result<(Executable, PhaseDumps)> {
        let mut dumps = PhaseDumps::default();
        let exe = til_common::with_big_stack(|| self.compile_impl(src, Some(&mut dumps)))?;
        Ok((exe, dumps))
    }

    /// Builds the prelude unit (parse → elaborate → typecheck → at
    /// the Lmli cache level, convert + typecheck), recording each
    /// step as a `prelude-*` phase. Runs once per compiler when the
    /// cache is on; every compile when it is off.
    fn build_prelude(&self, pl: &mut Pipeline) -> Result<CachedPrelude> {
        let past = pl.run(Phase::new("prelude-parse"), || {
            til_syntax::parse(til_elab::PRELUDE)
        })?;
        let unit = pl.run(
            Phase::new("prelude-elaborate")
                .count(|u: &til_elab::PreludeUnit| u.skeleton().size()),
            || til_elab::prelude_unit(&past),
        )?;
        // The skeleton typecheck doubles as the capture of the typing
        // environment at the hole, so it runs as its own phase (a
        // verifier cannot return a value).
        let lambda_env = if self.opts.verify {
            Some(pl.run(Phase::new("prelude-lambda-typecheck"), || {
                til_lambda::typecheck::typecheck_prelude(&unit.skeleton_program(), unit.hole())
            })?)
        } else {
            None
        };
        let lmli = if self.opts.prelude_cache == PreludeCache::Lmli {
            let skel_prog = unit.skeleton_program();
            let mut vars = unit.vars();
            let (skel, fcx) = pl.run(
                Phase::new("prelude-to-lmli")
                    .count(|t: &(til_lmli::MProgram, til_lmli::FragmentCx)| t.0.body.size()),
                || til_lmli::from_lambda_prelude(&skel_prog, &self.opts.lmli, &mut vars, unit.hole()),
            )?;
            let tc_env = if self.opts.verify {
                Some(pl.run(Phase::new("prelude-lmli-typecheck"), || {
                    til_lmli::typecheck_lmli_prelude(&skel, unit.hole())
                })?)
            } else {
                None
            };
            Some(LmliPrelude {
                skel,
                fcx,
                tc_env,
                vars_after: vars,
            })
        } else {
            None
        };
        Ok(CachedPrelude {
            unit,
            lambda_env,
            lmli,
        })
    }

    fn compile_impl(&self, src: &str, mut dumps: Option<&mut PhaseDumps>) -> Result<Executable> {
        let tracer = Tracer::new(self.opts.trace || til_common::trace::env_enabled());
        let jobs = til_common::par::jobs(self.opts.jobs);
        let mut pl = Pipeline::new(&tracer, self.opts.verify);

        // ---- Prelude unit: from the per-compiler cache, or rebuilt.
        // A warm compile records a `prelude-cache-hit` counter and no
        // `prelude-*` phases at all.
        let rebuilt; // keeps an uncached build alive (PreludeCache::Off)
        let prelude: &CachedPrelude = match self.opts.prelude_cache {
            PreludeCache::Off => {
                rebuilt = self.build_prelude(&mut pl)?;
                &rebuilt
            }
            PreludeCache::Elab | PreludeCache::Lmli => {
                if let Some(c) = self.prelude.get() {
                    tracer.counter("prelude-cache-hit", 1);
                    c
                } else {
                    let built = self.build_prelude(&mut pl)?;
                    // A concurrent compile may have won the race;
                    // both builds are identical, so either works.
                    let _ = self.prelude.set(built);
                    self.prelude.get().expect("cache was just populated")
                }
            }
        };

        // ---- User unit: parse, elaborate against the snapshot, join.
        let user = pl.run(Phase::new("parse"), || {
            til_syntax::parse(src).map_err(|d| self.render(src, d))
        })?;
        let (m, mut vars) = match &prelude.lmli {
            None => {
                // Join at the Lambda level: splice the user body into
                // the skeleton and run the whole program downstream.
                let e = pl.run(
                    Phase::new("elaborate")
                        .count(|e: &til_elab::Elaborated| e.program.body.size())
                        .verify("lambda-typecheck", |e: &til_elab::Elaborated| {
                            til_lambda::typecheck(&e.program).map(|_| ())
                        }),
                    || {
                        til_elab::elaborate_user(&prelude.unit, &user)
                            .map_err(|d| self.render(src, d))
                    },
                )?;
                if let Some(d) = dumps.as_deref_mut() {
                    d.lambda = til_lambda::print::program(&e.program);
                }
                let mut vars = e.vars;
                let m = pl.run(
                    Phase::new("to-lmli")
                        .count(|m: &til_lmli::MProgram| m.body.size())
                        .verify("lmli-typecheck", |m: &til_lmli::MProgram| {
                            til_lmli::typecheck_lmli(m).map(|_| ())
                        }),
                    || til_lmli::from_lambda(&e.program, &self.opts.lmli, &mut vars),
                )?;
                (m, vars)
            }
            Some(lm) => {
                // Join at the Lmli level: only the user fragment is
                // elaborated, converted and typechecked; the cached
                // skeleton supplies the rest.
                let (frag, mut vars) = pl.run(
                    Phase::new("elaborate")
                        .count(|t: &(til_lambda::LProgram, VarSupply)| t.0.body.size())
                        .verify("lambda-typecheck", |t: &(til_lambda::LProgram, VarSupply)| {
                            let env = prelude.lambda_env.as_ref().ok_or_else(|| {
                                Diagnostic::ice("pipeline", "verify on but no captured prelude env")
                            })?;
                            til_lambda::typecheck::typecheck_fragment(&t.0, env).map(|_| ())
                        }),
                    || {
                        let u = til_elab::elaborate_user_fragment(
                            &prelude.unit,
                            &user,
                            Some(lm.vars_after.clone()),
                        )
                        .map_err(|d| self.render(src, d))?;
                        let vars = u.vars.clone();
                        Ok((
                            til_lambda::LProgram {
                                data_env: u.data_env,
                                exn_env: u.exn_env,
                                body: u.body,
                                body_ty: til_lambda::ty::LTy::unit(),
                            },
                            vars,
                        ))
                    },
                )?;
                if let Some(d) = dumps.as_deref_mut() {
                    let mut body = prelude.unit.skeleton().clone();
                    body.splice_var(prelude.unit.hole(), &frag.body);
                    d.lambda = til_lambda::print::program(&til_lambda::LProgram {
                        data_env: frag.data_env.clone(),
                        exn_env: frag.exn_env.clone(),
                        body,
                        body_ty: til_lambda::ty::LTy::unit(),
                    });
                }
                let m_frag = pl.run(
                    Phase::new("to-lmli")
                        .count(|m: &til_lmli::MProgram| m.body.size())
                        .verify("lmli-typecheck", |m: &til_lmli::MProgram| {
                            let env = lm.tc_env.as_ref().ok_or_else(|| {
                                Diagnostic::ice("pipeline", "verify on but no captured lmli env")
                            })?;
                            til_lmli::typecheck_lmli_fragment(m, env).map(|_| ())
                        }),
                    || til_lmli::from_lambda_fragment(&frag, &self.opts.lmli, &mut vars, &lm.fcx),
                )?;
                let mut body = lm.skel.body.clone();
                let spliced = body.splice_var(prelude.unit.hole(), &m_frag.body);
                debug_assert_eq!(spliced, 1, "the Lmli skeleton has exactly one hole");
                let m = til_lmli::MProgram {
                    data: m_frag.data,
                    exns: m_frag.exns,
                    body,
                    con: lm.skel.con.clone(),
                };
                (m, vars)
            }
        };
        // Drop the dead weight of the joined prelude before the rest
        // of the pipeline sees it: unused prelude bindings would
        // otherwise ride through Bform conversion, typechecking, and
        // optimization on every compile just to be dead-code
        // eliminated at the end. Runs on every path (cached or not) so
        // outputs stay identical across cache states.
        let mut m = m;
        pl.run(
            Phase::new("lmli-prune").count(|t: &(usize, usize)| t.1),
            || {
                let removed = til_lmli::prune_dead(&mut m);
                Ok((removed, m.body.size()))
            },
        )?;
        if let Some(d) = dumps.as_deref_mut() {
            d.lmli = til_lmli::print::program(&m);
        }

        // ---- Bform + optimization.
        let mut b = pl.run(
            Phase::new("to-bform")
                .count(|b: &til_bform::BProgram| b.body.size())
                .verify("bform-typecheck", |b: &til_bform::BProgram| {
                    til_bform::typecheck_bform(b).map(|_| ())
                }),
            || til_bform::from_lmli(&m, &mut vars),
        )?;
        if let Some(d) = dumps.as_deref_mut() {
            d.bform = til_bform::print::program(&b);
        }
        let mut opt = self.opts.opt;
        opt.verify = self.opts.verify;
        let (stats, _) = pl.run(
            Phase::new("optimize").count(|t: &(OptStats, usize)| t.1),
            || {
                // Nest the per-pass spans under an `optimize` span.
                let _span = tracer.span("optimize-passes");
                let stats = til_opt::optimize_traced(&mut b, &mut vars, &opt, Some(&tracer))?;
                Ok((stats, b.body.size()))
            },
        )?;
        pl.info_mut().opt_stats = Some(stats);
        if let Some(d) = dumps.as_deref_mut() {
            d.bform_optimized = til_bform::print::program(&b);
        }

        // ---- Closure conversion plus the closure-stage cleanup
        // passes. Verification re-runs the closure typechecker after
        // the conversion and after every pass, attributing failures
        // by pass name (the same machinery the Bform optimizer uses).
        let copts = ClosureOptions::til(self.opts.verify);
        let (c, cstats) = pl.run(
            Phase::new("closure").count(|t: &(til_closure::CProgram, ClosureStats)| t.0.size()),
            || {
                let _span = tracer.span("closure-passes");
                til_closure::convert_and_optimize(&b, &mut vars, &copts, Some(&tracer))
            },
        )?;
        pl.info_mut().closure_stats = Some(cstats);

        // ---- RTL and the backend: per-function work (lowering,
        // verification, GC-table checks, allocation, emission) fans
        // out over `jobs` workers and joins in function order.
        let rtl = pl.run(
            Phase::new("to-rtl")
                .count(|r: &til_rtl::RtlProgram| {
                    r.funs.iter().map(|f| f.instrs.len()).sum::<usize>()
                })
                // Structural RTL verification (def-before-use, label
                // resolution, calling convention, representation
                // consistency)...
                .verify("rtl-verify", {
                    let tr = &tracer;
                    move |r: &til_rtl::RtlProgram| til_rtl::verify_rtl_jobs(r, jobs, Some(tr))
                })
                // ...and the GC-table cross-check: every live pointer
                // slot described, no table entry naming a dead slot.
                .verify("gc-check", {
                    let tr = &tracer;
                    move |r: &til_rtl::RtlProgram| til_backend::check_gc_tables_jobs(r, jobs, Some(tr))
                }),
            || til_rtl::lower(&c, self.opts.mode == Mode::Baseline, jobs, Some(&tracer)),
        )?;
        let mut link_opts = self.opts.link;
        link_opts.jobs = jobs;
        let mcv_stats: std::cell::Cell<Option<til_backend::mcv::McvStats>> =
            std::cell::Cell::new(None);
        let linked = pl.run(
            Phase::new("backend")
                .count(|l: &Linked| l.code.len())
                // The machine-code verifier: abstract interpretation
                // over the *linked* image — control-flow integrity,
                // calling convention, typed-heap shape checks, and an
                // independent re-derivation of the GC tables from the
                // code alone. Its precision counters land in
                // `CompileInfo::mcv`.
                .verify("mc-verify", {
                    let tr = &tracer;
                    let cell = &mcv_stats;
                    move |l: &Linked| {
                        let s = til_backend::mcv::verify_linked_stats(l, jobs, Some(tr))?;
                        cell.set(Some(s));
                        Ok(())
                    }
                }),
            || til_backend::link(&rtl, &link_opts, Some(&tracer)),
        )?;
        // The second target: textual x86-64 from the same RTL and
        // safe-point data, with its own structural validation and
        // per-target mcv rules. Runs after the link so a VM-side
        // verifier failure wins, and never perturbs the linked image.
        let asm = if self.opts.emit_asm {
            Some(pl.run(
                Phase::new("emit-x64")
                    .count(|m: &til_backend::X64Module| {
                        m.funs.iter().map(|f| f.ops.len()).sum::<usize>()
                    })
                    .verify("x64-validate", |m: &til_backend::X64Module| {
                        til_backend::targets::x64::validate(m)
                            .map_err(|e| Diagnostic::ice("x64-validate", e))
                    })
                    .verify("mc-verify-x64", til_backend::mcv::x64::verify),
                || Ok(til_backend::emit_x64(&rtl)),
            )?)
        } else {
            None
        };
        if let Some(d) = dumps {
            use std::fmt::Write as _;
            let mut s = String::new();
            for (i, ins) in linked.code.iter().enumerate() {
                let _ = writeln!(s, "{i:6}: {ins}");
            }
            d.assembly = s;
        }
        let mut info = pl.into_info();
        info.mcv = mcv_stats.get();
        info.code_bytes = linked.code_bytes;
        info.executable_bytes = linked.executable_bytes();
        tracer.counter("code-bytes", linked.code_bytes as i64);
        tracer.counter("executable-bytes", linked.executable_bytes() as i64);
        let trace_echo = tracer.echoing();
        info.events = tracer.into_events();
        Ok(Executable {
            linked,
            asm,
            info,
            trace_echo,
            gc_mode: self.opts.gc_mode,
            census_every: self.opts.census_every,
        })
    }

    fn render(&self, src: &str, d: Diagnostic) -> Diagnostic {
        // Attach line/column context for user errors.
        Diagnostic {
            message: d.render(src),
            ..d
        }
    }
}

/// Convenience: compile and run with default TIL options.
pub fn run_program(src: &str, fuel: u64) -> Result<RunOutcome> {
    let exe = Compiler::new(Options::til()).compile(src)?;
    exe.run(fuel)
        .map_err(|e| Diagnostic::ice("run", e.to_string()))
}

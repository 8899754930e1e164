//! Workloads, the measured passes, the checks on every result, and the
//! metric report.

use crate::stats::{median, tail_percentile};
use crate::traced::{self, Trace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use til::{CollectMode, Compiler, Executable, Options, Stats, DEFAULT_PAUSE_BUDGET};
use til_bench::gen::{generate_class, Class};
use til_bench::rng::Rng;
use til_bench::{FUEL, RUNTIME_SEMI_BYTES};

/// The generator seed of the `differential` draw: the corpus seed of
/// the tier-1 differential suite (`tests/differential.rs`).
pub const DRAW_SEED: u64 = 0x05ee_d711_0002;

/// Programs drawn per generator class in `differential`.
pub const DRAW_PER_CLASS: u64 = 1;

/// The differential suite's semispace: small enough that the
/// generated churn loops collect.
const DIFF_SEMI_BYTES: u64 = 64 << 10;

/// Fewest measured passes in a run, whatever `--seconds` says, so
/// every pair has a median of several samples.
const MIN_PASSES: usize = 3;

/// Set-up is repeated this many times and `setup_s` is its median.
const SETUP_REPS: usize = 5;

/// The pinned output of each Table 1 program.
const EXPECTED: &str = include_str!("../expected/table1.txt");

/// End-to-end metrics (`--trace 0`), with units, in report order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("run_s", "s"),
    ("vm_instructions", "count"),
    ("runtime_cost", "count"),
    ("allocated_bytes", "bytes"),
    ("memory_bytes", "bytes"),
    ("code_bytes", "bytes"),
    ("executable_bytes", "bytes"),
    ("peak_rss_bytes", "bytes"),
];

/// The optimizer passes, as named in `OptStats::pass_stats`.
pub const OPT_PASSES: [&str; 11] = [
    "simplify-reduce",
    "invariant-removal",
    "specialize",
    "switch-continuations",
    "sink",
    "uncurry",
    "flatten-args",
    "minimize-fix",
    "simplify-inline",
    "hoist-constants",
    "simplify-final",
];

/// Per-layer metrics (`--trace 1`), with units, in report order
/// (`opt.pass.<name>_s` for each of [`OPT_PASSES`] follows
/// `opt.typecheck_s`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let s = |n: &str| (n.to_string(), "s");
    let mut v = vec![
        s("syntax.parse_s"),
        ("syntax.bytes_per_s".into(), "bytes/s"),
        s("elab.prelude_s"),
        s("elab.elaborate_s"),
        s("lambda.typecheck_s"),
        s("lmli.convert_s"),
        s("lmli.typecheck_s"),
        s("lmli.prune_s"),
        ("lmli.prune_ratio".into(), "ratio"),
        s("bform.convert_s"),
        s("bform.typecheck_s"),
        ("bform.nodes".into(), "count"),
        s("opt.optimize_s"),
        s("opt.passes_s"),
        s("opt.typecheck_s"),
    ];
    v.extend(OPT_PASSES.iter().map(|p| (format!("opt.pass.{p}_s"), "s")));
    v.extend([
        ("opt.passes_run".into(), "count"),
        ("opt.shrink_ratio".into(), "ratio"),
        s("closure.convert_s"),
        ("closure.nodes".into(), "count"),
        s("rtl.lower_s"),
        s("rtl.verify_s"),
        ("rtl.instrs".into(), "count"),
        ("rtl.max_fun_instrs".into(), "count"),
        s("backend.gc_check_s"),
        s("backend.link_s"),
        s("backend.mc_verify_s"),
        ("backend.mcv_refined_ratio".into(), "ratio"),
        s("x64.emit_s"),
        s("x64.validate_s"),
        s("x64.mc_verify_s"),
        s("vm.load_s"),
        s("vm.exec_s"),
        ("vm.instrs_per_s".into(), "1/s"),
        s("runtime.gc_s"),
        ("runtime.gc_calls".into(), "count"),
        ("runtime.copied_per_alloc".into(), "ratio"),
        s("runtime.services_s"),
        ("runtime.service_calls".into(), "count"),
        s("trace.overhead_s"),
        s("trace.unattributed_s"),
    ]);
    v
}

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Table 1 suite compiled fresh (TIL, both targets, both
    /// machine-code verifiers) and run on the default heap.
    Table1,
    /// The Table 1 suite precompiled under TIL and baseline with a
    /// 1 MB semispace; only the runs are timed.
    RunPressured,
    /// The tier-1 differential shape: generated programs compiled under
    /// O0, TIL and baseline with a 64 KB semispace, each image run
    /// under both collection modes.
    Differential,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::Table1,
        Workload::RunPressured,
        Workload::Differential,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::RunPressured => "run-pressured",
            Workload::Differential => "differential",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Sets the program order within each pass.
    pub seed: u64,
    /// How long the measured passes run.
    pub seconds: u64,
    /// Run the layer-by-layer traced driver alongside.
    pub trace: bool,
    /// Exactly one pass (the smoke mode).
    pub one_pass: bool,
    /// When the process started.
    pub started: Instant,
}

/// One (program, configuration) pair.
struct Case {
    program: String,
    config: &'static str,
    source: String,
    opts: Options,
    /// The collection modes each image runs under; the first is the
    /// reference for output and `Stats`.
    gc_modes: &'static [(&'static str, CollectMode)],
    /// The pinned output (Table 1 programs); `None` makes the group's
    /// first case the oracle for the others.
    expected: Option<String>,
    /// Cases of one program share a group.
    group: usize,
}

impl Case {
    fn label(&self) -> String {
        format!("{}/{}", self.program, self.config)
    }
}

const STW: &[(&str, CollectMode)] = &[("stw", CollectMode::StopTheWorld)];
const BOTH: &[(&str, CollectMode)] = &[
    ("stw", CollectMode::StopTheWorld),
    (
        "incremental",
        CollectMode::Incremental {
            budget: DEFAULT_PAUSE_BUDGET,
        },
    ),
];

fn pinned_outputs() -> BTreeMap<&'static str, String> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| l.split_once('\t'))
        .map(|(name, out)| (name, out.replace("\\n", "\n")))
        .collect()
}

fn with_semi(mut o: Options, semi_bytes: u64) -> Options {
    o.link.semi_bytes = semi_bytes;
    o
}

fn cases(w: Workload) -> Vec<Case> {
    let pinned = pinned_outputs();
    let suite = til_bench::suite();
    let mut out = Vec::new();
    match w {
        Workload::Table1 => {
            for (group, b) in suite.iter().enumerate() {
                let mut opts = Options::til();
                opts.emit_asm = true;
                out.push(Case {
                    program: b.name.into(),
                    config: "til",
                    source: b.source.into(),
                    opts,
                    gc_modes: STW,
                    expected: Some(pinned.get(b.name).cloned().unwrap_or_default()),
                    group,
                });
            }
        }
        Workload::RunPressured => {
            for (group, b) in suite.iter().enumerate() {
                for (config, opts) in [("til", Options::til()), ("baseline", Options::baseline())] {
                    out.push(Case {
                        program: b.name.into(),
                        config,
                        source: b.source.into(),
                        opts: with_semi(opts, RUNTIME_SEMI_BYTES),
                        gc_modes: STW,
                        expected: Some(pinned.get(b.name).cloned().unwrap_or_default()),
                        group,
                    });
                }
            }
        }
        Workload::Differential => {
            let mut group = 0;
            for class in Class::ALL {
                for i in 0..DRAW_PER_CLASS {
                    let g = generate_class(DRAW_SEED.wrapping_add(i), class);
                    for (config, opts) in [
                        ("o0", Options::o0()),
                        ("til", Options::til()),
                        ("baseline", Options::baseline()),
                    ] {
                        out.push(Case {
                            program: format!("{}-{:#x}", class.name(), g.seed),
                            config,
                            source: g.source.clone(),
                            opts: with_semi(opts, DIFF_SEMI_BYTES),
                            gc_modes: BOTH,
                            expected: None,
                            group,
                        });
                    }
                    group += 1;
                }
            }
        }
    }
    out
}

/// The deterministic counters of one case. Every pass must reproduce
/// them exactly, and so must every run of the same build.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Counters {
    instrs: u64,
    rt_cost: u64,
    allocated_bytes: u64,
    memory_bytes: u64,
    code_bytes: u64,
    executable_bytes: u64,
    gc_count: u64,
    gc_copied_words: u64,
    /// RTL instructions, total and largest function (traced runs only).
    rtl_instrs: (u64, u64),
}

/// A compiled case: the compiler's image and, in traced runs, the
/// layer driver's identical one.
struct Compiled {
    exe: Executable,
    traced: Option<til::Linked>,
    rtl_instrs: (u64, u64),
}

/// Where a sample belongs: the compile, or the run under a named
/// collection mode. A timing's pairs are (case, slot).
type Slot = &'static str;
const COMPILE: Slot = "compile";

/// What a run accumulates for one case.
#[derive(Default)]
struct Log {
    /// Timings by (metric, slot), one sample per pass.
    times: BTreeMap<(String, Slot), Vec<f64>>,
    /// Deterministic counts by (name, slot), as first observed.
    counts: BTreeMap<(String, Slot), u64>,
    counters: Option<Counters>,
}

impl Log {
    fn time(&mut self, metric: impl Into<String>, slot: Slot, secs: f64) {
        self.times
            .entry((metric.into(), slot))
            .or_default()
            .push(secs);
    }

    fn count(&mut self, name: impl Into<String>, slot: Slot, n: u64) {
        self.counts.entry((name.into(), slot)).or_insert(n);
    }
}

/// One benchmark run in progress.
struct Run<'a> {
    s: &'a Settings,
    cases: Vec<Case>,
    logs: Vec<Log>,
    attempted: u64,
    failed: u64,
    /// Determinism and identity violations.
    broken: Vec<String>,
    trace: Option<Trace>,
}

impl Run<'_> {
    fn fail(&mut self, i: usize, what: &str, why: impl std::fmt::Display) {
        self.failed += 1;
        let why = why.to_string();
        println!(
            "failed {} {what} seed {}: {}",
            self.cases[i].label(),
            self.s.seed,
            why.lines().next().unwrap_or("")
        );
    }

    /// Compiles case `i` with a fresh `Compiler`, timed; a traced run
    /// also compiles it layer by layer and requires the identical image.
    fn compile(&mut self, i: usize) -> Option<Compiled> {
        self.attempted += 1;
        let opts = self.cases[i].opts.clone();
        let t = Instant::now();
        let r = Compiler::new(opts).compile(&self.cases[i].source);
        let secs = t.elapsed().as_secs_f64();
        let exe = match r {
            Ok(exe) => exe,
            Err(d) => {
                self.fail(i, "compile", d);
                return None;
            }
        };
        let Some(tr) = self.trace.as_mut() else {
            self.logs[i].time("compile_s", COMPILE, secs);
            return Some(Compiled {
                exe,
                traced: None,
                rtl_instrs: (0, 0),
            });
        };
        let op = tr.begin_op(format!("{}/compile", self.cases[i].label()));
        let tc = match traced::compile(tr, &self.cases[i].source, &self.cases[i].opts) {
            Ok(tc) => tc,
            Err(d) => {
                self.fail(i, "traced compile", d);
                return None;
            }
        };
        let sum = tr.summary(op);
        if let Some(what) = traced::image_difference(exe.linked(), &tc.linked) {
            self.fail(
                i,
                "traced compile",
                format!("image differs from Compiler::compile in {what}"),
            );
            return None;
        }
        if exe.asm().map(|a| a.text()) != tc.asm.as_ref().map(|a| a.text()) {
            self.fail(
                i,
                "traced compile",
                "x86-64 text differs from Compiler::compile",
            );
            return None;
        }
        let log = &mut self.logs[i];
        log.time("compile_s", COMPILE, secs);
        for (name, x) in &sum.self_s {
            log.time(format!("{name}_s"), COMPILE, *x);
        }
        let passes: f64 = tc.opt.pass_stats.iter().map(|p| p.seconds).sum();
        for p in &tc.opt.pass_stats {
            log.time(format!("opt.pass.{}_s", p.name), COMPILE, p.seconds);
        }
        log.time("opt.passes_s", COMPILE, passes);
        let optimize = sum.self_s.get("opt.optimize").copied().unwrap_or(0.0);
        log.time("opt.typecheck_s", COMPILE, optimize - passes);
        log.time("trace.traced_s", COMPILE, sum.total);
        log.time("trace.untraced_s", COMPILE, secs);
        log.time("trace.unattributed_s", COMPILE, sum.unattributed);
        for (name, n) in [
            ("parsed_bytes", tc.parsed_bytes),
            ("lmli_before", tc.lmli_nodes.0),
            ("lmli_after", tc.lmli_nodes.1),
            ("bform_nodes", tc.bform_nodes),
            ("opt_passes", tc.opt.passes as u64),
            ("opt_size_before", tc.opt.size_before as u64),
            ("opt_size_after", tc.opt.size_after as u64),
            ("closure_nodes", tc.closure_nodes),
            ("mcv_refined", tc.mcv.heap_loads_refined as u64),
            ("mcv_top", tc.mcv.heap_loads_top as u64),
        ] {
            log.count(name, COMPILE, n);
        }
        Some(Compiled {
            exe,
            traced: Some(tc.linked),
            rtl_instrs: tc.rtl_instrs,
        })
    }

    /// Runs case `i`'s image under each of its collection modes, timed,
    /// and checks every result: against the pinned output, else against
    /// `oracle` (set by the first case of a group that has neither),
    /// and every mode against the first mode's output and `Stats`.
    fn run(&mut self, i: usize, img: &Compiled, oracle: &mut Option<String>) {
        let mut first: Option<(String, Stats)> = None;
        for &(mode_name, mode) in self.cases[i].gc_modes {
            self.attempted += 1;
            let t = Instant::now();
            let r = img.exe.run_with_gc_mode(FUEL, false, mode);
            let secs = t.elapsed().as_secs_f64();
            let out = match r {
                Ok(out) => out,
                Err(e) => {
                    self.fail(i, mode_name, e);
                    continue;
                }
            };
            let want = match &first {
                Some((o, _)) => Some(o.clone()),
                None => self.cases[i].expected.clone().or_else(|| oracle.clone()),
            };
            if let Some((_, st)) = &first {
                if *st != out.stats {
                    self.fail(i, mode_name, "Stats differ from the first collection mode");
                    continue;
                }
            }
            match want {
                Some(w) if w != out.output => {
                    self.fail(
                        i,
                        mode_name,
                        format!("output {:?}, expected {w:?}", out.output),
                    );
                    continue;
                }
                None => *oracle = Some(out.output.clone()),
                Some(_) => {}
            }
            if let (Some(tr), Some(linked)) = (self.trace.as_mut(), img.traced.as_ref()) {
                let op = tr.begin_op(format!("{}/{mode_name}", self.cases[i].label()));
                match traced::run(tr, linked, mode, FUEL) {
                    Ok((o, st)) if o == out.output && st == out.stats => {
                        let sum = tr.summary(op);
                        let log = &mut self.logs[i];
                        for (name, x) in &sum.self_s {
                            let metric = match *name {
                                "vm.run" => "vm.exec_s".to_string(),
                                "runtime.service" => "runtime.services_s".to_string(),
                                n => format!("{n}_s"),
                            };
                            log.time(metric, mode_name, *x);
                        }
                        for ((_, kind), (x, calls)) in &sum.detail {
                            log.time(format!("rt.{kind}"), mode_name, *x);
                            log.count(format!("rt.{kind}"), mode_name, *calls);
                        }
                        log.time("trace.traced_s", mode_name, sum.total);
                        log.time("trace.untraced_s", mode_name, secs);
                        log.time("trace.unattributed_s", mode_name, sum.unattributed);
                    }
                    Ok(_) => {
                        self.fail(i, mode_name, "traced run differs in output or Stats");
                        continue;
                    }
                    Err(e) => {
                        self.fail(i, mode_name, format!("traced run: {e}"));
                        continue;
                    }
                }
            }
            let st = &out.stats;
            let log = &mut self.logs[i];
            log.time("run_s", mode_name, secs);
            log.count("instrs", mode_name, st.instrs);
            log.count("allocated_bytes", mode_name, st.allocated_bytes);
            log.count("gc_copied_words", mode_name, st.gc_copied_words);
            if first.is_none() {
                let info = &img.exe.info;
                let k = Counters {
                    instrs: st.instrs,
                    rt_cost: st.rt_cost,
                    allocated_bytes: st.allocated_bytes,
                    memory_bytes: 8 * (st.max_live_words + st.max_stack_words)
                        + info.executable_bytes as u64,
                    code_bytes: info.code_bytes as u64,
                    executable_bytes: info.executable_bytes as u64,
                    gc_count: st.gc_count,
                    gc_copied_words: st.gc_copied_words,
                    rtl_instrs: img.rtl_instrs,
                };
                match &log.counters {
                    None => log.counters = Some(k),
                    Some(prev) if *prev == k => {}
                    Some(prev) => {
                        let msg = format!(
                            "{}: counters changed between passes: {prev:?}, then {k:?}",
                            self.cases[i].label()
                        );
                        self.broken.push(msg);
                    }
                }
                first = Some((out.output, out.stats));
            }
        }
    }

    /// Compiles and runs every case once, untimed.
    fn warm_up(&self, pick: impl Fn(&Case) -> bool) {
        for c in self.cases.iter().filter(|c| pick(c)) {
            if let Ok(exe) = Compiler::new(c.opts.clone()).compile(&c.source) {
                std::hint::black_box(exe.run_with_gc_mode(FUEL, false, c.gc_modes[0].1).ok());
            }
        }
    }
}

/// The outcome of one run.
pub struct Outcome {
    /// Every output checked and every counter reproduced.
    pub correct: bool,
    /// Operations (compiles and runs) attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// Runs one workload: set-up (repeated [`SETUP_REPS`] times), then
/// measured passes over every case in a seeded order until
/// `--seconds` have passed (at least [`MIN_PASSES`]), then the report.
pub fn run(s: &Settings) -> Outcome {
    let w = s.workload;
    let mut r = Run {
        s,
        cases: cases(w),
        logs: Vec::new(),
        attempted: 0,
        failed: 0,
        broken: Vec::new(),
        trace: s.trace.then(Trace::default),
    };
    r.logs.resize_with(r.cases.len(), Log::default);

    // Set-up: building the inputs, then run-pressured's images, or a
    // warm-up compile and run of each program (under O0 for
    // differential). The first repetition counts from process start.
    let mut setup = Vec::new();
    let mut images: Vec<Option<Compiled>> = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = if rep == 0 { s.started } else { Instant::now() };
        match w {
            Workload::Table1 => r.warm_up(|_| true),
            Workload::RunPressured => images = (0..r.cases.len()).map(|i| r.compile(i)).collect(),
            Workload::Differential => r.warm_up(|c| c.config == "o0"),
        }
        setup.push(t.elapsed().as_secs_f64());
    }

    let groups = r.cases.iter().map(|c| c.group).max().map_or(0, |g| g + 1);
    let members: Vec<Vec<usize>> = (0..groups)
        .map(|g| {
            (0..r.cases.len())
                .filter(|&i| r.cases[i].group == g)
                .collect()
        })
        .collect();
    let mut rng = Rng::new(s.seed);
    let t0 = Instant::now();
    let mut passes = 0;
    while if s.one_pass {
        passes < 1
    } else {
        passes < MIN_PASSES || t0.elapsed() < Duration::from_secs(s.seconds)
    } {
        let mut order: Vec<usize> = (0..groups).collect();
        for k in (1..order.len()).rev() {
            order.swap(k, rng.range(0, k as i64 + 1) as usize);
        }
        for g in order {
            let mut oracle = None;
            for &i in &members[g] {
                if w == Workload::RunPressured {
                    if let Some(img) = &images[i] {
                        r.run(i, img, &mut oracle);
                    }
                } else if let Some(img) = r.compile(i) {
                    r.run(i, &img, &mut oracle);
                }
            }
        }
        passes += 1;
    }
    report(r, setup, passes)
}

/// Σ over cases and slots of the median of `metric`'s samples.
fn total(logs: &[Log], metric: &str) -> f64 {
    logs.iter()
        .flat_map(|l| l.times.iter())
        .filter(|((m, _), _)| m == metric)
        .filter_map(|(_, xs)| median(xs))
        .fold(0.0, |a, x| a + x)
}

/// Σ over cases and slots of the count `name` (a `*` suffix matches a
/// prefix).
fn count(logs: &[Log], name: &str) -> f64 {
    let hit = |n: &str| match name.strip_suffix('*') {
        Some(prefix) => n.starts_with(prefix),
        None => n == name,
    };
    logs.iter()
        .flat_map(|l| l.counts.iter())
        .filter(|((n, _), _)| hit(n))
        .map(|(_, v)| *v as f64)
        .fold(0.0, |a, x| a + x)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`), in bytes.
fn peak_rss_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0)
}

/// Where runs leave their traces and counter records, relative to the
/// working directory.
const STATE_DIR: &str = ".perfbench";

/// Checks this run's counters against the last run of the same binary
/// on the same workload, recording them when there is none. Returns
/// the first differing case.
fn check_between_runs(w: Workload, trace: bool, cases: &[Case], logs: &[Log]) -> Option<String> {
    let build = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let t = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok());
            format!("build {} {}", m.len(), t.map_or(0, |t| t.as_nanos()))
        })
        .unwrap_or_default();
    let mut record = vec![build];
    for (c, l) in cases.iter().zip(logs) {
        record.push(format!("{} {:?}", c.label(), l.counters));
    }
    let path = format!(
        "{STATE_DIR}/counters-{}-trace{}.txt",
        w.name(),
        u8::from(trace)
    );
    let prev = std::fs::read_to_string(&path).unwrap_or_default();
    let prev: Vec<&str> = prev.lines().collect();
    if prev.first().copied() == record.first().map(String::as_str) {
        return record
            .iter()
            .zip(&prev)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("counters differ from the previous run: {b} / now {a}"));
    }
    let written = std::fs::create_dir_all(STATE_DIR)
        .and_then(|_| std::fs::write(&path, record.join("\n") + "\n"));
    if let Err(e) = written {
        println!("note: cannot record counters in {path}: {e}");
    }
    None
}

fn report(mut r: Run<'_>, setup: Vec<f64>, passes: usize) -> Outcome {
    let s = r.s;
    let jobs = til_common::par::jobs(None);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc} jobs {jobs} passes {passes} cases {}",
        s.workload.name(),
        s.seed,
        s.seconds,
        u8::from(s.trace),
        r.cases.len()
    );
    for (c, l) in r.cases.iter().zip(&r.logs) {
        for ((metric, slot), xs) in &l.times {
            let shown = matches!(metric.as_str(), "compile_s" | "run_s")
                || (s.trace && metric.starts_with("rt."));
            let Some(m) = median(xs).filter(|_| shown) else {
                continue;
            };
            let tail =
                tail_percentile(xs).map_or("p- -".to_string(), |(p, v)| format!("p{p} {v:.6}"));
            let label = format!("{}/{slot}", c.label());
            let calls = l
                .counts
                .get(&(metric.clone(), *slot))
                .map_or(String::new(), |n| format!(" calls {n}"));
            println!(
                "pair {label} {metric} median {m:.6} {tail} n={}{calls}",
                xs.len()
            );
        }
    }
    if let Some(msg) = check_between_runs(s.workload, s.trace, &r.cases, &r.logs) {
        r.broken.push(msg);
    }
    for msg in &r.broken {
        println!("broken {msg}");
    }

    let logs = &r.logs;
    let sum = |f: fn(&Counters) -> u64| {
        logs.iter()
            .filter_map(|l| l.counters.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |k: &str, v: f64| {
        values.insert(k.to_string(), v);
    };
    if s.trace {
        for (name, _) in per_layer() {
            set(&name, total(logs, &name));
        }
        set(
            "syntax.bytes_per_s",
            ratio(count(logs, "parsed_bytes"), total(logs, "syntax.parse_s")),
        );
        let before = count(logs, "lmli_before");
        set(
            "lmli.prune_ratio",
            ratio(before - count(logs, "lmli_after"), before),
        );
        set("bform.nodes", count(logs, "bform_nodes"));
        set("opt.passes_run", count(logs, "opt_passes"));
        set(
            "opt.shrink_ratio",
            ratio(
                count(logs, "opt_size_after"),
                count(logs, "opt_size_before"),
            ),
        );
        set("closure.nodes", count(logs, "closure_nodes"));
        set("rtl.instrs", sum(|k| k.rtl_instrs.0));
        let max_fun = logs
            .iter()
            .filter_map(|l| l.counters.as_ref())
            .map(|k| k.rtl_instrs.1)
            .max();
        set("rtl.max_fun_instrs", max_fun.unwrap_or(0) as f64);
        let refined = count(logs, "mcv_refined");
        set(
            "backend.mcv_refined_ratio",
            ratio(refined, refined + count(logs, "mcv_top")),
        );
        set(
            "vm.instrs_per_s",
            ratio(count(logs, "instrs"), total(logs, "vm.exec_s")),
        );
        let gc_calls = count(logs, "rt.Gc");
        set("runtime.gc_calls", gc_calls);
        set(
            "runtime.copied_per_alloc",
            ratio(
                8.0 * count(logs, "gc_copied_words"),
                count(logs, "allocated_bytes"),
            ),
        );
        set("runtime.service_calls", count(logs, "rt.*") - gc_calls);
        set(
            "trace.overhead_s",
            total(logs, "trace.traced_s") - total(logs, "trace.untraced_s"),
        );
    } else {
        set("setup_s", median(&setup).unwrap_or(0.0));
        set("compile_s", total(logs, "compile_s"));
        set("run_s", total(logs, "run_s"));
        set("vm_instructions", sum(|k| k.instrs));
        set("runtime_cost", sum(|k| k.rt_cost));
        set("allocated_bytes", sum(|k| k.allocated_bytes));
        set("memory_bytes", sum(|k| k.memory_bytes));
        set("code_bytes", sum(|k| k.code_bytes));
        set("executable_bytes", sum(|k| k.executable_bytes));
        set("peak_rss_bytes", peak_rss_bytes());
    }
    let names: Vec<(String, &'static str)> = if s.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let metrics: Vec<(String, f64, &'static str)> = names
        .into_iter()
        .map(|(n, u)| {
            let v = values.get(&n).copied().unwrap_or(0.0);
            (n, v, u)
        })
        .collect();
    for (n, v, u) in &metrics {
        println!("metric {n} {v} {u}");
    }
    println!(
        "metric failed_ratio {} ratio",
        ratio(r.failed as f64, r.attempted as f64)
    );
    println!("setup_reps_s {setup:?}");

    if let Some(tr) = &r.trace {
        let path = format!("{STATE_DIR}/trace-{}.json", s.workload.name());
        let written = std::fs::create_dir_all(STATE_DIR)
            .and_then(|_| std::fs::write(&path, tr.chrome_json().pretty()));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => println!("note: cannot write spans to {path}: {e}"),
        }
    }
    Outcome {
        correct: r.failed == 0 && r.broken.is_empty(),
        attempted: r.attempted,
        failed: r.failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn every_table1_program_has_a_pinned_output() {
        let pinned = pinned_outputs();
        for b in til_bench::suite() {
            assert!(
                pinned.get(b.name).is_some_and(|o| !o.is_empty()),
                "{}",
                b.name
            );
        }
    }

    #[test]
    fn metric_names_are_well_formed_and_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_metric_name(n), "{n}");
            assert!(
                spec.contains(&format!("\"name\": \"{n}\"")),
                "{n} missing from BENCHMARK.json"
            );
        }
        let declared = spec.matches("\"unit\"").count();
        assert_eq!(
            declared,
            names.len(),
            "BENCHMARK.json declares other metrics"
        );
    }
}

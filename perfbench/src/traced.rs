//! The traced run: the compiler pipeline driven layer by layer through
//! each crate's public entry points, and a program run whose calls
//! across the VM→runtime boundary are timed, all recorded as spans.
//!
//! Spans are kept in memory and written out as a Chrome trace when the
//! benchmark ends. The driver mirrors `til::Compiler::compile` for the
//! prelude-cache level every benchmark configuration uses
//! (`PreludeCache::Elab` with a fresh compiler, so the prelude unit is
//! rebuilt each compile); the caller checks that the image it links is
//! identical to the compiler's, so the spans describe the same program.

use std::collections::BTreeMap;
use std::time::Instant;
use til::{CollectMode, Linked, Mode, Options, PreludeCache, Stats, VmError};
use til_backend::mcv::McvStats;
use til_backend::X64Module;
use til_common::{ChromeEvent, Diagnostic, Json};
use til_opt::OptStats;
use til_vm::{Machine, RtFn, Runtime, Trap};

/// One recorded span: a call into one layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `rtl.lower`.
    pub name: &'static str,
    /// Refinement of the name (the `RtFn` kind of a runtime span).
    pub detail: &'static str,
    /// The operation (one compile or one run of one program) it
    /// belongs to.
    pub op: usize,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Seconds since the trace epoch.
    pub start: f64,
    /// Duration in seconds.
    pub dur: f64,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
}

/// The in-memory span recorder.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    ops: Vec<String>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            ops: Vec::new(),
        }
    }
}

/// Per-name totals of one operation's spans.
#[derive(Clone, Debug, Default)]
pub struct OpSummary {
    /// The root span's duration.
    pub total: f64,
    /// Root duration not covered by any child span.
    pub unattributed: f64,
    /// Self time (duration minus child spans) per span name.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Self time and calls per `(name, detail)` for folded spans.
    pub detail: BTreeMap<(&'static str, &'static str), (f64, u64)>,
}

impl Trace {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Starts a new operation; its first span is its root.
    pub fn begin_op(&mut self, label: String) -> usize {
        self.ops.push(label);
        self.ops.len() - 1
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let span = Span {
            name,
            detail: "",
            op: self.ops.len().saturating_sub(1),
            parent: self.stack.last().copied(),
            start: self.now(),
            dur: 0.0,
            calls: 1,
        };
        self.spans.push(span);
        let id = self.spans.len() - 1;
        self.stack.push(id);
        id
    }

    /// Closes span `id` (the innermost open one).
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let s = &mut self.spans[id];
        s.dur = end - s.start;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let t = f();
        self.exit(id);
        t
    }

    /// Records calls already timed elsewhere as one span under `parent`.
    fn fold(&mut self, name: &'static str, detail: &'static str, parent: usize, t: Tally) {
        self.spans.push(Span {
            name,
            detail,
            op: self.spans[parent].op,
            parent: Some(parent),
            start: t.first,
            dur: t.seconds,
            calls: t.calls,
        });
    }

    /// Self times of operation `op`'s spans, by name.
    pub fn summary(&self, op: usize) -> OpSummary {
        let first = self.spans.iter().position(|s| s.op == op);
        let Some(first) = first else {
            return OpSummary::default();
        };
        let spans = &self.spans[first..];
        let mut child = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child[p - first] += s.dur;
            }
        }
        let mut sum = OpSummary::default();
        for (i, s) in spans.iter().enumerate() {
            let own = s.dur - child[i];
            if s.parent.is_none() {
                sum.total += s.dur;
                sum.unattributed += own;
                continue;
            }
            *sum.self_s.entry(s.name).or_default() += own;
            if !s.detail.is_empty() {
                let e = sum.detail.entry((s.name, s.detail)).or_default();
                e.0 += own;
                e.1 += s.calls;
            }
        }
        sum
    }

    /// The spans as a Chrome trace document (one track).
    pub fn chrome_json(&self) -> Json {
        let events: Vec<ChromeEvent> = self
            .spans
            .iter()
            .map(|s| {
                let name = if s.detail.is_empty() {
                    s.name.to_string()
                } else {
                    format!("{} {}", s.name, s.detail)
                };
                ChromeEvent::complete(name, "layer", s.start * 1e6, s.dur * 1e6, 0)
                    .arg("op", self.ops[s.op].as_str())
                    .arg("calls", s.calls)
            })
            .collect();
        til_common::json::chrome_trace(&events)
    }
}

/// What one traced compile produced besides its spans.
pub struct TracedCompile {
    /// The linked VM image.
    pub linked: Linked,
    /// The x86-64 module (with `Options::emit_asm`).
    pub asm: Option<X64Module>,
    /// Bytes of source parsed (prelude plus program).
    pub parsed_bytes: u64,
    /// Lmli nodes before and after dead-binding pruning.
    pub lmli_nodes: (u64, u64),
    /// Bform nodes entering the optimizer.
    pub bform_nodes: u64,
    /// The optimizer's statistics.
    pub opt: OptStats,
    /// Closure-IR nodes after closure conversion and its passes.
    pub closure_nodes: u64,
    /// RTL instructions in total and in the largest function.
    pub rtl_instrs: (u64, u64),
    /// The machine-code verifier's precision counters.
    pub mcv: McvStats,
}

/// Compiles `src` under `opts` one layer at a time, recording one root
/// `compile` span with a child span per layer call.
pub fn compile(tr: &mut Trace, src: &str, opts: &Options) -> Result<TracedCompile, Diagnostic> {
    let root = tr.enter("compile");
    let r = til_common::with_big_stack(|| layers(tr, src, opts));
    tr.exit(root);
    r
}

fn layers(tr: &mut Trace, src: &str, opts: &Options) -> Result<TracedCompile, Diagnostic> {
    if opts.prelude_cache == PreludeCache::Lmli {
        return Err(Diagnostic::ice(
            "perfbench",
            "the layer driver joins at Lambda only",
        ));
    }
    let verify = opts.verify;
    let jobs = til_common::par::jobs(opts.jobs);

    let prelude = tr.span("syntax.parse", || til_syntax::parse(til_elab::PRELUDE))?;
    let unit = tr.span("elab.prelude", || til_elab::prelude_unit(&prelude))?;
    if verify {
        tr.span("lambda.typecheck", || {
            til_lambda::typecheck::typecheck_prelude(&unit.skeleton_program(), unit.hole())
        })?;
    }
    let user = tr.span("syntax.parse", || til_syntax::parse(src))?;
    let e = tr.span("elab.elaborate", || til_elab::elaborate_user(&unit, &user))?;
    if verify {
        tr.span("lambda.typecheck", || til_lambda::typecheck(&e.program))?;
    }
    let mut vars = e.vars;
    let mut m = tr.span("lmli.convert", || {
        til_lmli::from_lambda(&e.program, &opts.lmli, &mut vars)
    })?;
    if verify {
        tr.span("lmli.typecheck", || til_lmli::typecheck_lmli(&m))?;
    }
    let lmli_before = m.body.size() as u64;
    tr.span("lmli.prune", || til_lmli::prune_dead(&mut m));
    let lmli_after = m.body.size() as u64;

    let mut b = tr.span("bform.convert", || til_bform::from_lmli(&m, &mut vars))?;
    let bform_nodes = b.body.size() as u64;
    if verify {
        tr.span("bform.typecheck", || til_bform::typecheck_bform(&b))?;
    }
    let mut oo = opts.opt;
    oo.verify = verify;
    let opt = tr.span("opt.optimize", || {
        til_opt::optimize_traced(&mut b, &mut vars, &oo, None)
    })?;

    let copts = til_closure::ClosureOptions::til(verify);
    let (c, _) = tr.span("closure.convert", || {
        til_closure::convert_and_optimize(&b, &mut vars, &copts, None)
    })?;
    let closure_nodes = c.size() as u64;

    let tagged = opts.mode == Mode::Baseline;
    let rtl = tr.span("rtl.lower", || til_rtl::lower(&c, tagged, jobs, None))?;
    if verify {
        tr.span("rtl.verify", || til_rtl::verify_rtl_jobs(&rtl, jobs, None))?;
        tr.span("backend.gc_check", || {
            til_backend::check_gc_tables_jobs(&rtl, jobs, None)
        })?;
    }
    let sizes = rtl.funs.iter().map(|f| f.instrs.len() as u64);
    let rtl_instrs = (sizes.clone().sum(), sizes.max().unwrap_or(0));
    let mut lo = opts.link;
    lo.jobs = jobs;
    let linked = tr.span("backend.link", || til_backend::link(&rtl, &lo, None))?;
    let mcv = if verify {
        tr.span("backend.mc_verify", || {
            til_backend::mcv::verify_linked_stats(&linked, jobs, None)
        })?
    } else {
        McvStats::default()
    };
    let asm = if opts.emit_asm {
        let x = tr.span("x64.emit", || til_backend::emit_x64(&rtl));
        if verify {
            tr.span("x64.validate", || til_backend::targets::x64::validate(&x))
                .map_err(|e| Diagnostic::ice("x64-validate", e))?;
            tr.span("x64.mc_verify", || til_backend::mcv::x64::verify(&x))?;
        }
        Some(x)
    } else {
        None
    };
    Ok(TracedCompile {
        linked,
        asm,
        parsed_bytes: (til_elab::PRELUDE.len() + src.len()) as u64,
        lmli_nodes: (lmli_before, lmli_after),
        bform_nodes,
        opt,
        closure_nodes,
        rtl_instrs,
        mcv,
    })
}

/// Why two linked images differ (`None` when they are identical).
pub fn image_difference(a: &Linked, b: &Linked) -> Option<&'static str> {
    let dbg = |x: &dyn std::fmt::Debug| format!("{x:?}");
    if a.code != b.code {
        Some("code")
    } else if a.tables != b.tables {
        Some("GC tables")
    } else if a.image != b.image || a.static_bytes != b.static_bytes {
        Some("statics")
    } else if a.traps != b.traps || a.fun_ranges != b.fun_ranges {
        Some("trap stubs or function ranges")
    } else if dbg(&a.data_table) != dbg(&b.data_table) || dbg(&a.layout) != dbg(&b.layout) {
        Some("datatype table or layout")
    } else {
        None
    }
}

/// Time and count of calls of one kind.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    first: f64,
    seconds: f64,
    calls: u64,
}

const RT_KINDS: usize = RtFn::Trunc as usize + 1;

/// The runtime behind a timing wrapper: every `rt_call` is timed and
/// tallied by `RtFn` kind. The store barrier and the periodic hook are
/// passed through untimed — they run per store and per 1024
/// instructions, where a clock read would distort the run.
struct TimedRt<'a> {
    inner: &'a mut til_runtime::Rt,
    epoch: Instant,
    kinds: [Tally; RT_KINDS],
}

impl Runtime for TimedRt<'_> {
    fn rt_call(&mut self, f: RtFn, m: &mut Machine) -> Result<Option<Trap>, VmError> {
        let t0 = Instant::now();
        let r = self.inner.rt_call(f, m);
        let t = &mut self.kinds[f as usize];
        if t.calls == 0 {
            t.first = (t0 - self.epoch).as_secs_f64();
        }
        t.seconds += t0.elapsed().as_secs_f64();
        t.calls += 1;
        r
    }

    fn pre_store(
        &mut self,
        m: &mut Machine,
        base: u64,
        addr: u64,
        val: u64,
    ) -> Result<u64, VmError> {
        self.inner.pre_store(m, base, addr, val)
    }

    fn periodic(&mut self, m: &mut Machine) -> Result<(), VmError> {
        self.inner.periodic(m)
    }
}

/// Every `RtFn` kind with its row label, indexed by discriminant.
const RT_FNS: [(RtFn, &str); RT_KINDS] = [
    (RtFn::Gc, "Gc"),
    (RtFn::PrintStr, "PrintStr"),
    (RtFn::IntToStr, "IntToStr"),
    (RtFn::FloatToStr, "FloatToStr"),
    (RtFn::StrCmp, "StrCmp"),
    (RtFn::StrEq, "StrEq"),
    (RtFn::StrConcat, "StrConcat"),
    (RtFn::StrSub, "StrSub"),
    (RtFn::StrFromChar, "StrFromChar"),
    (RtFn::PolyEq, "PolyEq"),
    (RtFn::Sqrt, "Sqrt"),
    (RtFn::Sin, "Sin"),
    (RtFn::Cos, "Cos"),
    (RtFn::Atan, "Atan"),
    (RtFn::Exp, "Exp"),
    (RtFn::Ln, "Ln"),
    (RtFn::Floor, "Floor"),
    (RtFn::Trunc, "Trunc"),
];

/// Runs a linked image the way `Executable::run_with_gc_mode` does
/// (unprofiled, default census cadence), recording a root `run` span
/// with `vm.load`, `vm.run` and `runtime.gc` children; runtime calls
/// are folded into one `runtime.gc` or `runtime.service` span per
/// `RtFn` kind under `vm.run`.
pub fn run(
    tr: &mut Trace,
    linked: &Linked,
    gc_mode: CollectMode,
    fuel: u64,
) -> Result<(String, Stats), VmError> {
    let root = tr.enter("run");
    let (mut m, mut rt) = tr.span("vm.load", || {
        let m = linked.machine();
        let mut rt = linked.runtime();
        rt.gc.collect_mode = gc_mode;
        rt.gc.set_census_every(None);
        (m, rt)
    });
    let exec = tr.enter("vm.run");
    let mut timed = TimedRt {
        inner: &mut rt,
        epoch: tr.epoch,
        kinds: [Tally::default(); RT_KINDS],
    };
    let r = m.run(&mut timed, fuel);
    let kinds = timed.kinds;
    tr.exit(exec);
    for ((f, label), t) in RT_FNS.iter().zip(kinds) {
        if t.calls > 0 {
            let name = if *f == RtFn::Gc {
                "runtime.gc"
            } else {
                "runtime.service"
            };
            tr.fold(name, label, exec, t);
        }
    }
    if r.is_ok() {
        let fin = tr.enter("runtime.gc");
        rt.gc.finish(&mut m);
        tr.exit(fin);
        tr.spans[fin].detail = "finish";
        tr.spans[fin].calls = 0;
    }
    tr.exit(root);
    r?;
    Ok((m.output, m.stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_self_times_plus_unattributed_equal_the_traced_total() {
        let mut tr = Trace::default();
        let op = tr.begin_op("probe/til".into());
        let mut opts = Options::til();
        opts.emit_asm = true;
        let src = "fun f 0 = 1 | f n = n * f (n - 1)\nval _ = print (Int.toString (f 10))";
        let c = compile(&mut tr, src, &opts).expect("compiles");
        let s = tr.summary(op);
        let layers: f64 = s.self_s.values().sum();
        assert!(s.total > 0.0 && s.unattributed >= 0.0);
        assert!(
            (layers + s.unattributed - s.total).abs() < 1e-9,
            "{layers} + {} != {}",
            s.unattributed,
            s.total
        );
        for name in [
            "syntax.parse",
            "opt.optimize",
            "rtl.lower",
            "backend.mc_verify",
            "x64.emit",
        ] {
            assert!(s.self_s.contains_key(name), "{name} missing");
        }

        // The same identity holds for a run, whose runtime calls are
        // folded spans nested under `vm.run`.
        let op = tr.begin_op("probe/til/run".into());
        let (out, _) = run(&mut tr, &c.linked, CollectMode::StopTheWorld, 1_000_000).expect("runs");
        assert_eq!(out, "3628800");
        let s = tr.summary(op);
        let layers: f64 = s.self_s.values().sum();
        assert!((layers + s.unattributed - s.total).abs() < 1e-9);
        assert!(s.detail.contains_key(&("runtime.service", "PrintStr")));
    }

    #[test]
    fn rt_kind_table_is_indexed_by_discriminant() {
        for (i, (f, _)) in RT_FNS.iter().enumerate() {
            assert_eq!(*f as usize, i);
        }
    }

    #[test]
    fn layer_driver_links_the_compilers_image() {
        let life = til_bench::suite()
            .into_iter()
            .find(|b| b.name == "Life")
            .expect("in suite");
        for opts in [Options::til(), Options::baseline(), Options::o0()] {
            let exe = til::Compiler::new(opts.clone())
                .compile(life.source)
                .expect("compiles");
            let c = compile(&mut Trace::default(), life.source, &opts).expect("compiles");
            assert_eq!(image_difference(exe.linked(), &c.linked), None);
        }
    }
}

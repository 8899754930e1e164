//! Regression tests for the observability layer: pass-attributed
//! verify forensics, per-pass optimizer stats, phase tracing, the
//! exit-time memory-accounting fix, and the runtime layer (execution
//! profiles, GC pause spans, type-indexed heap censuses, Chrome trace
//! export).

use til::{Compiler, Options};

/// Both paper configurations, verification on — every regression test
/// here runs under both (the two compilers share one semantics and
/// one diagnostic discipline).
fn both_modes() -> [Options; 2] {
    let mut til = Options::til();
    til.verify = true;
    let mut base = Options::baseline();
    base.verify = true;
    [til, base]
}

// --- Root cause: `Executable::run` computed the final live heap into
// a discarded local, so `max_live_words` stayed at its last
// collection-time sample. A program whose high-water is its final
// live set (e.g. it allocates once and never collects) reported ~0
// for the paper's Table 4 metric.

#[test]
fn final_live_heap_counts_toward_memory_high_water() {
    // Builds a ~1000-element list and holds it to the end. Small
    // enough that no collection runs — so before the fix,
    // max_live_words was never sampled.
    let src = "fun build (0, acc) = acc | build (n, acc) = build (n - 1, n :: acc)
               val xs = build (1000, nil)
               val _ = print (Int.toString (length xs))";
    for opts in both_modes() {
        let exe = Compiler::new(opts).compile(src).expect("compile");
        let out = exe.run(1_000_000_000).expect("run");
        assert_eq!(out.output, "1000");
        assert_eq!(out.stats.gc_count, 0, "test premise: no collection ran");
        assert!(
            out.stats.final_heap_words >= 1000,
            "final resident heap must cover the 1000-cons list, got {}",
            out.stats.final_heap_words
        );
        assert!(
            out.stats.max_live_words >= out.stats.final_heap_words,
            "exit-time heap must fold into the high-water mark: max {} < final {}",
            out.stats.max_live_words,
            out.stats.final_heap_words
        );
    }
}

#[test]
fn memory_high_water_still_reflects_collections() {
    // Churn enough garbage to force collections: the high-water mark
    // must come from collection-time samples, not only from exit.
    let src = "fun build (0, acc) = acc | build (n, acc) = build (n - 1, n :: acc)
               fun churn 0 = 0 | churn k = (length (build (2000, nil)) ; churn (k - 1))
               val _ = print (Int.toString (churn 500))";
    for opts in both_modes() {
        let exe = Compiler::new(opts).compile(src).expect("compile");
        let out = exe.run(2_000_000_000).expect("run");
        assert_eq!(out.output, "0");
        assert!(out.stats.gc_count > 0, "test premise: collections ran");
        assert!(
            out.stats.max_live_words >= out.stats.final_heap_words,
            "high-water mark can never be below the exit-time heap"
        );
    }
}

// --- The pass-attributed verify forensics fire only on real type
// breakage (the armed cases live in tests/closure_verify.rs: the fault
// registry is process-global, so arming it here would race with every
// other compile in this file).

#[test]
fn unbroken_compile_verifies_clean() {
    // The same programs compile fine when nothing is injected — the
    // forensics only fire on real type breakage.
    for opts in both_modes() {
        let exe = Compiler::new(opts)
            .compile("val _ = print (Int.toString (1 + 2))")
            .expect("verified compile");
        assert_eq!(exe.run(1_000_000_000).unwrap().output, "3");
    }
}

// --- Per-pass optimizer stats and phase-level compile info.

#[test]
fn optimizer_reports_per_pass_stats() {
    let src = "fun f x = x + 1
               fun g x = f (f x)
               val _ = print (Int.toString (g 40))";
    for opts in both_modes() {
        let exe = Compiler::new(opts.clone()).compile(src).expect("compile");
        let stats = exe.info.opt_stats.clone().expect("opt stats");
        assert!(!stats.pass_stats.is_empty(), "per-pass stats recorded");
        let total_runs: usize = stats.pass_stats.iter().map(|p| p.runs).sum();
        assert_eq!(
            total_runs, stats.passes,
            "pass aggregate runs must account for every scheduled pass"
        );
        let reduce = stats
            .pass_stats
            .iter()
            .find(|p| p.name == "simplify-reduce")
            .expect("reduction pass always runs");
        assert!(reduce.runs >= 1);
        assert!(
            reduce.nodes_eliminated > 0,
            "reduction must shrink the prelude-laden program"
        );
    }
}

#[test]
fn compile_info_reports_phases_and_trace_events() {
    let exe = Compiler::new(Options::til())
        .compile("val _ = print (Int.toString 7)")
        .expect("compile");
    let names: Vec<&str> = exe.info.phases.iter().map(|p| p.name).collect();
    for expected in ["parse", "elaborate", "to-lmli", "to-bform", "optimize", "backend"] {
        assert!(names.contains(&expected), "missing phase {expected}: {names:?}");
    }
    assert!(exe.info.total_seconds() > 0.0);
    assert!(exe.info.phase_seconds("optimize") > 0.0);
    // The optimize phase carries an IR node count and a (negative)
    // delta: optimization must shrink the prelude-laden program.
    let optimize = exe.info.phases.iter().find(|p| p.name == "optimize").unwrap();
    assert!(optimize.ir_nodes.unwrap() > 0);
    assert!(optimize.ir_delta.unwrap() < 0);
    // The structured trace includes nested per-pass events.
    assert!(exe
        .info
        .events
        .iter()
        .any(|e| e.name == "simplify-reduce" && e.depth > 0));
    assert!(exe.info.events.iter().any(|e| e.name == "backend"));
}

#[test]
fn backend_trace_has_per_function_spans() {
    // The per-function backend stages (RTL lowering, verification,
    // GC-table checks, emission) each record one span per function —
    // merged in deterministic function order regardless of the worker
    // count (workers buffer locally; no interleaving).
    let src = "fun f x = x + 1
               val _ = print (Int.toString (f 41))";
    let mut opts = Options::til();
    opts.jobs = Some(4);
    let exe = Compiler::new(opts).compile(src).expect("compile");
    for prefix in ["lower ", "verify ", "gc-check ", "emit "] {
        assert!(
            exe.info.events.iter().any(|e| e.name.starts_with(prefix)),
            "missing per-function `{prefix}*` spans in the trace"
        );
    }
    // The emission spans carry per-function instruction counts.
    assert!(exe
        .info
        .events
        .iter()
        .any(|e| e.name.starts_with("emit ")
            && e.counters.iter().any(|(k, v)| *k == "instrs" && *v > 0)));
    // Deterministic merge: two compiles at different worker counts
    // record the identical event-name sequence.
    let mut opts1 = Options::til();
    opts1.jobs = Some(1);
    let exe1 = Compiler::new(opts1).compile(src).expect("compile");
    let names = |e: &til::CompileInfo| e.events.iter().map(|x| x.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(&exe.info), names(&exe1.info));
}

#[test]
fn machine_code_verifier_is_an_attributed_phase() {
    // The machine-code verifier runs over the *linked* image as its
    // own attributed pipeline phase, with one trace span per verified
    // function — so a verification failure (and its cost) can be read
    // straight off the compile trace. (Recursive helper so the
    // optimizer cannot inline it away: the linked image keeps at
    // least two functions.)
    let src = "fun count (0, acc) = acc | count (n, acc) = count (n - 1, acc + 1)
               val _ = print (Int.toString (count (42, 0)))";
    let mut opts = Options::til();
    opts.jobs = Some(4);
    let exe = Compiler::new(opts).compile(src).expect("compile");
    let mcv = exe
        .info
        .phases
        .iter()
        .find(|p| p.name == "mc-verify")
        .expect("mc-verify phase missing from compile info");
    assert!(mcv.seconds >= 0.0);
    assert!(
        exe.info.events.iter().any(|e| e.name == "mc-verify"),
        "mc-verify has no trace event"
    );
    let fun_spans = exe
        .info
        .events
        .iter()
        .filter(|e| e.name.starts_with("mc-verify ") && e.depth > 0)
        .count();
    assert!(
        fun_spans >= 2,
        "expected per-function mc-verify spans (main + count), got {fun_spans}"
    );
    // Verification off: the phase (and its spans) must vanish
    // entirely — the verifier costs nothing when disabled.
    let mut off = Options::til();
    off.verify = false;
    let exe_off = Compiler::new(off).compile(src).expect("compile");
    assert!(
        exe_off.info.phases.iter().all(|p| p.name != "mc-verify")
            && exe_off.info.events.iter().all(|e| !e.name.starts_with("mc-verify")),
        "mc-verify phase present with verification disabled"
    );
}

// --- The runtime observability layer: per-function execution
// profiles, GC pause spans, type-indexed heap censuses, and the
// Chrome trace export. Everything is a pure function of the
// deterministic instruction stream, and profiling must never perturb
// the run it observes.

/// Allocation churn that forces collections under a small semispace
/// while holding a list across them.
const CHURN_SRC: &str = "fun build (0, acc) = acc | build (n, acc) = build (n - 1, n :: acc)
     fun churn 0 = 0 | churn k = (length (build (2000, nil)) ; churn (k - 1))
     val keep = build (500, nil)
     val _ = print (Int.toString (churn 200 + length keep))";

fn small_heap_modes() -> [Options; 2] {
    let mut modes = both_modes();
    for m in &mut modes {
        m.link.semi_bytes = 256 << 10;
    }
    modes
}

#[test]
fn profiling_leaves_stats_and_output_unchanged() {
    for opts in small_heap_modes() {
        let exe = Compiler::new(opts).compile(CHURN_SRC).expect("compile");
        let off = exe.run_with(2_000_000_000, false).expect("unprofiled run");
        let on = exe.run_with(2_000_000_000, true).expect("profiled run");
        assert_eq!(off.output, on.output, "profiling changed program output");
        assert_eq!(off.stats, on.stats, "profiling changed Stats");
        assert!(off.profile.is_none() && on.profile.is_some());
    }
}

#[test]
fn gc_pause_spans_present_iff_collections_ran() {
    for opts in small_heap_modes() {
        // A quiet program: no collections, so no pause spans — but the
        // exit census still samples the resident heap.
        let exe = Compiler::new(opts.clone())
            .compile("val _ = print (Int.toString (1 + 2))")
            .expect("compile");
        let out = exe.run_with(1_000_000_000, true).expect("run");
        let p = out.profile.expect("profile");
        assert_eq!(out.stats.gc_count, 0, "test premise: no collection");
        assert!(p.pauses.is_empty(), "pause spans without a collection");
        assert!(p.censuses.iter().any(|c| c.when == til::CensusWhen::Exit));

        // The churner: exactly one pause span per collection, in
        // timeline order, each costed like the collector charges.
        let exe = Compiler::new(opts).compile(CHURN_SRC).expect("compile");
        let out = exe.run_with(2_000_000_000, true).expect("run");
        let p = out.profile.expect("profile");
        assert!(out.stats.gc_count > 0, "test premise: collections ran");
        assert_eq!(p.pauses.len() as u64, out.stats.gc_count);
        for w in p.pauses.windows(2) {
            assert!(w[0].at_instr <= w[1].at_instr, "pauses out of order");
        }
        for g in &p.pauses {
            assert_eq!(
                g.pause_cost,
                200 + 3 * g.copied_words,
                "pause cost must match the collector's charge"
            );
        }
        let total_pause: u64 = p.pauses.iter().map(|g| g.pause_cost).sum();
        assert!(total_pause <= out.stats.rt_cost, "pauses exceed runtime cost");
    }
}

#[test]
fn census_totals_match_the_live_heap_at_every_sample() {
    for opts in small_heap_modes() {
        let tagged = opts.mode == til::Mode::Baseline;
        let exe = Compiler::new(opts).compile(CHURN_SRC).expect("compile");
        let out = exe.run_with(2_000_000_000, true).expect("run");
        let p = out.profile.expect("profile");
        assert!(out.stats.gc_count > 0, "test premise: collections ran");
        for (i, g) in p.pauses.iter().enumerate() {
            let c = p
                .censuses
                .iter()
                .find(|c| c.after_gc() == Some(i as u64))
                .unwrap_or_else(|| panic!("collection {i} has no census"));
            assert_eq!(
                c.classes.total_words(),
                g.live_words,
                "census {i} ({tagged}) must sum to that collection's surviving words",
                tagged = if tagged { "tagged" } else { "tag-free" },
            );
        }
        let exit = p
            .censuses
            .iter()
            .find(|c| c.when == til::CensusWhen::Exit)
            .expect("exit census");
        assert_eq!(exit.classes.total_words(), out.stats.final_heap_words);
        let census_max = p.censuses.iter().map(|c| c.classes.total_words()).max().unwrap();
        assert_eq!(census_max, out.stats.max_live_words);
        // The program's live data is cons cells. Nearly tag-free mode
        // resolves them to records (headers + companion reps); the
        // tagged baseline's uniform tagging cannot, so they land in
        // `unknown` — that gap is the census-level measure of what
        // intensional polymorphism buys.
        if tagged {
            assert!(exit.classes.unknown_words > 0, "tagged records are unresolvable");
        } else {
            assert!(exit.classes.record_words > 0, "cons cells classify as records");
        }
    }
}

#[test]
fn function_and_opcode_attribution_is_exhaustive() {
    for opts in small_heap_modes() {
        let exe = Compiler::new(opts).compile(CHURN_SRC).expect("compile");
        let out = exe.run_with(2_000_000_000, true).expect("run");
        let p = out.profile.expect("profile");
        let fn_instrs: u64 = p.functions.iter().map(|f| f.instrs).sum();
        assert_eq!(fn_instrs, out.stats.instrs, "every retired instruction attributed");
        let op_instrs: u64 = p.opcodes.iter().map(|(_, n)| n).sum();
        assert_eq!(op_instrs, out.stats.instrs, "opcode histogram covers every retire");
        let fn_alloc: u64 = p.functions.iter().map(|f| f.alloc_bytes).sum();
        assert_eq!(
            fn_alloc, out.stats.allocated_bytes,
            "every allocated byte attributed to a function"
        );
        // The ranking helper is ordered and bounded.
        let top = p.top_functions(3);
        assert!(top.len() <= 3);
        for w in top.windows(2) {
            assert!(w[0].instrs >= w[1].instrs);
        }
        assert!(top[0].instrs > 0);
    }
}

#[test]
fn incremental_collection_slices_within_budget_and_matches_stop_the_world() {
    // The same program under both collection-scheduling modes: program
    // results and Stats must be identical, and the incremental leg
    // must decompose each collection into budget-bounded slices whose
    // costs sum to the stop-the-world pause.
    let budget = 1_000;
    let mut stw = Options::til();
    stw.link.semi_bytes = 256 << 10;
    let mut inc = stw.clone();
    inc.gc_mode = til::CollectMode::Incremental { budget };

    let exe_stw = Compiler::new(stw).compile(CHURN_SRC).expect("compile");
    let exe_inc = Compiler::new(inc).compile(CHURN_SRC).expect("compile");
    let out_stw = exe_stw.run_with(2_000_000_000, true).expect("stw run");
    let out_inc = exe_inc.run_with(2_000_000_000, true).expect("incremental run");
    assert_eq!(out_stw.output, out_inc.output, "mode changed program output");
    assert_eq!(out_stw.stats, out_inc.stats, "mode changed Stats");
    assert!(out_stw.stats.gc_count > 0, "test premise: collections ran");

    let ps = out_stw.profile.expect("stw profile");
    let pi = out_inc.profile.expect("incremental profile");
    assert_eq!(ps.pauses.len() as u64, out_stw.stats.gc_count);
    assert_eq!(
        pi.cycle_slices().len() as u64,
        out_inc.stats.gc_count,
        "one slice group per collection cycle"
    );
    assert!(
        pi.pauses.len() as u64 > out_inc.stats.gc_count,
        "the tight budget must actually slice some collection"
    );
    for (i, g) in pi.pauses.iter().enumerate() {
        assert!(
            g.pause_cost <= budget,
            "slice {i} cost {} exceeds the budget {budget}",
            g.pause_cost
        );
    }
    assert!(pi.max_pause() <= budget);
    assert!(
        pi.max_pause() < ps.max_pause(),
        "incremental max pause {} not below stop-the-world's {}",
        pi.max_pause(),
        ps.max_pause()
    );
    // Slice costs of cycle `c` sum to stop-the-world's pause `c`, and
    // the cycle census (keyed by cycle, riding on the last slice)
    // still matches that collection's surviving words.
    for (c, stw_pause) in ps.pauses.iter().enumerate() {
        let cycle_cost: u64 = pi
            .pauses
            .iter()
            .filter(|q| q.cycle == c as u64)
            .map(|q| q.pause_cost)
            .sum();
        assert_eq!(cycle_cost, stw_pause.pause_cost, "cycle {c} cost decomposition");
        let census = pi
            .censuses
            .iter()
            .find(|x| x.after_gc() == Some(c as u64))
            .unwrap_or_else(|| panic!("cycle {c} has no census"));
        assert_eq!(census.classes.total_words(), stw_pause.live_words);
    }
}

#[test]
fn zero_gc_profiled_runs_record_a_midrun_census() {
    // A program that allocates but never collects used to be invisible
    // to the census between startup and exit. The periodic check now
    // takes one mid-run sample, marked with its own provenance.
    let src = "fun build (0, acc) = acc | build (n, acc) = build (n - 1, n :: acc)
               val xs = build (1000, nil)
               val _ = print (Int.toString (length xs))";
    for opts in both_modes() {
        let exe = Compiler::new(opts).compile(src).expect("compile");
        let out = exe.run_with(1_000_000_000, true).expect("run");
        assert_eq!(out.stats.gc_count, 0, "test premise: no collection ran");
        let p = out.profile.expect("profile");
        let mids: Vec<_> = p
            .censuses
            .iter()
            .filter(|c| matches!(c.when, til::CensusWhen::MidRun { .. }))
            .collect();
        assert_eq!(mids.len(), 1, "exactly one mid-run census in a zero-GC run");
        let til::CensusWhen::MidRun { at_instr, seq } = mids[0].when else {
            unreachable!()
        };
        assert!(at_instr > 0 && at_instr < out.stats.instrs);
        assert_eq!(seq, 0, "the single default sample is sequence 0");
        assert!(mids[0].classes.total_words() > 0, "mid-run census saw no heap");
        assert!(
            p.censuses.iter().any(|c| c.when == til::CensusWhen::Exit),
            "exit census still present"
        );
        // An unprofiled run of the same image reports identical Stats:
        // the sample is an observer, never a mutation.
        let off = exe.run_with(1_000_000_000, false).expect("unprofiled run");
        assert_eq!(off.stats, out.stats);
    }
}

#[test]
fn runtime_string_allocation_lands_in_the_rt_bucket() {
    // `Int.toString` allocates its result inside the `RtCall`; the
    // HP-delta attribution used to mischarge those bytes to whichever
    // interpreted function the pc happened to be in. They now land in
    // a distinct `(rt)` bucket — and attribution stays exhaustive.
    let src = "fun go 0 = 0 | go n = (print (Int.toString n) ; go (n - 1))
               val _ = go 50";
    for opts in both_modes() {
        let exe = Compiler::new(opts).compile(src).expect("compile");
        let out = exe.run_with(1_000_000_000, true).expect("run");
        let p = out.profile.expect("profile");
        let rt = p
            .functions
            .iter()
            .find(|f| f.name == "(rt)")
            .expect("runtime allocation bucket missing");
        assert!(rt.alloc_bytes > 0, "string services allocated nothing?");
        assert_eq!(rt.instrs, 0, "the rt bucket never retires instructions");
        let fn_alloc: u64 = p.functions.iter().map(|f| f.alloc_bytes).sum();
        assert_eq!(
            fn_alloc, out.stats.allocated_bytes,
            "attribution must stay exhaustive with the rt bucket"
        );
    }
}

#[test]
fn string_heavy_programs_populate_the_string_census_row() {
    // A generated string-heavy program ([`til_bench::gen`]'s Strings
    // class): long-lived strings survive the collections its churn
    // forces under a small semispace, so TIL-mode censuses must
    // classify a non-empty `string` row — at pause time (strings
    // survived a copy) and at exit — and the runtime string services
    // (`^`, `Int.toString`, ...) must land their allocation in the
    // `(rt)` bucket.
    let g = til_bench::gen::generate_class(1, til_bench::gen::Class::Strings);
    let mut opts = Options::til();
    opts.verify = true;
    opts.link.semi_bytes = 64 << 10;
    let exe = Compiler::new(opts).compile(&g.source).expect("compile");
    let out = exe.run_with(2_000_000_000, true).expect("run");
    assert!(out.stats.gc_count > 0, "test premise: collections ran");
    let p = out.profile.expect("profile");
    let exit = p
        .censuses
        .iter()
        .find(|c| c.when == til::CensusWhen::Exit)
        .expect("exit census");
    assert!(
        exit.classes.string_words > 0,
        "exit census has an empty string row on a string-heavy program"
    );
    let pause_strings = p
        .censuses
        .iter()
        .filter(|c| c.after_gc().is_some())
        .map(|c| c.classes.string_words)
        .max()
        .expect("pause-time census");
    assert!(
        pause_strings > 0,
        "no pause-time census saw a surviving string"
    );
    let rt = p
        .functions
        .iter()
        .find(|f| f.name == "(rt)")
        .expect("runtime allocation bucket missing");
    assert!(rt.alloc_bytes > 0, "string services allocated nothing");
}

#[test]
fn exception_allocation_is_visible_to_profiler_and_census() {
    // Exception-packet construction used to be invisible: the packet's
    // bytes were charged to whichever function the pc was in, and the
    // census filed packets under `record` (or `unknown` in the tagged
    // baseline). Packets now carry a header marker — the profiler
    // charges them to the runtime `(rt)` bucket like the other runtime
    // services, and the census gets a distinct `exn` row, in both rep
    // modes. The program raises (and recovers) 300 payload-carrying
    // exceptions (one 3-word packet each), holds 60 packets live to
    // exit as first-class values, and churns enough to collect with
    // the stash live.
    let src = "exception Bail of int
               fun build (0, acc) = acc | build (n, acc) = build (n - 1, n :: acc)
               fun mk (0, acc) = acc | mk (n, acc) = mk (n - 1, Bail n :: acc)
               fun count (xs, a) = case xs of nil => a | _ :: r => count (r, a + 1)
               fun churn (0, acc) = acc
                 | churn (n, acc) = churn (n - 1, acc + length (build (400, nil)))
               fun boom (0, k) = raise Bail k | boom (n, k) = boom (n - 1, k) + 1
               fun spin (0, acc) = acc
                 | spin (n, acc) = spin (n - 1, acc + ((boom (3, n)) handle Bail k => k))
               val stash = mk (60, nil)
               val chk = spin (300, 0) + churn (50, 0)
               val _ = print (Int.toString (chk + count (stash, 0)))";
    for opts in small_heap_modes() {
        let exe = Compiler::new(opts).compile(src).expect("compile");
        let out = exe.run_with(2_000_000_000, true).expect("run");
        assert!(out.stats.gc_count > 0, "test premise: collections ran");
        let p = out.profile.expect("profile");
        let rt = p
            .functions
            .iter()
            .find(|f| f.name == "(rt)")
            .expect("rt bucket missing on an exception-heavy run");
        assert!(
            rt.alloc_bytes >= 300 * 24,
            "packet construction under-charged to the rt bucket: {}",
            rt.alloc_bytes
        );
        let fn_alloc: u64 = p.functions.iter().map(|f| f.alloc_bytes).sum();
        assert_eq!(
            fn_alloc, out.stats.allocated_bytes,
            "attribution must stay exhaustive with exn packets re-bucketed"
        );
        let exit = p
            .censuses
            .iter()
            .find(|c| c.when == til::CensusWhen::Exit)
            .expect("exit census");
        assert!(
            exit.classes.exn_words >= 60 * 3,
            "exit census must classify the live packet stash: {} exn words",
            exit.classes.exn_words
        );
        let pause_exn = p
            .censuses
            .iter()
            .filter(|c| c.after_gc().is_some())
            .map(|c| c.classes.exn_words)
            .max()
            .expect("pause-time census");
        assert!(
            pause_exn > 0,
            "no pause-time census saw a surviving exception packet"
        );
    }
}

#[test]
fn recovered_traps_are_counted_per_function() {
    // `div 0` raises the hardware `Div` trap on exactly one iteration
    // (n = 3) and the handler recovers; the execution profile must
    // attribute exactly that one trap to the raising function, in
    // both rep modes, without perturbing Stats or output.
    let src = "fun walk (n, acc) =
                   if n <= 0 then acc
                   else walk (n - 1, acc + ((100 div (n - 3)) handle Div => ~1))
               val _ = print (Int.toString (walk (10, 0)))";
    for opts in both_modes() {
        let exe = Compiler::new(opts).compile(src).expect("compile");
        let off = exe.run_with(1_000_000_000, false).expect("unprofiled run");
        let out = exe.run_with(1_000_000_000, true).expect("profiled run");
        assert_eq!(out.output, "107", "raise-and-recover result wrong");
        assert_eq!(off.stats, out.stats, "profiling perturbed the trapping run");
        let p = out.profile.expect("profile");
        let traps: u64 = p.functions.iter().map(|f| f.traps).sum();
        assert_eq!(traps, 1, "exactly one recovered Div trap expected");
        let f = p.functions.iter().find(|f| f.traps > 0).expect("trapping fn");
        assert!(
            f.name.starts_with("walk"),
            "trap attributed to `{}`, not the raising function",
            f.name
        );
    }
}

#[test]
fn chrome_trace_export_round_trips() {
    let mut opts = Options::til();
    opts.link.semi_bytes = 256 << 10;
    let exe = Compiler::new(opts).compile(CHURN_SRC).expect("compile");
    let out = exe.run_with(2_000_000_000, true).expect("run");
    let profile = out.profile.as_ref().expect("profile");

    // Runtime spans on the instruction timeline, nested under `run`.
    let evs = profile.trace_events(&out.stats);
    assert!(evs.iter().any(|e| e.name == "gc-pause" && e.depth == 1));
    assert!(evs.iter().any(|e| e.name == "heap-census" && e.depth == 1));
    let run = evs.last().expect("events");
    assert_eq!((run.name.as_str(), run.depth), ("run", 0));
    assert_eq!(run.seconds, out.stats.time() as f64 * 1e-6);

    // The combined compile+runtime Chrome trace is well-formed JSON
    // with both tracks present.
    let json = til::chrome_trace_json(&exe.info, Some((&out.stats, profile))).pretty();
    til_common::json::validate(&json).expect("well-formed Chrome trace JSON");
    for needle in ["traceEvents", "thread_name", "gc-pause", "exit-census", "\"run\""] {
        assert!(json.contains(needle), "Chrome trace is missing {needle}");
    }
}

// --- Allocation-site heap profiling: HP-delta attribution keyed by
// allocation pc, with the collector reporting every copy so objects
// keep their site identity across semispace flips. The profiler is
// an observer: Stats and output are bit-identical with it on or off,
// under either collection-scheduling mode.

/// Two allocation sites with opposite lifetimes: `keep` builds a list
/// held to exit, `toss` builds lists discarded every churn iteration.
/// Sized so a 64 KB semispace forces collections while both the kept
/// list and one in-flight toss list fit.
const TWO_SITE_SRC: &str = "fun keep (0, acc) = acc | keep (n, acc) = keep (n - 1, n :: acc)
     fun toss (0, acc) = acc | toss (n, acc) = toss (n - 1, n :: acc)
     fun churn 0 = 0 | churn k = (length (toss (800, nil)) ; churn (k - 1))
     val kept = keep (500, nil)
     val _ = print (Int.toString (churn 300 + length kept))";

#[test]
fn site_profiler_is_transparent_across_gc_modes() {
    // Program output and every Stats counter must be bit-identical
    // with profiling on and off, under stop-the-world and incremental
    // scheduling, in both rep modes — the site profiler (HeapMap,
    // forwarding hook, flip purge) never perturbs the run it observes.
    let modes = [
        til::CollectMode::StopTheWorld,
        til::CollectMode::Incremental { budget: 1_000 },
    ];
    for opts in small_heap_modes() {
        let exe = Compiler::new(opts).compile(CHURN_SRC).expect("compile");
        let mut outputs = Vec::new();
        let mut stats = Vec::new();
        for gc in modes {
            let off = exe.run_with_gc_mode(2_000_000_000, false, gc).expect("unprofiled");
            let on = exe.run_with_gc_mode(2_000_000_000, true, gc).expect("profiled");
            assert_eq!(off.output, on.output, "profiling changed output under {gc:?}");
            assert_eq!(off.stats, on.stats, "profiling changed Stats under {gc:?}");
            assert!(off.profile.is_none() && on.profile.is_some());
            let p = on.profile.expect("profile");
            assert!(!p.sites.is_empty(), "churn produced no allocation sites");
            outputs.push(on.output);
            stats.push(on.stats);
        }
        assert_eq!(outputs[0], outputs[1], "GC mode changed output");
        assert_eq!(stats[0], stats[1], "GC mode changed Stats");
    }
}

#[test]
fn allocation_sites_separate_short_lived_from_live_to_exit() {
    // The survival table must distinguish the two lifetimes: `keep`'s
    // conses survive every collection and are resident at exit;
    // `toss`'s die young (at most the one collection that catches a
    // list mid-build), leaving at most the post-final-flip residue.
    for opts in small_heap_modes() {
        let exe = Compiler::new(opts).compile(TWO_SITE_SRC).expect("compile");
        let out = exe.run_with(2_000_000_000, true).expect("run");
        assert!(out.stats.gc_count > 1, "test premise: several collections ran");
        let p = out.profile.expect("profile");
        let sum = |pred: &dyn Fn(&til::SiteProfile) -> bool| {
            p.sites.iter().filter(|s| pred(s)).fold((0u64, 0u64, 0usize), |a, s| {
                (a.0 + s.alloc_words, a.1 + s.live_at_exit_words, a.2.max(s.survived_words.len()))
            })
        };
        let (keep_alloc, keep_exit, keep_depth) = sum(&|s| s.name.starts_with("keep"));
        let (toss_alloc, toss_exit, toss_depth) = sum(&|s| s.name.starts_with("toss"));
        assert!(keep_alloc > 0, "keep site missing from the table");
        assert!(toss_alloc > keep_alloc, "toss churns far more than keep allocates");
        // The whole kept list is resident at exit; of toss's churn at
        // most the residue since the last collection is (the exit
        // census scans the resident heap, which still holds objects
        // that died after the final flip).
        assert!(
            keep_exit * 2 >= keep_alloc,
            "the kept list must be resident at exit under its site: {keep_exit} of {keep_alloc}"
        );
        assert!(
            toss_exit * 20 < toss_alloc,
            "discarded toss lists cannot dominate exit residency: {toss_exit} of {toss_alloc}"
        );
        assert!(
            keep_depth >= out.stats.gc_count as usize,
            "the kept list must survive every collection: depth {keep_depth}, gc_count {}",
            out.stats.gc_count
        );
        assert!(
            toss_depth < keep_depth,
            "toss ({toss_depth}) must die younger than keep ({keep_depth})"
        );
    }
}

#[test]
fn forwarding_preserves_site_identity_under_pressure() {
    // A pressured 64 KB semispace: objects are copied many times, and
    // each copy must carry its site along. The per-site table is
    // byte-identical across collection modes (the copy stream is the
    // same under confined slicing), site exit residency accounts for
    // the whole resident heap, and every census's per-site breakdown
    // sums to its class totals.
    let mut opts = Options::til();
    opts.verify = true;
    opts.link.semi_bytes = 64 << 10;
    let exe = Compiler::new(opts).compile(TWO_SITE_SRC).expect("compile");
    let stw = exe
        .run_with_gc_mode(2_000_000_000, true, til::CollectMode::StopTheWorld)
        .expect("stw run");
    let inc = exe
        .run_with_gc_mode(2_000_000_000, true, til::CollectMode::Incremental { budget: 500 })
        .expect("incremental run");
    assert!(stw.stats.gc_count > 1, "test premise: several collections ran");
    assert_eq!(stw.output, inc.output);
    assert_eq!(stw.stats, inc.stats);
    let ps = stw.profile.expect("stw profile");
    let pi = inc.profile.expect("incremental profile");
    assert!(
        pi.pauses.len() as u64 > inc.stats.gc_count,
        "test premise: the tight budget actually sliced a collection"
    );
    assert_eq!(ps.sites, pi.sites, "forwarding under slices changed site statistics");
    for p in [&ps, &pi] {
        let exit_words: u64 = p.sites.iter().map(|s| s.live_at_exit_words).sum();
        assert_eq!(
            exit_words, stw.stats.final_heap_words,
            "site exit residency must account for the whole resident heap"
        );
        for c in &p.censuses {
            let by_site: u64 = c.sites.iter().map(|s| s.classes.total_words()).sum();
            assert_eq!(
                by_site,
                c.classes.total_words(),
                "census site breakdown must sum to its class totals"
            );
        }
        // The exit census and the survival table are two views of the
        // same HeapMap: per-site words must agree exactly.
        let exit = p
            .censuses
            .iter()
            .find(|c| c.when == til::CensusWhen::Exit)
            .expect("exit census");
        for s in &p.sites {
            let census_words = exit
                .sites
                .iter()
                .filter(|e| e.name == s.name)
                .map(|e| e.classes.total_words())
                .sum::<u64>();
            assert_eq!(
                census_words, s.live_at_exit_words,
                "site {} disagrees between exit census and survival table",
                s.name
            );
        }
        assert!(
            p.sites.iter().any(|s| s.survived_words.len() >= 2),
            "no site survived two collections — forwarding depth untested"
        );
    }
}

#[test]
fn census_cadence_knob_takes_periodic_samples() {
    // `Options::census_every` switches the single default mid-run
    // sample to a periodic cadence: samples carry increasing sequence
    // numbers, sit at least the cadence apart on the instruction
    // timeline, and stay observational (Stats identical to an
    // unprofiled run).
    let every = 3_000u64;
    let src = "fun build (0, acc) = acc | build (n, acc) = build (n - 1, n :: acc)
               fun loop (0, acc) = acc
                 | loop (k, acc) = loop (k - 1, acc + length (build (50, nil)))
               val _ = print (Int.toString (loop (200, 0)))";
    for mut opts in both_modes() {
        opts.census_every = Some(every);
        let exe = Compiler::new(opts).compile(src).expect("compile");
        let on = exe.run_with(1_000_000_000, true).expect("profiled run");
        let off = exe.run_with(1_000_000_000, false).expect("unprofiled run");
        assert_eq!(off.stats, on.stats, "periodic censuses perturbed the run");
        let p = on.profile.expect("profile");
        let mids: Vec<_> = p
            .censuses
            .iter()
            .filter_map(|c| match c.when {
                til::CensusWhen::MidRun { at_instr, seq } => Some((at_instr, seq)),
                _ => None,
            })
            .collect();
        assert!(
            mids.len() >= 3,
            "cadence {every} over {} instrs took only {} samples",
            on.stats.instrs,
            mids.len()
        );
        for (i, &(_, seq)) in mids.iter().enumerate() {
            assert_eq!(seq, i as u64, "mid-run sequence numbers must be dense");
        }
        for w in mids.windows(2) {
            assert!(
                w[1].0 >= w[0].0 + every,
                "samples closer than the cadence: {} then {}",
                w[0].0,
                w[1].0
            );
        }
        assert!(
            p.censuses.iter().any(|c| c.when == til::CensusWhen::Exit),
            "exit census still present"
        );
    }
}

//! The benchmark suite (the paper's Table 1 programs, from-scratch
//! core-SML implementations at scaled-down default sizes) and the
//! measurement harness that regenerates every table and figure of the
//! paper's evaluation (Tables 2–7 / Figures 8–12).

use til::{Compiler, Options};

pub mod gen;
pub mod rng;

/// One benchmark program.
#[derive(Clone, Copy, Debug)]
pub struct Bench {
    /// Name as in Table 1.
    pub name: &'static str,
    /// Source text.
    pub source: &'static str,
    /// Table 1 description.
    pub description: &'static str,
}

/// The eight Table 1 benchmarks.
pub fn suite() -> Vec<Bench> {
    vec![
        Bench {
            name: "Checksum",
            source: include_str!("../sml/checksum.sml"),
            description: "Foxnet checksum fragment over a 4096-byte buffer",
        },
        Bench {
            name: "FFT",
            source: include_str!("../sml/fft.sml"),
            description: "fast Fourier transform on unboxed float arrays",
        },
        Bench {
            name: "Knuth-Bendix",
            source: include_str!("../sml/knuth_bendix.sml"),
            description: "Knuth-Bendix completion of the group axioms",
        },
        Bench {
            name: "Lexgen",
            source: include_str!("../sml/lexgen.sml"),
            description: "lexer generator: regex -> NFA -> DFA -> tokenize",
        },
        Bench {
            name: "Life",
            source: include_str!("../sml/life.sml"),
            description: "game of life on lists (Reade)",
        },
        Bench {
            name: "Matmult",
            source: include_str!("../sml/matmult.sml"),
            description: "integer matrix multiply on 2-d arrays",
        },
        Bench {
            name: "PIA",
            source: include_str!("../sml/pia.sml"),
            description: "perspective inversion over float records",
        },
        Bench {
            name: "Simple",
            source: include_str!("../sml/simple.sml"),
            description: "spherical fluid-dynamics kernel on 2-d float arrays",
        },
    ]
}

/// One measurement of one benchmark under one configuration.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Program output (used to cross-check the modes agree).
    pub output: String,
    /// Execution-time metric (instructions + runtime work).
    pub time: u64,
    /// Instructions retired (mutator only).
    pub instrs: u64,
    /// Runtime work in instruction-equivalents (strings, collector).
    pub rt_cost: u64,
    /// Total heap allocation in bytes.
    pub alloc_bytes: u64,
    /// Peak physical memory proxy: live heap + stack + statics + code,
    /// in bytes.
    pub memory_bytes: u64,
    /// High-water mark of live heap words.
    pub max_live_words: u64,
    /// Resident heap words at program exit.
    pub final_heap_words: u64,
    /// High-water mark of stack words.
    pub max_stack_words: u64,
    /// Generated code size, bytes.
    pub code_bytes: u64,
    /// Executable size (code + GC tables + static data), bytes.
    pub executable_bytes: u64,
    /// Compile time in seconds.
    pub compile_seconds: f64,
    /// Per-phase compile seconds, in pipeline order.
    pub phase_seconds: Vec<(&'static str, f64)>,
    /// Collections run.
    pub gc_count: u64,
    /// Machine-code-verifier precision: heap loads the typed-heap
    /// shape tables refined to a precise class.
    pub mcv_loads_refined: u64,
    /// Heap loads the verifier could only classify as ⊤.
    pub mcv_loads_top: u64,
    /// Indirect calls checked against the callee's real signature.
    pub mcv_calls_proven: u64,
    /// Indirect calls the verifier accepted conservatively.
    pub mcv_calls_conservative: u64,
}

/// Instruction budget per benchmark run.
pub const FUEL: u64 = 4_000_000_000;

/// Semispace size for the pressured-heap runtime-observability runs.
/// The default 16 MB semispace never fills on these scaled-down
/// benchmarks, so the runtime export runs the suite under a small heap
/// to exercise the collector (pauses, censuses) while still fitting
/// every benchmark's live set (Knuth-Bendix peaks above a 256 KB
/// semispace).
pub const RUNTIME_SEMI_BYTES: u64 = 1 << 20;

/// One profiled, pressured-heap run of one benchmark (TIL mode).
#[derive(Clone, Debug)]
pub struct RuntimeMeasurement {
    /// Program output.
    pub output: String,
    /// Machine counters — identical to an unprofiled run's.
    pub stats: til::Stats,
    /// Profiler payload: opcode histogram, per-function attribution,
    /// GC pauses, heap censuses.
    pub profile: til::RunProfile,
}

/// Compiles one benchmark in TIL mode with a `semi_bytes` semispace
/// and runs it with profiling on.
pub fn measure_runtime(b: &Bench, semi_bytes: u64) -> Result<RuntimeMeasurement, String> {
    measure_runtime_with(b, semi_bytes, Options::til())
}

/// The tagged-baseline counterpart of [`measure_runtime`]: same
/// pressured heap, fully tagged collector. Its exit census quantifies
/// the per-benchmark representation gap against TIL mode (tag words,
/// boxing, and how much of the heap the census can still classify).
pub fn measure_runtime_baseline(b: &Bench, semi_bytes: u64) -> Result<RuntimeMeasurement, String> {
    measure_runtime_with(b, semi_bytes, Options::baseline())
}

/// The incremental-collection counterpart of [`measure_runtime`]: TIL
/// mode, same pressured heap, collection sliced under `budget`
/// instruction-equivalents per pause. Output and `Stats` are identical
/// to the stop-the-world leg; only the pause records differ.
pub fn measure_runtime_incremental(
    b: &Bench,
    semi_bytes: u64,
    budget: u64,
) -> Result<RuntimeMeasurement, String> {
    let mut opts = Options::til();
    opts.gc_mode = til::CollectMode::Incremental { budget };
    measure_runtime_with(b, semi_bytes, opts)
}

/// One benchmark's row of the runtime-observability export: the two
/// TIL-mode collection-scheduling legs plus the tagged baseline.
#[derive(Clone, Debug)]
pub struct RuntimeRow<'a> {
    /// Benchmark name.
    pub name: &'a str,
    /// TIL mode, stop-the-world collection.
    pub stw: &'a RuntimeMeasurement,
    /// TIL mode, incremental collection (the export's `pause_budget`).
    pub incremental: &'a RuntimeMeasurement,
    /// Tagged baseline (census-gap columns).
    pub baseline: &'a RuntimeMeasurement,
}

fn measure_runtime_with(
    b: &Bench,
    semi_bytes: u64,
    mut opts: Options,
) -> Result<RuntimeMeasurement, String> {
    opts.link.semi_bytes = semi_bytes;
    let exe = Compiler::new(opts)
        .compile(b.source)
        .map_err(|d| format!("{}: compile: {d}", b.name))?;
    let out = exe
        .run_with(FUEL, true)
        .map_err(|e| format!("{}: run: {e}", b.name))?;
    let profile = out
        .profile
        .ok_or_else(|| format!("{}: profiled run returned no profile", b.name))?;
    Ok(RuntimeMeasurement {
        output: out.output,
        stats: out.stats,
        profile,
    })
}

/// Compiles and runs one benchmark under the given options.
pub fn measure(b: &Bench, opts: Options) -> Result<Measurement, String> {
    let exe = Compiler::new(opts)
        .compile(b.source)
        .map_err(|d| format!("{}: compile: {d}", b.name))?;
    let out = exe
        .run(FUEL)
        .map_err(|e| format!("{}: run: {e}", b.name))?;
    let stats = &out.stats;
    let memory = 8 * (stats.max_live_words.max(1) + stats.max_stack_words)
        + exe.info.executable_bytes as u64;
    Ok(Measurement {
        output: out.output,
        time: stats.time(),
        instrs: stats.instrs,
        rt_cost: stats.rt_cost,
        alloc_bytes: stats.allocated_bytes,
        memory_bytes: memory,
        max_live_words: stats.max_live_words,
        final_heap_words: stats.final_heap_words,
        max_stack_words: stats.max_stack_words,
        code_bytes: exe.info.code_bytes as u64,
        executable_bytes: exe.info.executable_bytes as u64,
        compile_seconds: exe.info.total_seconds(),
        phase_seconds: exe
            .info
            .phases
            .iter()
            .map(|p| (p.name, p.seconds))
            .collect(),
        gc_count: stats.gc_count,
        mcv_loads_refined: exe.info.mcv.map_or(0, |s| s.heap_loads_refined as u64),
        mcv_loads_top: exe.info.mcv.map_or(0, |s| s.heap_loads_top as u64),
        mcv_calls_proven: exe.info.mcv.map_or(0, |s| s.indirect_calls_proven as u64),
        mcv_calls_conservative: exe
            .info
            .mcv
            .map_or(0, |s| s.indirect_calls_conservative as u64),
    })
}

/// The machine-readable metrics export behind `BENCH_pipeline.json`
/// (hand-rolled JSON via [`til_common::Json`]; see README for the
/// schema).
pub mod export {
    use super::Measurement;
    use til_common::Json;

    /// Schema identifier written into every export.
    pub const SCHEMA: &str = "til-bench-pipeline/v1";

    fn mode_json(m: &Measurement) -> Json {
        Json::obj()
            .set("instructions_retired", m.instrs)
            .set("runtime_cost", m.rt_cost)
            .set("time", m.time)
            .set("allocated_bytes", m.alloc_bytes)
            .set("max_live_words", m.max_live_words)
            .set("final_heap_words", m.final_heap_words)
            .set("max_stack_words", m.max_stack_words)
            .set("memory_bytes", m.memory_bytes)
            .set("gc_count", m.gc_count)
            .set("code_bytes", m.code_bytes)
            .set("executable_bytes", m.executable_bytes)
            .set("compile_seconds", m.compile_seconds)
            .set(
                "mcv_precision",
                Json::obj()
                    .set("heap_loads_refined", m.mcv_loads_refined)
                    .set("heap_loads_top", m.mcv_loads_top)
                    .set("indirect_calls_proven", m.mcv_calls_proven)
                    .set("indirect_calls_conservative", m.mcv_calls_conservative),
            )
            .set(
                "phases",
                Json::arr(m.phase_seconds.iter().map(|(name, secs)| {
                    Json::obj().set("name", *name).set("seconds", *secs)
                })),
            )
    }

    /// Builds the full report from per-benchmark (name, TIL, baseline)
    /// measurements.
    pub fn pipeline_json(rows: &[(&str, &Measurement, &Measurement)]) -> Json {
        let ratio = |a: u64, b: u64| a.max(1) as f64 / b.max(1) as f64;
        Json::obj()
            .set("schema", SCHEMA)
            .set("fuel", super::FUEL)
            .set(
                "benchmarks",
                Json::arr(rows.iter().map(|(name, til, base)| {
                    Json::obj()
                        .set("name", *name)
                        .set(
                            "modes",
                            Json::obj()
                                .set("til", mode_json(til))
                                .set("baseline", mode_json(base)),
                        )
                        .set(
                            "ratios",
                            Json::obj()
                                .set("time", ratio(til.time, base.time))
                                .set("alloc", ratio(til.alloc_bytes, base.alloc_bytes))
                                .set("memory", ratio(til.memory_bytes, base.memory_bytes))
                                .set(
                                    "executable",
                                    ratio(til.executable_bytes, base.executable_bytes),
                                ),
                        )
                })),
            )
    }

    /// The default output directory for bench artifacts: the enclosing
    /// workspace root (the nearest ancestor of the current directory
    /// whose `Cargo.toml` declares `[workspace]`), else the current
    /// directory.
    pub fn default_out_dir() -> std::path::PathBuf {
        let mut dir = std::env::current_dir().unwrap_or_else(|_| ".".into());
        loop {
            let manifest = dir.join("Cargo.toml");
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
            if !dir.pop() {
                return ".".into();
            }
        }
    }

    /// Resolves where `BENCH_pipeline.json` goes: `TIL_BENCH_JSON` if
    /// set, else [`default_out_dir`].
    pub fn pipeline_json_path() -> std::path::PathBuf {
        if let Ok(p) = std::env::var("TIL_BENCH_JSON") {
            return p.into();
        }
        default_out_dir().join("BENCH_pipeline.json")
    }

    /// Writes the report, returning the path written.
    pub fn write_pipeline_json(
        rows: &[(&str, &Measurement, &Measurement)],
    ) -> std::io::Result<std::path::PathBuf> {
        write_pipeline_json_at(rows, &pipeline_json_path())
    }

    /// Writes the report to an explicit path.
    pub fn write_pipeline_json_at(
        rows: &[(&str, &Measurement, &Measurement)],
        path: &std::path::Path,
    ) -> std::io::Result<std::path::PathBuf> {
        std::fs::write(path, pipeline_json(rows).pretty())?;
        Ok(path.to_path_buf())
    }

    // ---- Runtime observability export (`BENCH_runtime.json`).

    /// Schema identifier of the runtime-observability export.
    /// `v4` added per-benchmark `alloc_sites` (allocation-site
    /// survival statistics) and pause-cost percentiles; `v3` added the
    /// incremental-collection leg (per-mode pause distributions, slice
    /// counts, the pause budget) and census provenance marks; `v2`
    /// added the tagged-baseline census columns.
    pub const RUNTIME_SCHEMA: &str = "til-bench-runtime/v4";

    /// Functions reported per benchmark in the execution profile.
    pub const TOP_K: usize = 10;

    /// The deep-survival column: `survived_n_words` counts words that
    /// survived at least this many collections.
    pub const SURVIVAL_N: usize = 8;

    fn census_json(c: &til::CensusClasses, provenance: &str) -> Json {
        Json::obj()
            .set("provenance", provenance)
            .set("record_words", c.record_words)
            .set("array_words", c.array_words)
            .set("string_words", c.string_words)
            .set("closure_words", c.closure_words)
            .set("exn_words", c.exn_words)
            .set("unknown_words", c.unknown_words)
            .set("total_words", c.total_words())
    }

    /// The pause-distribution columns of one run: identical shape for
    /// both collection-scheduling modes, so downstream tooling compares
    /// them field by field. Under incremental collection `count` is the
    /// number of *slices* (`cycles` collections contributed them);
    /// under stop-the-world the two are equal.
    fn pause_dist_json(p: &til::RunProfile) -> Json {
        let count = p.pauses.len() as u64;
        let total_cost: u64 = p.pauses.iter().map(|g| g.pause_cost).sum();
        let slices = p.cycle_slices();
        Json::obj()
            .set("count", count)
            .set("cycles", slices.len() as u64)
            .set("max_slices_per_cycle", slices.iter().copied().max().unwrap_or(0))
            .set("max_cost", p.max_pause())
            .set("p50_cost", p.pause_percentile(50.0))
            .set("p95_cost", p.pause_percentile(95.0))
            .set("p99_cost", p.pause_percentile(99.0))
            .set(
                "mean_cost",
                if count > 0 {
                    total_cost as f64 / count as f64
                } else {
                    0.0
                },
            )
            .set("total_cost", total_cost)
            .set(
                "total_copied_words",
                p.pauses.iter().map(|g| g.copied_words).sum::<u64>(),
            )
            .set(
                "max_live_words",
                p.pauses.iter().map(|g| g.live_words).max().unwrap_or(0),
            )
    }

    /// One allocation site's export row: total words, the 1/2/N
    /// survival columns (words surviving at least that many
    /// collections), the histogram depth, and exit residency. The
    /// `(rt)` and `(unmapped)` pseudo-sites export `pc` −1 / −2.
    fn site_json(s: &til::SiteProfile) -> Json {
        let surv = |k: usize| s.survived_words.get(k - 1).copied().unwrap_or(0);
        let pc = match s.pc {
            u32::MAX => -1i64,
            pc if pc == u32::MAX - 1 => -2,
            pc => pc as i64,
        };
        Json::obj()
            .set("name", s.name.clone())
            .set("pc", pc)
            .set("alloc_words", s.alloc_words)
            .set("survived_1_words", surv(1))
            .set("survived_2_words", surv(2))
            .set("survived_n_words", surv(SURVIVAL_N))
            .set("max_survived_cycles", s.survived_words.len() as u64)
            .set("live_at_exit_words", s.live_at_exit_words)
    }

    /// Builds the runtime-observability report: per benchmark, the GC
    /// pause distribution under *both* collection-scheduling modes
    /// (stop-the-world and incremental under `pause_budget`), the exit
    /// heap census (in TIL mode and in the tagged baseline, with the
    /// census gap between them), the allocation-site survival table,
    /// the hottest functions, and the opcode mix. Everything here is a
    /// pure function of the deterministic instruction stream, so the
    /// file is byte-stable across runs and machines.
    pub fn runtime_json(rows: &[super::RuntimeRow<'_>], semi_bytes: u64, pause_budget: u64) -> Json {
        Json::obj()
            .set("schema", RUNTIME_SCHEMA)
            .set("fuel", super::FUEL)
            .set("semi_bytes", semi_bytes)
            .set("pause_budget", pause_budget)
            .set("survival_n", SURVIVAL_N as u64)
            .set(
                "benchmarks",
                Json::arr(rows.iter().map(|row| {
                    let (m, mi, mb) = (row.stw, row.incremental, row.baseline);
                    let p = &m.profile;
                    let exit = |mm: &super::RuntimeMeasurement| {
                        mm.profile
                            .censuses
                            .iter()
                            .find(|c| c.when == til::CensusWhen::Exit)
                            .map(|c| c.classes.clone())
                    };
                    let exit_til = exit(m);
                    let exit_base = exit(mb);
                    // The representation gap: how much bigger the
                    // tagged heap is, and how much of it the census
                    // cannot classify (`unknown`) relative to the
                    // table-driven TIL census.
                    let gap = match (&exit_til, &exit_base) {
                        (Some(t), Some(b)) => Json::obj()
                            .set(
                                "total_words_ratio",
                                b.total_words().max(1) as f64 / t.total_words().max(1) as f64,
                            )
                            .set(
                                "unknown_words_delta",
                                b.unknown_words as i64 - t.unknown_words as i64,
                            ),
                        _ => Json::obj(),
                    };
                    let exit_census = exit_til
                        .as_ref()
                        .map(|c| census_json(c, "exit"))
                        .unwrap_or_else(Json::obj);
                    let baseline_exit_census = exit_base
                        .as_ref()
                        .map(|c| census_json(c, "exit"))
                        .unwrap_or_else(Json::obj);
                    Json::obj()
                        .set("name", row.name)
                        .set(
                            "stats",
                            Json::obj()
                                .set("instructions_retired", m.stats.instrs)
                                .set("runtime_cost", m.stats.rt_cost)
                                .set("time", m.stats.time())
                                .set("allocated_bytes", m.stats.allocated_bytes)
                                .set("max_live_words", m.stats.max_live_words)
                                .set("final_heap_words", m.stats.final_heap_words)
                                .set("gc_count", m.stats.gc_count),
                        )
                        // The two legs run the same program to the same
                        // `Stats`; the export records that agreement so
                        // a regression is visible in the diff.
                        .set(
                            "modes_agree",
                            m.output == mi.output && m.stats == mi.stats,
                        )
                        // Site statistics are likewise a pure function
                        // of the (mode-independent) instruction and
                        // copy stream, so the two legs must agree.
                        .set("sites_agree", p.sites == mi.profile.sites)
                        .set(
                            "gc_pauses",
                            Json::obj()
                                .set("stop_the_world", pause_dist_json(p))
                                .set("incremental", pause_dist_json(&mi.profile)),
                        )
                        .set("exit_census", exit_census)
                        .set("baseline_exit_census", baseline_exit_census)
                        .set("census_gap", gap)
                        .set(
                            "alloc_sites",
                            Json::arr(p.top_sites(TOP_K).into_iter().map(site_json)),
                        )
                        .set(
                            "top_functions",
                            Json::arr(p.top_functions(TOP_K).into_iter().map(|f| {
                                Json::obj()
                                    .set("name", f.name.clone())
                                    .set("instrs", f.instrs)
                                    .set("alloc_bytes", f.alloc_bytes)
                                    .set("traps", f.traps)
                            })),
                        )
                        .set(
                            "opcodes",
                            Json::arr(p.opcodes.iter().map(|(op, n)| {
                                Json::obj().set("name", *op).set("count", *n)
                            })),
                        )
                })),
            )
    }

    /// Writes the runtime report into `dir`, returning the path.
    pub fn write_runtime_json(
        rows: &[super::RuntimeRow<'_>],
        semi_bytes: u64,
        pause_budget: u64,
        dir: &std::path::Path,
    ) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join("BENCH_runtime.json");
        std::fs::write(&path, runtime_json(rows, semi_bytes, pause_budget).pretty())?;
        Ok(path)
    }
}

/// Geometric mean of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Median of a sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if v.is_empty() {
        f64::NAN
    } else if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_all_eight_table1_programs() {
        let names: Vec<&str> = suite().iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec![
                "Checksum",
                "FFT",
                "Knuth-Bendix",
                "Lexgen",
                "Life",
                "Matmult",
                "PIA",
                "Simple"
            ]
        );
    }

    #[test]
    fn geomean_and_median() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}

//! Layered benchmark of the Pareto planning stack.
//!
//! ```text
//! perfbench --workload <batch_large|batch_small|serve_mixed> --seed <n>
//!           --seconds <n> --trace <0|1> [--size full|tiny]
//! ```
//!
//! Every input is generated from `--seed`. With `--trace 0` the run
//! measures the end-to-end metrics; with `--trace 1` it records spans
//! around each call into the program and reports the per-layer metrics.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! names the input digest and the deterministic counts of the run. A
//! failed output check makes the run exit with code 1. README.md says
//! why each workload exists and which metric each layer should move.

mod batch;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// One named value on the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a workload run reports.
pub struct Outcome {
    pub attempted: u64,
    /// Attempts that returned an error or failed an output check.
    pub failed: u64,
    /// One line per failed check, printed to stderr.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Outputs that must repeat exactly across runs of one seed.
    pub deterministic: Vec<(&'static str, f64)>,
    /// Recorded spans (traced run only).
    pub trace: Option<trace::Trace>,
}

/// The end-to-end metrics, reported by every workload's untraced run.
pub struct EndToEnd {
    pub setup_s: f64,
    pub records_per_s: f64,
    pub ops_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("records_per_s", self.records_per_s, "records/s"),
            metric("ops_per_s", self.ops_per_s, "1/s"),
            metric("latency_p50_ms", self.latency_p50_ms, "ms"),
            metric("latency_p90_ms", self.latency_p90_ms, "ms"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }
}

/// The per-layer metrics, reported by every workload's traced run. A layer
/// the workload never calls reads 0. Times are medians per job (or per
/// request); counts are totals over the workload's fixed job prefix.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub sketch_ms: f64,
    pub sketch_hashes: f64,
    pub stratify_ms: f64,
    pub stratify_iterations: f64,
    pub profile_ms: f64,
    pub profile_sampled_records: f64,
    pub profile_sampled_frac: f64,
    pub profile_workload_ops: f64,
    pub optimize_ms: f64,
    pub lp_solves: f64,
    pub lp_pivots: f64,
    pub lp_warm_fallbacks: f64,
    pub partition_ms: f64,
    pub cache_hit_ratio: f64,
    pub cache_evictions: f64,
    pub session_warm_plan_ms: f64,
    pub execute_ms: f64,
    pub execute_compute_ops: f64,
    pub execute_kv_round_trips: f64,
    pub execute_bytes: f64,
    pub execute_makespan_s: f64,
    pub execute_dirty_kj: f64,
    pub recovery_ms: f64,
    pub recovery_replans: f64,
    pub service_plan_call_ms: f64,
    pub service_replan_call_ms: f64,
    pub service_scaling_2v1: f64,
    pub service_coalesced: f64,
    pub trace_overhead_frac: f64,
    pub trace_reconcile_err: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("sketch.self_ms", self.sketch_ms, "ms"),
            metric("sketch.hashes", self.sketch_hashes, "count"),
            metric("stratify.self_ms", self.stratify_ms, "ms"),
            metric("stratify.iterations", self.stratify_iterations, "count"),
            metric("profile.self_ms", self.profile_ms, "ms"),
            metric(
                "profile.sampled_records",
                self.profile_sampled_records,
                "count",
            ),
            metric("profile.sampled_frac", self.profile_sampled_frac, "ratio"),
            metric("profile.workload_ops", self.profile_workload_ops, "count"),
            metric("optimize.self_ms", self.optimize_ms, "ms"),
            metric("lp.solves", self.lp_solves, "count"),
            metric("lp.pivots", self.lp_pivots, "count"),
            metric("lp.warm_fallbacks", self.lp_warm_fallbacks, "count"),
            metric("partition.self_ms", self.partition_ms, "ms"),
            metric("cache.hit_ratio", self.cache_hit_ratio, "ratio"),
            metric("cache.evictions", self.cache_evictions, "count"),
            metric("session.warm_plan_ms", self.session_warm_plan_ms, "ms"),
            metric("execute.self_ms", self.execute_ms, "ms"),
            metric("execute.compute_ops", self.execute_compute_ops, "count"),
            metric(
                "execute.kv_round_trips",
                self.execute_kv_round_trips,
                "count",
            ),
            metric("execute.bytes", self.execute_bytes, "bytes"),
            metric("execute.makespan_s", self.execute_makespan_s, "sim_s"),
            metric("execute.dirty_kj", self.execute_dirty_kj, "sim_kJ"),
            metric("recovery.self_ms", self.recovery_ms, "ms"),
            metric("recovery.replans", self.recovery_replans, "count"),
            metric("service.plan_call_ms", self.service_plan_call_ms, "ms"),
            metric("service.replan_call_ms", self.service_replan_call_ms, "ms"),
            metric("service.scaling_2v1", self.service_scaling_2v1, "ratio"),
            metric("service.coalesced", self.service_coalesced, "count"),
            metric("trace.overhead_frac", self.trace_overhead_frac, "ratio"),
            metric("trace.reconcile_err", self.trace_reconcile_err, "ratio"),
        ]
    }
}

/// Largest `trace.reconcile_err` a traced run accepts: the benchmark's
/// own glue between layer calls must stay under 5% of every root span.
pub const RECONCILE_TOL: f64 = 0.05;

/// Hits, lookups (hits + misses) and evictions over every stage of a plan
/// cache.
pub fn cache_counts(stats: &pareto_core::CacheStats) -> (u64, u64, u64) {
    let (mut hits, mut lookups, mut evictions) = (0, 0, 0);
    for (_, event, count) in stats.events() {
        match event {
            "hit" => {
                hits += count;
                lookups += count;
            }
            "miss" => lookups += count,
            "evict" => evictions += count,
            _ => {}
        }
    }
    (hits, lookups, evictions)
}

/// Sum of a telemetry counter over all its label sets.
pub fn counter_total(tel: &pareto_telemetry::Telemetry, name: &str) -> f64 {
    tel.snapshot()
        .metrics
        .counters
        .iter()
        .filter(|(k, _)| k.name == name)
        .map(|(_, v)| *v)
        .sum::<u64>() as f64
}

/// Input sizes: `Full` is the benchmark, `Tiny` a smoke run for the
/// self-tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    Full,
    Tiny,
}

/// Run-wide settings from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    pub run_for: Duration,
    pub traced: bool,
    pub size: Size,
}

/// Seed of the simulated cluster. The cluster is the fixed system under
/// test, like the paper's testbed, and the workload seed varies only the
/// data: node speeds and green traces shift the cost of every job at once,
/// so a seeded cluster would make whole runs faster or slower by seed.
pub const CLUSTER_SEED: u64 = 2017;

/// Set-ups per run, each building everything anew; `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 3;

/// SplitMix64 finalizer: derives independent seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile (`p` in [0, 100]); 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args(args: &[String]) -> Result<(String, Settings), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut size) = (None, None, None, Size::Full);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size takes full or tiny, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let settings = Settings {
        seed: seed.ok_or("--seed is required")?,
        run_for: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        traced: traced.ok_or("--trace is required")?,
        size,
    };
    Ok((workload.ok_or("--workload is required")?, settings))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, settings) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "batch_large" => batch::run(batch::Kind::Large, &settings),
        "batch_small" => batch::run(batch::Kind::Small, &settings),
        "serve_mixed" => serve::run(&settings),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };

    if let Some(trace) = &outcome.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{workload}-{}.json", settings.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, trace.to_json()))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }

    let mut info = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"input_digest\":\"{:016x}\",\"deterministic\":{{",
        settings.seed, outcome.input_digest
    );
    for (i, (name, v)) in outcome.deterministic.iter().enumerate() {
        let _ = write!(
            info,
            "{}\"{name}\":{}",
            if i == 0 { "" } else { "," },
            json_num(*v)
        );
    }
    info.push_str("}}");
    println!("{info}");

    let correct = outcome.attempted > 0 && outcome.failed == 0 && outcome.errors.is_empty();
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

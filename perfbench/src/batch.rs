//! `batch_large` and `batch_small`: closed sequences of cold planning jobs,
//! one at a time, each on a fresh `PlanSession` with a private cache.
//!
//! A job plans its dataset and then executes the plan. `batch_large`
//! alternates a 5 000-record text corpus and a 4 500-record web graph on
//! two planning threads; `batch_small` walks many distinct 100- and
//! 300-record corpora on one thread and adds an α sweep, a frontier
//! exploration and a faulted run to every job. README.md says why.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pareto_cluster::{FaultPlan, JobReport, NodeSpec, SimCluster};
use pareto_core::framework::{Framework, FrameworkConfig, Plan, Quality, Strategy};
use pareto_core::{
    dataset_fingerprint, DataPartitioner, ElasticPlan, EnergyEstimator, FrontierConfig,
    HeterogeneityEstimator, ParetoModeler, PlanSession, RecoveryConfig, Stratifier,
    StratifierConfig,
};
use pareto_datagen::Dataset;
use pareto_stats::LinearFit;
use pareto_telemetry::{metrics, Telemetry};
use pareto_workloads::{run_workload, WorkloadKind, WorkloadOutput};

use crate::trace::Trace;
use crate::{
    cache_counts, counter_total, median, mix, percentile, EndToEnd, Layers, Outcome, Settings,
    Size, CLUSTER_SEED, RECONCILE_TOL, SETUP_REPS,
};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Large,
    Small,
}

const NODES: usize = 4;
const ALPHA: f64 = 0.995;
/// The traced run's warm replan changes only α, so only the optimize and
/// partition stages recompute.
const WARM_ALPHA: f64 = 0.997;
const SWEEP: [f64; 6] = [1.0, 0.999, 0.995, 0.9, 0.5, 0.0];
const FAULTS: &str = "crash:1@0.5,slow:0@3";
const MINING: WorkloadKind = WorkloadKind::FrequentPatterns { support: 0.1 };
/// The planner's stage seeds, derived from `FrameworkConfig::seed` the way
/// its profile and partition stages derive them; the layered replay must
/// use the same ones to reproduce the session's plan.
const PROFILE_SEED_SALT: u64 = 0x5A17;
const PARTITION_SEED_SALT: u64 = 0x9A27;

struct Job {
    dataset: Dataset,
    workload: WorkloadKind,
    cfg: FrameworkConfig,
}

/// Jobs per round: one of each dataset kind. A run stops only after whole
/// rounds, so every run sees the same mix. Latency is per round: a job's
/// latency alone is bimodal by kind, and a median taken between two modes
/// jumps from run to run. The first round's counts are the run's
/// deterministic totals.
const ROUND: usize = 2;

/// Distinct rounds of datasets generated in set-up: enough that a run
/// seldom repeats one (a repeat must give identical outputs).
fn pool_rounds(kind: Kind, size: Size) -> usize {
    match (kind, size) {
        (Kind::Large, Size::Full) => 16,
        (Kind::Small, Size::Full) => 96,
        (_, Size::Tiny) => 2,
    }
}

fn config(seed: u64, threads: usize) -> FrameworkConfig {
    FrameworkConfig {
        strategy: Strategy::HetEnergyAware { alpha: ALPHA },
        seed,
        threads,
        ..FrameworkConfig::default()
    }
}

/// Generate the job pool from the workload seed, and the cluster.
fn setup(kind: Kind, size: Size, seed: u64) -> (Vec<Job>, SimCluster) {
    let cluster = SimCluster::new(NodeSpec::paper_cluster(NODES, 400.0, 2, 9, CLUSTER_SEED));
    let count = (ROUND * pool_rounds(kind, size)) as u64;
    let (text_scale, graph_scale) = match size {
        Size::Full => (1.0, 0.5),
        Size::Tiny => (0.04, 0.03),
    };
    let jobs = (0..count)
        .map(|i| {
            let data_seed = mix(seed, 100 + i);
            let cfg_seed = mix(seed, 1_000_000 + i);
            match (kind, i % 2) {
                (Kind::Large, 0) => Job {
                    dataset: pareto_datagen::rcv1_syn(data_seed, text_scale),
                    workload: MINING,
                    cfg: config(cfg_seed, 2),
                },
                (Kind::Large, _) => Job {
                    dataset: pareto_datagen::uk_syn(data_seed, graph_scale),
                    workload: WorkloadKind::Lz77,
                    cfg: config(cfg_seed, 2),
                },
                (Kind::Small, parity) => Job {
                    dataset: pareto_datagen::rcv1_syn(
                        data_seed,
                        if parity == 0 { 0.02 } else { 0.06 },
                    ),
                    workload: MINING,
                    cfg: config(cfg_seed, 1),
                },
            }
        })
        .collect();
    (jobs, cluster)
}

/// What one job produced.
struct JobOut {
    records: usize,
    /// The cold session plan.
    plan: Plan,
    makespan_s: f64,
    dirty_kj: f64,
    compute_ops: u64,
    round_trips: u64,
    bytes: u64,
    replans: u32,
    global_frequent: Option<usize>,
    errors: Vec<String>,
}

impl JobOut {
    /// Digest of every deterministic output: equal digests for the same
    /// job mean the program repeated itself exactly.
    fn digest(&self) -> u64 {
        let mut h = mix(self.records as u64, self.makespan_s.to_bits());
        for v in [
            self.dirty_kj.to_bits(),
            self.compute_ops,
            self.round_trips,
            self.bytes,
            u64::from(self.replans),
            self.global_frequent.map_or(u64::MAX, |g| g as u64),
        ] {
            h = mix(h, v);
        }
        for (size, part) in self.plan.sizes.iter().zip(&self.plan.partitions) {
            h = mix(h, *size as u64);
            for &i in part {
                h = mix(h, i as u64);
            }
        }
        h
    }
}

/// `None` when `partitions` is a disjoint cover of `0..n` whose sizes match
/// `sizes` and sum to `n`.
fn partition_error(sizes: &[usize], partitions: &[Vec<usize>], n: usize) -> Option<String> {
    if sizes.iter().sum::<usize>() != n {
        return Some(format!(
            "sizes sum to {}, not {n}",
            sizes.iter().sum::<usize>()
        ));
    }
    if sizes.len() != partitions.len() {
        return Some(format!(
            "{} sizes for {} partitions",
            sizes.len(),
            partitions.len()
        ));
    }
    let mut seen = vec![false; n];
    for (p, (part, &size)) in partitions.iter().zip(sizes).enumerate() {
        if part.len() != size {
            return Some(format!(
                "partition {p} holds {} records, size says {size}",
                part.len()
            ));
        }
        for &i in part {
            if i >= n || std::mem::replace(&mut seen[i], true) {
                return Some(format!("record {i} is out of range or placed twice"));
            }
        }
    }
    None
}

fn add_report(out: &mut JobOut, report: &JobReport) {
    out.makespan_s = report.makespan_seconds;
    out.dirty_kj = report.total_dirty_clamped / 1000.0;
    for run in &report.runs {
        out.compute_ops += run.cost.compute_ops;
        out.round_trips += run.cost.round_trips;
        out.bytes += run.cost.bytes;
    }
}

/// One job through the program's public entry points: a cold plan, then
/// (`Small`) a sweep, a frontier and a faulted run, or (`Large`) a plain
/// run of the plan.
fn run_job<'c>(
    t: &mut Trace,
    id: u64,
    kind: Kind,
    cluster: &'c SimCluster,
    faults: &FaultPlan,
    job: &Job,
    telemetry: Option<&std::sync::Arc<Telemetry>>,
) -> Result<(JobOut, PlanSession<'c>), String> {
    t.span("job", id, |t| {
        let mut session = t.span("session.open", id, |_| {
            let session =
                PlanSession::new(cluster, job.cfg.clone(), job.dataset.clone(), job.workload);
            match telemetry {
                Some(tel) => session.with_telemetry(tel.clone()),
                None => session,
            }
        });
        let plan = t
            .span("session.plan", id, |_| session.plan())
            .map_err(|e| format!("plan: {e}"))?;
        let n = job.dataset.len();
        let mut errors: Vec<String> = partition_error(&plan.sizes, &plan.partitions, n)
            .map(|e| format!("cold plan: {e}"))
            .into_iter()
            .collect();
        let fw = Framework::new(cluster, job.cfg.clone());
        let mut out = JobOut {
            records: n,
            plan,
            makespan_s: 0.0,
            dirty_kj: 0.0,
            compute_ops: 0,
            round_trips: 0,
            bytes: 0,
            replans: 0,
            global_frequent: None,
            errors: Vec::new(),
        };
        match kind {
            Kind::Large => {
                let run = t.span("execute", id, |_| {
                    fw.run_with_plan(&job.dataset, job.workload, out.plan.clone())
                });
                add_report(&mut out, &run.report);
                if let Quality::Mining {
                    global_frequent, ..
                } = run.quality
                {
                    out.global_frequent = Some(global_frequent);
                }
            }
            Kind::Small => {
                let plans = t
                    .span("session.sweep", id, |_| session.sweep(&SWEEP))
                    .map_err(|e| format!("sweep: {e}"))?;
                for (alpha, p) in SWEEP.iter().zip(&plans) {
                    if let Some(e) = partition_error(&p.sizes, &p.partitions, n) {
                        errors.push(format!("sweep plan at alpha {alpha}: {e}"));
                    }
                }
                let fcfg = FrontierConfig {
                    max_points: 24,
                    ..FrontierConfig::default()
                };
                let frontier = t
                    .span("session.frontier", id, |_| session.explore_frontier(&fcfg))
                    .map_err(|e| format!("frontier: {e}"))?;
                if frontier.result.points.is_empty() {
                    errors.push("frontier has no points".into());
                }
                let faulted = t
                    .span("recovery", id, |_| {
                        fw.try_run_with_elastic(
                            &job.dataset,
                            job.workload,
                            faults,
                            &ElasticPlan::none(),
                            &RecoveryConfig::default(),
                        )
                    })
                    .map_err(|e| format!("faulted run: {e}"))?;
                let rec = &faulted.outcome.recovery;
                if !rec.exactly_once || rec.items_completed != rec.items_total {
                    errors.push(format!(
                        "faulted run: exactly_once {} with {} of {} items completed",
                        rec.exactly_once, rec.items_completed, rec.items_total
                    ));
                }
                out.replans = rec.replans;
                add_report(&mut out, &faulted.outcome.report);
            }
        }
        out.errors = errors;
        Ok((out, session))
    })
}

/// Counts from the layered replay of one job.
struct ReplayOut {
    hashes: u64,
    iterations: u64,
    sampled_records: u64,
    workload_ops: u64,
    cache_hits: u64,
    cache_lookups: u64,
    cache_evictions: u64,
}

/// Replay the job's cold plan through the layer calls one by one and check
/// it yields the session's plan; then replan the warm session after an
/// α-only change.
fn replay(
    t: &mut Trace,
    id: u64,
    kind: Kind,
    cluster: &SimCluster,
    job: &Job,
    plan: &Plan,
    session: &mut PlanSession<'_>,
) -> Result<ReplayOut, String> {
    t.span("replay", id, |t| {
        let cfg = &job.cfg;
        let n = job.dataset.len();
        let stratifier = Stratifier::new(StratifierConfig {
            threads: cfg.threads,
            ..cfg.stratifier.clone()
        });
        let signatures = t.span("sketch", id, |_| stratifier.sketch(&job.dataset));
        let strat = t.span("stratify", id, |_| {
            stratifier.stratify_signatures(&signatures)
        });
        let (measurements, fits, profiles) = t.span("profile", id, |_| {
            let estimator =
                HeterogeneityEstimator::new(cluster, cfg.sampling, cfg.seed ^ PROFILE_SEED_SALT)
                    .with_threads(cfg.threads);
            let (measurements, _) = estimator.measure(&job.dataset, &strat, job.workload);
            let roster: Vec<usize> = (0..cluster.num_nodes()).collect();
            let fits: Vec<LinearFit> = estimator
                .fit_measurements(&measurements, &roster)
                .iter()
                .map(|m| m.fit)
                .collect();
            let profiles = EnergyEstimator::profiles(cluster, 0.0, cfg.planning_horizon_s);
            (measurements, fits, profiles)
        });
        let point = t
            .span("optimize", id, |_| {
                ParetoModeler::new(fits, profiles).and_then(|m| m.solve(n, ALPHA))
            })
            .map_err(|e| format!("replay solve: {e}"))?;
        let partitions = t.span("partition", id, |_| {
            DataPartitioner::new(cfg.seed ^ PARTITION_SEED_SALT).partition(
                &strat,
                &point.sizes,
                cfg.layout,
            )
        });
        if strat.assignments != plan.stratification.assignments
            || point.sizes != plan.sizes
            || partitions != plan.partitions
        {
            return Err("layered replay differs from the session plan".into());
        }

        session.set_alpha(WARM_ALPHA);
        let warm = t
            .span("session.warm_plan", id, |_| session.plan())
            .map_err(|e| format!("warm replan: {e}"))?;
        if let Some(e) = partition_error(&warm.sizes, &warm.partitions, n) {
            return Err(format!("warm replan: {e}"));
        }
        if kind == Kind::Small {
            t.span("recovery.baseline_plan", id, |_| {
                Framework::new(cluster, cfg.clone()).try_plan(&job.dataset, job.workload)
            })
            .map_err(|e| format!("baseline plan: {e}"))?;
        }

        let (cache_hits, cache_lookups, cache_evictions) = cache_counts(&session.cache_stats());
        Ok(ReplayOut {
            hashes: (n * cfg.stratifier.sketch_size) as u64,
            iterations: strat.iterations as u64,
            sampled_records: measurements.iter().map(|&(s, _)| s as u64).sum(),
            workload_ops: measurements.iter().map(|&(_, ops)| ops).sum(),
            cache_hits,
            cache_lookups,
            cache_evictions,
        })
    })
}

/// Frequent itemsets of the whole dataset, the reference every mining
/// job's distributed result must match.
fn reference_frequent(job: &Job) -> Option<usize> {
    let refs: Vec<_> = job.dataset.items.iter().collect();
    match run_workload(job.workload, &refs).0 {
        WorkloadOutput::Patterns(out) => Some(out.itemsets.len()),
        WorkloadOutput::Compressed { .. } => None,
    }
}

fn ms(per_id: &BTreeMap<u64, f64>) -> f64 {
    median(&per_id.values().copied().collect::<Vec<_>>()) * 1e3
}

pub fn run(kind: Kind, s: &Settings) -> Outcome {
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(std::hint::black_box(setup(kind, s.size, s.seed)));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let (jobs, cluster) = built.expect("SETUP_REPS >= 1");
    let faults = FaultPlan::parse(FAULTS, NODES).expect("the fault spec is well formed");
    let input_digest = jobs.iter().fold(mix(s.seed, kind as u64), |h, j| {
        mix(h, dataset_fingerprint(&j.dataset).0)
    });

    let mut attempted = 0u64;
    let mut failed_ids = std::collections::BTreeSet::new();
    let mut errors = Vec::new();
    let mut fail = |id: u64, msg: String, errors: &mut Vec<String>| {
        failed_ids.insert(id);
        errors.push(format!("job {id}: {msg}"));
    };
    // Wall time, records and jobs per second of each whole round.
    let (mut round_walls, mut record_rates, mut job_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut round_records = 0usize;
    // Per pool index: the first output digest, to check repeats against.
    let mut digests: BTreeMap<usize, u64> = BTreeMap::new();
    // Mining results awaiting the reference check, per pool index.
    let mut mined: Vec<(u64, usize, usize)> = Vec::new();
    let mut layers = Layers::default();
    let (mut first_round_records, mut cache_lookups) = (0u64, 0u64);
    let mut twin_wall = Duration::ZERO;

    let start = Instant::now();
    let deadline = start + s.run_for;
    let mut trace = Trace::new(s.traced, start, 0);
    let mut round_start = start;
    let mut i = 0usize;
    while i < ROUND || !i.is_multiple_of(ROUND) || Instant::now() < deadline {
        let id = i as u64;
        let pool_idx = i % jobs.len();
        let job = &jobs[pool_idx];
        attempted += 1;
        let telemetry = s.traced.then(Telemetry::enabled);
        let twin = if s.traced {
            let t0 = Instant::now();
            let twin = run_job(&mut Trace::off(), id, kind, &cluster, &faults, job, None);
            twin_wall += t0.elapsed();
            Some(twin)
        } else {
            None
        };
        let result = run_job(
            &mut trace,
            id,
            kind,
            &cluster,
            &faults,
            job,
            telemetry.as_ref(),
        );
        i += 1;
        round_records += result.as_ref().map_or(0, |(out, _)| out.records);
        if i.is_multiple_of(ROUND) {
            let secs = round_start.elapsed().as_secs_f64();
            round_walls.push(secs);
            record_rates.push(round_records as f64 / secs);
            job_rates.push(ROUND as f64 / secs);
            round_records = 0;
            round_start = Instant::now();
        }

        let (out, mut session) = match result {
            Ok(done) => done,
            Err(e) => {
                fail(id, e, &mut errors);
                continue;
            }
        };
        for e in &out.errors {
            fail(id, e.clone(), &mut errors);
        }
        let digest = out.digest();
        if *digests.entry(pool_idx).or_insert(digest) != digest {
            fail(
                id,
                "outputs differ from an earlier run of the same job".into(),
                &mut errors,
            );
        }
        if let Some(g) = out.global_frequent {
            mined.push((id, pool_idx, g));
        }
        let in_prefix = (id as usize) < ROUND;
        if in_prefix {
            layers.execute_makespan_s += out.makespan_s;
            layers.execute_dirty_kj += out.dirty_kj;
            layers.execute_compute_ops += out.compute_ops as f64;
            layers.execute_kv_round_trips += out.round_trips as f64;
            layers.execute_bytes += out.bytes as f64;
            layers.recovery_replans += f64::from(out.replans);
            first_round_records += out.records as u64;
        }
        if !s.traced {
            continue;
        }

        match twin {
            Some(Ok((twin, _))) if twin.digest() == digest => {}
            _ => fail(
                id,
                "traced and untraced runs of the job differ".into(),
                &mut errors,
            ),
        }
        let tel = telemetry.expect("traced runs attach telemetry");
        match replay(&mut trace, id, kind, &cluster, job, &out.plan, &mut session) {
            Ok(r) if in_prefix => {
                layers.sketch_hashes += r.hashes as f64;
                layers.stratify_iterations += r.iterations as f64;
                layers.profile_sampled_records += r.sampled_records as f64;
                layers.profile_workload_ops += r.workload_ops as f64;
                layers.cache_hit_ratio += r.cache_hits as f64;
                cache_lookups += r.cache_lookups;
                layers.cache_evictions += r.cache_evictions as f64;
                layers.lp_solves += counter_total(&tel, metrics::LP_SOLVES_TOTAL);
                layers.lp_pivots += counter_total(&tel, metrics::LP_PIVOTS_TOTAL);
                layers.lp_warm_fallbacks += counter_total(&tel, metrics::LP_WARM_FALLBACKS_TOTAL);
            }
            Ok(_) => {}
            Err(e) => fail(id, e, &mut errors),
        }
    }

    // Reference mining results, computed once per dataset after the timed
    // window.
    let mut reference: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    for (id, pool_idx, got) in mined {
        let want = *reference
            .entry(pool_idx)
            .or_insert_with(|| reference_frequent(&jobs[pool_idx]));
        if want != Some(got) {
            fail(
                id,
                format!("{got} global frequent itemsets, the whole dataset has {want:?}"),
                &mut errors,
            );
        }
    }

    let deterministic = vec![
        ("execute.makespan_s", layers.execute_makespan_s),
        ("execute.dirty_kj", layers.execute_dirty_kj),
        ("execute.compute_ops", layers.execute_compute_ops),
        ("recovery.replans", layers.recovery_replans),
    ];
    let metrics = if s.traced {
        layers.sketch_ms = ms(&trace.self_by_id("sketch"));
        layers.stratify_ms = ms(&trace.self_by_id("stratify"));
        layers.profile_ms = ms(&trace.self_by_id("profile"));
        layers.optimize_ms = ms(&trace.self_by_id("optimize"));
        layers.partition_ms = ms(&trace.self_by_id("partition"));
        layers.execute_ms = ms(&trace.self_by_id("execute"));
        layers.session_warm_plan_ms = median(&trace.durations("session.warm_plan")) * 1e3;
        let baseline = trace.self_by_id("recovery.baseline_plan");
        let recovery: Vec<f64> = trace
            .self_by_id("recovery")
            .iter()
            .filter_map(|(id, t)| baseline.get(id).map(|b| t - b))
            .collect();
        layers.recovery_ms = median(&recovery) * 1e3;
        layers.profile_sampled_frac =
            layers.profile_sampled_records / first_round_records.max(1) as f64;
        layers.cache_hit_ratio /= cache_lookups.max(1) as f64;
        let traced_wall: f64 = trace.durations("job").iter().sum();
        layers.trace_overhead_frac = traced_wall / twin_wall.as_secs_f64() - 1.0;
        layers.trace_reconcile_err = trace.reconcile_err();
        if layers.trace_reconcile_err > RECONCILE_TOL {
            errors.push(format!(
                "layer self times leave {:.1}% of a root span unaccounted (tolerance {:.0}%)",
                layers.trace_reconcile_err * 100.0,
                RECONCILE_TOL * 100.0
            ));
        }
        layers.metrics()
    } else {
        EndToEnd {
            setup_s: median(&setup_times),
            records_per_s: median(&record_rates),
            ops_per_s: median(&job_rates),
            latency_p50_ms: percentile(&round_walls, 50.0) * 1e3,
            latency_p90_ms: percentile(&round_walls, 90.0) * 1e3,
        }
        .metrics()
    };
    Outcome {
        attempted,
        failed: failed_ids.len() as u64,
        errors,
        metrics,
        input_digest,
        deterministic,
        trace: s.traced.then_some(trace),
    }
}

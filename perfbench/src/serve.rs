//! `serve_mixed`: closed-loop clients calling the plan server in-process.
//!
//! Six tenants of 1 000 records each share one server with the default
//! `ServiceConfig` (two workers, a 64-entry plan cache, an 8-deep queue).
//! 80% of requests plan at one of five α values and 20% append records
//! and replan, so cache hits sit beside writes that restratify and
//! re-profile. Client `c` owns tenants `c`, `c + 2` and `c + 4`: every
//! tenant sees its requests in stream order whatever the client count,
//! so each answer is fixed by the seed and checkable.

use std::sync::Arc;
use std::time::Instant;

use pareto_service::{PlanService, Request, RequestKind, Response, Server, ServiceConfig};
use pareto_telemetry::{metrics, Telemetry};

use crate::trace::Trace;
use crate::{
    cache_counts, counter_total, median, mix, percentile, EndToEnd, Layers, Outcome, Settings,
    Size, RECONCILE_TOL, SETUP_REPS,
};

const TENANTS: usize = 6;
const CLIENTS: usize = 2;
const ALPHAS: [f64; 5] = [0.5, 0.9, 0.99, 0.995, 0.999];
/// α of the one cold plan that warms each tenant during set-up.
const WARM_ALPHA: f64 = 0.995;
/// Share of requests, in tenths, that append and replan.
const REPLAN_TENTHS: usize = 2;

/// The service derives each tenant's dataset from its name and the default
/// `ServiceConfig::seed`, so the tenants are the same under every workload
/// seed; the seed varies the request stream.
fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

/// Request `i` of client stream `c`: the tenant and the operation. Each
/// block of ten requests holds exactly `REPLAN_TENTHS` replans at
/// seed-chosen positions; tenants and α values rotate from seed-chosen
/// offsets, so every seed sees the same mix.
fn request(seed: u64, c: usize, i: usize) -> (usize, RequestKind) {
    let per_client = TENANTS / CLIENTS;
    let r = mix(mix(seed, 7 + c as u64), (i / 10) as u64);
    let slot = ((i % 10) * 7 + (r % 10) as usize) % 10;
    let tenant = c + CLIENTS * ((i + (r >> 8) as usize) % per_client);
    let alpha = ALPHAS[(i + (r >> 16) as usize) % ALPHAS.len()];
    let kind = if slot < REPLAN_TENTHS {
        RequestKind::Replan { append: 2, alpha }
    } else {
        RequestKind::Plan { alpha }
    };
    (tenant, kind)
}

/// A started server with every tenant warmed by one cold plan.
struct Serving {
    service: Arc<PlanService>,
    server: Server,
    /// Records per tenant after warm-up.
    counts: Vec<usize>,
    /// Dataset digest per tenant after warm-up, as the server reports it.
    digests: Vec<u64>,
}

fn setup(s: &Settings, telemetry: Option<Arc<Telemetry>>) -> Result<Serving, String> {
    let cfg = ServiceConfig {
        dataset_scale: match s.size {
            Size::Full => 0.2,
            Size::Tiny => 0.02,
        },
        ..ServiceConfig::default()
    };
    let service = Arc::new(PlanService::new(cfg, telemetry));
    let server = Server::start(service.clone());
    // Each client thread warms its own tenants, as it would in service.
    let warmed: Vec<Result<(usize, usize, u64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let server = &server;
                scope.spawn(move || {
                    (c..TENANTS)
                        .step_by(CLIENTS)
                        .map(|t| {
                            match server.call(Request {
                                id: t as u64,
                                tenant: tenant_name(t),
                                deadline_budget: 0,
                                kind: RequestKind::Plan { alpha: WARM_ALPHA },
                            }) {
                                Response::Served {
                                    digest,
                                    sizes,
                                    degraded: false,
                                    ..
                                } => Ok((t, sizes.iter().map(|&x| x as usize).sum(), digest)),
                                other => Err(format!("warm-up of tenant {t}: {other:?}")),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up thread panicked"))
            .collect()
    });
    let (mut counts, mut digests) = (vec![0; TENANTS], vec![0; TENANTS]);
    for w in warmed {
        let (t, count, digest) = w?;
        counts[t] = count;
        digests[t] = digest;
    }
    Ok(Serving {
        service,
        server,
        counts,
        digests,
    })
}

/// One completed call.
struct Call {
    latency_s: f64,
    /// Records in the served plan (0 when the call failed).
    records: usize,
    /// Digest of the answer (dataset digest, sizes, predicted makespan);
    /// `None` when the call failed a check.
    answer: Option<u64>,
    makespan_s: f64,
}

/// When a client stops.
#[derive(Clone, Copy)]
enum Limit {
    /// At the deadline, once each stream has at least this many calls.
    Until(Instant, usize),
    /// After exactly this many calls per stream.
    Exactly([usize; CLIENTS]),
}

/// Walk the given client streams (round-robin when more than one) against
/// `server` in a closed loop. Returns the calls per stream and check
/// failures.
fn drive(
    server: &Server,
    seed: u64,
    streams: &[usize],
    mut counts: Vec<usize>,
    limit: Limit,
    trace: &mut Trace,
) -> (Vec<Vec<Call>>, Vec<String>) {
    let mut calls: Vec<Vec<Call>> = streams.iter().map(|_| Vec::new()).collect();
    let mut errors = Vec::new();
    let mut growth: Option<usize> = None;
    let root_id = streams[0] as u64;
    trace.span("client", root_id, |trace| {
        let mut k = 0usize;
        loop {
            let done = |j: usize, calls: &[Vec<Call>]| match limit {
                Limit::Until(deadline, min) => {
                    calls[j].len() >= min && Instant::now() >= deadline
                }
                Limit::Exactly(n) => calls[j].len() >= n[streams[j]],
            };
            if (0..streams.len()).all(|j| done(j, &calls)) {
                break;
            }
            let j = k % streams.len();
            k += 1;
            if done(j, &calls) {
                continue;
            }
            let c = streams[j];
            let i = calls[j].len();
            let (tenant, kind) = request(seed, c, i);
            let replan = matches!(kind, RequestKind::Replan { .. });
            let req = Request {
                id: ((c as u64) << 32) | i as u64,
                tenant: tenant_name(tenant),
                deadline_budget: 0,
                kind,
            };
            let id = req.id;
            let t0 = Instant::now();
            let name = if replan { "service.replan" } else { "service.plan" };
            let resp = trace.span(name, id, |_| server.call(req));
            let latency_s = t0.elapsed().as_secs_f64();
            let mut call = Call {
                latency_s,
                records: 0,
                answer: None,
                makespan_s: 0.0,
            };
            match resp {
                Response::Served {
                    digest,
                    sizes,
                    makespan_s,
                    degraded: false,
                    source_digest,
                    ..
                } if source_digest == digest => {
                    let total: usize = sizes.iter().map(|&x| x as usize).sum();
                    let expected = if replan {
                        let delta = total.saturating_sub(counts[tenant]);
                        (delta > 0 && *growth.get_or_insert(delta) == delta)
                            .then_some(counts[tenant] + delta)
                    } else {
                        Some(counts[tenant])
                    };
                    if expected == Some(total) {
                        counts[tenant] = total;
                        let answer = sizes
                            .iter()
                            .fold(mix(digest, makespan_s.to_bits()), |h, &x| mix(h, u64::from(x)));
                        call.records = total;
                        call.answer = Some(answer);
                        call.makespan_s = makespan_s;
                    } else {
                        errors.push(format!(
                            "request {c}/{i}: plan covers {total} records, tenant {tenant} holds {}",
                            counts[tenant]
                        ));
                    }
                }
                other => errors.push(format!("request {c}/{i}: {other:?}")),
            }
            calls[j].push(call);
        }
    });
    (calls, errors)
}

/// What one client thread hands back: its streams, their calls, its check
/// failures and its spans.
type ClientRun = (Vec<usize>, Vec<Vec<Call>>, Vec<String>, Trace);

/// One measured phase: both client streams, driven by one client thread
/// each or by a single thread that alternates between them.
struct Phase {
    /// Calls per client stream.
    calls: [Vec<Call>; CLIENTS],
    wall_s: f64,
    errors: Vec<String>,
    trace: Trace,
}

fn phase(
    serving: &Serving,
    seed: u64,
    one_client: bool,
    limit: Limit,
    trace_on: bool,
    first_thread: usize,
) -> Phase {
    let epoch = Instant::now();
    let groups: Vec<Vec<usize>> = if one_client {
        vec![(0..CLIENTS).collect()]
    } else {
        (0..CLIENTS).map(|c| vec![c]).collect()
    };
    let results: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .enumerate()
            .map(|(thread, streams)| {
                let counts = serving.counts.clone();
                let server = &serving.server;
                scope.spawn(move || {
                    let mut trace = Trace::new(trace_on, epoch, first_thread + thread);
                    let (calls, errors) = drive(server, seed, &streams, counts, limit, &mut trace);
                    (streams, calls, errors, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut calls: [Vec<Call>; CLIENTS] = Default::default();
    let mut errors = Vec::new();
    let mut trace = Trace::new(trace_on, epoch, 0);
    for (streams, per_stream, errs, t) in results {
        for (c, stream_calls) in streams.into_iter().zip(per_stream) {
            calls[c] = stream_calls;
        }
        errors.extend(errs);
        trace.absorb(t);
    }
    Phase {
        calls,
        wall_s,
        errors,
        trace,
    }
}

fn answers(p: &Phase) -> Vec<Option<u64>> {
    p.calls.iter().flatten().map(|c| c.answer).collect()
}

fn min_calls(size: Size) -> usize {
    // Two streams of 50 put ten or more of the ≥100 calls beyond p90.
    match size {
        Size::Full => 50,
        Size::Tiny => 10,
    }
}

/// Digest of the inputs: tenant datasets as the server reports them and
/// the head of each request stream.
fn input_digest(seed: u64, serving: &Serving) -> u64 {
    let mut h = serving.digests.iter().fold(mix(seed, 3), |h, &d| mix(h, d));
    for c in 0..CLIENTS {
        for i in 0..64 {
            let (tenant, kind) = request(seed, c, i);
            let (tag, alpha) = match kind {
                RequestKind::Plan { alpha } => (0, alpha),
                RequestKind::Replan { alpha, .. } => (1, alpha),
            };
            h = mix(mix(h, (tenant as u64) << 1 | tag), alpha.to_bits());
        }
    }
    h
}

fn failed_outcome(e: String) -> Outcome {
    Outcome {
        attempted: 1,
        failed: 1,
        errors: vec![e],
        metrics: Vec::new(),
        input_digest: 0,
        deterministic: Vec::new(),
        trace: None,
    }
}

pub fn run(s: &Settings) -> Outcome {
    let min = min_calls(s.size);
    if s.traced {
        return run_traced(s, min);
    }
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut serving: Option<Serving> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = serving.take() {
            prev.server.shutdown();
        }
        let t0 = Instant::now();
        match setup(s, None) {
            Ok(ready) => serving = Some(ready),
            Err(e) => return failed_outcome(e),
        }
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let serving = serving.expect("SETUP_REPS >= 1");
    let deadline = Instant::now() + s.run_for;
    let p = phase(
        &serving,
        s.seed,
        false,
        Limit::Until(deadline, min),
        false,
        0,
    );
    let all: Vec<&Call> = p.calls.iter().flatten().collect();
    let latencies: Vec<f64> = all.iter().map(|c| c.latency_s).collect();
    let records: usize = all.iter().map(|c| c.records).sum();
    let failed = all.iter().filter(|c| c.answer.is_none()).count() as u64;
    let prefix_makespan: f64 = p
        .calls
        .iter()
        .flat_map(|calls| calls.iter().take(min))
        .map(|c| c.makespan_s)
        .sum();
    let outcome = Outcome {
        attempted: all.len() as u64,
        failed,
        errors: p.errors.clone(),
        metrics: EndToEnd {
            setup_s: median(&setup_times),
            records_per_s: records as f64 / p.wall_s,
            ops_per_s: all.len() as f64 / p.wall_s,
            latency_p50_ms: percentile(&latencies, 50.0) * 1e3,
            latency_p90_ms: percentile(&latencies, 90.0) * 1e3,
        }
        .metrics(),
        input_digest: input_digest(s.seed, &serving),
        deterministic: vec![("service.prefix_makespan_s", prefix_makespan)],
        trace: None,
    };
    serving.server.shutdown();
    outcome
}

/// The traced run: the stream at two clients with spans (A), the same
/// calls untraced (B, for the tracing overhead) and at one client (C,
/// for the scaling ratio), each on a freshly set-up server. All three
/// must give identical answers.
fn run_traced(s: &Settings, min: usize) -> Outcome {
    let tel = Telemetry::enabled();
    let mut errors = Vec::new();
    let a_serving = match setup(s, Some(tel.clone())) {
        Ok(ready) => ready,
        Err(e) => return failed_outcome(e),
    };
    let deadline = Instant::now() + s.run_for;
    let a = phase(
        &a_serving,
        s.seed,
        false,
        Limit::Until(deadline, min),
        true,
        0,
    );
    let stats = a_serving.service.cache().stats();
    let digest = input_digest(s.seed, &a_serving);
    let Serving {
        server,
        counts: warm_counts,
        digests: warm_digests,
        ..
    } = a_serving;
    server.shutdown();
    let n = [a.calls[0].len(), a.calls[1].len()];

    let mut layers = Layers {
        service_plan_call_ms: median(&a.trace.durations("service.plan")) * 1e3,
        service_replan_call_ms: median(&a.trace.durations("service.replan")) * 1e3,
        service_coalesced: counter_total(&tel, metrics::SERVICE_COALESCED_TOTAL),
        lp_solves: counter_total(&tel, metrics::LP_SOLVES_TOTAL),
        lp_pivots: counter_total(&tel, metrics::LP_PIVOTS_TOTAL),
        lp_warm_fallbacks: counter_total(&tel, metrics::LP_WARM_FALLBACKS_TOTAL),
        ..Layers::default()
    };
    let (hits, lookups, evictions) = cache_counts(&stats);
    layers.cache_hit_ratio = hits as f64 / lookups.max(1) as f64;
    layers.cache_evictions = evictions as f64;

    let a_answers = answers(&a);
    let mut attempted = a_answers.len() as u64;
    let mut failed = a_answers.iter().filter(|x| x.is_none()).count() as u64;
    let mut trace = a.trace;
    errors.extend(a.errors);
    for (label, one_client, trace_on) in [("untraced", false, false), ("one-client", true, true)] {
        let serving = match setup(s, trace_on.then(Telemetry::enabled)) {
            Ok(ready) => ready,
            Err(e) => return failed_outcome(e),
        };
        if serving.digests != warm_digests || serving.counts != warm_counts {
            errors.push(format!("{label} server warmed different tenant datasets"));
        }
        let p = phase(
            &serving,
            s.seed,
            one_client,
            Limit::Exactly(n),
            trace_on,
            CLIENTS,
        );
        serving.server.shutdown();
        let p_answers = answers(&p);
        attempted += p_answers.len() as u64;
        failed += p_answers.iter().filter(|x| x.is_none()).count() as u64;
        if p_answers != a_answers {
            errors.push(format!(
                "{label} run answered differently from the two-client run"
            ));
        }
        errors.extend(p.errors);
        if one_client {
            layers.service_scaling_2v1 = p.wall_s / a.wall_s;
            trace.absorb(p.trace);
        } else {
            layers.trace_overhead_frac = a.wall_s / p.wall_s - 1.0;
        }
    }
    layers.trace_reconcile_err = trace.reconcile_err();
    if layers.trace_reconcile_err > RECONCILE_TOL {
        errors.push(format!(
            "call spans leave {:.1}% of a client span unaccounted (tolerance {:.0}%)",
            layers.trace_reconcile_err * 100.0,
            RECONCILE_TOL * 100.0
        ));
    }
    Outcome {
        attempted,
        failed,
        errors,
        metrics: layers.metrics(),
        input_digest: digest,
        deterministic: Vec::new(),
        trace: Some(trace),
    }
}

//! Self-tests of the benchmark: a tiny-size smoke run of every workload,
//! traced and untraced. Run with `cargo test --release` from this package.
//!
//! Checks that the emitted metric names and units match `BENCHMARK.json`,
//! that a different seed changes the input digest but not the metric set,
//! and that a second run of one seed repeats the deterministic counts.

use std::collections::BTreeMap;
use std::process::Command;

use pareto_telemetry::json::{self, Value};

const WORKLOADS: [&str; 3] = ["batch_large", "batch_small", "serve_mixed"];

/// Per-layer counts of the batch workloads that must repeat exactly for one
/// seed. The serve counts depend on how many calls fit in the window.
const BATCH_DETERMINISTIC: [&str; 9] = [
    "execute.makespan_s",
    "execute.dirty_kj",
    "stratify.iterations",
    "profile.sampled_records",
    "profile.workload_ops",
    "lp.pivots",
    "execute.compute_ops",
    "recovery.replans",
    "cache.hit_ratio",
];

/// The `(name, unit)` pairs `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// One run's info line and result line.
struct Run {
    info: Value,
    result: Value,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "expected an info line and a result line:\n{stdout}"
    );
    let parse = |l: &str| json::parse(l).unwrap_or_else(|e| panic!("bad JSON {l:?}: {e}"));
    Run {
        info: parse(lines[lines.len() - 2]),
        result: parse(lines[lines.len() - 1]),
    }
}

fn metrics(r: &Run) -> BTreeMap<String, String> {
    match r.result.get("metrics") {
        Some(Value::Obj(m)) => m
            .iter()
            .map(|(name, v)| {
                let unit = v.get("unit").and_then(Value::as_str).expect("unit");
                assert!(
                    v.get("value").and_then(Value::as_f64).is_some(),
                    "{name} has no numeric value"
                );
                (name.clone(), unit.to_string())
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn value(r: &Run, name: &str) -> f64 {
    r.result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no value for {name}"))
}

fn digest(r: &Run) -> String {
    r.info
        .get("input_digest")
        .and_then(Value::as_str)
        .expect("input digest")
        .to_string()
}

#[test]
fn untraced_runs_emit_the_declared_end_to_end_metrics() {
    let want = declared("end_to_end");
    for w in WORKLOADS {
        let a = run(w, 1, false);
        let b = run(w, 2, false);
        assert_eq!(a.result.get("correct"), Some(&Value::Bool(true)), "{w}");
        assert_eq!(metrics(&a), want, "{w}: metric names and units");
        assert_eq!(metrics(&b), want, "{w}: metric set under another seed");
        assert_ne!(
            digest(&a),
            digest(&b),
            "{w}: the seed must change the inputs"
        );
        let again = run(w, 1, false);
        assert_eq!(digest(&again), digest(&a), "{w}: one seed, one input");
        assert_eq!(
            again.info.get("deterministic"),
            a.info.get("deterministic"),
            "{w}: deterministic counts must repeat exactly"
        );
    }
}

#[test]
fn traced_runs_emit_the_declared_per_layer_metrics() {
    let want = declared("per_layer");
    for w in WORKLOADS {
        let a = run(w, 1, true);
        let b = run(w, 2, true);
        assert_eq!(metrics(&a), want, "{w}: metric names and units");
        assert_eq!(metrics(&b), want, "{w}: metric set under another seed");
        assert_ne!(
            digest(&a),
            digest(&b),
            "{w}: the seed must change the inputs"
        );
        if w != "serve_mixed" {
            let again = run(w, 1, true);
            for name in BATCH_DETERMINISTIC {
                assert_eq!(value(&again, name), value(&a, name), "{w}: {name}");
            }
        }
    }
}

//! The benchmark's own tests: metric naming, agreement with
//! `BENCHMARK.json`, tiny-size smoke runs of every workload (untraced
//! and traced), and seed determinism of the inputs.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use anc_perfbench::layers::{city_positions, replay_phy, PhyPlan};
use anc_perfbench::metrics::{per_layer, END_TO_END};
use anc_perfbench::trace::Tracer;
use anc_perfbench::workload::Inputs;
use anc_perfbench::{e2e, traced, Args, Scale, Workload};
use serde::Value;
use std::collections::BTreeMap;

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn registry() -> Vec<(String, String)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .chain(per_layer().into_iter().map(|(n, u)| (n, u.to_string())))
        .collect()
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let all = registry();
    for (name, unit) in &all {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
    }
    let mut names: Vec<&String> = all.iter().map(|(n, _)| n).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), all.len(), "a metric name is used twice");
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(m) => m.get(key).unwrap_or_else(|| panic!("missing {key}")),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn text(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    }
}

fn listed(doc: &Value, section: &str) -> Vec<(String, String)> {
    match field(doc, section) {
        Value::Array(items) => items
            .iter()
            .map(|m| (text(field(m, "name")), text(field(m, "unit"))))
            .collect(),
        other => panic!("{section} is not a list: {other:?}"),
    }
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed(&doc, "end_to_end"), e2e);
    let layer: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed(&doc, "per_layer"), layer);
    let workloads: Vec<String> = match field(&doc, "workloads") {
        Value::Array(ws) => ws.iter().map(|w| text(field(w, "name"))).collect(),
        other => panic!("workloads is not a list: {other:?}"),
    };
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
    assert_eq!(workloads, ours);
}

fn tiny(workload: Workload) -> Args {
    Args {
        workload,
        seed: 11,
        seconds: 0.01,
        scale: Scale::Tiny,
        spans: None,
    }
}

/// Parses a result line into `name → unit` and checks its shape.
fn result_metrics(line: &str) -> BTreeMap<String, String> {
    let v: Value = serde_json::from_str(line).unwrap();
    assert_eq!(field(&v, "correct"), &Value::Bool(true), "{line}");
    assert_eq!(field(&v, "failed"), &Value::Number(0.0), "{line}");
    let Value::Number(attempted) = field(&v, "attempted") else {
        panic!("attempted is not a number")
    };
    assert!(*attempted >= 1.0);
    let Value::Object(m) = field(&v, "metrics") else {
        panic!("metrics is not an object")
    };
    m.iter()
        .map(|(k, v)| {
            let Value::Number(x) = field(v, "value") else {
                panic!("{k} has no numeric value")
            };
            assert!(x.is_finite(), "{k} = {x}");
            (k.clone(), text(field(v, "unit")))
        })
        .collect()
}

#[test]
fn every_workload_runs_untraced_at_tiny_size() {
    for w in Workload::ALL {
        let rep = e2e::run(&tiny(w));
        let got = result_metrics(&rep.result_line());
        let want: BTreeMap<String, String> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(got, want, "{}", w.name());
        for name in ["setup_s", "wall_s", "pkts_per_s", "peak_rss_mb"] {
            assert!(rep.value(name).unwrap() > 0.0, "{} {name}", w.name());
        }
    }
}

#[test]
fn every_workload_runs_traced_at_tiny_size() {
    for w in Workload::ALL {
        let rep = traced::run(&tiny(w));
        let got = result_metrics(&rep.result_line());
        let want: BTreeMap<String, String> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(got, want, "{}", w.name());
        assert!(rep.value("core.decode.calls").unwrap() > 0.0);
        assert!(rep.value("sim.run.busy_ns").unwrap() > 0.0);
        let city = rep.value("sim.city.advance_ops").unwrap();
        assert_eq!(city > 0.0, w == Workload::City100k, "{}", w.name());
    }
}

#[test]
fn the_same_seed_generates_identical_inputs() {
    for w in Workload::ALL {
        for scale in [Scale::Full, Scale::Tiny] {
            let a = format!("{:?}", Inputs::new(w, scale, 42));
            assert_eq!(a, format!("{:?}", Inputs::new(w, scale, 42)));
            assert_ne!(a, format!("{:?}", Inputs::new(w, scale, 43)));
        }
    }
    assert_eq!(city_positions(50, 9), city_positions(50, 9));
    assert_ne!(city_positions(50, 9), city_positions(50, 10));
    let plan = PhyPlan {
        exchanges: 2,
        clean_hops: 2,
        payload_bits: 128,
        noise_power: 1e-3,
        seed: 9,
    };
    let replay = || {
        let mut t = Tracer::new();
        let tot = replay_phy(&plan, &mut t);
        let shape: Vec<(&str, u64)> = t.spans().iter().map(|s| (s.name, s.samples)).collect();
        (tot.rx_ok, tot.decode_ok, tot.parse_failed, shape)
    };
    assert_eq!(replay(), replay());
}

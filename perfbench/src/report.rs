//! Result assembly and printing.
//!
//! A run prints two JSON lines on standard output: a `report` line
//! with the details behind the numbers (per-pass times, set-up
//! samples, inputs, problems found), then the result line the
//! benchmark contract defines, which is always last:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

use serde::Value;
use std::collections::BTreeMap;

/// Metrics, operation counts and details of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (set-up repetitions, passes, reference
    /// runs).
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, &'static str, f64)>,
    details: BTreeMap<String, Value>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Records one operation: counts it, and counts it failed (with
    /// the reason) when `result` is an error.
    pub fn op<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.problem(e);
                None
            }
        }
    }

    /// Notes a problem without counting an operation.
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        eprintln!("perfbench: {msg}");
        self.problems.push(msg);
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push((name.into(), unit, value));
    }

    /// Adds a detail to the `report` line.
    pub fn detail(&mut self, key: &str, value: Value) {
        self.details.insert(key.to_string(), value);
    }

    /// Whether every operation succeeded, no problem was noted and
    /// every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|(_, _, v)| v.is_finite())
    }

    /// The value of a recorded metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, _, v)| v)
    }

    /// The result line.
    pub fn result_line(&self) -> String {
        let mut metrics = BTreeMap::new();
        for (name, unit, value) in &self.metrics {
            let mut m = BTreeMap::new();
            // JSON has no NaN: a non-finite value is reported as 0 and
            // the run as incorrect (see `correct`).
            let v = if value.is_finite() { *value } else { 0.0 };
            m.insert("value".to_string(), Value::Number(v));
            m.insert("unit".to_string(), Value::String(unit.to_string()));
            metrics.insert(name.clone(), Value::Object(m));
        }
        let mut top = BTreeMap::new();
        top.insert("correct".to_string(), Value::Bool(self.correct()));
        top.insert(
            "attempted".to_string(),
            Value::Number(self.attempted.max(1) as f64),
        );
        top.insert("failed".to_string(), Value::Number(self.failed as f64));
        top.insert("metrics".to_string(), Value::Object(metrics));
        serde_json::to_string(&Value::Object(top)).expect("a value tree always prints")
    }

    /// The details line.
    pub fn report_line(&self) -> String {
        let mut details = self.details.clone();
        for (name, _, value) in &self.metrics {
            if !value.is_finite() {
                details.insert(
                    format!("non_finite.{name}"),
                    Value::String(value.to_string()),
                );
            }
        }
        details.insert(
            "problems".to_string(),
            Value::Array(self.problems.iter().cloned().map(Value::String).collect()),
        );
        details.insert("target_features".to_string(), target_features());
        let mut top = BTreeMap::new();
        top.insert("report".to_string(), Value::Object(details));
        serde_json::to_string(&Value::Object(top)).expect("a value tree always prints")
    }

    /// Prints the details line, then the result line.
    pub fn print(&self) {
        println!("{}", self.report_line());
        println!("{}", self.result_line());
    }
}

/// Target features this binary was compiled with: evidence of the
/// workspace's pinned `target-cpu=x86-64-v3` flag.
fn target_features() -> Value {
    let mut feats = Vec::new();
    if cfg!(target_feature = "avx2") {
        feats.push("avx2");
    }
    if cfg!(target_feature = "fma") {
        feats.push("fma");
    }
    if cfg!(target_feature = "bmi2") {
        feats.push("bmi2");
    }
    Value::String(feats.join(","))
}

/// A list of numbers as a JSON array.
pub fn numbers(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Number(x)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new();
        r.op::<()>(Ok(()));
        r.metric("wall_s", "s", 1.25);
        let v: Value = serde_json::from_str(&r.result_line()).unwrap();
        let Value::Object(m) = v else { panic!() };
        let keys: Vec<&str> = m.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(m["correct"], Value::Bool(true));
    }

    #[test]
    fn failures_and_non_finite_values_make_the_run_incorrect() {
        let mut r = Report::new();
        r.op::<()>(Err("boom".into()));
        assert!(!r.correct());
        let mut r = Report::new();
        r.op::<()>(Ok(()));
        r.metric("x", "s", f64::NAN);
        assert!(!r.correct());
        assert!(r.result_line().contains("\"value\":0"));
    }
}

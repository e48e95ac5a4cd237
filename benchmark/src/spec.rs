//! The benchmark contract, read from `BENCHMARK.json` at compile time.
//!
//! `BENCHMARK.json` is the single list of workloads, metric names, units,
//! directions and bounds. The harness compiles it in, so a metric it emits
//! under a name the file does not list (or a listed one it forgets) is
//! caught by [`Spec::check_names`] instead of drifting silently.

use serde::{DeError, Deserialize, Serialize, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One named workload and the reason it exists.
#[derive(Clone, Debug, Deserialize)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

/// An end-to-end metric: what a user of the system sees, with the share
/// of the parent's median by which it may worsen.
#[derive(Clone, Debug, Deserialize)]
pub struct EndToEndSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

/// A per-layer metric (traced run); no bound, and its direction is for the
/// reader of `BENCHMARK.json`, not for the harness.
#[derive(Clone, Debug, Deserialize)]
pub struct PerLayerSpec {
    pub name: String,
    pub unit: String,
}

/// The parts of `BENCHMARK.json` the harness uses (`command` and `paths`
/// are the driver's).
#[derive(Clone, Debug, Deserialize)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<EndToEndSpec>,
    pub per_layer: Vec<PerLayerSpec>,
}

impl Spec {
    /// Parses the compiled-in contract.
    pub fn load() -> Spec {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json matches the contract's shape")
    }

    /// `(name, unit)` of every metric the given run mode must report.
    pub fn expected(&self, traced: bool) -> Vec<(&str, &str)> {
        if traced {
            self.per_layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect()
        }
    }

    /// The names that are measured but not listed, and listed but not
    /// measured. Both empty means the run matches the contract.
    pub fn check_names(&self, traced: bool, measured: &[(String, f64)]) -> (Vec<String>, Vec<String>) {
        let expected = self.expected(traced);
        let extra = measured
            .iter()
            .filter(|(n, _)| !expected.iter().any(|(e, _)| e == n))
            .map(|(n, _)| n.clone())
            .collect();
        let missing = expected
            .iter()
            .filter(|(e, _)| !measured.iter().any(|(n, _)| n == e))
            .map(|(e, _)| e.to_string())
            .collect();
        (extra, missing)
    }
}

/// One reported value.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// The `metrics` object of a result line: name → value, in report order.
/// (The serde shim derives no map types, hence the two manual impls.)
#[derive(Clone, Debug, Default)]
pub struct MetricMap(pub Vec<(String, MetricValue)>);

impl Serialize for MetricMap {
    fn to_value(&self) -> Value {
        Value::Object(self.0.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

impl Deserialize for MetricMap {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), MetricValue::from_value(v)?)))
                .collect::<Result<Vec<_>, DeError>>()
                .map(MetricMap),
            other => Err(DeError::msg(format!("expected metrics object, got {other:?}"))),
        }
    }
}

/// The last line a single-workload run prints.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricMap,
}

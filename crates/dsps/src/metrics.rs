//! The five cost metrics of §IV-A (Definitions 1–5).

use serde::{Deserialize, Serialize};

/// Measured execution costs of one placed query.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostMetrics {
    /// Definition 1 — output tuples arriving at the sink per second.
    pub throughput: f64,
    /// Definition 2 — processing latency in milliseconds: ingestion of the
    /// oldest involved input tuple until the output tuple reaches the sink.
    pub processing_latency_ms: f64,
    /// Definition 3 — end-to-end latency in milliseconds: additionally
    /// includes waiting time in the upstream message broker.
    pub e2e_latency_ms: f64,
    /// Definition 4 — whether backpressure occurred (the broker queued
    /// tuples at a sustained positive rate R).
    pub backpressure: bool,
    /// The measured backpressure rate R in tuples/s (sum over streams).
    pub backpressure_rate: f64,
    /// Definition 5 — whether the query executed successfully (no crash
    /// and at least one tuple reached the sink).
    pub success: bool,
}

impl CostMetrics {
    /// A failed execution: the conventional label vector for crashes.
    pub fn failed() -> Self {
        CostMetrics {
            throughput: 0.0,
            processing_latency_ms: 0.0,
            e2e_latency_ms: 0.0,
            backpressure: true,
            backpressure_rate: 0.0,
            success: false,
        }
    }

    /// Value of one metric as an `f64` regression target.
    pub fn get(&self, metric: CostMetric) -> f64 {
        match metric {
            CostMetric::Throughput => self.throughput,
            CostMetric::ProcessingLatency => self.processing_latency_ms,
            CostMetric::E2eLatency => self.e2e_latency_ms,
            CostMetric::Backpressure => {
                if self.backpressure {
                    1.0
                } else {
                    0.0
                }
            }
            CostMetric::Success => {
                if self.success {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Identifies one of the five cost metrics `C = (T, Lp, Le, RO, S)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CostMetric {
    /// Throughput `T`.
    Throughput,
    /// Processing latency `Lp`.
    ProcessingLatency,
    /// End-to-end latency `Le`.
    E2eLatency,
    /// Backpressure occurrence `RO`.
    Backpressure,
    /// Query success `S`.
    Success,
}

impl CostMetric {
    /// All metrics in the paper's order.
    pub const ALL: [CostMetric; 5] = [
        CostMetric::Throughput,
        CostMetric::E2eLatency,
        CostMetric::ProcessingLatency,
        CostMetric::Backpressure,
        CostMetric::Success,
    ];

    /// The regression metrics (q-error evaluated).
    pub const REGRESSION: [CostMetric; 3] = [
        CostMetric::Throughput,
        CostMetric::E2eLatency,
        CostMetric::ProcessingLatency,
    ];

    /// True for T/Lp/Le.
    pub fn is_regression(self) -> bool {
        matches!(
            self,
            CostMetric::Throughput | CostMetric::ProcessingLatency | CostMetric::E2eLatency
        )
    }

    /// Name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            CostMetric::Throughput => "Throughput",
            CostMetric::ProcessingLatency => "Processing latency",
            CostMetric::E2eLatency => "E2E-latency",
            CostMetric::Backpressure => "Backpressure",
            CostMetric::Success => "Query success",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_metrics_are_unsuccessful() {
        let m = CostMetrics::failed();
        assert!(!m.success);
        assert_eq!(m.throughput, 0.0);
    }

    #[test]
    fn get_matches_fields() {
        let m = CostMetrics {
            throughput: 10.0,
            processing_latency_ms: 20.0,
            e2e_latency_ms: 30.0,
            backpressure: true,
            backpressure_rate: 5.0,
            success: true,
        };
        assert_eq!(m.get(CostMetric::Throughput), 10.0);
        assert_eq!(m.get(CostMetric::ProcessingLatency), 20.0);
        assert_eq!(m.get(CostMetric::E2eLatency), 30.0);
        assert_eq!(m.get(CostMetric::Backpressure), 1.0);
        assert_eq!(m.get(CostMetric::Success), 1.0);
    }

    #[test]
    fn metric_classes_partition_all() {
        for m in CostMetric::ALL {
            assert_eq!(m.is_regression(), CostMetric::REGRESSION.contains(&m));
            assert_eq!(
                !m.is_regression(),
                matches!(m, CostMetric::Backpressure | CostMetric::Success)
            );
        }
    }
}

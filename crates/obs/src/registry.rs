//! The metrics registry: one ordered builder for every exported series.
//!
//! `StatsSnapshot::metrics()`, the `QueryMetrics` wire response and the JSON
//! reports all serve the same list of `(name, value)` pairs; this builder is
//! the single place that list is assembled, so the naming conventions
//! (counts as exact floats, times in seconds, rates NaN-guarded to `0.0`)
//! cannot drift between exporters.

use crate::histogram::HistogramSnapshot;

/// An ordered list of named metrics under construction.
///
/// Values are `f64` because that is what JSON and the wire serve; counters
/// are exact up to 2^53, far beyond any run this workspace produces.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    entries: Vec<(String, f64)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// A monotonically increasing count.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.entries.push((name.into(), value as f64));
    }

    /// A point-in-time value. Non-finite inputs (a 0/0 rate, an overflowed
    /// ratio) are uniformly guarded to `0.0` — exporters never see NaN.
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push((name.into(), value));
    }

    /// A cumulative duration, converted to seconds.
    pub fn seconds(&mut self, name: impl Into<String>, nanos: u64) {
        self.entries.push((name.into(), nanos as f64 / 1e9));
    }

    /// The standard latency-distribution quadruple for `base`:
    /// `mean_<base>_seconds`, `p50_<base>_seconds`, `p95_<base>_seconds`,
    /// `p99_<base>_seconds`. All `0.0` for an empty histogram.
    pub fn latency(&mut self, base: &str, histogram: &HistogramSnapshot) {
        self.gauge(format!("mean_{base}_seconds"), histogram.mean_seconds());
        self.gauge(
            format!("p50_{base}_seconds"),
            histogram.quantile_seconds(0.50),
        );
        self.gauge(
            format!("p95_{base}_seconds"),
            histogram.quantile_seconds(0.95),
        );
        self.gauge(
            format!("p99_{base}_seconds"),
            histogram.quantile_seconds(0.99),
        );
    }

    /// The finished, ordered list.
    pub fn finish(self) -> Vec<(String, f64)> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_keep_insertion_order_and_guard_nan() {
        let mut registry = MetricsRegistry::new();
        registry.counter("requests", 41);
        registry.gauge("rate", f64::NAN);
        registry.gauge("ratio", f64::INFINITY);
        registry.seconds("busy_seconds", 1_500_000_000);
        let metrics = registry.finish();
        assert_eq!(
            metrics,
            vec![
                ("requests".to_string(), 41.0),
                ("rate".to_string(), 0.0),
                ("ratio".to_string(), 0.0),
                ("busy_seconds".to_string(), 1.5),
            ]
        );
    }

    #[test]
    fn latency_quadruple_is_zero_when_empty_and_ordered() {
        let mut registry = MetricsRegistry::new();
        registry.latency("lp", &HistogramSnapshot::default());
        let mut histogram = HistogramSnapshot::default();
        for i in 1..=100u64 {
            histogram.record_nanos(i * 1_000_000);
        }
        registry.latency("round", &histogram);
        let metrics = registry.finish();
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "mean_lp_seconds",
                "p50_lp_seconds",
                "p95_lp_seconds",
                "p99_lp_seconds",
                "mean_round_seconds",
                "p50_round_seconds",
                "p95_round_seconds",
                "p99_round_seconds",
            ]
        );
        for (name, value) in &metrics {
            assert!(value.is_finite(), "{name} must be finite");
            if name.ends_with("lp_seconds") {
                assert_eq!(*value, 0.0, "{name} of an empty histogram");
            } else {
                assert!(*value > 0.0, "{name} of a populated histogram");
            }
        }
        // p50 <= p95 <= p99 on the populated quadruple.
        let get = |needle: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == needle)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(get("p50_round_seconds") <= get("p95_round_seconds"));
        assert!(get("p95_round_seconds") <= get("p99_round_seconds"));
    }
}

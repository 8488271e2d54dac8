//! Machine-readable JSON load reports.
//!
//! [`LoadReport`] is what `loadgen` emits: scenario provenance, throughput,
//! per-class latency quantiles, served-configuration quality, the full
//! engine [`StatsSnapshot`](svgic_engine::StatsSnapshot) (via its
//! `metrics()` list — nothing is re-derived here), and the configuration
//! digest that ties the numbers to a replayable trace.
//!
//! The workspace has no serde (offline build), so the writer is a ~60-line
//! hand-rolled JSON emitter; output is deterministic modulo the wall-clock
//! fields.

use std::time::Duration;

use svgic_engine::TelemetrySample;

use crate::cluster_driver::ClusterLoadOutcome;
use crate::driver::{LoadOutcome, QualityUnderLoad};
use crate::trace::Trace;
use crate::LatencyHistogram;

/// Schema tag embedded in every single-engine report.
pub const REPORT_SCHEMA: &str = "svgic-loadgen-report/v1";

/// Schema tag embedded in every cluster report (`loadgen --nodes N`).
pub const CLUSTER_REPORT_SCHEMA: &str = "svgic-cluster-report/v1";

/// A complete load-test report, ready to serialize.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Scenario name (from the trace header).
    pub scenario: String,
    /// Scenario seed (from the trace header).
    pub seed: u64,
    /// Ticks the trace spans.
    pub ticks: usize,
    /// Path the trace was recorded to, when it was.
    pub trace_path: Option<String>,
    /// Sessions the trace opens.
    pub trace_sessions: usize,
    /// The measured outcome.
    pub outcome: LoadOutcome,
}

impl LoadReport {
    /// Assembles a report from a trace and its driver outcome (the worker
    /// count comes from the outcome — the engine resolved it).
    pub fn new(trace: &Trace, outcome: LoadOutcome) -> Self {
        LoadReport {
            scenario: trace.scenario.clone(),
            seed: trace.seed,
            ticks: trace.ticks,
            trace_path: None,
            trace_sessions: trace.session_count(),
            outcome,
        }
    }

    /// Serializes the report as a pretty-printed JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open();
        w.string("schema", REPORT_SCHEMA);
        w.string("scenario", &self.scenario);
        w.integer("seed", self.seed);
        w.integer("ticks", self.ticks as u64);
        w.string("mode", self.outcome.mode.label());
        w.integer("workers", self.outcome.workers as u64);
        match &self.trace_path {
            Some(path) => w.string("trace_path", path),
            None => w.raw("trace_path", "null"),
        }
        w.integer("trace_events", self.outcome.trace_events as u64);
        w.integer("sessions", self.outcome.sessions);
        w.integer("trace_sessions", self.trace_sessions as u64);
        w.integer("requests", self.outcome.requests);
        w.number("wall_seconds", self.outcome.wall_seconds);
        w.number("throughput_rps", self.outcome.throughput_rps());

        w.nested("latency_us", |w| {
            let classes: [(&str, &LatencyHistogram); 5] = [
                ("create", &self.outcome.latency.create),
                ("submit", &self.outcome.latency.submit),
                ("query", &self.outcome.latency.query),
                ("flush", &self.outcome.latency.flush),
                ("close", &self.outcome.latency.close),
            ];
            for (name, histogram) in classes {
                w.nested(name, |w| write_histogram(w, histogram));
            }
            let all = self.outcome.latency.all();
            w.nested("all", |w| write_histogram(w, &all));
        });

        w.nested("quality", |w| write_quality(w, &self.outcome.quality));

        w.nested("engine", |w| {
            for (name, value) in self.outcome.engine.metrics() {
                w.number(&name, value);
            }
        });

        write_time_series(&mut w, &self.outcome.telemetry);

        write_profile(
            &mut w,
            &self.outcome.engine.profile,
            self.outcome.engine.profile_dropped,
        );

        w.string(
            "config_digest",
            &format!("0x{:016x}", self.outcome.config_digest),
        );
        w.close();
        w.finish()
    }
}

/// A cluster run's complete report (`loadgen --nodes N`): fleet-wide
/// throughput (wall *and* the scale-out projection over the busiest node),
/// merged latency histograms, the fabric counters (migrations, warm capital,
/// recoveries, node churn), the merged engine metrics, and one nested object
/// per node — dead nodes included, with their last-observed counters.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Scenario name (from the trace header).
    pub scenario: String,
    /// Scenario seed (from the trace header).
    pub seed: u64,
    /// Ticks the trace spans.
    pub ticks: usize,
    /// Path the trace was recorded to, when it was.
    pub trace_path: Option<String>,
    /// The measured outcome.
    pub outcome: ClusterLoadOutcome,
}

impl ClusterReport {
    /// Assembles a report from a trace and its cluster-driver outcome.
    pub fn new(trace: &Trace, outcome: ClusterLoadOutcome) -> Self {
        ClusterReport {
            scenario: trace.scenario.clone(),
            seed: trace.seed,
            ticks: trace.ticks,
            trace_path: None,
            outcome,
        }
    }

    /// Serializes the report as a pretty-printed JSON object.
    pub fn to_json(&self) -> String {
        let o = &self.outcome;
        let mut w = JsonWriter::new();
        w.open();
        w.string("schema", CLUSTER_REPORT_SCHEMA);
        w.string("scenario", &self.scenario);
        w.integer("seed", self.seed);
        w.integer("ticks", self.ticks as u64);
        w.string("mode", o.mode.label());
        w.integer("nodes", o.nodes_initial as u64);
        match &self.trace_path {
            Some(path) => w.string("trace_path", path),
            None => w.raw("trace_path", "null"),
        }
        w.integer("trace_events", o.trace_events as u64);
        w.integer("sessions", o.sessions);
        w.integer("requests", o.requests);
        w.number("wall_seconds", o.wall_seconds);
        w.number("fabric_seconds", o.fabric_seconds);
        w.number("makespan_seconds", o.makespan_seconds());
        w.number("throughput_rps", o.throughput_rps());
        w.number("aggregate_throughput_rps", o.aggregate_throughput_rps());

        w.nested("latency_us", |w| {
            let classes: [(&str, &LatencyHistogram); 5] = [
                ("create", &o.latency.create),
                ("submit", &o.latency.submit),
                ("query", &o.latency.query),
                ("flush", &o.latency.flush),
                ("close", &o.latency.close),
            ];
            for (name, histogram) in classes {
                w.nested(name, |w| write_histogram(w, histogram));
            }
            let all = o.latency.all();
            w.nested("all", |w| write_histogram(w, &all));
        });

        w.nested("quality", |w| write_quality(w, &o.quality));

        w.nested("cluster", |w| {
            w.integer("nodes_added", o.cluster.nodes_added);
            w.integer("nodes_killed", o.cluster.nodes_killed);
            w.integer("migrations", o.cluster.migrations);
            w.integer("warm_capital_preserved", o.cluster.warm_capital_preserved);
            w.integer("warm_capital_lost", o.cluster.warm_capital_lost);
            w.integer("sessions_recovered", o.cluster.sessions_recovered);
            w.integer("rebalances", o.cluster.rebalances);
            w.integer("spill_placements", o.cluster.spill_placements);
            w.integer("replication_bytes", o.cluster.replication_bytes);
            w.integer("standby_promotions", o.cluster.standby_promotions);
            w.integer("failover_warm", o.cluster.failover_warm);
            w.integer("failover_cold", o.cluster.failover_cold);
            w.integer("chaos_injected_failures", o.chaos_injected_failures);
            w.integer("chaos_injected_delays", o.chaos_injected_delays);
        });

        w.nested("engine", |w| {
            for (name, value) in o.merged.metrics() {
                w.number(&name, value);
            }
        });

        w.nested("per_node", |w| {
            for node in &o.per_node {
                w.nested(&format!("node{}", node.node.0), |w| {
                    w.raw("alive", if node.alive { "true" } else { "false" });
                    w.integer("sessions", node.sessions);
                    w.number("busy_seconds", node.busy_seconds);
                    w.integer("solves", node.engine.solves());
                    w.number("warm_start_rate", node.engine.warm_start_rate());
                    w.integer("queue_depth", node.engine.total_queue_depth());
                    // Per-node phase breakdown, from the phase histograms
                    // that ride in each node's stats snapshot: where this
                    // node spent its solve time, and how evenly its shards
                    // shared the load.
                    w.number("mean_lp_seconds", node.engine.mean_lp_time().as_secs_f64());
                    w.number(
                        "p99_lp_seconds",
                        node.engine.lp_latency.quantile_seconds(0.99),
                    );
                    w.number(
                        "mean_warm_solve_seconds",
                        node.engine.mean_warm_solve_time().as_secs_f64(),
                    );
                    w.number(
                        "mean_cold_solve_seconds",
                        node.engine.mean_cold_solve_time().as_secs_f64(),
                    );
                    w.number("shard_imbalance", node.engine.shard_imbalance());
                    // Resource + SLO posture: the health label, the
                    // accounted bytes, and the node's own tick series.
                    w.string("health", node.health().name());
                    w.integer("mem_bytes", node.mem_bytes());
                    write_time_series(w, &node.telemetry);
                });
            }
        });

        write_profile(&mut w, &o.merged.profile, o.merged.profile_dropped);

        w.string("config_digest", &format!("0x{:016x}", o.config_digest));
        w.close();
        w.finish()
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn write_histogram(w: &mut JsonWriter, h: &LatencyHistogram) {
    w.integer("count", h.count());
    w.number("mean", micros(h.mean()));
    w.number("p50", micros(h.quantile(0.50)));
    w.number("p95", micros(h.quantile(0.95)));
    w.number("p99", micros(h.quantile(0.99)));
    w.number("max", micros(h.max()));
}

fn write_quality(w: &mut JsonWriter, q: &QualityUnderLoad) {
    w.integer("samples", q.samples);
    w.number("mean_utility", q.mean_utility());
    w.number("bound_ratio", q.bound_ratio());
}

/// Emits a telemetry ring as the `time_series` array: one all-integer object
/// per tick sample, oldest first, field-for-field the
/// [`TelemetrySample`] wire record (see `docs/FORMATS.md`).
fn write_time_series(w: &mut JsonWriter, samples: &[TelemetrySample]) {
    w.array("time_series", |w| {
        for s in samples {
            w.item(|w| {
                w.integer("tick", s.tick);
                w.integer("requests", s.requests);
                w.integer("solves", s.solves);
                w.integer("queue_depth", s.queue_depth);
                w.integer("warm_rate_ppm", s.warm_rate_ppm);
                w.integer("imbalance_ppm", s.imbalance_ppm);
                w.integer("mem_session_bytes", s.mem_session_bytes);
                w.integer("mem_pending_bytes", s.mem_pending_bytes);
                w.integer("mem_served_bytes", s.mem_served_bytes);
                w.integer("mem_cache_bytes", s.mem_cache_bytes);
                w.integer("mem_total_bytes", s.mem_total_bytes);
            });
        }
    });
}

/// Emits the per-template solve ledger as the `profile` section: one
/// all-integer object per template (ascending by fingerprint, exactly the
/// wire order), plus the count of solves the ledger could not attribute.
/// Counts are deterministic under a fixed seed; the `*_nanos` fields are
/// wall-clock (see `docs/FORMATS.md`).
fn write_profile(w: &mut JsonWriter, entries: &[svgic_engine::ProfileEntry], dropped: u64) {
    w.nested("profile", |w| {
        w.integer("dropped", dropped);
        w.array("templates", |w| {
            for e in entries {
                w.item(|w| {
                    w.string(
                        "template_fingerprint",
                        &format!("0x{:016x}", e.template_fingerprint),
                    );
                    w.integer("warm_solves", e.warm_solves);
                    w.integer("cold_solves", e.cold_solves);
                    w.integer("warm_nanos", e.warm_nanos);
                    w.integer("cold_nanos", e.cold_nanos);
                    w.integer("miss_new", e.miss_new);
                    w.integer("miss_evicted", e.miss_evicted);
                    w.integer("miss_component_changed", e.miss_component_changed);
                });
            }
        });
    });
}

/// Minimal pretty-printing JSON object writer (objects and scalar fields —
/// all the report needs).
struct JsonWriter {
    out: String,
    indent: usize,
    /// Whether the current object already has a field (comma management).
    has_field: Vec<bool>,
}

impl JsonWriter {
    fn new() -> Self {
        JsonWriter {
            out: String::new(),
            indent: 0,
            has_field: Vec::new(),
        }
    }

    fn open(&mut self) {
        self.out.push('{');
        self.indent += 1;
        self.has_field.push(false);
    }

    fn close(&mut self) {
        self.indent -= 1;
        self.has_field.pop();
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(self.indent));
        self.out.push('}');
    }

    fn key(&mut self, name: &str) {
        let first = !std::mem::replace(self.has_field.last_mut().expect("inside an object"), true);
        if !first {
            self.out.push(',');
        }
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(self.indent));
        self.out.push('"');
        self.out.push_str(&escape(name));
        self.out.push_str("\": ");
    }

    fn string(&mut self, name: &str, value: &str) {
        self.key(name);
        self.out.push('"');
        self.out.push_str(&escape(value));
        self.out.push('"');
    }

    fn raw(&mut self, name: &str, literal: &str) {
        self.key(name);
        self.out.push_str(literal);
    }

    fn number(&mut self, name: &str, value: f64) {
        self.key(name);
        if value.is_finite() {
            self.out.push_str(&format!("{value}"));
        } else {
            // JSON has no NaN/Inf.
            self.out.push_str("null");
        }
    }

    /// Integer fields (seeds, counts) are emitted as integer literals, not
    /// routed through `f64` — a `u64` seed above 2^53 must survive verbatim.
    fn integer(&mut self, name: &str, value: u64) {
        self.key(name);
        self.out.push_str(&value.to_string());
    }

    fn nested(&mut self, name: &str, body: impl FnOnce(&mut JsonWriter)) {
        self.key(name);
        self.open();
        body(self);
        self.close();
    }

    /// A named array field; `body` appends elements via [`JsonWriter::item`].
    fn array(&mut self, name: &str, body: impl FnOnce(&mut JsonWriter)) {
        self.key(name);
        self.out.push('[');
        self.indent += 1;
        self.has_field.push(false);
        body(self);
        self.indent -= 1;
        let had_items = self.has_field.pop().expect("inside an array");
        if had_items {
            self.out.push('\n');
            self.out.push_str(&"  ".repeat(self.indent));
        }
        self.out.push(']');
    }

    /// One object element of the enclosing [`JsonWriter::array`].
    fn item(&mut self, body: impl FnOnce(&mut JsonWriter)) {
        let first = !std::mem::replace(self.has_field.last_mut().expect("inside an array"), true);
        if !first {
            self.out.push(',');
        }
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(self.indent));
        self.open();
        body(self);
        self.close();
    }

    fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverConfig, LoadDriver};
    use crate::scenario::Scenario;
    use crate::synth::generate;

    fn sample_report() -> LoadReport {
        let mut scenario = Scenario::steady_mall().smoke();
        scenario.ticks = 2;
        let trace = generate(&scenario, 3);
        let outcome = LoadDriver::new(DriverConfig::default()).run(&trace);
        LoadReport::new(&trace, outcome)
    }

    #[test]
    fn u64_seed_survives_serialization_verbatim() {
        let mut report = sample_report();
        report.seed = (1u64 << 53) + 1; // not representable as f64
        let json = report.to_json();
        assert!(
            json.contains(&format!("\"seed\": {}", (1u64 << 53) + 1)),
            "seed must be emitted as an exact integer literal:\n{json}"
        );
    }

    #[test]
    fn report_contains_required_fields() {
        let report = sample_report();
        let json = report.to_json();
        for needle in [
            "\"schema\": \"svgic-loadgen-report/v1\"",
            "\"scenario\": \"steady-mall\"",
            "\"throughput_rps\":",
            "\"p50\":",
            "\"p95\":",
            "\"p99\":",
            "\"cache_hit_rate\":",
            "\"coalesce_rate\":",
            "\"mem_session_bytes\":",
            "\"mem_total_bytes\":",
            "\"slo_lp_burn\":",
            "\"health\":",
            "\"time_series\": [",
            "\"warm_rate_ppm\":",
            "\"profile\": {",
            "\"templates\": [",
            "\"template_fingerprint\": \"0x",
            "\"miss_new\":",
            "\"miss_evicted\":",
            "\"miss_component_changed\":",
            "\"dropped\": 0",
            "\"config_digest\": \"0x",
            "\"trace_path\": null",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // The driver flushes once per tick, so the series is populated.
        assert!(
            json.contains("\"tick\": 0"),
            "time_series must carry tick samples:\n{json}"
        );
    }

    #[test]
    fn report_json_is_structurally_balanced() {
        let json = sample_report().to_json();
        // No serde to parse with, so check structural invariants: balanced
        // braces/brackets, balanced quotes, no trailing commas.
        let braces: i64 = json
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0);
        let brackets: i64 = json
            .chars()
            .map(|c| match c {
                '[' => 1,
                ']' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(brackets, 0);
        assert_eq!(json.matches('"').count() % 2, 0);
        assert!(!json.contains(",\n}"));
        assert!(!json.contains(",}"));
        assert!(!json.contains(",\n]"));
        assert!(!json.contains(",]"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn empty_time_series_renders_as_an_empty_array() {
        let mut report = sample_report();
        report.outcome.telemetry.clear();
        let json = report.to_json();
        assert!(
            json.contains("\"time_series\": []"),
            "capacity-0 engines report an empty array, not a missing key:\n{json}"
        );
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn cluster_report_contains_fleet_fields_and_balances() {
        use crate::cluster_driver::{ClusterDriver, ClusterDriverConfig, NodePlan};
        let mut scenario = Scenario::steady_mall().smoke();
        scenario.ticks = 3;
        let trace = generate(&scenario, 5);
        let outcome = ClusterDriver::new(ClusterDriverConfig {
            nodes: 2,
            plan: NodePlan::mid_run_rebalance(3),
            ..ClusterDriverConfig::default()
        })
        .run(&trace);
        let json = ClusterReport::new(&trace, outcome).to_json();
        for needle in [
            "\"schema\": \"svgic-cluster-report/v1\"",
            "\"nodes\": 2",
            "\"aggregate_throughput_rps\":",
            "\"makespan_seconds\":",
            "\"migrations\":",
            "\"warm_capital_preserved\":",
            "\"node0\":",
            "\"node1\":",
            "\"busy_seconds\":",
            "\"mean_lp_seconds\":",
            "\"p99_lp_seconds\":",
            "\"shard_imbalance\":",
            "\"health\": \"ok\"",
            "\"mem_bytes\":",
            "\"time_series\": [",
            "\"mem_total_bytes\":",
            "\"profile\": {",
            "\"templates\": [",
            "\"config_digest\": \"0x",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Same structural invariants as the single-engine report.
        let braces: i64 = json
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        assert_eq!(braces, 0);
        assert!(!json.contains(",\n}"));
        assert!(json.ends_with("}\n"));
    }
}

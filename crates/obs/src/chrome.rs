//! Chrome trace-event JSON export.
//!
//! [`chrome_trace_json`] renders spans into the JSON object format consumed
//! by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one
//! complete (`"ph": "X"`) event per span, timestamps and durations in
//! microseconds, the node as the process id and the shard as the thread id —
//! so a churn run opens as a per-node, per-shard swimlane diagram with
//! request/session correlation in each event's `args`. The exact shape is
//! specified (and conformance-tested) in `docs/FORMATS.md`.

use crate::telemetry::TelemetrySample;
use crate::tracer::SpanRecord;

/// Renders spans (typically [`crate::Tracer::spans`], already start-sorted)
/// as a Chrome trace-event JSON object. The output is deterministic for a
/// given span list; timestamps are the spans' offsets from their tracer's
/// epoch, in microseconds with nanosecond precision kept as decimals.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    chrome_trace_json_with_counters(spans, &[], 0)
}

/// [`chrome_trace_json`] plus counter (`"ph": "C"`) events from a telemetry
/// ring: three stacked counter tracks per node — `mem_bytes`
/// (session/pending/served/cache), `load` (requests/solves/queue depth) and
/// `rates` (warm-start and shard-imbalance, parts per million) — appended
/// after the span events. Counter timestamps sit on the deterministic tick
/// axis (one tick renders as one millisecond), not the span clock, so the
/// export itself never reads wall time. Every counter value is reproducible
/// for a trace except `rates.imbalance_ppm`, which carries the ring's one
/// busy-time field ([`TelemetrySample::imbalance_ppm`]). With an empty
/// sample list the output is byte-identical to [`chrome_trace_json`].
pub fn chrome_trace_json_with_counters(
    spans: &[SpanRecord],
    samples: &[TelemetrySample],
    node: u64,
) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 128 + samples.len() * 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for span in spans {
        if !first {
            out.push(',');
        }
        first = false;
        // tid must be a plain integer lane; engine-level spans (NO_SHARD)
        // get their own lane above the real shards.
        let tid = if span.shard == SpanRecord::NO_SHARD {
            0
        } else {
            span.shard as u64 + 1
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"svgic\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"request_id\":{},\"session\":{}}}}}",
            span.phase.name(),
            micros(span.start_nanos),
            micros(span.duration_nanos),
            span.node,
            tid,
            span.request_id,
            span.session,
        ));
    }
    for sample in samples {
        // One tick = 1000 µs on the display axis: purely positional, the
        // ring records no timestamps at all.
        let ts = sample.tick * 1000;
        for (name, args) in [
            (
                "mem_bytes",
                format!(
                    "{{\"session\":{},\"pending\":{},\"served\":{},\"cache\":{}}}",
                    sample.mem_session_bytes,
                    sample.mem_pending_bytes,
                    sample.mem_served_bytes,
                    sample.mem_cache_bytes
                ),
            ),
            (
                "load",
                format!(
                    "{{\"requests\":{},\"solves\":{},\"queue_depth\":{}}}",
                    sample.requests, sample.solves, sample.queue_depth
                ),
            ),
            (
                "rates",
                format!(
                    "{{\"warm_ppm\":{},\"imbalance_ppm\":{}}}",
                    sample.warm_rate_ppm, sample.imbalance_ppm
                ),
            ),
        ] {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"cat\":\"svgic\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{node},\"args\":{args}}}"
            ));
        }
    }
    out.push_str("]}");
    out
}

/// Nanoseconds as a microsecond decimal with no trailing zeros (Perfetto
/// accepts fractional `ts`/`dur`; `1234` ns renders as `1.234`).
fn micros(nanos: u64) -> String {
    let whole = nanos / 1000;
    let frac = nanos % 1000;
    if frac == 0 {
        format!("{whole}")
    } else {
        format!("{whole}.{frac:03}")
            .trim_end_matches('0')
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;

    fn sample() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                request_id: 1,
                session: 7,
                phase: Phase::Serve,
                shard: SpanRecord::NO_SHARD,
                node: 0,
                start_nanos: 500,
                duration_nanos: 42_000,
            },
            SpanRecord {
                request_id: 0,
                session: 7,
                phase: Phase::LpCold,
                shard: 1,
                node: 0,
                start_nanos: 1_000,
                duration_nanos: 30_000,
            },
        ]
    }

    #[test]
    fn renders_complete_events_with_correlation_args() {
        let json = chrome_trace_json(&sample());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"Serve\""));
        assert!(json.contains("\"name\":\"LpCold\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":0.5"));
        assert!(json.contains("\"dur\":42"));
        assert!(json.contains("\"request_id\":1"));
        assert!(json.contains("\"session\":7"));
        // NO_SHARD lands in lane 0, shard 1 in lane 2.
        assert!(json.contains("\"tid\":0"));
        assert!(json.contains("\"tid\":2"));
    }

    #[test]
    fn empty_span_list_is_a_valid_trace() {
        assert_eq!(
            chrome_trace_json(&[]),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    #[test]
    fn counter_events_append_after_spans_on_the_tick_axis() {
        use crate::telemetry::TelemetrySample;
        let samples = [
            TelemetrySample {
                tick: 0,
                requests: 10,
                solves: 4,
                queue_depth: 2,
                warm_rate_ppm: 500_000,
                imbalance_ppm: 1_250_000,
                mem_session_bytes: 1000,
                mem_pending_bytes: 64,
                mem_served_bytes: 128,
                mem_cache_bytes: 2000,
                mem_total_bytes: 3192,
            },
            TelemetrySample {
                tick: 3,
                requests: 30,
                ..TelemetrySample::default()
            },
        ];
        let json = chrome_trace_json_with_counters(&sample(), &samples, 1);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // Span events first, then six counter events (3 tracks × 2 samples).
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 6);
        assert!(json.contains(
            "{\"name\":\"mem_bytes\",\"cat\":\"svgic\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\
             \"args\":{\"session\":1000,\"pending\":64,\"served\":128,\"cache\":2000}}"
        ));
        assert!(json.contains("\"ts\":3000"));
        assert!(json.contains("\"args\":{\"requests\":10,\"solves\":4,\"queue_depth\":2}"));
        assert!(json.contains("\"args\":{\"warm_ppm\":500000,\"imbalance_ppm\":1250000}"));
    }

    #[test]
    fn with_counters_and_no_samples_is_byte_identical_to_plain() {
        assert_eq!(
            chrome_trace_json_with_counters(&sample(), &[], 0),
            chrome_trace_json(&sample())
        );
        // Counters alone (no spans) are still a valid trace.
        let only_counters = chrome_trace_json_with_counters(
            &[],
            &[crate::telemetry::TelemetrySample::default()],
            0,
        );
        assert!(only_counters.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{"));
        assert!(!only_counters.contains("[,"));
    }

    #[test]
    fn micros_keeps_nanosecond_precision_without_trailing_zeros() {
        assert_eq!(micros(0), "0");
        assert_eq!(micros(1_234), "1.234");
        assert_eq!(micros(1_200), "1.2");
        assert_eq!(micros(42_000), "42");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(5), "0.005");
    }
}

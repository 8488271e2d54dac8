//! Self time per phase, from spans that carry no parent id.
//!
//! A span's parent is inferred by interval containment: span B is a child
//! of span A when B lies inside A and may run on A's lane. A's self time is
//! its duration minus the union of its children's intervals. Lanes keep
//! parallel work apart: an engine-lane span (no shard) may contain any span,
//! a shard span only spans of its own shard. The two wait phases,
//! `QueueWait` and `WireWait`, measure queueing rather than work: their self
//! time is their whole duration and they are nobody's child.

use std::time::Instant;

use svgic_engine::{Phase, SpanRecord, Tracer};

use crate::replay::CallSpan;

/// Tags the calibration span; no request or session carries this id.
const CALIBRATION_ID: u64 = u64::MAX;

/// Maps benchmark `Instant`s onto a tracer's nanosecond clock.
pub struct Clock {
    anchor: Instant,
    anchor_nanos: u64,
}

impl Clock {
    /// Records one calibration span on `tracer` at a known instant and
    /// reads back where the tracer placed it.
    pub fn calibrate(tracer: &Tracer) -> Option<Clock> {
        // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
        let anchor = Instant::now();
        tracer.finish(
            Some(anchor),
            Phase::Submit,
            CALIBRATION_ID,
            CALIBRATION_ID,
            SpanRecord::NO_SHARD,
        );
        let span = tracer
            .spans()
            .into_iter()
            .find(|s| s.request_id == CALIBRATION_ID && s.session == CALIBRATION_ID)?;
        tracer.clear();
        Some(Clock {
            anchor,
            anchor_nanos: span.start_nanos,
        })
    }

    fn nanos(&self, t: Instant) -> u64 {
        match t.checked_duration_since(self.anchor) {
            Some(after) => self.anchor_nanos + after.as_nanos() as u64,
            None => self
                .anchor_nanos
                .saturating_sub(self.anchor.duration_since(t).as_nanos() as u64),
        }
    }
}

/// Who recorded an interval.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Owner {
    Engine(Phase),
    Client,
}

struct Interval {
    start: u64,
    end: u64,
    owner: Owner,
    shard: u32,
}

fn is_wait(owner: Owner) -> bool {
    matches!(owner, Owner::Engine(Phase::QueueWait | Phase::WireWait))
}

/// Accumulated self time, in nanoseconds, per phase (in `Phase::ALL`
/// order) and for the benchmark's own calls.
#[derive(Default)]
pub struct SelfTimes {
    pub phase_nanos: [u64; Phase::ALL.len()],
    pub client_nanos: u64,
}

impl SelfTimes {
    /// Adds the self times of one batch of spans (the engine's spans for
    /// one trace, plus the benchmark's spans around its calls).
    pub fn add(&mut self, engine: &[SpanRecord], calls: &[CallSpan], clock: &Clock) {
        let mut intervals: Vec<Interval> = engine
            .iter()
            .filter(|s| s.request_id != CALIBRATION_ID)
            .map(|s| Interval {
                start: s.start_nanos,
                end: s.start_nanos + s.duration_nanos,
                owner: Owner::Engine(s.phase),
                shard: s.shard,
            })
            .collect();
        intervals.extend(calls.iter().map(|c| Interval {
            start: clock.nanos(c.start),
            end: clock.nanos(c.end),
            owner: Owner::Client,
            shard: SpanRecord::NO_SHARD,
        }));
        // Start ascending, end descending: a container precedes everything
        // it contains, so children are found by scanning forward.
        intervals.sort_by(|a, b| a.start.cmp(&b.start).then(b.end.cmp(&a.end)));

        for (i, span) in intervals.iter().enumerate() {
            let duration = span.end - span.start;
            let own = if is_wait(span.owner) {
                duration
            } else {
                duration - covered(span, &intervals[i + 1..])
            };
            match span.owner {
                Owner::Engine(phase) => {
                    let index = Phase::ALL
                        .iter()
                        .position(|&p| p == phase)
                        .expect("every phase is in Phase::ALL");
                    self.phase_nanos[index] += own;
                }
                Owner::Client => self.client_nanos += own,
            }
        }
    }
}

/// Length of the union of the children of `parent` among `after` (the
/// intervals sorted after it).
fn covered(parent: &Interval, after: &[Interval]) -> u64 {
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for child in after {
        if child.start > parent.end {
            break;
        }
        let on_lane = parent.shard == SpanRecord::NO_SHARD || parent.shard == child.shard;
        if child.end > parent.end || !on_lane || is_wait(child.owner) {
            continue;
        }
        run = match run {
            Some((s, e)) if child.start <= e => Some((s, e.max(child.end))),
            Some((s, e)) => {
                total += e - s;
                Some((child.start, child.end))
            }
            None => Some((child.start, child.end)),
        };
    }
    if let Some((s, e)) = run {
        total += e - s;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use svgic_engine::ObsConfig;

    fn span(phase: Phase, shard: u32, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            request_id: 1,
            session: 1,
            phase,
            shard,
            node: 0,
            start_nanos: start,
            duration_nanos: end - start,
        }
    }

    fn nanos_of(times: &SelfTimes, phase: Phase) -> u64 {
        times.phase_nanos[Phase::ALL.iter().position(|&p| p == phase).unwrap()]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_on_the_lane() {
        let no = SpanRecord::NO_SHARD;
        let engine = [
            span(Phase::Serve, no, 0, 100),
            span(Phase::ShardDispatch, 0, 10, 60),
            span(Phase::LpCold, 0, 20, 50),
            // Runs in parallel on shard 1: inside shard 0's dispatch in
            // time, but not its child.
            span(Phase::ShardDispatch, 1, 30, 55),
            span(Phase::QueueWait, 0, 5, 12),
        ];
        let tracer = Tracer::new(ObsConfig::enabled());
        let clock = Clock::calibrate(&tracer).expect("calibrates");
        let mut times = SelfTimes::default();
        times.add(&engine, &[], &clock);
        // Serve: 100 minus the union [10, 60] of its shard children.
        assert_eq!(nanos_of(&times, Phase::Serve), 50);
        // Shard 0 dispatch: 50 minus its own LP (30); shard 1 is ignored.
        assert_eq!(nanos_of(&times, Phase::ShardDispatch), 20 + 25);
        assert_eq!(nanos_of(&times, Phase::LpCold), 30);
        // Waits keep their whole duration and cover nothing.
        assert_eq!(nanos_of(&times, Phase::QueueWait), 7);
    }

    #[test]
    fn calls_land_on_the_tracer_clock() {
        let tracer = Tracer::new(ObsConfig::enabled());
        let clock = Clock::calibrate(&tracer).expect("calibrates");
        let start = Instant::now();
        let t = tracer.begin();
        tracer.finish(t, Phase::Round, 1, 1, 0);
        let end = Instant::now();
        let call = CallSpan { start, end };
        let mut times = SelfTimes::default();
        let engine = tracer.spans();
        times.add(&engine, &[call], &clock);
        let round = nanos_of(&times, Phase::Round);
        let total = end.duration_since(start).as_nanos() as u64;
        assert!(round > 0 && round <= total);
        // The call's self time is what the round did not cover.
        assert!(times.client_nanos + round <= total + 1);
    }
}

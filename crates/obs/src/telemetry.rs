//! Tick-driven time-series sampling.
//!
//! Point-in-time counters answer "where is the engine *now*"; capacity
//! planning needs "where has it been *all run*". [`TelemetryRing`] is a
//! fixed-capacity ring of [`TelemetrySample`]s — one compact, all-integer
//! row per driver tick (requests, solves, queue depth, warm rate, shard
//! imbalance, memory gauges) — pushed on the deterministic tick cadence the
//! load drivers already impose (one `Flush` per tick), never from a
//! wall-clock timer. The ring is strictly read-side: sampling on vs. off
//! yields byte-identical config digests, the same contract the tracer
//! keeps.
//!
//! Every field but one is reproducible for a trace: two runs of one trace
//! give the same counters and gauges at every tick. The exception is
//! [`TelemetrySample::imbalance_ppm`], derived from the shards' wall-clock
//! busy time; [`TelemetrySample::without_busy_time`] masks it for
//! comparisons.
//!
//! Rates ride as parts-per-million integers so a sample is `Eq`-comparable
//! and codecs stay fixed-width; [`TelemetrySample::warm_start_rate`] and
//! friends convert back to floats for reports.

/// Scale factor for the integer-encoded rate fields: parts per million.
pub const RATE_PPM: u64 = 1_000_000;

/// One row of the time series: the engine's cumulative counters and live
/// gauges as observed at the end of one driver tick.
///
/// All fields are integers (rates in parts per million) so samples are
/// `Eq`-comparable, hashable and trivially fixed-width on the wire. Every
/// field except [`imbalance_ppm`](Self::imbalance_ppm) is reproducible for
/// a trace; compare runs through [`without_busy_time`](Self::without_busy_time).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TelemetrySample {
    /// Tick index this sample was taken at (monotone within a ring).
    pub tick: u64,
    /// Cumulative requests handled.
    pub requests: u64,
    /// Cumulative LP solves.
    pub solves: u64,
    /// Live total queue depth across shards.
    pub queue_depth: u64,
    /// Warm-start rate in parts per million (`0..=RATE_PPM`).
    pub warm_rate_ppm: u64,
    /// Shard imbalance (max/mean busy-time ratio) in parts per million:
    /// `0` before any shard has run, else in `RATE_PPM..=shards × RATE_PPM`.
    /// The one field derived from wall-clock time, so it varies between
    /// runs of the same trace whenever there are two or more shards.
    pub imbalance_ppm: u64,
    /// Bytes held by session state (instances, index vectors, warm
    /// factors).
    pub mem_session_bytes: u64,
    /// Bytes held by pending (coalesced, un-flushed) event queues.
    pub mem_pending_bytes: u64,
    /// Bytes held by served solutions.
    pub mem_served_bytes: u64,
    /// Bytes held by per-shard factor and component caches.
    pub mem_cache_bytes: u64,
    /// Total accounted bytes (the sum of the other `mem_*` gauges).
    pub mem_total_bytes: u64,
}

impl TelemetrySample {
    /// Warm-start rate as a fraction in `[0, 1]`.
    pub fn warm_start_rate(&self) -> f64 {
        self.warm_rate_ppm as f64 / RATE_PPM as f64
    }

    /// Shard imbalance as a plain ratio (`1.0` = perfectly balanced).
    pub fn shard_imbalance(&self) -> f64 {
        self.imbalance_ppm as f64 / RATE_PPM as f64
    }

    /// This sample with [`imbalance_ppm`](Self::imbalance_ppm), the one
    /// field derived from wall-clock busy time, zeroed. Two runs of the same
    /// trace give equal masked samples, so determinism checks compare these
    /// with `==` and every other field stays under the equality.
    pub fn without_busy_time(self) -> Self {
        TelemetrySample {
            imbalance_ppm: 0,
            ..self
        }
    }
}

/// Encodes a fraction as parts per million, guarding non-finite and
/// negative inputs to `0` (the same NaN discipline as the metrics
/// registry).
pub fn rate_to_ppm(rate: f64) -> u64 {
    if rate.is_finite() && rate > 0.0 {
        (rate * RATE_PPM as f64).round() as u64
    } else {
        0
    }
}

/// A fixed-capacity ring of [`TelemetrySample`]s: pushing beyond capacity
/// evicts the oldest sample, so a long soak keeps the most recent window
/// at a bounded, predictable cost. Capacity 0 disables the ring entirely
/// (pushes are dropped) — that is the sampler's off switch.
#[derive(Clone, Debug, Default)]
pub struct TelemetryRing {
    samples: Vec<TelemetrySample>,
    capacity: usize,
    /// Index of the oldest sample once the ring has wrapped.
    start: usize,
}

impl TelemetryRing {
    /// A ring holding at most `capacity` samples.
    pub fn new(capacity: usize) -> Self {
        TelemetryRing {
            samples: Vec::with_capacity(capacity.min(1024)),
            capacity,
            start: 0,
        }
    }

    /// The configured capacity (0 = sampling disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether pushes are recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the ring holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Records one sample, evicting the oldest if the ring is full. A
    /// zero-capacity ring drops the sample.
    pub fn push(&mut self, sample: TelemetrySample) {
        if self.capacity == 0 {
            return;
        }
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
        } else {
            self.samples[self.start] = sample;
            self.start = (self.start + 1) % self.capacity;
        }
    }

    /// The held samples in recording (tick) order, oldest first.
    pub fn samples(&self) -> Vec<TelemetrySample> {
        let mut out = Vec::with_capacity(self.samples.len());
        out.extend_from_slice(&self.samples[self.start..]);
        out.extend_from_slice(&self.samples[..self.start]);
        out
    }

    /// Discards every held sample (the warmup boundary: `reset_stats`
    /// clears the ring so reports only carry the measured window).
    pub fn clear(&mut self) {
        self.samples.clear();
        self.start = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tick: u64) -> TelemetrySample {
        TelemetrySample {
            tick,
            requests: tick * 10,
            ..TelemetrySample::default()
        }
    }

    #[test]
    fn ring_keeps_most_recent_window_in_order() {
        let mut ring = TelemetryRing::new(3);
        assert!(ring.is_enabled());
        for tick in 0..7 {
            ring.push(sample(tick));
        }
        let ticks: Vec<u64> = ring.samples().iter().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![4, 5, 6]);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut ring = TelemetryRing::new(10);
        for tick in 0..4 {
            ring.push(sample(tick));
        }
        let ticks: Vec<u64> = ring.samples().iter().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_capacity_ring_is_the_off_switch() {
        let mut ring = TelemetryRing::new(0);
        assert!(!ring.is_enabled());
        ring.push(sample(1));
        assert!(ring.is_empty());
        assert_eq!(ring.samples(), Vec::new());
    }

    #[test]
    fn clear_resets_to_empty_and_recording_resumes() {
        let mut ring = TelemetryRing::new(2);
        ring.push(sample(0));
        ring.push(sample(1));
        ring.push(sample(2));
        ring.clear();
        assert!(ring.is_empty());
        ring.push(sample(9));
        let ticks: Vec<u64> = ring.samples().iter().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![9]);
    }

    #[test]
    fn rate_encoding_roundtrips_and_guards_nan() {
        assert_eq!(rate_to_ppm(0.5), 500_000);
        assert_eq!(rate_to_ppm(1.0), RATE_PPM);
        assert_eq!(rate_to_ppm(f64::NAN), 0);
        assert_eq!(rate_to_ppm(f64::INFINITY), 0);
        assert_eq!(rate_to_ppm(-0.25), 0);
        let s = TelemetrySample {
            warm_rate_ppm: rate_to_ppm(0.75),
            imbalance_ppm: rate_to_ppm(1.25),
            ..TelemetrySample::default()
        };
        assert!((s.warm_start_rate() - 0.75).abs() < 1e-9);
        assert!((s.shard_imbalance() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn without_busy_time_masks_only_the_imbalance() {
        let s = TelemetrySample {
            imbalance_ppm: 1_250_000,
            mem_total_bytes: 64,
            ..sample(3)
        };
        let other_run = TelemetrySample {
            imbalance_ppm: 1_900_000,
            ..s
        };
        assert_ne!(s, other_run);
        assert_eq!(s.without_busy_time(), other_run.without_busy_time());
        assert_eq!(s.without_busy_time().imbalance_ppm, 0);
        let grown = TelemetrySample {
            mem_total_bytes: 65,
            ..other_run
        };
        assert_ne!(s.without_busy_time(), grown.without_busy_time());
    }
}

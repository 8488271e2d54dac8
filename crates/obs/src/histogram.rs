//! Log-bucketed HDR-style latency histograms.
//!
//! Latencies span six orders of magnitude (a cached query is nanoseconds, a
//! full LP flush is milliseconds), so linear buckets are useless. These
//! histograms use the classic HDR layout: values below 16 ns get exact
//! buckets; above that, each power-of-two range is split into 16 linear
//! sub-buckets. Quantiles are reported at bucket midpoints, bounding the
//! (two-sided) relative error at half a sub-bucket ≈ 1/32 ≈ 3%, while
//! keeping the whole histogram a fixed 976-slot array that records in O(1)
//! and merges by element-wise addition.
//!
//! Two shapes share the bucket layout:
//!
//! * [`LatencyHistogram`] — a dense slot array that records [`Duration`]s;
//!   the load drivers' per-request-class histograms (this type lived in
//!   `svgic-workload` before the obs crate existed; it moved here so the
//!   engine can use the same buckets, and `svgic_workload` re-exports it
//!   unchanged).
//! * [`HistogramSnapshot`] — a compact, mergeable, `Eq`-comparable sparse
//!   copy (non-zero slots only). The engine records its per-phase
//!   latencies straight into one ([`HistogramSnapshot::record_nanos`]), and
//!   it rides inside `StatsSnapshot` and across the `svgic-net` wire.

use std::time::Duration;

const SUB_BUCKET_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS; // 16
const NUM_BUCKETS: usize = (64 - SUB_BUCKET_BITS as usize) * SUB_BUCKETS; // 960
/// Number of slots in the fixed bucket layout (exposed so decoders can
/// validate slot indices before building a snapshot).
pub const TOTAL_SLOTS: usize = SUB_BUCKETS + NUM_BUCKETS; // 976

/// A fixed-size log-bucketed histogram of durations (recorded in
/// nanoseconds).
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_nanos: u128,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn slot_of(nanos: u64) -> usize {
    if nanos < SUB_BUCKETS as u64 {
        return nanos as usize;
    }
    let exp = 63 - nanos.leading_zeros(); // >= SUB_BUCKET_BITS
    let sub = ((nanos >> (exp - SUB_BUCKET_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    (exp - SUB_BUCKET_BITS + 1) as usize * SUB_BUCKETS + sub
}

/// Lower bound of a slot's value range.
fn slot_lower_bound(slot: usize) -> u64 {
    if slot < SUB_BUCKETS {
        return slot as u64;
    }
    let exp = (slot / SUB_BUCKETS - 1) as u32 + SUB_BUCKET_BITS;
    let sub = (slot % SUB_BUCKETS) as u64;
    (1u64 << exp) | (sub << (exp - SUB_BUCKET_BITS))
}

/// Representative value of a slot: its midpoint. Using the lower bound would
/// bias every reported quantile low by up to a full sub-bucket (1/16
/// relative); the midpoint makes the error two-sided and halves it. Slots
/// below [`SUB_BUCKETS`] hold exactly one integer value and are exact.
fn slot_value(slot: usize) -> u64 {
    let lower = slot_lower_bound(slot);
    if slot < SUB_BUCKETS {
        return lower;
    }
    let exp = (slot / SUB_BUCKETS - 1) as u32 + SUB_BUCKET_BITS;
    let width = 1u64 << (exp - SUB_BUCKET_BITS);
    lower + width / 2
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; TOTAL_SLOTS],
            total: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, latency: Duration) {
        let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.counts[slot_of(nanos)] += 1;
        self.total += 1;
        self.sum_nanos += nanos as u128;
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact maximum recorded sample.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }

    /// Exact mean of recorded samples (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.total == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos((self.sum_nanos / self.total as u128) as u64)
        }
    }

    /// The quantile `q ∈ [0, 1]`, reported at the containing bucket's
    /// midpoint: the error is two-sided and at most half a sub-bucket
    /// (≈ 1/32 relative). The exact max is returned for the top quantile.
    ///
    /// An empty histogram has no quantiles; by contract this returns
    /// [`Duration::ZERO`] then (it is the documented "no data" value, tested
    /// alongside `mean`/`max`, not an incidental fall-through).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if rank >= self.total {
            return self.max();
        }
        let mut seen = 0u64;
        for (slot, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // Never report a bucket bound above the true max.
                return Duration::from_nanos(slot_value(slot).min(self.max_nanos));
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum_nanos += other.sum_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }
}

/// A compact histogram: only the non-zero slots, plus exact total, sum and
/// max. Cheap to clone, merge and compare ([`Eq`] holds because
/// everything is integer nanoseconds), and small on the wire — a histogram
/// with k busy buckets costs 12k + O(1) bytes instead of 7.8 KiB.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(slot, count)` pairs, strictly ascending by slot, counts non-zero.
    slots: Vec<(u32, u64)>,
    total: u64,
    sum_nanos: u64,
    max_nanos: u64,
}

impl HistogramSnapshot {
    /// Rebuilds a snapshot from its sparse parts (the wire decoder's
    /// entrance). Rejects out-of-range slots, zero counts, unordered or
    /// duplicate slots and totals that overflow — a hostile payload cannot
    /// construct an inconsistent histogram.
    pub fn from_pairs(
        slots: Vec<(u32, u64)>,
        sum_nanos: u64,
        max_nanos: u64,
    ) -> Result<HistogramSnapshot, &'static str> {
        let mut total: u64 = 0;
        let mut previous: Option<u32> = None;
        for &(slot, count) in &slots {
            if slot as usize >= TOTAL_SLOTS {
                return Err("histogram slot out of range");
            }
            if count == 0 {
                return Err("histogram slot with zero count");
            }
            if previous.is_some_and(|p| p >= slot) {
                return Err("histogram slots not strictly ascending");
            }
            previous = Some(slot);
            total = total
                .checked_add(count)
                .ok_or("histogram total overflows")?;
        }
        if total == 0 && (sum_nanos != 0 || max_nanos != 0) {
            return Err("empty histogram with non-zero sum or max");
        }
        Ok(HistogramSnapshot {
            slots,
            total,
            sum_nanos,
            max_nanos,
        })
    }

    /// Records one sample, in nanoseconds: a sorted insert into the sparse
    /// slots. The sum saturates at `u64::MAX` (~585 years of cumulative
    /// latency), so sum, max and slot counts do not depend on the order
    /// samples arrive in.
    pub fn record_nanos(&mut self, nanos: u64) {
        let slot = slot_of(nanos) as u32;
        match self.slots.binary_search_by_key(&slot, |&(s, _)| s) {
            Ok(index) => self.slots[index].1 += 1,
            Err(index) => self.slots.insert(index, (slot, 1)),
        }
        self.total += 1;
        self.sum_nanos = self.sum_nanos.saturating_add(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// The sparse `(slot, count)` pairs, ascending by slot.
    pub fn pairs(&self) -> &[(u32, u64)] {
        &self.slots
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Cumulative nanoseconds (saturating at `u64::MAX`).
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos
    }

    /// Exact maximum sample in nanoseconds.
    pub fn max_nanos(&self) -> u64 {
        self.max_nanos
    }

    /// Exact mean in seconds; `0.0` (never NaN) when empty.
    pub fn mean_seconds(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.total as f64 / 1e9
        }
    }

    /// The quantile in seconds, at bucket midpoints like
    /// [`LatencyHistogram::quantile`]; `0.0` when empty.
    pub fn quantile_seconds(&self, q: f64) -> f64 {
        self.quantile_nanos(q) as f64 / 1e9
    }

    /// The quantile in nanoseconds, at bucket midpoints; `0` when empty, the
    /// exact max at the top.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        if rank >= self.total {
            return self.max_nanos;
        }
        let mut seen = 0u64;
        for &(slot, count) in &self.slots {
            seen += count;
            if seen >= rank {
                return slot_value(slot as usize).min(self.max_nanos);
            }
        }
        self.max_nanos
    }

    /// Fraction of samples above `nanos`, at bucket resolution: a slot
    /// counts as "above" when its representative midpoint exceeds `nanos`,
    /// so the error is bounded like the quantiles' (half a sub-bucket).
    /// Exact at the edges: `0.0` when empty or when `nanos` is at or above
    /// the true max.
    pub fn fraction_above(&self, nanos: u64) -> f64 {
        if self.total == 0 || nanos >= self.max_nanos {
            return 0.0;
        }
        let above: u64 = self
            .slots
            .iter()
            .filter(|&&(slot, _)| slot_value(slot as usize) > nanos)
            .map(|&(_, count)| count)
            .sum();
        above as f64 / self.total as f64
    }

    /// Merges another snapshot into this one (slot-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: Vec<(u32, u64)> = Vec::with_capacity(self.slots.len() + other.slots.len());
        let (mut a, mut b) = (self.slots.iter().peekable(), other.slots.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(sa, ca)), Some(&&(sb, cb))) => {
                    if sa == sb {
                        merged.push((sa, ca + cb));
                        a.next();
                        b.next();
                    } else if sa < sb {
                        merged.push((sa, ca));
                        a.next();
                    } else {
                        merged.push((sb, cb));
                        b.next();
                    }
                }
                (Some(&&pair), None) => {
                    merged.push(pair);
                    a.next();
                }
                (None, Some(&&pair)) => {
                    merged.push(pair);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.slots = merged;
        self.total += other.total;
        self.sum_nanos = self.sum_nanos.saturating_add(other.sum_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_monotone_and_cover_u64() {
        let mut previous = 0usize;
        for exp in 0..64u32 {
            let v = 1u64 << exp;
            for probe in [v, v + (v >> 1)] {
                let slot = slot_of(probe);
                assert!(slot < TOTAL_SLOTS, "slot {slot} for {probe}");
                assert!(
                    slot >= previous,
                    "slots must be monotone in the sample: {slot} < {previous} at {probe}"
                );
                assert!(
                    slot_lower_bound(slot) <= probe,
                    "slot lower bound {} above sample {probe}",
                    slot_lower_bound(slot)
                );
                // The representative midpoint stays inside the bucket: at or
                // above the lower bound, and below the next slot's lower
                // bound (when one exists).
                assert!(slot_value(slot) >= slot_lower_bound(slot));
                if slot + 1 < TOTAL_SLOTS {
                    assert!(
                        slot_value(slot) < slot_lower_bound(slot + 1),
                        "midpoint of slot {slot} spills into the next bucket"
                    );
                }
                previous = slot;
            }
        }
        assert!(slot_of(u64::MAX) < TOTAL_SLOTS);
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let mut h = LatencyHistogram::new();
        for micros in 1..=1000u64 {
            h.record(Duration::from_micros(micros));
        }
        // Midpoint representatives bound the error two-sidedly at half a
        // sub-bucket (1/32 ≈ 3.1%) plus the discretisation of the uniform
        // grid itself; assert both directions at a 4% band.
        for (q, expected) in [(0.25, 250.0), (0.50, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let got = h.quantile(q).as_nanos() as f64 / 1000.0;
            let relative = (got - expected) / expected;
            assert!(
                relative.abs() < 0.04,
                "q{q}: got {got}µs, expected {expected}µs ({:+.2}% off)",
                100.0 * relative
            );
        }
        assert_eq!(h.quantile(1.0), Duration::from_micros(1000));
        assert_eq!(h.max(), Duration::from_micros(1000));
        assert_eq!(h.count(), 1000);
        let mean = h.mean().as_micros();
        assert!((499..=502).contains(&mean), "mean {mean}");
    }

    #[test]
    fn midpoint_representative_is_not_biased_low() {
        // Every sample sits at the same value: a full sub-bucket above its
        // bucket's lower bound would be a +6% error, the lower bound itself a
        // -6% error. The midpoint must land within half a sub-bucket.
        let mut h = LatencyHistogram::new();
        // Top of the first sub-bucket of the 2^19 octave: the lower bound is
        // 32767 ns (-5.9%) away — the old lower-bound representative fails
        // this band, the midpoint is -2.9% and passes.
        let value = (1u64 << 19) + (1u64 << 15) - 1;
        for _ in 0..100 {
            h.record(Duration::from_nanos(value));
        }
        for q in [0.1, 0.5, 0.9] {
            let got = h.quantile(q).as_nanos() as f64;
            let relative = (got - value as f64) / value as f64;
            assert!(
                relative.abs() <= 1.0 / 32.0 + 1e-9,
                "q{q}: {got} vs {value} ({:+.2}%)",
                100.0 * relative
            );
        }
        // The top quantile still reports the exact max, never a midpoint
        // above it.
        assert_eq!(h.quantile(1.0), Duration::from_nanos(value));
    }

    #[test]
    fn empty_histogram_quantile_is_the_documented_zero() {
        let h = LatencyHistogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Duration::ZERO);
        }
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..500u64 {
            let d = Duration::from_nanos(17 * i * i + 3);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            whole.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max(), whole.max());
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    /// A snapshot filled by `record_nanos` over `samples`.
    fn recorded(samples: impl IntoIterator<Item = u64>) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        for nanos in samples {
            h.record_nanos(nanos);
        }
        h
    }

    #[test]
    fn recorded_snapshot_matches_serial_recording() {
        let samples: Vec<u64> = (0..2000u64).map(|i| 13 * i * i + 7).collect();
        let snap = recorded(samples.iter().copied());
        let mut serial = LatencyHistogram::new();
        for &nanos in &samples {
            serial.record(Duration::from_nanos(nanos));
        }
        assert_eq!(snap.count(), serial.count());
        assert_eq!(snap.max_nanos(), serial.max().as_nanos() as u64);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(
                snap.quantile_nanos(q),
                serial.quantile(q).as_nanos() as u64,
                "q{q}"
            );
        }
        let mean_err = (snap.mean_seconds() * 1e9 - serial.mean().as_nanos() as f64).abs();
        assert!(mean_err < 1.0, "means differ by {mean_err} ns");
    }

    #[test]
    fn record_nanos_keeps_slots_strictly_ascending() {
        // Scrambled arrival order, repeats and far-apart octaves: the sparse
        // slots stay sorted and unique, the shape `from_pairs` demands.
        let samples: Vec<u64> = (0..500u64)
            .map(|i| (i * 7919 % 503) * 1_000 + (i % 3) * 40_000_000)
            .chain([0, u64::MAX, 15, 16])
            .collect();
        let snap = recorded(samples.iter().copied());
        assert!(snap.pairs().windows(2).all(|w| w[0].0 < w[1].0));
        assert!(snap.pairs().iter().all(|&(_, count)| count > 0));
        assert_eq!(snap.count(), samples.len() as u64);
        assert_eq!(snap.sum_nanos(), u64::MAX, "the sum saturates");
        let rebuilt = HistogramSnapshot::from_pairs(
            snap.pairs().to_vec(),
            snap.sum_nanos(),
            snap.max_nanos(),
        )
        .expect("recorded slots are a valid sparse histogram");
        assert_eq!(rebuilt, snap);
        // The order samples arrive in does not change the result.
        assert_eq!(recorded(samples.iter().rev().copied()), snap);
    }

    #[test]
    fn snapshot_merge_matches_joint_recording() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        let mut joint = HistogramSnapshot::default();
        for i in 0..1000u64 {
            let nanos = 31 * i + 5;
            if i % 3 == 0 {
                a.record_nanos(nanos);
            } else {
                b.record_nanos(nanos);
            }
            joint.record_nanos(nanos);
        }
        a.merge(&b);
        assert_eq!(a, joint);
    }

    #[test]
    fn fraction_above_matches_recorded_distribution() {
        let snap =
            recorded(std::iter::repeat_n(1_000, 900).chain(std::iter::repeat_n(10_000_000, 100)));
        let slow = snap.fraction_above(1_000_000);
        assert!((slow - 0.10).abs() < 1e-9, "slow fraction {slow}");
        // Threshold below everything: the whole mass is above.
        assert_eq!(snap.fraction_above(0), 1.0);
        // Threshold at/above the max is exactly zero.
        assert_eq!(snap.fraction_above(10_000_000), 0.0);
        assert_eq!(snap.fraction_above(u64::MAX), 0.0);
        // Empty histograms burn nothing.
        assert_eq!(HistogramSnapshot::default().fraction_above(0), 0.0);
    }

    #[test]
    fn hostile_pairs_are_rejected() {
        let ok = HistogramSnapshot::from_pairs(vec![(3, 2), (10, 1)], 100, 80).unwrap();
        assert_eq!(ok.count(), 3);
        assert!(HistogramSnapshot::from_pairs(vec![(TOTAL_SLOTS as u32, 1)], 1, 1).is_err());
        assert!(HistogramSnapshot::from_pairs(vec![(3, 0)], 0, 0).is_err());
        assert!(HistogramSnapshot::from_pairs(vec![(5, 1), (5, 2)], 3, 3).is_err());
        assert!(HistogramSnapshot::from_pairs(vec![(9, 1), (4, 2)], 3, 3).is_err());
        assert!(HistogramSnapshot::from_pairs(vec![(1, u64::MAX), (2, 1)], 0, 0).is_err());
        assert!(HistogramSnapshot::from_pairs(vec![], 7, 0).is_err());
    }

    #[test]
    fn snapshot_roundtrips_through_pairs() {
        let snap = recorded((0..100u64).map(|i| 1000 * i));
        let rebuilt = HistogramSnapshot::from_pairs(
            snap.pairs().to_vec(),
            snap.sum_nanos(),
            snap.max_nanos(),
        )
        .unwrap();
        assert_eq!(rebuilt, snap);
    }
}

//! The static phase vocabulary of a traced request.
//!
//! Every span names exactly one [`Phase`] — a fixed pipeline stage, not a
//! free-form string — so exporters can build per-phase breakdowns without
//! string interning and the wire/readers agree on the vocabulary forever
//! (append-only, like the formats).

/// One pipeline stage a span can cover.
///
/// The serving path of a request walks, in order: [`Phase::Serve`] wraps the
/// whole engine dispatch; [`Phase::Submit`] admits an event into a session's
/// pending queue; at flush time [`Phase::Coalesce`] folds the pending queues
/// and [`Phase::ShardDispatch`] covers one shard's whole pipeline job, inside
/// which each session re-solve spends time in [`Phase::LpWarm`] or
/// [`Phase::LpCold`] (factor computation with vs. without reused warm
/// components), [`Phase::Project`] (restricting the instance to the present
/// population and active catalogue) and [`Phase::Round`] (randomized
/// rounding). [`Phase::Migrate`] covers session export/import, and
/// [`Phase::WireEncode`] / [`Phase::WireDecode`] the codec work on either
/// side of a TCP frame.
///
/// Two wait-state phases decompose request lifetime into queueing vs.
/// service: [`Phase::QueueWait`] measures how long a shard's oldest pending
/// event sat enqueued before its shard pipeline job picked it up, and
/// [`Phase::WireWait`] measures the server-side gap between a frame being
/// decoded off the socket and its connection thread acquiring the engine
/// lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Event admission into a session's pending queue.
    Submit,
    /// Batch coalescing of pending events at flush time.
    Coalesce,
    /// One shard's whole pipeline job within a flush.
    ShardDispatch,
    /// LP factor computation that reused at least one warm component.
    LpWarm,
    /// LP factor computation with no warm components to reuse.
    LpCold,
    /// Restriction of the instance to the present population and catalogue.
    Project,
    /// Randomized rounding of LP factors into a served configuration.
    Round,
    /// The whole engine-side handling of one request.
    Serve,
    /// Session export or import (live migration).
    Migrate,
    /// Encoding a request/response payload for the wire.
    WireEncode,
    /// Decoding a request/response payload from the wire.
    WireDecode,
    /// Wait of a shard's oldest enqueued event between submit and its shard
    /// pipeline job starting (queueing, not service).
    QueueWait,
    /// Server-side wait between a frame being decoded and its connection
    /// thread acquiring the engine lock (queueing, not service).
    WireWait,
}

impl Phase {
    /// Every phase, in pipeline order (append-only — wire payloads encode a
    /// phase as its index in this array).
    pub const ALL: [Phase; 13] = [
        Phase::Submit,
        Phase::Coalesce,
        Phase::ShardDispatch,
        Phase::LpWarm,
        Phase::LpCold,
        Phase::Project,
        Phase::Round,
        Phase::Serve,
        Phase::Migrate,
        Phase::WireEncode,
        Phase::WireDecode,
        Phase::QueueWait,
        Phase::WireWait,
    ];

    /// The stable name used in trace exports and docs.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Submit => "Submit",
            Phase::Coalesce => "Coalesce",
            Phase::ShardDispatch => "ShardDispatch",
            Phase::LpWarm => "LpWarm",
            Phase::LpCold => "LpCold",
            Phase::Project => "Project",
            Phase::Round => "Round",
            Phase::Serve => "Serve",
            Phase::Migrate => "Migrate",
            Phase::WireEncode => "WireEncode",
            Phase::WireDecode => "WireDecode",
            Phase::QueueWait => "QueueWait",
            Phase::WireWait => "WireWait",
        }
    }

    /// The wire index of this phase: its position in [`Phase::ALL`].
    pub fn index(self) -> u8 {
        Phase::ALL
            .iter()
            .position(|&p| p == self)
            .expect("every phase is in ALL") as u8
    }

    /// The phase with wire index `index`, if in range.
    pub fn from_index(index: u8) -> Option<Phase> {
        Phase::ALL.get(index as usize).copied()
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_cover_all() {
        let names: std::collections::BTreeSet<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), Phase::ALL.len());
        for phase in Phase::ALL {
            assert_eq!(format!("{phase}"), phase.name());
        }
    }

    #[test]
    fn wire_indices_round_trip_and_stay_pinned() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index() as usize, i);
            assert_eq!(Phase::from_index(i as u8), Some(*phase));
        }
        assert_eq!(Phase::from_index(Phase::ALL.len() as u8), None);
        // Appended wait-state phases must never renumber the original eleven.
        assert_eq!(Phase::Submit.index(), 0);
        assert_eq!(Phase::WireDecode.index(), 10);
        assert_eq!(Phase::QueueWait.index(), 11);
        assert_eq!(Phase::WireWait.index(), 12);
    }
}

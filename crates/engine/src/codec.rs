//! Canonical byte codec for the engine's request/response surface.
//!
//! This is the payload format of the `svgic-net` wire protocol (the framing
//! — magic, version, request id, length prefix — lives in `svgic_net::frame`;
//! this module only encodes what goes *inside* a frame). It is hand-rolled
//! because the build environment is offline (no serde); the format is
//! specified field-by-field in `docs/FORMATS.md`.
//!
//! **Canonical** means: every value has exactly one encoding, so
//! `encode(decode(bytes)) == bytes` for any accepted input and
//! `decode(encode(value))` rebuilds an equivalent value. That property is
//! what lets the round-trip property tests compare raw bytes without
//! requiring `PartialEq` on instances, and what makes response digests
//! transport-independent.
//!
//! Layout conventions:
//!
//! * all integers are **little-endian** fixed width (`u8`/`u32`/`u64`);
//!   counts and indices travel as `u64`;
//! * floats travel as their IEEE-754 bit pattern in a `u64` — bit-exact
//!   round trips, no text formatting;
//! * sequences are a `u32` length followed by the elements;
//! * enums are a one-byte tag followed by the variant's fields;
//! * `Option<T>` is a one-byte presence flag (`0`/`1`) followed by `T` when
//!   present.
//!
//! Decoding is **total**: any byte string either decodes or returns a
//! [`CodecError`] — truncation, trailing bytes, unknown tags, dimension
//! mismatches and invalid instances are all errors, never panics, and a
//! failed decode mutates nothing. Length fields are validated against the
//! remaining payload before any allocation, so a corrupted length cannot
//! balloon memory.

use std::sync::Arc;
use std::time::Duration;

use svgic_algorithms::{LpBackend, UtilityFactors};
use svgic_core::{Configuration, SvgicInstance, SvgicInstanceBuilder};
use svgic_graph::SocialGraph;
use svgic_obs::{
    HistogramSnapshot, Phase, PhaseAggregate, RequestWaterfall, TelemetrySample, WaterfallSpan,
};

use crate::api::{
    ConfigurationView, CreateSession, EngineError, EngineInfo, EngineRequest, EngineResponse,
    SessionEvent, SessionId,
};
use crate::profile::{EngineProfile, ProfileEntry};
use crate::session::{Served, SessionExport};
use crate::stats::{ShardSnapshot, StatsSnapshot};

/// Why a byte string failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the value was complete.
    Truncated,
    /// The payload continued after the value was complete (`n` extra bytes).
    Trailing(usize),
    /// An enum tag byte had no matching variant.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The bytes decoded structurally but described an invalid value
    /// (dimension mismatch, duplicate graph edge, invalid instance, …).
    Invalid(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            CodecError::Invalid(msg) => write!(f, "invalid payload: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn invalid<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError::Invalid(msg.into()))
}

// ---------------------------------------------------------------- primitives

/// Append-only byte sink for the encoders.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn len(&mut self, n: usize) {
        debug_assert!(n <= u32::MAX as usize, "sequence too long for the wire");
        self.u32(n as u32);
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn indices(&mut self, list: &[usize]) {
        self.len(list.len());
        for &v in list {
            self.usize(v);
        }
    }

    fn floats(&mut self, list: &[f64]) {
        self.len(list.len());
        for &v in list {
            self.f64(v);
        }
    }
}

/// Bounds-checked cursor for the decoders.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid(format!("index {v} overflows usize")))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a sequence length and validates it against the bytes actually
    /// left (`min_width` bytes per element), so corrupted lengths fail as
    /// [`CodecError::Truncated`] instead of attempting a huge allocation.
    fn len(&mut self, min_width: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_width) > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, CodecError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::Invalid("non-UTF-8 string".into()))
    }

    fn indices(&mut self) -> Result<Vec<usize>, CodecError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    fn floats(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.remaining() > 0 {
            return Err(CodecError::Trailing(self.remaining()));
        }
        Ok(())
    }
}

// ------------------------------------------------------------- domain values

fn write_instance(w: &mut Writer, instance: &SvgicInstance) {
    let n = instance.num_users();
    let m = instance.num_items();
    let graph = instance.graph();
    w.usize(n);
    w.len(graph.num_edges());
    for &(u, v) in graph.edges() {
        w.usize(u);
        w.usize(v);
    }
    w.usize(m);
    w.usize(instance.num_slots());
    w.f64(instance.lambda());
    w.len(n * m);
    for u in 0..n {
        for &p in instance.preference_row(u) {
            w.f64(p);
        }
    }
    w.len(graph.num_edges() * m);
    for e in 0..graph.num_edges() {
        for c in 0..m {
            w.f64(instance.social_by_edge(e, c));
        }
    }
    match instance.item_labels() {
        None => w.u8(0),
        Some(labels) => {
            w.u8(1);
            w.len(labels.len());
            for label in labels {
                w.str(label);
            }
        }
    }
}

fn read_instance(r: &mut Reader) -> Result<SvgicInstance, CodecError> {
    let n = r.usize()?;
    // A valid instance still has to carry an `n × m ≥ n`-entry preference
    // matrix (8 bytes each), so `n` can never exceed the remaining payload
    // / 8 — checked *before* the graph's adjacency vectors are allocated,
    // so a corrupted population count cannot balloon memory.
    if n.saturating_mul(8) > r.remaining() {
        return Err(CodecError::Truncated);
    }
    let edge_count = r.len(16)?;
    let mut graph = SocialGraph::new(n);
    for _ in 0..edge_count {
        let (u, v) = (r.usize()?, r.usize()?);
        if u >= n || v >= n {
            return invalid(format!("edge ({u}, {v}) outside population 0..{n}"));
        }
        if graph.add_edge(u, v).is_none() {
            return invalid(format!("duplicate or self-loop edge ({u}, {v})"));
        }
    }
    let m = r.usize()?;
    let k = r.usize()?;
    let lambda = r.f64()?;
    let pref_len = r.len(8)?;
    if pref_len != n.saturating_mul(m) {
        return invalid(format!(
            "preference matrix {pref_len} entries, want {n}×{m}"
        ));
    }
    let pref: Vec<f64> = (0..pref_len).map(|_| r.f64()).collect::<Result<_, _>>()?;
    let tau_len = r.len(8)?;
    if tau_len != edge_count.saturating_mul(m) {
        return invalid(format!(
            "social matrix {tau_len} entries, want {edge_count}×{m}"
        ));
    }
    let tau: Vec<f64> = (0..tau_len).map(|_| r.f64()).collect::<Result<_, _>>()?;
    let labels = match r.u8()? {
        0 => None,
        1 => {
            let count = r.len(4)?;
            Some((0..count).map(|_| r.str()).collect::<Result<Vec<_>, _>>()?)
        }
        tag => {
            return Err(CodecError::BadTag {
                what: "labels",
                tag,
            })
        }
    };
    let edges: Vec<(usize, usize)> = graph.edges().to_vec();
    let mut builder = SvgicInstanceBuilder::new(graph, m, k, lambda)
        .with_preference_matrix(pref)
        .map_err(|e| CodecError::Invalid(e.to_string()))?;
    for (e, &(u, v)) in edges.iter().enumerate() {
        for c in 0..m {
            builder.set_social(u, v, c, tau[e * m + c]);
        }
    }
    if let Some(labels) = labels {
        builder = builder.with_item_labels(labels);
    }
    builder
        .build()
        .map_err(|e| CodecError::Invalid(e.to_string()))
}

fn write_configuration(w: &mut Writer, configuration: &Configuration) {
    let n = configuration.num_users();
    let k = configuration.num_slots();
    w.usize(n);
    w.usize(k);
    for u in 0..n {
        for &c in configuration.items_of(u) {
            w.usize(c);
        }
    }
}

fn read_configuration(r: &mut Reader) -> Result<Configuration, CodecError> {
    let n = r.usize()?;
    let k = r.usize()?;
    let cells = n.saturating_mul(k);
    if cells.saturating_mul(8) > r.remaining() {
        return Err(CodecError::Truncated);
    }
    let assign: Vec<usize> = (0..cells).map(|_| r.usize()).collect::<Result<_, _>>()?;
    Ok(Configuration::from_flat(n, k, assign))
}

fn write_view(w: &mut Writer, view: &ConfigurationView) {
    w.u64(view.session.0);
    w.indices(&view.present);
    w.indices(&view.catalog);
    write_configuration(w, &view.configuration);
    w.f64(view.utility);
    w.f64(view.lp_bound);
    w.usize(view.staleness);
    w.u64(view.generation);
}

fn read_view(r: &mut Reader) -> Result<ConfigurationView, CodecError> {
    Ok(ConfigurationView {
        session: SessionId(r.u64()?),
        present: r.indices()?,
        catalog: r.indices()?,
        configuration: read_configuration(r)?,
        utility: r.f64()?,
        lp_bound: r.f64()?,
        staleness: r.usize()?,
        generation: r.u64()?,
    })
}

fn write_event(w: &mut Writer, event: &SessionEvent) {
    use svgic_core::extensions::DynamicEvent;
    match event {
        SessionEvent::Membership(DynamicEvent::Join(user)) => {
            w.u8(1);
            w.usize(*user);
        }
        SessionEvent::Membership(DynamicEvent::Leave(user)) => {
            w.u8(2);
            w.usize(*user);
        }
        SessionEvent::SetCatalog(items) => {
            w.u8(3);
            w.indices(items);
        }
        SessionEvent::RetuneLambda(lambda) => {
            w.u8(4);
            w.f64(*lambda);
        }
    }
}

fn read_event(r: &mut Reader) -> Result<SessionEvent, CodecError> {
    use svgic_core::extensions::DynamicEvent;
    match r.u8()? {
        1 => Ok(SessionEvent::Membership(DynamicEvent::Join(r.usize()?))),
        2 => Ok(SessionEvent::Membership(DynamicEvent::Leave(r.usize()?))),
        3 => Ok(SessionEvent::SetCatalog(r.indices()?)),
        4 => Ok(SessionEvent::RetuneLambda(r.f64()?)),
        tag => Err(CodecError::BadTag {
            what: "session event",
            tag,
        }),
    }
}

fn backend_tag(backend: LpBackend) -> u8 {
    match backend {
        LpBackend::ExactSimplex => 1,
        LpBackend::Structured => 2,
        LpBackend::FullLpSvgic => 3,
        LpBackend::Auto => 4,
    }
}

fn backend_from_tag(tag: u8) -> Result<LpBackend, CodecError> {
    match tag {
        1 => Ok(LpBackend::ExactSimplex),
        2 => Ok(LpBackend::Structured),
        3 => Ok(LpBackend::FullLpSvgic),
        4 => Ok(LpBackend::Auto),
        tag => Err(CodecError::BadTag {
            what: "LP backend",
            tag,
        }),
    }
}

fn write_factors(w: &mut Writer, factors: &UtilityFactors) {
    w.usize(factors.num_users());
    w.usize(factors.num_items());
    w.usize(factors.num_slots());
    w.floats(factors.aggregate_matrix());
    w.f64(factors.scaled_objective);
    w.u8(backend_tag(factors.backend));
}

fn read_factors(r: &mut Reader) -> Result<UtilityFactors, CodecError> {
    let n = r.usize()?;
    let m = r.usize()?;
    let k = r.usize()?;
    let aggregate = r.floats()?;
    let scaled_objective = r.f64()?;
    let backend = backend_from_tag(r.u8()?)?;
    UtilityFactors::from_parts(n, m, k, aggregate, scaled_objective, backend)
        .ok_or_else(|| CodecError::Invalid(format!("factor matrix is not {n}×{m} and finite")))
}

fn write_served(w: &mut Writer, served: &Served) {
    write_configuration(w, &served.configuration);
    w.indices(&served.present);
    w.indices(&served.catalog);
    w.f64(served.utility);
    w.f64(served.lp_bound);
    w.u8(served.tight as u8);
}

fn read_served(r: &mut Reader) -> Result<Served, CodecError> {
    Ok(Served {
        configuration: read_configuration(r)?,
        present: r.indices()?,
        catalog: r.indices()?,
        utility: r.f64()?,
        lp_bound: r.f64()?,
        tight: read_bool(r)?,
    })
}

fn read_bool(r: &mut Reader) -> Result<bool, CodecError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(CodecError::BadTag { what: "bool", tag }),
    }
}

fn write_option<T>(w: &mut Writer, value: Option<&T>, body: impl FnOnce(&mut Writer, &T)) {
    match value {
        None => w.u8(0),
        Some(value) => {
            w.u8(1);
            body(w, value);
        }
    }
}

fn read_option<T>(
    r: &mut Reader,
    body: impl FnOnce(&mut Reader) -> Result<T, CodecError>,
) -> Result<Option<T>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(body(r)?)),
        tag => Err(CodecError::BadTag {
            what: "option",
            tag,
        }),
    }
}

fn write_export(w: &mut Writer, export: &SessionExport) {
    write_instance(w, &export.full);
    w.indices(&export.catalog);
    w.f64(export.lambda);
    w.indices(&export.present);
    w.len(export.pending.len());
    for event in &export.pending {
        write_event(w, event);
    }
    write_option(w, export.served.as_ref(), write_served);
    w.u64(export.seed);
    w.u64(export.generation);
    w.usize(export.events_since_full);
    w.u64(export.lifetime_events);
    write_option(w, export.last_factors.as_deref(), write_factors);
    write_option(w, export.last_factor_fingerprint.as_ref(), |w, &fp| {
        w.u64(fp)
    });
}

fn read_export(r: &mut Reader) -> Result<SessionExport, CodecError> {
    let full = Arc::new(read_instance(r)?);
    let catalog = r.indices()?;
    let lambda = r.f64()?;
    let present = r.indices()?;
    let pending_count = r.len(1)?;
    let pending = (0..pending_count)
        .map(|_| read_event(r))
        .collect::<Result<Vec<_>, _>>()?;
    let export = SessionExport {
        full,
        catalog,
        lambda,
        present,
        pending,
        served: read_option(r, read_served)?,
        seed: r.u64()?,
        generation: r.u64()?,
        events_since_full: r.usize()?,
        lifetime_events: r.u64()?,
        last_factors: read_option(r, read_factors)?.map(Arc::new),
        last_factor_fingerprint: read_option(r, |r| r.u64())?,
    };
    validate_export(&export)?;
    Ok(export)
}

/// Requires `list` to be a strictly increasing sequence of indices below
/// `bound` (the sorted/deduped invariant every export field carries).
fn require_sorted_indices(list: &[usize], bound: usize, what: &str) -> Result<(), CodecError> {
    for (position, &index) in list.iter().enumerate() {
        if index >= bound {
            return invalid(format!("{what} index {index} out of range 0..{bound}"));
        }
        if position > 0 && list[position - 1] >= index {
            return invalid(format!("{what} indices not strictly increasing"));
        }
    }
    Ok(())
}

/// Semantic validation of a decoded export. `read_instance` already proved
/// the *instance* valid; this closes the session-level fields, which
/// `Engine::import_session` (unlike `submit_event`) trusts verbatim — an
/// engine-produced export satisfies all of this by construction, so on the
/// wire anything that fails here is corruption or a hostile peer, and must
/// be rejected before it can panic the serving thread or corrupt a session.
fn validate_export(export: &SessionExport) -> Result<(), CodecError> {
    let n = export.full.num_users();
    let m = export.full.num_items();
    let k = export.full.num_slots();
    if !export.lambda.is_finite() || !(0.0..=1.0).contains(&export.lambda) {
        return invalid(format!("export lambda {} outside [0, 1]", export.lambda));
    }
    require_sorted_indices(&export.catalog, m, "export catalog")?;
    if export.catalog.len() < k {
        return invalid(format!(
            "export catalog has {} items, fewer than k = {k}",
            export.catalog.len()
        ));
    }
    require_sorted_indices(&export.present, n, "export present")?;
    for event in &export.pending {
        use svgic_core::extensions::DynamicEvent;
        match event {
            SessionEvent::Membership(DynamicEvent::Join(user))
            | SessionEvent::Membership(DynamicEvent::Leave(user)) => {
                if *user >= n {
                    return invalid(format!("pending event user {user} outside 0..{n}"));
                }
            }
            SessionEvent::SetCatalog(items) => {
                // The engine stores these sorted + deduped (`validate_event`
                // normalizes at submit), so an export carries them that way.
                require_sorted_indices(items, m, "pending SetCatalog")?;
                if items.len() < k {
                    return invalid("pending SetCatalog cannot fill k slots");
                }
            }
            SessionEvent::RetuneLambda(value) => {
                if !value.is_finite() || !(0.0..=1.0).contains(value) {
                    return invalid(format!("pending lambda {value} outside [0, 1]"));
                }
            }
        }
    }
    if let Some(served) = &export.served {
        require_sorted_indices(&served.present, n, "served present")?;
        require_sorted_indices(&served.catalog, m, "served catalog")?;
        let configuration = &served.configuration;
        if configuration.num_users() != served.present.len() {
            return invalid("served configuration covers a different population");
        }
        for user in 0..configuration.num_users() {
            if configuration
                .items_of(user)
                .iter()
                .any(|&item| item >= served.catalog.len())
            {
                return invalid("served configuration references items outside its catalogue");
            }
        }
        if !served.utility.is_finite() || !served.lp_bound.is_finite() {
            return invalid("served utility/bound not finite");
        }
    }
    if let Some(factors) = &export.last_factors {
        // Factors span the active catalogue, over the full population (the
        // base instance, see `SessionState`) or, after a full LP, over the
        // shoppers present at that solve: the present ones, or any part of
        // the population once everyone has left. The engine reuses factors
        // only when their shape fits the solve.
        let rows = factors.num_users();
        let rows_fit =
            rows == n || rows == export.present.len() || (export.present.is_empty() && rows < n);
        if !rows_fit || factors.num_items() != export.catalog.len() {
            return invalid(format!(
                "warm factors are {rows}×{}, base instance is {n}×{} with {} present",
                factors.num_items(),
                export.catalog.len(),
                export.present.len()
            ));
        }
    }
    Ok(())
}

fn write_duration(w: &mut Writer, d: Duration) {
    w.u64(d.as_nanos().min(u64::MAX as u128) as u64);
}

fn read_duration(r: &mut Reader) -> Result<Duration, CodecError> {
    Ok(Duration::from_nanos(r.u64()?))
}

/// A sparse [`HistogramSnapshot`]: pair count, `(u32 slot, u64 count)`
/// pairs, then the exact sum and max in nanoseconds. The total is recomputed
/// on decode (it is derived state, so it cannot travel inconsistently).
fn write_histogram(w: &mut Writer, h: &HistogramSnapshot) {
    w.len(h.pairs().len());
    for &(slot, count) in h.pairs() {
        w.u32(slot);
        w.u64(count);
    }
    w.u64(h.sum_nanos());
    w.u64(h.max_nanos());
}

fn read_histogram(r: &mut Reader) -> Result<HistogramSnapshot, CodecError> {
    let n = r.len(12)?;
    let pairs = (0..n)
        .map(|_| Ok((r.u32()?, r.u64()?)))
        .collect::<Result<Vec<_>, CodecError>>()?;
    let sum_nanos = r.u64()?;
    let max_nanos = r.u64()?;
    HistogramSnapshot::from_pairs(pairs, sum_nanos, max_nanos)
        .map_err(|msg| CodecError::Invalid(msg.into()))
}

fn write_stats(w: &mut Writer, s: &StatsSnapshot) {
    w.u64(s.requests);
    w.u64(s.sessions_created);
    w.u64(s.sessions_closed);
    w.u64(s.sessions_exported);
    w.u64(s.sessions_imported);
    w.len(s.shards.len());
    for shard in &s.shards {
        w.u64(shard.jobs);
        w.u64(shard.solves);
        write_duration(w, shard.busy_time);
        w.u64(shard.queue_depth);
        w.u64(shard.cache_entries);
        w.u64(shard.cache_bytes);
    }
    w.u64(s.events_submitted);
    w.u64(s.events_coalesced);
    w.u64(s.batches);
    w.u64(s.solves_incremental);
    w.u64(s.solves_full);
    w.u64(s.cache_hits);
    w.u64(s.cache_misses);
    w.u64(s.batch_shared);
    w.u64(s.session_reuse);
    w.u64(s.solves_warm);
    w.u64(s.solves_cold);
    w.u64(s.warm_components_reused);
    w.u64(s.warm_components_solved);
    write_duration(w, s.lp_time);
    write_duration(w, s.warm_solve_time);
    write_duration(w, s.cold_solve_time);
    write_duration(w, s.round_time);
    write_duration(w, s.max_solve_time);
    w.u64(s.gap_micros);
    w.u64(s.gap_samples);
    write_histogram(w, &s.lp_latency);
    write_histogram(w, &s.warm_solve_latency);
    write_histogram(w, &s.cold_solve_latency);
    write_histogram(w, &s.round_latency);
    write_histogram(w, &s.queue_wait_latency);
    w.u64(s.mem_session_bytes);
    w.u64(s.mem_pending_bytes);
    w.u64(s.mem_served_bytes);
    w.len(s.profile.len());
    for entry in &s.profile {
        write_profile_entry(w, entry);
    }
    w.u64(s.profile_dropped);
}

fn read_stats(r: &mut Reader) -> Result<StatsSnapshot, CodecError> {
    let requests = r.u64()?;
    let sessions_created = r.u64()?;
    let sessions_closed = r.u64()?;
    let sessions_exported = r.u64()?;
    let sessions_imported = r.u64()?;
    let shard_count = r.len(48)?;
    let shards = (0..shard_count)
        .map(|_| {
            Ok(ShardSnapshot {
                jobs: r.u64()?,
                solves: r.u64()?,
                busy_time: read_duration(r)?,
                queue_depth: r.u64()?,
                cache_entries: r.u64()?,
                cache_bytes: r.u64()?,
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    Ok(StatsSnapshot {
        requests,
        sessions_created,
        sessions_closed,
        sessions_exported,
        sessions_imported,
        shards,
        events_submitted: r.u64()?,
        events_coalesced: r.u64()?,
        batches: r.u64()?,
        solves_incremental: r.u64()?,
        solves_full: r.u64()?,
        cache_hits: r.u64()?,
        cache_misses: r.u64()?,
        batch_shared: r.u64()?,
        session_reuse: r.u64()?,
        solves_warm: r.u64()?,
        solves_cold: r.u64()?,
        warm_components_reused: r.u64()?,
        warm_components_solved: r.u64()?,
        lp_time: read_duration(r)?,
        warm_solve_time: read_duration(r)?,
        cold_solve_time: read_duration(r)?,
        round_time: read_duration(r)?,
        max_solve_time: read_duration(r)?,
        gap_micros: r.u64()?,
        gap_samples: r.u64()?,
        lp_latency: read_histogram(r)?,
        warm_solve_latency: read_histogram(r)?,
        cold_solve_latency: read_histogram(r)?,
        round_latency: read_histogram(r)?,
        queue_wait_latency: read_histogram(r)?,
        mem_session_bytes: r.u64()?,
        mem_pending_bytes: r.u64()?,
        mem_served_bytes: r.u64()?,
        profile: {
            let n = r.len(64)?;
            (0..n)
                .map(|_| read_profile_entry(r))
                .collect::<Result<Vec<_>, CodecError>>()?
        },
        profile_dropped: r.u64()?,
    })
}

/// One fixed-width (64-byte) ledger entry: eight `u64` fields in declaration
/// order.
fn write_profile_entry(w: &mut Writer, e: &ProfileEntry) {
    w.u64(e.template_fingerprint);
    w.u64(e.warm_solves);
    w.u64(e.cold_solves);
    w.u64(e.warm_nanos);
    w.u64(e.cold_nanos);
    w.u64(e.miss_new);
    w.u64(e.miss_evicted);
    w.u64(e.miss_component_changed);
}

fn read_profile_entry(r: &mut Reader) -> Result<ProfileEntry, CodecError> {
    Ok(ProfileEntry {
        template_fingerprint: r.u64()?,
        warm_solves: r.u64()?,
        cold_solves: r.u64()?,
        warm_nanos: r.u64()?,
        cold_nanos: r.u64()?,
        miss_new: r.u64()?,
        miss_evicted: r.u64()?,
        miss_component_changed: r.u64()?,
    })
}

/// Phases travel as their index in [`Phase::ALL`] (an append-only contract —
/// see `svgic_obs::phase`); decode rejects out-of-range indices.
fn write_phase(w: &mut Writer, phase: Phase) {
    w.u8(phase.index());
}

fn read_phase(r: &mut Reader) -> Result<Phase, CodecError> {
    let index = r.u8()?;
    Phase::from_index(index).ok_or(CodecError::BadTag {
        what: "phase",
        tag: index,
    })
}

fn write_profile(w: &mut Writer, p: &EngineProfile) {
    w.len(p.entries.len());
    for entry in &p.entries {
        write_profile_entry(w, entry);
    }
    w.u64(p.dropped);
    w.len(p.phases.len());
    for agg in &p.phases {
        write_phase(w, agg.phase);
        w.u64(agg.count);
        w.u64(agg.total_nanos);
        w.u64(agg.max_nanos);
    }
    w.len(p.waterfalls.len());
    for wf in &p.waterfalls {
        w.u64(wf.request_id);
        w.u64(wf.total_nanos);
        w.len(wf.spans.len());
        for span in &wf.spans {
            write_phase(w, span.phase);
            w.u64(span.start_nanos);
            w.u64(span.duration_nanos);
            w.u32(span.shard);
        }
    }
    w.str(&p.collapsed);
}

fn read_profile(r: &mut Reader) -> Result<EngineProfile, CodecError> {
    let entry_count = r.len(64)?;
    let entries = (0..entry_count)
        .map(|_| read_profile_entry(r))
        .collect::<Result<Vec<_>, CodecError>>()?;
    let dropped = r.u64()?;
    let phase_count = r.len(25)?;
    let phases = (0..phase_count)
        .map(|_| {
            Ok(PhaseAggregate {
                phase: read_phase(r)?,
                count: r.u64()?,
                total_nanos: r.u64()?,
                max_nanos: r.u64()?,
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    let waterfall_count = r.len(20)?;
    let waterfalls = (0..waterfall_count)
        .map(|_| {
            let request_id = r.u64()?;
            let total_nanos = r.u64()?;
            let span_count = r.len(21)?;
            let spans = (0..span_count)
                .map(|_| {
                    Ok(WaterfallSpan {
                        phase: read_phase(r)?,
                        start_nanos: r.u64()?,
                        duration_nanos: r.u64()?,
                        shard: r.u32()?,
                    })
                })
                .collect::<Result<Vec<_>, CodecError>>()?;
            Ok(RequestWaterfall {
                request_id,
                total_nanos,
                spans,
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    Ok(EngineProfile {
        entries,
        dropped,
        phases,
        waterfalls,
        collapsed: r.str()?,
    })
}

/// One fixed-width (88-byte) telemetry sample: eleven `u64` fields in
/// declaration order, rates already integer-encoded as parts per million.
fn write_sample(w: &mut Writer, s: &TelemetrySample) {
    w.u64(s.tick);
    w.u64(s.requests);
    w.u64(s.solves);
    w.u64(s.queue_depth);
    w.u64(s.warm_rate_ppm);
    w.u64(s.imbalance_ppm);
    w.u64(s.mem_session_bytes);
    w.u64(s.mem_pending_bytes);
    w.u64(s.mem_served_bytes);
    w.u64(s.mem_cache_bytes);
    w.u64(s.mem_total_bytes);
}

fn read_sample(r: &mut Reader) -> Result<TelemetrySample, CodecError> {
    Ok(TelemetrySample {
        tick: r.u64()?,
        requests: r.u64()?,
        solves: r.u64()?,
        queue_depth: r.u64()?,
        warm_rate_ppm: r.u64()?,
        imbalance_ppm: r.u64()?,
        mem_session_bytes: r.u64()?,
        mem_pending_bytes: r.u64()?,
        mem_served_bytes: r.u64()?,
        mem_cache_bytes: r.u64()?,
        mem_total_bytes: r.u64()?,
    })
}

fn write_info(w: &mut Writer, info: &EngineInfo) {
    w.usize(info.workers);
    w.usize(info.shards);
    w.usize(info.sessions);
    w.usize(info.pending_events);
}

fn read_info(r: &mut Reader) -> Result<EngineInfo, CodecError> {
    Ok(EngineInfo {
        workers: r.usize()?,
        shards: r.usize()?,
        sessions: r.usize()?,
        pending_events: r.usize()?,
    })
}

fn write_error(w: &mut Writer, error: &EngineError) {
    match error {
        EngineError::UnknownSession(id) => {
            w.u8(1);
            w.u64(id.0);
        }
        EngineError::InvalidEvent(msg) => {
            w.u8(2);
            w.str(msg);
        }
        EngineError::InvalidSession(msg) => {
            w.u8(3);
            w.str(msg);
        }
        EngineError::Transport(msg) => {
            w.u8(4);
            w.str(msg);
        }
    }
}

fn read_error(r: &mut Reader) -> Result<EngineError, CodecError> {
    match r.u8()? {
        1 => Ok(EngineError::UnknownSession(SessionId(r.u64()?))),
        2 => Ok(EngineError::InvalidEvent(r.str()?)),
        3 => Ok(EngineError::InvalidSession(r.str()?)),
        4 => Ok(EngineError::Transport(r.str()?)),
        tag => Err(CodecError::BadTag {
            what: "engine error",
            tag,
        }),
    }
}

// ------------------------------------------------------------ request codec

/// Encodes a request into its canonical byte form.
pub fn encode_request(request: &EngineRequest) -> Vec<u8> {
    let mut w = Writer::new();
    match request {
        EngineRequest::CreateSession(spec) => {
            w.u8(1);
            write_instance(&mut w, &spec.instance);
            w.indices(&spec.initial_present);
            w.u64(spec.seed);
        }
        EngineRequest::SubmitEvent(session, event) => {
            w.u8(2);
            w.u64(session.0);
            write_event(&mut w, event);
        }
        EngineRequest::QueryConfiguration(session) => {
            w.u8(3);
            w.u64(session.0);
        }
        EngineRequest::ForceResolve(session) => {
            w.u8(4);
            w.u64(session.0);
        }
        EngineRequest::CloseSession(session) => {
            w.u8(5);
            w.u64(session.0);
        }
        EngineRequest::Flush => w.u8(6),
        EngineRequest::QueryStats => w.u8(7),
        EngineRequest::ResetStats => w.u8(8),
        EngineRequest::ExportSession(session) => {
            w.u8(9);
            w.u64(session.0);
        }
        EngineRequest::ImportSession(export) => {
            w.u8(10);
            write_export(&mut w, export);
        }
        EngineRequest::Describe => w.u8(11),
        EngineRequest::QueryMetrics => w.u8(12),
        EngineRequest::QueryTelemetry => w.u8(13),
        EngineRequest::QueryProfile => w.u8(14),
        EngineRequest::SnapshotSession(session) => {
            w.u8(15);
            w.u64(session.0);
        }
        EngineRequest::PutStandby(key, export) => {
            w.u8(16);
            w.u64(*key);
            write_export(&mut w, export);
        }
        EngineRequest::TakeStandby(key) => {
            w.u8(17);
            w.u64(*key);
        }
        EngineRequest::Crash => w.u8(18),
    }
    w.buf
}

/// The canonical wire size of a session export in bytes — what the cluster's
/// `replication_bytes` counter accounts per standby shipment, identical
/// in-process and over TCP because it is the export's actual payload length.
pub fn session_export_bytes(export: &SessionExport) -> u64 {
    let mut w = Writer::new();
    write_export(&mut w, export);
    w.buf.len() as u64
}

/// Decodes a request from its canonical byte form, rejecting truncated or
/// trailing bytes.
pub fn decode_request(bytes: &[u8]) -> Result<EngineRequest, CodecError> {
    let mut r = Reader::new(bytes);
    let request = match r.u8()? {
        1 => EngineRequest::CreateSession(Box::new(CreateSession {
            instance: read_instance(&mut r)?,
            initial_present: r.indices()?,
            seed: r.u64()?,
        })),
        2 => EngineRequest::SubmitEvent(SessionId(r.u64()?), read_event(&mut r)?),
        3 => EngineRequest::QueryConfiguration(SessionId(r.u64()?)),
        4 => EngineRequest::ForceResolve(SessionId(r.u64()?)),
        5 => EngineRequest::CloseSession(SessionId(r.u64()?)),
        6 => EngineRequest::Flush,
        7 => EngineRequest::QueryStats,
        8 => EngineRequest::ResetStats,
        9 => EngineRequest::ExportSession(SessionId(r.u64()?)),
        10 => EngineRequest::ImportSession(Box::new(read_export(&mut r)?)),
        11 => EngineRequest::Describe,
        12 => EngineRequest::QueryMetrics,
        13 => EngineRequest::QueryTelemetry,
        14 => EngineRequest::QueryProfile,
        15 => EngineRequest::SnapshotSession(SessionId(r.u64()?)),
        16 => {
            let key = r.u64()?;
            EngineRequest::PutStandby(key, Box::new(read_export(&mut r)?))
        }
        17 => EngineRequest::TakeStandby(r.u64()?),
        18 => EngineRequest::Crash,
        tag => {
            return Err(CodecError::BadTag {
                what: "request",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(request)
}

// ----------------------------------------------------------- response codec

/// Encodes a response (or the engine's rejection) into its canonical byte
/// form — the payload of a `svgic-net` response frame.
pub fn encode_response(response: &Result<EngineResponse, EngineError>) -> Vec<u8> {
    let mut w = Writer::new();
    match response {
        Err(error) => {
            w.u8(0);
            write_error(&mut w, error);
        }
        Ok(EngineResponse::SessionCreated(view)) => {
            w.u8(1);
            write_view(&mut w, view);
        }
        Ok(EngineResponse::EventAccepted { session, pending }) => {
            w.u8(2);
            w.u64(session.0);
            w.usize(*pending);
        }
        Ok(EngineResponse::Configuration(view)) => {
            w.u8(3);
            write_view(&mut w, view);
        }
        Ok(EngineResponse::Resolved(view)) => {
            w.u8(4);
            write_view(&mut w, view);
        }
        Ok(EngineResponse::SessionClosed {
            session,
            lifetime_events,
        }) => {
            w.u8(5);
            w.u64(session.0);
            w.u64(*lifetime_events);
        }
        Ok(EngineResponse::Flushed) => w.u8(6),
        Ok(EngineResponse::Stats(stats)) => {
            w.u8(7);
            write_stats(&mut w, stats);
        }
        Ok(EngineResponse::StatsReset) => w.u8(8),
        Ok(EngineResponse::SessionExported(export)) => {
            w.u8(9);
            write_export(&mut w, export);
        }
        Ok(EngineResponse::SessionImported(session)) => {
            w.u8(10);
            w.u64(session.0);
        }
        Ok(EngineResponse::Description(info)) => {
            w.u8(11);
            write_info(&mut w, info);
        }
        Ok(EngineResponse::Metrics(metrics)) => {
            w.u8(12);
            w.len(metrics.len());
            for (name, value) in metrics {
                w.str(name);
                w.f64(*value);
            }
        }
        Ok(EngineResponse::Telemetry(samples)) => {
            w.u8(13);
            w.len(samples.len());
            for sample in samples {
                write_sample(&mut w, sample);
            }
        }
        Ok(EngineResponse::Profile(profile)) => {
            w.u8(14);
            write_profile(&mut w, profile);
        }
        Ok(EngineResponse::StandbyStored) => w.u8(15),
        Ok(EngineResponse::StandbyTaken(export)) => {
            w.u8(16);
            write_option(&mut w, export.as_deref(), write_export);
        }
        Ok(EngineResponse::Crashed) => w.u8(17),
    }
    w.buf
}

/// Decodes a response from its canonical byte form, rejecting truncated or
/// trailing bytes.
pub fn decode_response(bytes: &[u8]) -> Result<Result<EngineResponse, EngineError>, CodecError> {
    let mut r = Reader::new(bytes);
    let response = match r.u8()? {
        0 => Err(read_error(&mut r)?),
        1 => Ok(EngineResponse::SessionCreated(read_view(&mut r)?)),
        2 => Ok(EngineResponse::EventAccepted {
            session: SessionId(r.u64()?),
            pending: r.usize()?,
        }),
        3 => Ok(EngineResponse::Configuration(read_view(&mut r)?)),
        4 => Ok(EngineResponse::Resolved(read_view(&mut r)?)),
        5 => Ok(EngineResponse::SessionClosed {
            session: SessionId(r.u64()?),
            lifetime_events: r.u64()?,
        }),
        6 => Ok(EngineResponse::Flushed),
        7 => Ok(EngineResponse::Stats(Box::new(read_stats(&mut r)?))),
        8 => Ok(EngineResponse::StatsReset),
        9 => Ok(EngineResponse::SessionExported(Box::new(read_export(
            &mut r,
        )?))),
        10 => Ok(EngineResponse::SessionImported(SessionId(r.u64()?))),
        11 => Ok(EngineResponse::Description(read_info(&mut r)?)),
        12 => {
            let n = r.len(12)?;
            let metrics = (0..n)
                .map(|_| Ok((r.str()?, r.f64()?)))
                .collect::<Result<Vec<_>, CodecError>>()?;
            Ok(EngineResponse::Metrics(metrics))
        }
        13 => {
            let n = r.len(88)?;
            let samples = (0..n)
                .map(|_| read_sample(&mut r))
                .collect::<Result<Vec<_>, CodecError>>()?;
            Ok(EngineResponse::Telemetry(samples))
        }
        14 => Ok(EngineResponse::Profile(Box::new(read_profile(&mut r)?))),
        15 => Ok(EngineResponse::StandbyStored),
        16 => Ok(EngineResponse::StandbyTaken(
            read_option(&mut r, read_export)?.map(Box::new),
        )),
        17 => Ok(EngineResponse::Crashed),
        tag => {
            return Err(CodecError::BadTag {
                what: "response",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svgic_core::example::running_example;
    use svgic_core::extensions::DynamicEvent;

    fn assert_request_roundtrip(request: &EngineRequest) {
        let bytes = encode_request(request);
        let decoded = decode_request(&bytes).expect("decodes");
        assert_eq!(
            encode_request(&decoded),
            bytes,
            "canonical re-encode differs for {request:?}"
        );
    }

    #[test]
    fn requests_roundtrip_canonically() {
        for request in [
            EngineRequest::CreateSession(Box::new(CreateSession {
                instance: running_example(),
                initial_present: vec![0, 2],
                seed: 0xDEAD_BEEF,
            })),
            EngineRequest::SubmitEvent(
                SessionId(7),
                SessionEvent::Membership(DynamicEvent::Join(3)),
            ),
            EngineRequest::SubmitEvent(SessionId(7), SessionEvent::SetCatalog(vec![0, 1, 4])),
            EngineRequest::SubmitEvent(SessionId(7), SessionEvent::RetuneLambda(0.1 + 0.2)),
            EngineRequest::QueryConfiguration(SessionId(1)),
            EngineRequest::ForceResolve(SessionId(2)),
            EngineRequest::CloseSession(SessionId(3)),
            EngineRequest::Flush,
            EngineRequest::QueryStats,
            EngineRequest::ResetStats,
            EngineRequest::ExportSession(SessionId(4)),
            EngineRequest::Describe,
            EngineRequest::QueryMetrics,
            EngineRequest::QueryTelemetry,
            EngineRequest::QueryProfile,
            EngineRequest::SnapshotSession(SessionId(5)),
            EngineRequest::PutStandby(
                0xC0FFEE,
                Box::new(crate::session::SessionExport {
                    full: Arc::new(running_example()),
                    catalog: vec![0, 1, 2, 3, 4],
                    lambda: 0.5,
                    present: vec![0, 1, 2, 3],
                    pending: vec![SessionEvent::Membership(DynamicEvent::Leave(1))],
                    served: None,
                    seed: 9,
                    generation: 4,
                    events_since_full: 1,
                    lifetime_events: 6,
                    last_factors: None,
                    last_factor_fingerprint: Some(0xFEED),
                }),
            ),
            EngineRequest::TakeStandby(0xC0FFEE),
            EngineRequest::Crash,
        ] {
            assert_request_roundtrip(&request);
        }
    }

    #[test]
    fn standby_responses_roundtrip() {
        let export = crate::session::SessionExport {
            full: Arc::new(running_example()),
            catalog: vec![0, 1, 2, 3, 4],
            lambda: 0.5,
            present: vec![0, 2],
            pending: Vec::new(),
            served: None,
            seed: 3,
            generation: 1,
            events_since_full: 0,
            lifetime_events: 2,
            last_factors: None,
            last_factor_fingerprint: None,
        };
        let responses = [
            Ok(EngineResponse::StandbyStored),
            Ok(EngineResponse::StandbyTaken(None)),
            Ok(EngineResponse::StandbyTaken(Some(Box::new(export.clone())))),
            Ok(EngineResponse::Crashed),
        ];
        for response in responses {
            let bytes = encode_response(&response);
            let decoded = decode_response(&bytes).expect("decodes");
            assert_eq!(
                encode_response(&decoded),
                bytes,
                "canonical re-encode differs"
            );
        }
        assert_eq!(
            session_export_bytes(&export),
            encode_request(&EngineRequest::PutStandby(0, Box::new(export))).len() as u64 - 9,
            "export size accounts the payload, not the tag/key framing"
        );
    }

    #[test]
    fn profile_responses_roundtrip() {
        let profile = EngineProfile {
            entries: vec![
                ProfileEntry {
                    template_fingerprint: 0x1111,
                    warm_solves: 3,
                    cold_solves: 2,
                    warm_nanos: 9_000,
                    cold_nanos: 80_000,
                    miss_new: 1,
                    miss_evicted: 1,
                    miss_component_changed: 0,
                },
                ProfileEntry {
                    template_fingerprint: 0x2222,
                    cold_solves: 1,
                    cold_nanos: 40_000,
                    miss_new: 1,
                    ..ProfileEntry::default()
                },
            ],
            dropped: 4,
            phases: vec![PhaseAggregate {
                phase: Phase::QueueWait,
                count: 7,
                total_nanos: 70_000,
                max_nanos: 20_000,
            }],
            waterfalls: vec![RequestWaterfall {
                request_id: 42,
                total_nanos: 1_000,
                spans: vec![WaterfallSpan {
                    phase: Phase::WireWait,
                    start_nanos: 0,
                    duration_nanos: 250,
                    shard: u32::MAX,
                }],
            }],
            collapsed: "Serve 100\nServe;ShardDispatch 40\n".into(),
        };
        for value in [EngineProfile::default(), profile] {
            let response = Ok(EngineResponse::Profile(Box::new(value.clone())));
            let bytes = encode_response(&response);
            match decode_response(&bytes).expect("decodes") {
                Ok(EngineResponse::Profile(decoded)) => assert_eq!(*decoded, value),
                other => panic!("decoded {other:?}"),
            }
            assert_eq!(encode_response(&response), bytes, "canonical re-encode");
        }
    }

    #[test]
    fn profile_phase_indices_reject_unknown_phases() {
        // A Profile response whose phase index is past `Phase::ALL` must be
        // rejected as a bad tag, not mapped to some arbitrary phase.
        let mut w = Writer::new();
        w.u8(14); // Profile response tag
        w.len(0); // no ledger entries
        w.u64(0); // dropped
        w.len(1); // one phase aggregate
        w.u8(200); // phase index far outside Phase::ALL
        w.u64(1);
        w.u64(1);
        w.u64(1);
        w.len(0); // no waterfalls
        w.str(""); // collapsed
        assert!(matches!(
            decode_response(&w.buf),
            Err(CodecError::BadTag { what: "phase", .. })
        ));
    }

    #[test]
    fn telemetry_responses_roundtrip() {
        let samples = vec![
            TelemetrySample {
                tick: 0,
                requests: 12,
                solves: 5,
                queue_depth: 2,
                warm_rate_ppm: 640_000,
                imbalance_ppm: 1_100_000,
                mem_session_bytes: 4096,
                mem_pending_bytes: 128,
                mem_served_bytes: 256,
                mem_cache_bytes: 8192,
                mem_total_bytes: 12_672,
            },
            TelemetrySample {
                tick: 1,
                ..TelemetrySample::default()
            },
        ];
        for list in [Vec::new(), samples] {
            let response = Ok(EngineResponse::Telemetry(list.clone()));
            let bytes = encode_response(&response);
            match decode_response(&bytes).expect("decodes") {
                Ok(EngineResponse::Telemetry(decoded)) => assert_eq!(decoded, list),
                other => panic!("decoded {other:?}"),
            }
            assert_eq!(encode_response(&response), bytes, "canonical re-encode");
        }
    }

    #[test]
    fn sparse_histograms_roundtrip_including_empty_and_single_bucket() {
        // Shapes: empty, a single bucket, and a multi-bucket spread. The
        // codec must rebuild totals exactly (total is derived on decode).
        let empty = HistogramSnapshot::default();
        let mut single = HistogramSnapshot::default();
        for _ in 0..5 {
            single.record_nanos(1_500);
        }
        let mut spread = HistogramSnapshot::default();
        for i in 0..200u64 {
            spread.record_nanos(i * i * 997 + 1);
        }
        for (what, snapshot) in [("empty", empty), ("single", single), ("spread", spread)] {
            let mut w = Writer::new();
            write_histogram(&mut w, &snapshot);
            let mut r = Reader::new(&w.buf);
            let decoded = read_histogram(&mut r).unwrap_or_else(|e| panic!("{what}: {e}"));
            r.finish().expect("no trailing bytes");
            assert_eq!(decoded.pairs(), snapshot.pairs(), "{what}");
            assert_eq!(decoded.count(), snapshot.count(), "{what}");
            assert_eq!(decoded.sum_nanos(), snapshot.sum_nanos(), "{what}");
            assert_eq!(decoded.max_nanos(), snapshot.max_nanos(), "{what}");
            assert_eq!(
                decoded.quantile_nanos(0.99),
                snapshot.quantile_nanos(0.99),
                "{what}"
            );
            // Canonical: re-encoding the decoded value is byte-identical.
            let mut again = Writer::new();
            write_histogram(&mut again, &decoded);
            assert_eq!(again.buf, w.buf, "{what}");
        }
    }

    #[test]
    fn stats_snapshots_carry_mem_and_cache_byte_fields() {
        let mut snapshot = StatsSnapshot {
            mem_session_bytes: 1000,
            mem_pending_bytes: 200,
            mem_served_bytes: 50,
            ..StatsSnapshot::with_shards(2)
        };
        snapshot.shards[1].cache_entries = 1;
        snapshot.shards[1].cache_bytes = 777;
        let bytes = encode_response(&Ok(EngineResponse::Stats(Box::new(snapshot.clone()))));
        match decode_response(&bytes).expect("decodes") {
            Ok(EngineResponse::Stats(decoded)) => {
                assert_eq!(*decoded, snapshot);
                assert_eq!(decoded.mem_session_bytes, 1000);
                assert_eq!(decoded.shards[1].cache_bytes, 777);
                assert_eq!(decoded.mem_total_bytes(), 1000 + 200 + 50 + 777);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn instance_survives_the_wire_bit_exactly() {
        let instance = running_example();
        let request = EngineRequest::CreateSession(Box::new(CreateSession {
            instance: instance.clone(),
            initial_present: vec![],
            seed: 1,
        }));
        let EngineRequest::CreateSession(decoded) =
            decode_request(&encode_request(&request)).expect("decodes")
        else {
            panic!("wrong variant");
        };
        let got = &decoded.instance;
        assert_eq!(got.num_users(), instance.num_users());
        assert_eq!(got.num_items(), instance.num_items());
        assert_eq!(got.num_slots(), instance.num_slots());
        assert_eq!(got.lambda().to_bits(), instance.lambda().to_bits());
        assert_eq!(got.graph().edges(), instance.graph().edges());
        for u in 0..instance.num_users() {
            for c in 0..instance.num_items() {
                assert_eq!(
                    got.preference(u, c).to_bits(),
                    instance.preference(u, c).to_bits()
                );
            }
        }
        for e in 0..instance.graph().num_edges() {
            for c in 0..instance.num_items() {
                assert_eq!(
                    got.social_by_edge(e, c).to_bits(),
                    instance.social_by_edge(e, c).to_bits()
                );
            }
        }
        assert_eq!(got.item_labels(), instance.item_labels());
        // The fingerprint — every cache key downstream — is identical too.
        assert_eq!(
            crate::fingerprint::instance_fingerprint(got),
            crate::fingerprint::instance_fingerprint(&instance)
        );
    }

    #[test]
    fn error_responses_roundtrip() {
        for error in [
            EngineError::UnknownSession(SessionId(9)),
            EngineError::InvalidEvent("user 12 outside population".into()),
            EngineError::InvalidSession("instance has no users".into()),
            EngineError::Transport("connection reset".into()),
        ] {
            let bytes = encode_response(&Err(error.clone()));
            match decode_response(&bytes).expect("decodes") {
                Err(decoded) => assert_eq!(decoded, error),
                Ok(other) => panic!("decoded {other:?}, wanted {error:?}"),
            }
        }
    }

    /// `Engine::import_session` trusts its export (the in-process callers
    /// are other engines), so the decode path must reject every
    /// semantically invalid field a hostile peer could craft — otherwise a
    /// wire `ImportSession` could panic the serving thread.
    #[test]
    fn hostile_exports_are_rejected_at_decode() {
        let base = || crate::session::SessionExport {
            full: Arc::new(running_example()), // 4 users, 5 items, k = 3
            catalog: vec![0, 1, 2, 3, 4],
            lambda: 0.5,
            present: vec![0, 1, 2, 3],
            pending: Vec::new(),
            served: None,
            seed: 1,
            generation: 2,
            events_since_full: 0,
            lifetime_events: 3,
            last_factors: None,
            last_factor_fingerprint: None,
        };
        let roundtrip = |export: crate::session::SessionExport| {
            decode_request(&encode_request(&EngineRequest::ImportSession(Box::new(
                export,
            ))))
        };
        assert!(roundtrip(base()).is_ok(), "the baseline export is valid");

        let cases: Vec<(&str, crate::session::SessionExport)> = vec![
            ("lambda out of range", {
                let mut e = base();
                e.lambda = 2.0;
                e
            }),
            ("catalog item outside universe", {
                let mut e = base();
                e.catalog = vec![0, 1, 9];
                e
            }),
            ("catalog smaller than k", {
                let mut e = base();
                e.catalog = vec![0, 1];
                e
            }),
            ("unsorted catalog", {
                let mut e = base();
                e.catalog = vec![2, 1, 0, 3];
                e
            }),
            ("present user outside population", {
                let mut e = base();
                e.present = vec![0, 7];
                e
            }),
            ("pending event outside population", {
                let mut e = base();
                e.pending = vec![SessionEvent::Membership(DynamicEvent::Join(99))];
                e
            }),
            ("pending lambda out of range", {
                let mut e = base();
                e.pending = vec![SessionEvent::RetuneLambda(f64::NAN)];
                e
            }),
            ("warm factors with wrong dimensions", {
                let mut e = base();
                e.last_factors = Some(Arc::new(
                    svgic_algorithms::UtilityFactors::from_parts(
                        2,
                        2,
                        1,
                        vec![0.5; 4],
                        1.0,
                        svgic_algorithms::LpBackend::Structured,
                    )
                    .unwrap(),
                ));
                e
            }),
        ];
        for (what, export) in cases {
            let decoded = roundtrip(export);
            assert!(
                matches!(decoded, Err(CodecError::Invalid(_))),
                "{what}: expected Invalid, got {decoded:?}"
            );
        }
    }

    #[test]
    fn truncation_and_corruption_error_cleanly() {
        let bytes = encode_request(&EngineRequest::CreateSession(Box::new(CreateSession {
            instance: running_example(),
            initial_present: vec![1],
            seed: 2,
        })));
        // Every strict prefix fails with Truncated, never panics.
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_request(&bytes[..cut]).err(),
                Some(CodecError::Truncated),
                "prefix of {cut} bytes"
            );
        }
        // Trailing garbage is rejected.
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            decode_request(&extended).err(),
            Some(CodecError::Trailing(1))
        );
        // Unknown tags are rejected.
        assert!(matches!(
            decode_request(&[0xFF]),
            Err(CodecError::BadTag { .. })
        ));
        // A corrupted length field cannot allocate past the payload.
        let mut corrupt = bytes;
        // Byte 9 starts the edge-count length prefix (tag + n users).
        corrupt[9] = 0xFF;
        corrupt[10] = 0xFF;
        corrupt[11] = 0xFF;
        corrupt[12] = 0x7F;
        assert!(decode_request(&corrupt).is_err());
    }
}

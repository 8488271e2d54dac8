//! The closed-loop replay: one client submits a tick's events, flushes, and
//! starts the next tick only after the flush returns.
//!
//! Every transport call is attempted and counted; an `Err` is counted as a
//! failure and the replay goes on, so a run with failures still reports
//! its metrics. Every configuration the engine serves is checked, and every
//! query response is folded into the trace's configuration digest.

use std::collections::BTreeMap;
use std::time::Instant;

use svgic_core::extensions::DynamicEvent;
use svgic_core::SvgicInstance;
use svgic_engine::fingerprint::Fnv;
use svgic_engine::prelude::*;
use svgic_workload::{Trace, TraceEvent};

/// A span the benchmark records around one of its own transport calls.
#[derive(Clone, Copy, Debug)]
pub struct CallSpan {
    pub start: Instant,
    pub end: Instant,
}

/// What replaying one trace produced.
#[derive(Default)]
pub struct TraceRun {
    /// Wall time from the first request to the last response.
    pub wall_s: f64,
    /// Engine requests completed (create, submit, query, close).
    pub requests: u64,
    /// Transport calls made, flushes included.
    pub attempted: u64,
    /// Transport calls that returned an error, plus events never sent
    /// because their session failed to open.
    pub failed: u64,
    /// Served configurations that failed the validity check.
    pub invalid: u64,
    /// FNV-1a digest over every query response.
    pub digest: u64,
    pub utility_sum: f64,
    pub utility_samples: u64,
    pub flush_ms: Vec<f64>,
    pub create_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
}

/// What the replay expects of one live session.
struct Session {
    id: SessionId,
    /// The catalogue the last flush applied.
    catalog: Vec<usize>,
    /// A catalogue submitted since the last flush.
    pending_catalog: Option<Vec<usize>>,
    slots: usize,
}

/// Checks one served configuration: one row of `k` distinct items per
/// present user, all from the session's active catalogue.
fn is_valid(view: &ConfigurationView, session: &Session) -> bool {
    if view.present.is_empty() {
        return true;
    }
    let config = &view.configuration;
    view.catalog == session.catalog
        && config.num_users() == view.present.len()
        && config.num_slots() == session.slots
        && config.is_valid(view.catalog.len())
}

/// The digest fold: the same fields, in the same order, as `LoadDriver`'s
/// configuration digest.
fn fold(digest: &mut Fnv, key: u64, view: &ConfigurationView) {
    digest.write_u64(key);
    digest.write_u64(view.generation);
    digest.write_u64(view.present.len() as u64);
    for &user in &view.present {
        digest.write_u64(user as u64);
    }
    digest.write_u64(view.catalog.len() as u64);
    for &item in &view.catalog {
        digest.write_u64(item as u64);
    }
    for user in 0..view.configuration.num_users() {
        for &item in view.configuration.items_of(user) {
            digest.write_u64(item as u64);
        }
    }
    digest.write_f64(view.utility);
}

/// The engine event a trace event submits, if it submits one.
pub fn session_event(event: &TraceEvent) -> Option<SessionEvent> {
    Some(match event {
        TraceEvent::Join { user, .. } => SessionEvent::Membership(DynamicEvent::Join(*user)),
        TraceEvent::Leave { user, .. } => SessionEvent::Membership(DynamicEvent::Leave(*user)),
        TraceEvent::Catalog { items, .. } => SessionEvent::SetCatalog(items.clone()),
        TraceEvent::Lambda { value, .. } => SessionEvent::RetuneLambda(*value),
        _ => return None,
    })
}

/// Replays `trace` against `backend`. With `spans`, every call is also
/// recorded as a benchmark span.
pub fn replay<B: EngineTransport + ?Sized>(
    backend: &mut B,
    trace: &Trace,
    instances: &[SvgicInstance],
    mut spans: Option<&mut Vec<CallSpan>>,
) -> TraceRun {
    let mut run = TraceRun::default();
    let mut digest = Fnv::new();
    let mut sessions: BTreeMap<u64, Session> = BTreeMap::new();

    let mut timed = |run: &mut TraceRun, start: Instant| -> f64 {
        // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
        let end = Instant::now();
        if let Some(spans) = spans.as_deref_mut() {
            spans.push(CallSpan { start, end });
        }
        run.attempted += 1;
        end.duration_since(start).as_secs_f64()
    };

    // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
    let started = Instant::now();
    for (i, event) in trace.events.iter().enumerate() {
        match event {
            // The trace opens every tick with a Tick marker; the first one
            // has nothing before it to flush.
            TraceEvent::Tick(_) if i == 0 => {}
            TraceEvent::Tick(_) => flush(backend, &mut sessions, &mut run, &mut timed),
            TraceEvent::Open {
                key,
                template,
                seed,
                present,
            } => {
                let instance = instances[*template].clone();
                let catalog: Vec<usize> = (0..instance.num_items()).collect();
                let slots = instance.num_slots();
                // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
                let t0 = Instant::now();
                let result = backend.create_session(CreateSession {
                    instance,
                    initial_present: present.clone(),
                    seed: *seed,
                });
                let seconds = timed(&mut run, t0);
                match result {
                    Ok(view) => {
                        run.requests += 1;
                        run.create_ms.push(seconds * 1e3);
                        let session = Session {
                            id: view.session,
                            catalog,
                            pending_catalog: None,
                            slots,
                        };
                        if !is_valid(&view, &session) {
                            run.invalid += 1;
                        }
                        sessions.insert(*key, session);
                    }
                    Err(_) => run.failed += 1,
                }
            }
            TraceEvent::Join { key, .. }
            | TraceEvent::Leave { key, .. }
            | TraceEvent::Catalog { key, .. }
            | TraceEvent::Lambda { key, .. } => {
                let Some(session) = sessions.get_mut(key) else {
                    run.attempted += 1;
                    run.failed += 1;
                    continue;
                };
                let event = session_event(event).expect("matched a session event");
                let new_catalog = match &event {
                    SessionEvent::SetCatalog(items) => Some(items.clone()),
                    _ => None,
                };
                // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
                let t0 = Instant::now();
                let result = backend.submit_event(session.id, event);
                let seconds = timed(&mut run, t0);
                match result {
                    Ok(_) => {
                        run.requests += 1;
                        run.submit_us.push(seconds * 1e6);
                        if new_catalog.is_some() {
                            session.pending_catalog = new_catalog;
                        }
                    }
                    Err(_) => run.failed += 1,
                }
            }
            TraceEvent::Query { key } => {
                let Some(session) = sessions.get(key) else {
                    run.attempted += 1;
                    run.failed += 1;
                    continue;
                };
                // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
                let t0 = Instant::now();
                let result = backend.query_configuration(session.id);
                timed(&mut run, t0);
                match result {
                    Ok(view) => {
                        run.requests += 1;
                        if !is_valid(&view, session) {
                            run.invalid += 1;
                        }
                        fold(&mut digest, *key, &view);
                        if !view.present.is_empty() {
                            run.utility_sum += view.utility;
                            run.utility_samples += 1;
                        }
                    }
                    Err(_) => run.failed += 1,
                }
            }
            TraceEvent::Close { key } => {
                let Some(session) = sessions.remove(key) else {
                    run.attempted += 1;
                    run.failed += 1;
                    continue;
                };
                // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
                let t0 = Instant::now();
                let result = backend.close_session(session.id);
                timed(&mut run, t0);
                match result {
                    Ok(_) => run.requests += 1,
                    Err(_) => run.failed += 1,
                }
            }
        }
    }
    // The trace closes every session itself; this last flush applies any
    // events of the final tick (there are none once everything is closed,
    // so it is cheap) and keeps the tick count equal to the trace's.
    flush(backend, &mut sessions, &mut run, &mut timed);
    run.wall_s = started.elapsed().as_secs_f64();
    run.digest = digest.finish();
    run
}

fn flush<B: EngineTransport + ?Sized>(
    backend: &mut B,
    sessions: &mut BTreeMap<u64, Session>,
    run: &mut TraceRun,
    timed: &mut impl FnMut(&mut TraceRun, Instant) -> f64,
) {
    // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
    let t0 = Instant::now();
    let result = backend.flush();
    let seconds = timed(run, t0);
    match result {
        Ok(()) => {
            run.flush_ms.push(seconds * 1e3);
            for session in sessions.values_mut() {
                if let Some(catalog) = session.pending_catalog.take() {
                    session.catalog = catalog;
                }
            }
        }
        Err(_) => run.failed += 1,
    }
}

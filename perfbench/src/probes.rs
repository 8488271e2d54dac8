//! Layer micro-timings: the benchmark's own calls into each layer's public
//! functions, on inputs taken from the workload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use svgic_algorithms::avg::round_with_factors;
use svgic_algorithms::factors::RelaxationOptions;
use svgic_algorithms::{solve_relaxation, LpBackend, SamplingScheme, UtilityFactors};
use svgic_core::SvgicInstance;
use svgic_engine::codec::{decode_request, decode_response, encode_request, encode_response};
use svgic_engine::prelude::*;
use svgic_workload::{Scenario, TemplateSpec, TraceEvent};

use crate::replay::{replay, session_event, TraceRun};
use crate::stats::{median, Metrics};
use crate::workload::{sub_seed, Input};

/// Group sizes the exact simplex is timed at.
const EXACT_BANDS: [usize; 4] = [6, 10, 14, 20];
/// Group sizes the structured ascent is timed at.
const ASCENT_BANDS: [usize; 5] = [6, 10, 14, 20, 40];
/// Bytes of frame header around every payload on the wire.
const FRAME_HEADER_BYTES: u64 = 18;

/// Minimum wall time of `f` over repeated calls: at least one call, then
/// more until `budget` is spent or `max_reps` calls were made.
fn min_time<T>(budget: Duration, max_reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
    let started = Instant::now();
    let t0 = Instant::now();
    let mut last = black_box(f());
    let mut best = t0.elapsed();
    let mut reps = 1;
    while reps < max_reps && started.elapsed() < budget {
        // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
        let t0 = Instant::now();
        last = black_box(f());
        best = best.min(t0.elapsed());
        reps += 1;
    }
    (best, last)
}

/// A template of the workload's own family with `users` shoppers, at the
/// scenario's catalogue size and slot count.
fn band_instance(scenario: &Scenario, band: usize, users: usize, seed: u64) -> SvgicInstance {
    TemplateSpec {
        profile: scenario.profiles[band % scenario.profiles.len()],
        population: (users * 20).max(60),
        users,
        items: scenario.items,
        slots: scenario.slots.min(scenario.items),
        lambda: 0.5,
        build_seed: sub_seed(seed ^ 0x1A7E_5EED, users as u64),
    }
    .build()
}

fn relax(instance: &SvgicInstance, backend: LpBackend) -> UtilityFactors {
    solve_relaxation(
        instance,
        &RelaxationOptions {
            backend,
            ..RelaxationOptions::default()
        },
    )
}

/// LP per backend across the size bands, and rounding on the n = 10
/// factors.
pub fn lp_and_rounding(scenario: &Scenario, seed: u64, metrics: &mut Metrics) {
    let mut fallbacks = 0u64;
    let mut exact_n20 = None;
    let mut exact_n10 = None;
    for (band, &n) in EXACT_BANDS.iter().enumerate() {
        let instance = band_instance(scenario, band, n, seed);
        let (time, factors) = min_time(Duration::from_millis(600), 5, || {
            relax(&instance, LpBackend::ExactSimplex)
        });
        if factors.backend != LpBackend::ExactSimplex {
            fallbacks += 1;
        }
        metrics.push(format!("lp.exact_ms.n{n}"), ms(time), "ms");
        match n {
            10 => exact_n10 = Some((instance, factors)),
            20 => exact_n20 = Some(factors.scaled_objective),
            _ => {}
        }
    }
    for (band, &n) in ASCENT_BANDS.iter().enumerate() {
        let instance = band_instance(scenario, band, n, seed);
        let (time, factors) = min_time(Duration::from_millis(150), 50, || {
            relax(&instance, LpBackend::Structured)
        });
        metrics.push(format!("lp.ascent_ms.n{n}"), ms(time), "ms");
        if let (20, Some(exact)) = (n, exact_n20) {
            let gap = 100.0 * (exact - factors.scaled_objective) / exact;
            metrics.push("lp.ascent_gap_pct.n20", gap, "%");
        }
    }
    metrics.push("lp.exact_fallbacks", fallbacks as f64, "count");

    let (instance, factors) = exact_n10.expect("the n = 10 band is timed");
    let (time, _) = min_time(Duration::from_millis(150), 500, || {
        let mut rng = StdRng::seed_from_u64(seed);
        round_with_factors(
            &instance,
            &factors,
            None,
            SamplingScheme::Advanced,
            10_000,
            &mut rng,
        )
    });
    metrics.push("round.call_us.n10", us(time), "us");
}

/// The request that opens the trace's first session.
fn first_create(input: &Input) -> CreateSession {
    input
        .trace
        .events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Open {
                template,
                seed,
                present,
                ..
            } => Some(CreateSession {
                instance: input.instances[*template].clone(),
                initial_present: present.clone(),
                seed: *seed,
            }),
            _ => None,
        })
        .expect("every generated trace opens a session")
}

/// Encode and decode time and payload size of the four frame kinds that
/// matter on the wire, built from the first session of `input`. The view
/// and the export come from `backend` (which records a `Migrate` span when
/// traced).
pub fn codec(
    backend: &mut dyn EngineTransport,
    input: &Input,
    metrics: &mut Metrics,
) -> Result<(), EngineError> {
    let open = first_create(input);
    let create = EngineRequest::CreateSession(Box::new(open.clone()));
    let view = backend.create_session(open)?;
    let event = input
        .trace
        .events
        .iter()
        .find_map(session_event)
        .unwrap_or(SessionEvent::RetuneLambda(0.5));
    let submit = EngineRequest::SubmitEvent(view.session, event);
    let export = backend.export_session(view.session)?;
    let id = backend.import_session(export.clone())?;
    backend.close_session(id)?;
    let query = Ok(EngineResponse::Configuration(view));
    let export = Ok(EngineResponse::SessionExported(Box::new(export)));

    let budget = Duration::from_millis(40);
    for (name, request) in [("create", &create), ("submit", &submit)] {
        let (encode, bytes) = min_time(budget, 2_000, || encode_request(request));
        let (decode, decoded) = min_time(budget, 2_000, || decode_request(&bytes));
        if decoded.is_err() {
            return Err(EngineError::Transport(format!(
                "{name} frame does not decode"
            )));
        }
        codec_rows(metrics, name, encode, decode, bytes.len());
    }
    for (name, response) in [("query_response", &query), ("export", &export)] {
        let (encode, bytes) = min_time(budget, 2_000, || encode_response(response));
        let (decode, decoded) = min_time(budget, 2_000, || decode_response(&bytes));
        if decoded.is_err() {
            return Err(EngineError::Transport(format!(
                "{name} frame does not decode"
            )));
        }
        codec_rows(metrics, name, encode, decode, bytes.len());
    }
    Ok(())
}

fn codec_rows(metrics: &mut Metrics, name: &str, encode: Duration, decode: Duration, len: usize) {
    metrics.push(format!("codec.encode_us.{name}"), us(encode), "us");
    metrics.push(format!("codec.decode_us.{name}"), us(decode), "us");
    metrics.push(format!("codec.bytes.{name}"), len as f64, "bytes");
}

/// Counts the bytes a transport's requests and responses take on the wire.
struct Counting<'a> {
    inner: &'a mut dyn EngineTransport,
    bytes: u64,
}

impl EngineTransport for Counting<'_> {
    fn request(&mut self, request: EngineRequest) -> Result<EngineResponse, EngineError> {
        self.bytes += FRAME_HEADER_BYTES + encode_request(&request).len() as u64;
        let response = self.inner.request(request);
        self.bytes += FRAME_HEADER_BYTES + encode_response(&response).len() as u64;
        response
    }
}

/// Round trips over a loopback connection: `Describe` and query latency,
/// and the wire bytes per request of `input` replayed over it. Returns that
/// replay.
pub fn wire(
    client: &mut dyn EngineTransport,
    input: &Input,
    metrics: &mut Metrics,
) -> Result<TraceRun, EngineError> {
    let mut rtt = Vec::new();
    for _ in 0..300 {
        // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
        let t0 = Instant::now();
        client.describe()?;
        rtt.push(us(t0.elapsed()));
    }
    metrics.push("net.rtt_us", median(&rtt), "us");

    let view = client.create_session(first_create(input))?;
    let mut query = Vec::new();
    for _ in 0..300 {
        // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
        let t0 = Instant::now();
        client.query_configuration(view.session)?;
        query.push(us(t0.elapsed()));
    }
    client.close_session(view.session)?;
    metrics.push("net.query_p50_us", median(&query), "us");

    client.crash()?;
    let mut counting = Counting {
        inner: client,
        bytes: 0,
    };
    let run = replay(&mut counting, &input.trace, &input.instances, None);
    let per_request = counting.bytes as f64 / run.attempted.max(1) as f64;
    metrics.push("net.bytes_per_request", per_request, "bytes");
    Ok(run)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

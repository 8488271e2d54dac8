//! The svgic serving benchmark.
//!
//! ```text
//! perfbench --workload <steady-mall|churn-wire> --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! makes the traced run that reports the per-layer metrics. Both check the
//! served configurations. Human-readable lines go to standard output, and
//! the last line is the JSON result. See README.md for the metric table.

mod probes;
mod replay;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use svgic_engine::fingerprint::Fnv;
use svgic_engine::prelude::*;
use svgic_engine::Phase;

use replay::{replay, TraceRun};
use spans::{Clock, SelfTimes};
use stats::{median, quantile, result_line, tail, Metrics};
use workload::{draw_inputs, load_levels, pick, Backend, Input, Inputs, Placement, Workload};

/// How many times a run sets up; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// The quantile the `*_tail_ms` metrics report.
const TAIL_QUANTILE: f64 = 0.95;
/// Stride of the end-to-end run through the load-ordered traces.
const STRIDE: usize = 8;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(7),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        end_to_end_run(&args)
    };
    match outcome {
        Ok(outcome) => {
            println!(
                "machine: nproc={} profile={} workers={} placement={:?}",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                },
                args.workload.workers,
                args.workload.placement,
            );
            for line in &outcome.notes {
                println!("{line}");
            }
            for m in &outcome.metrics.0 {
                println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!(
                "{}",
                result_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    notes: Vec<String>,
}

/// Totals over every replayed trace.
#[derive(Default)]
struct Totals {
    wall_s: f64,
    requests: u64,
    attempted: u64,
    failed: u64,
    invalid: u64,
    flush_ms: Vec<f64>,
    create_ms: Vec<f64>,
    submit_us: Vec<f64>,
}

impl Totals {
    fn absorb(&mut self, run: TraceRun) {
        self.wall_s += run.wall_s;
        self.requests += run.requests;
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.invalid += run.invalid;
        self.flush_ms.extend(run.flush_ms);
        self.create_ms.extend(run.create_ms);
        self.submit_us.extend(run.submit_us);
    }

    /// Counts one harness call (reset, stats) against the run.
    fn harness<T>(&mut self, result: Result<T, EngineError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                eprintln!("perfbench: harness call failed: {error}");
                self.failed += 1;
                None
            }
        }
    }
}

/// Sets up `SETUP_REPEATS` times (generation of the picked traces, their
/// template builds, engine or server start) and keeps the last set-up; each
/// set-up is torn down before the next starts. Picking the traces is not
/// timed. Returns the per-repeat totals alongside.
fn set_up(args: &Args, levels: &[f64]) -> Result<(Inputs, Backend, Vec<f64>), String> {
    let picked = pick(args.workload, args.seed, levels);
    let mut totals = Vec::new();
    let mut kept: Option<(Inputs, Backend)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((inputs, old)) = kept.take() {
            drop(inputs);
            old.stop()?;
        }
        // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
        let t0 = Instant::now();
        let inputs = draw_inputs(args.workload, args.seed, &picked);
        let (backend, _) = Backend::start(args.workload, false)
            .map_err(|e| format!("cannot start the engine: {e}"))?;
        totals.push(t0.elapsed().as_secs_f64());
        kept = Some((inputs, backend));
    }
    let (inputs, backend) = kept.expect("set up at least once");
    Ok((inputs, backend, totals))
}

/// Folds per-trace digests into the run's digest.
fn run_digest(digests: &[u64]) -> u64 {
    let mut fnv = Fnv::new();
    for &d in digests {
        fnv.write_u64(d);
    }
    fnv.finish()
}

/// Peak resident set size of this process, in MiB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Replays each trace in process on a fresh engine with `workers` workers
/// and returns the digests: what a loopback run must reproduce.
fn in_process_digests(inputs: &[Input], workers: usize) -> Result<Vec<u64>, String> {
    let (mut backend, _) = Backend::start_at(Placement::InProcess, workers, false)
        .map_err(|e| format!("cannot start the reference engine: {e}"))?;
    let mut digests = Vec::new();
    for input in inputs {
        backend.crash().map_err(|e| e.to_string())?;
        digests.push(replay(&mut backend, &input.trace, &input.instances, None).digest);
    }
    Ok(digests)
}

/// The end-to-end run, with tracing off: replays the run's traces, one
/// stride group after another, until another group would overrun
/// `--seconds`.
fn end_to_end_run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let levels = load_levels(workload);
    let (inputs, mut backend, setups) = set_up(args, &levels)?;
    let inputs = inputs.inputs;
    let budget = Duration::from_secs(args.seconds);

    // The inputs come in load order. Stride group `s` holds traces s,
    // s + STRIDE, s + 2·STRIDE, …: one trace from every band of load levels.
    // The run replays group after group, each trace on a freshly reset
    // engine: the first round (every group) whole, then further groups
    // until another would overrun the budget, so a run fills its budget
    // without skewing the load mix. The metrics pool every group replayed,
    // and a slow spell of the machine hits all load levels alike.
    let mut totals = Totals::default();
    let mut digests: Vec<u64> = vec![0; inputs.len()];
    let mut utility = (0.0, 0u64);
    let mut repeat_mismatches = 0;
    let mut groups = 0u32;
    // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
    let started = Instant::now();
    'run: loop {
        for group in 0..STRIDE {
            for i in (group..inputs.len()).step_by(STRIDE) {
                let input = &inputs[i];
                totals.harness(backend.crash());
                let run = replay(&mut backend, &input.trace, &input.instances, None);
                if groups < STRIDE as u32 {
                    digests[i] = run.digest;
                    utility.0 += run.utility_sum;
                    utility.1 += run.utility_samples;
                } else if digests[i] != run.digest {
                    repeat_mismatches += 1;
                }
                totals.absorb(run);
            }
            groups += 1;
            let elapsed = started.elapsed();
            if groups >= STRIDE as u32 && elapsed + elapsed / groups > budget {
                break 'run;
            }
        }
    }
    let rss = rss_peak_mb();

    let mut notes = vec![format!(
        "workload {} seed {}: {} traces x {:.3} rounds in {:.2} s",
        workload.name,
        args.seed,
        inputs.len(),
        f64::from(groups) / STRIDE as f64,
        started.elapsed().as_secs_f64()
    )];
    let mut correct = totals.invalid == 0 && repeat_mismatches == 0;
    if workload.placement == Placement::Loopback {
        let reference = in_process_digests(&inputs, workload.workers)?;
        let equal = reference == digests;
        notes.push(format!(
            "in-process digest {:#018x}: {}",
            run_digest(&reference),
            if equal { "equal" } else { "DIFFERENT" }
        ));
        correct &= equal;
    }
    backend.stop()?;
    notes.push(format!(
        "digest {:#018x}; {} invalid configurations; {} repeat mismatches",
        run_digest(&digests),
        totals.invalid,
        repeat_mismatches
    ));

    // The tail metrics are p95: the highest percentile with ten samples
    // beyond it rests on the run's ten largest LP solves, which vary with the
    // seed far more than with the program. That percentile is printed.
    for (name, values) in [("update", &totals.flush_ms), ("create", &totals.create_ms)] {
        let far = tail(values);
        notes.push(format!(
            "{name}: {} samples; p95 {:.4} ms; p{:.2} (10 beyond) {:.4} ms",
            far.samples,
            quantile(values, TAIL_QUANTILE),
            far.percentile,
            far.value
        ));
    }
    let error_rate = totals.failed as f64 / totals.attempted.max(1) as f64;
    notes.push(format!(
        "error_rate {error_rate} ({} failed of {} attempted)",
        totals.failed, totals.attempted
    ));

    let mut metrics = Metrics::default();
    metrics.push(
        "requests_per_s",
        totals.requests as f64 / totals.wall_s,
        "1/s",
    );
    metrics.push("update_p50_ms", median(&totals.flush_ms), "ms");
    metrics.push(
        "update_tail_ms",
        quantile(&totals.flush_ms, TAIL_QUANTILE),
        "ms",
    );
    metrics.push("create_p50_ms", median(&totals.create_ms), "ms");
    metrics.push(
        "create_tail_ms",
        quantile(&totals.create_ms, TAIL_QUANTILE),
        "ms",
    );
    metrics.push(
        "mean_utility",
        utility.0 / utility.1.max(1) as f64,
        "utility",
    );
    metrics.push("success_rate", 1.0 - error_rate, "ratio");
    metrics.push("setup_s", median(&setups), "s");
    metrics.push("rss_peak_mb", rss, "MiB");
    Ok(Outcome {
        correct,
        attempted: totals.attempted,
        failed: totals.failed,
        metrics,
        notes,
    })
}

/// Reads one key of the engine's metrics, or notes it as absent.
fn engine_metric(series: &[(String, f64)], key: &str, notes: &mut Vec<String>) -> Option<f64> {
    let value = series.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
    if value.is_none() {
        notes.push(format!("engine metric `{key}` is absent; not reported"));
    }
    value
}

/// The traced run: per-layer metrics. Replays every trace on a traced
/// engine, every fourth also on an untraced one for the overhead, then times
/// each layer's public functions.
fn traced_run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let mut metrics = Metrics::default();
    let mut notes = Vec::new();

    let mut generate_ms = Vec::new();
    let mut instances_ms = Vec::new();
    let picked = pick(workload, args.seed, &load_levels(workload));
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut inputs));
        let made = draw_inputs(workload, args.seed, &picked);
        generate_ms.push(made.generate_s * 1e3);
        instances_ms.push(made.instances_s * 1e3);
        inputs = made.inputs;
    }
    let (mut plain, _) =
        Backend::start(workload, false).map_err(|e| format!("cannot start the engine: {e}"))?;
    let (mut traced, tracer) =
        Backend::start(workload, true).map_err(|e| format!("cannot start the engine: {e}"))?;
    let clock = Clock::calibrate(&tracer).ok_or("the engine tracer records nothing")?;

    // Every fourth trace also runs untraced, for the overhead: a stratified
    // quarter, since the inputs come in load order.
    let paired = |i: usize| i.is_multiple_of(4);
    let mut totals = Totals::default();
    let mut plain_totals = Totals::default();
    let mut plain_wall = 0.0;
    let mut traced_wall = 0.0;
    let mut times = SelfTimes::default();
    let mut merged: Option<StatsSnapshot> = None;
    // `merge` adds gauges, so the cache size is read per trace instead.
    let mut cache_entries: Option<f64> = None;
    let mut mem_peak = 0u64;
    let mut wrapped = false;
    let mut digest_mismatches = 0;
    let mut digests = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let mut plain_digest = None;
        if paired(i) {
            plain_totals.harness(plain.crash());
            let run = replay(&mut plain, &input.trace, &input.instances, None);
            plain_wall += run.wall_s;
            plain_digest = Some(run.digest);
            plain_totals.absorb(run);
        }
        totals.harness(traced.crash());
        tracer.clear();
        let before = tracer.recorded();
        let mut calls = Vec::new();
        let run = replay(
            &mut traced,
            &input.trace,
            &input.instances,
            Some(&mut calls),
        );
        let spans = tracer.spans();
        wrapped |= spans.len() as u64 != tracer.recorded() - before;
        times.add(&spans, &calls, &clock);
        if paired(i) {
            traced_wall += run.wall_s;
        }
        if plain_digest.is_some_and(|d| d != run.digest) {
            digest_mismatches += 1;
        }
        digests.push(run.digest);
        totals.absorb(run);
        if let Some(snapshot) = totals.harness(traced.stats()) {
            if let Some((_, entries)) = snapshot
                .metrics()
                .into_iter()
                .find(|(k, _)| k == "cache_entries")
            {
                cache_entries = Some(cache_entries.map_or(entries, |max| max.max(entries)));
            }
            match merged.as_mut() {
                Some(m) => m.merge(&snapshot),
                None => merged = Some(snapshot),
            }
        }
        if let Some(samples) = totals.harness(traced.query_telemetry()) {
            mem_peak = samples
                .iter()
                .map(|s| s.mem_total_bytes)
                .fold(mem_peak, u64::max);
        }
    }
    plain.stop()?;

    // Layer probes, on the median-load trace. The codec probe drives the
    // traced engine (its session export is the run's Migrate span); the wire
    // probe has a traced loopback server of its own.
    let middle = inputs.len() / 2;
    let scenario = workload.scenario();
    probes::lp_and_rounding(&scenario, args.seed, &mut metrics);
    totals.harness(traced.crash());
    tracer.clear();
    let probe = probes::codec(&mut traced, &inputs[middle], &mut metrics);
    totals.harness(probe);
    times.add(&tracer.spans(), &[], &clock);
    traced.stop()?;

    let (mut wire, wire_tracer) = Backend::start_at(Placement::Loopback, workload.workers, true)
        .map_err(|e| format!("cannot start the probe server: {e}"))?;
    let wire_clock = Clock::calibrate(&wire_tracer).ok_or("the probe tracer records nothing")?;
    let wire_probe = probes::wire(&mut wire, &inputs[middle], &mut metrics);
    if let Some(run) = totals.harness(wire_probe) {
        if run.digest != digests[middle] {
            digest_mismatches += 1;
        }
        totals.invalid += run.invalid;
    }
    times.add(&wire_tracer.spans(), &[], &wire_clock);
    wire.stop()?;

    // Engine metrics, read from the merged snapshots of the traced replays.
    let series = merged.map(|m| m.metrics()).unwrap_or_default();
    let mut engine = |name: &str, key: &str, unit: &'static str, scale: f64| {
        if let Some(v) = engine_metric(&series, key, &mut notes) {
            metrics.push(name, v * scale, unit);
        }
    };
    engine("lp.cold_solves", "solves_cold", "count", 1.0);
    engine("lp.cold_p50_ms", "p50_cold_solve_seconds", "ms", 1e3);
    engine("lp.cold_p99_ms", "p99_cold_solve_seconds", "ms", 1e3);
    engine("lp.wall_share", "lp_seconds", "ratio", 1.0 / totals.wall_s);
    engine("round.p99_us", "p99_round_seconds", "us", 1e6);
    engine("round.calls", "solves_incremental", "count", 1.0);
    engine("engine.coalesce_rate", "coalesce_rate", "ratio", 1.0);
    engine("engine.cache_hit_rate", "cache_hit_rate", "ratio", 1.0);
    engine("engine.session_reuse", "session_reuse", "count", 1.0);
    engine("engine.batch_shared", "batch_shared", "count", 1.0);
    engine(
        "engine.components_reused",
        "warm_components_reused",
        "count",
        1.0,
    );
    engine(
        "engine.queue_wait_p99_ms",
        "p99_queue_wait_seconds",
        "ms",
        1e3,
    );
    engine("engine.shard_imbalance", "shard_imbalance", "ratio", 1.0);
    match cache_entries {
        Some(max) => metrics.push("engine.cache_entries", max, "count"),
        None => notes.push("engine metric `cache_entries` is absent; not reported".into()),
    }
    metrics.push(
        "engine.submit_p50_us",
        median(&plain_totals.submit_us),
        "us",
    );
    metrics.push("engine.mem_total_bytes", mem_peak as f64, "bytes");
    metrics.push("setup.generate_ms", median(&generate_ms), "ms");
    metrics.push("setup.instances_ms", median(&instances_ms), "ms");
    metrics.push(
        "obs.trace_overhead_pct",
        100.0 * (traced_wall / plain_wall - 1.0),
        "%",
    );
    for (phase, nanos) in Phase::ALL.iter().zip(times.phase_nanos) {
        metrics.push(
            format!("phase.{}_self_ms", phase.name()),
            nanos as f64 / 1e6,
            "ms",
        );
    }
    metrics.push(
        "phase.client_self_ms",
        times.client_nanos as f64 / 1e6,
        "ms",
    );

    notes.push(format!(
        "workload {} seed {}: {} traces traced, {} also untraced",
        workload.name,
        args.seed,
        inputs.len(),
        inputs.len().div_ceil(4)
    ));
    if wrapped {
        notes.push("the flight recorder wrapped; phase self times are incomplete".into());
    }
    notes.push(format!(
        "{} invalid configurations; {} digest mismatches between traced, untraced and wire replays",
        totals.invalid + plain_totals.invalid,
        digest_mismatches
    ));
    Ok(Outcome {
        correct: totals.invalid + plain_totals.invalid == 0 && digest_mismatches == 0 && !wrapped,
        attempted: totals.attempted + plain_totals.attempted,
        failed: totals.failed + plain_totals.failed,
        metrics,
        notes,
    })
}

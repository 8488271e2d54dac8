//! The named workloads, their inputs, and the transports they run on.

use std::collections::BTreeMap;
use std::time::Instant;

use svgic_core::SvgicInstance;
use svgic_engine::prelude::*;
use svgic_engine::{ObsConfig, Tracer};
use svgic_net::{NetClient, NetServer};
use svgic_workload::{generate, Scenario, Trace, TraceEvent};

/// Which side of the wire the engine lives on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// The engine runs in the benchmark process and is called directly.
    InProcess,
    /// The engine runs behind a `svgic-net` server on a loopback port and
    /// the benchmark talks to it over one TCP connection.
    Loopback,
}

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    pub scenario: fn() -> Scenario,
    /// Ticks per trace, overriding the scenario's own count.
    pub ticks: usize,
    pub placement: Placement,
    /// Engine worker threads.
    pub workers: usize,
    /// Distinct traces a run replays, each the scenario generated under its
    /// own seed derived from the run's seed.
    pub traces: usize,
    /// Candidate traces generated per replayed trace (see [`pick`]).
    pub pool: usize,
}

impl Workload {
    /// The scenario every trace of the workload is generated from.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            ticks: self.ticks,
            ..(self.scenario)()
        }
    }
}

pub const WORKLOADS: [Workload; 2] = [
    // 96 ticks rather than the scenario's 24: every trace starts on a reset
    // engine, and a trace this long spends most of its life on the templates
    // it has already solved (about 91% factor-cache hits, against 83% at 24).
    Workload {
        name: "steady-mall",
        scenario: Scenario::steady_mall,
        ticks: 96,
        placement: Placement::InProcess,
        workers: 2,
        traces: 48,
        pool: 8,
    },
    Workload {
        name: "churn-wire",
        scenario: Scenario::churn_heavy,
        ticks: 24,
        placement: Placement::Loopback,
        workers: 1,
        traces: 192,
        pool: 8,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the seed of a run's `index`-th candidate trace.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One trace and the instances its templates build.
pub struct Input {
    pub trace: Trace,
    pub instances: Vec<SvgicInstance>,
}

/// Everything a run replays, with what it cost to make.
pub struct Inputs {
    pub inputs: Vec<Input>,
    pub generate_s: f64,
    pub instances_s: f64,
}

/// Seed of the reference pool that fixes the load levels a run replays.
const REFERENCE_SEED: u64 = 0x5EED_0F7E;

/// Draws candidate traces and builds their templates, keeping time.
struct Drawer {
    scenario: Scenario,
    generate_s: f64,
    instances_s: f64,
}

impl Drawer {
    fn new(workload: &Workload) -> Drawer {
        Drawer {
            scenario: workload.scenario(),
            generate_s: 0.0,
            instances_s: 0.0,
        }
    }

    /// Candidate `index` of `seed`.
    fn draw(&mut self, seed: u64, index: usize) -> Input {
        // lint: allow(wall-clock, benchmark timing; nothing it reads reaches the engine)
        let t0 = Instant::now();
        let trace = generate(&self.scenario, sub_seed(seed, index as u64));
        let t1 = Instant::now();
        let instances = trace.templates.iter().map(|spec| spec.build()).collect();
        self.generate_s += (t1 - t0).as_secs_f64();
        self.instances_s += t1.elapsed().as_secs_f64();
        Input { trace, instances }
    }

    /// The LP loads of the first `count` candidates of `seed`.
    fn loads(&mut self, seed: u64, count: usize) -> Vec<f64> {
        (0..count).map(|i| lp_load(&self.draw(seed, i))).collect()
    }
}

/// The load levels a run of `workload` replays its traces at: the stratum
/// medians, by [`lp_load`], of a reference pool drawn from a fixed seed.
/// They do not depend on the run's seed; see [`pick`].
pub fn load_levels(workload: &Workload) -> Vec<f64> {
    let mut drawer = Drawer::new(workload);
    let mut reference = drawer.loads(REFERENCE_SEED, workload.traces * workload.pool);
    reference.sort_by(f64::total_cmp);
    reference
        .into_iter()
        .skip(workload.pool / 2)
        .step_by(workload.pool)
        .collect()
}

/// Picks which of `seed`'s candidate traces a run replays.
///
/// The cost of a trace is heavy-tailed: a few large templates dominate it,
/// so a run of independently drawn traces would vary from seed to seed far
/// more than the program does. A run therefore replays its traces at the
/// fixed [`load_levels`]: for each level it takes the nearest of `pool`
/// candidates per trace drawn from its own seed. The load is a function of
/// the trace alone, never of a measurement, so every run covers the same
/// spread of cheap and expensive traces and the seed decides which traces
/// realise it. The candidate indices come back in level order, lightest
/// first; [`draw_inputs`] builds them.
pub fn pick(workload: &Workload, seed: u64, levels: &[f64]) -> Vec<usize> {
    let loads = Drawer::new(workload).loads(seed, workload.traces * workload.pool);
    let mut taken = vec![false; loads.len()];
    let mut picked = Vec::new();
    // Heaviest level first: the tail has the fewest candidates to spare.
    for level in levels.iter().rev() {
        let distance = |load: f64| (load.max(1.0) / level.max(1.0)).ln().abs();
        let nearest = (0..loads.len())
            .filter(|&i| !taken[i])
            .min_by(|&a, &b| distance(loads[a]).total_cmp(&distance(loads[b])))
            .expect("the pool holds a candidate per trace");
        taken[nearest] = true;
        picked.push(nearest);
    }
    // Lightest level first.
    picked.reverse();
    picked
}

/// Generates the `picked` candidate traces of `seed` and builds their
/// templates, keeping time: the set-up a run replays.
pub fn draw_inputs(workload: &Workload, seed: u64, picked: &[usize]) -> Inputs {
    let mut drawer = Drawer::new(workload);
    let inputs = picked.iter().map(|&i| drawer.draw(seed, i)).collect();
    Inputs {
        inputs,
        generate_s: drawer.generate_s,
        instances_s: drawer.instances_s,
    }
}

/// A trace's LP load: the cube of each template's LP size (variables
/// `(n + pairs) * m`, the dense simplex's cost driver), summed over the
/// events that lead to a full solve — every open, catalogue and λ change,
/// and one in 16 membership changes (the default re-solve budget).
pub fn lp_load(input: &Input) -> f64 {
    let weight: Vec<f64> = input
        .instances
        .iter()
        .map(|inst| {
            let vars = (inst.num_users() + inst.friend_pairs().len()) * inst.num_items();
            (vars as f64).powi(3)
        })
        .collect();
    let mut template_of = BTreeMap::new();
    let mut load = 0.0;
    for event in &input.trace.events {
        match event {
            TraceEvent::Open { key, template, .. } => {
                template_of.insert(*key, *template);
                load += weight[*template];
            }
            TraceEvent::Catalog { key, .. } | TraceEvent::Lambda { key, .. } => {
                load += weight[template_of[key]]
            }
            TraceEvent::Join { key, .. } | TraceEvent::Leave { key, .. } => {
                load += weight[template_of[key]] / 16.0
            }
            TraceEvent::Query { .. } | TraceEvent::Close { .. } | TraceEvent::Tick(_) => {}
        }
    }
    load
}

/// The engine configuration every workload serves with: the replay owns
/// the flush clock, so auto-flush is off.
pub fn engine_config(workers: usize, traced: bool) -> EngineConfig {
    EngineConfig {
        workers,
        auto_flush_pending: 0,
        obs: if traced {
            // Large enough that one trace's spans never wrap the ring.
            ObsConfig {
                enabled: true,
                ring_capacity: 1 << 20,
            }
        } else {
            ObsConfig::disabled()
        },
        ..EngineConfig::default()
    }
}

/// The in-process engine behind the transport trait. Requests go through
/// `Engine::handle_traced` so that, when tracing is on, every request has a
/// `Serve` span under its own id, as it does behind the server.
pub struct InProcess {
    engine: Engine,
    next_id: u64,
}

impl EngineTransport for InProcess {
    fn request(&mut self, request: EngineRequest) -> Result<EngineResponse, EngineError> {
        self.next_id += 1;
        self.engine.handle_traced(self.next_id, request)
    }
}

/// A started engine: in process, or a loopback server and its client.
pub enum Backend {
    InProcess(Box<InProcess>),
    Loopback {
        client: NetClient,
        server: NetServer,
    },
}

impl Backend {
    /// Starts the workload's engine. Returns the backend and the engine's
    /// tracer (shared with the client on a loopback backend, so client and
    /// server spans sit on one clock).
    pub fn start(workload: &Workload, traced: bool) -> std::io::Result<(Backend, Tracer)> {
        Backend::start_at(workload.placement, workload.workers, traced)
    }

    pub fn start_at(
        placement: Placement,
        workers: usize,
        traced: bool,
    ) -> std::io::Result<(Backend, Tracer)> {
        let engine = Engine::new(engine_config(workers, traced));
        let tracer = engine.tracer().clone();
        let backend = match placement {
            Placement::InProcess => Backend::InProcess(Box::new(InProcess { engine, next_id: 0 })),
            Placement::Loopback => {
                let server = NetServer::bind("127.0.0.1:0", engine)?;
                let client = NetClient::connect(server.local_addr())?.with_tracer(tracer.clone());
                Backend::Loopback { client, server }
            }
        };
        Ok((backend, tracer))
    }

    /// Stops the backend; a loopback server is shut down and joined.
    pub fn stop(self) -> Result<(), String> {
        match self {
            Backend::InProcess(_) => Ok(()),
            Backend::Loopback { client, server } => {
                client
                    .shutdown_server()
                    .map_err(|e| format!("server shutdown: {e}"))?;
                server.join();
                Ok(())
            }
        }
    }
}

impl EngineTransport for Backend {
    fn request(&mut self, request: EngineRequest) -> Result<EngineResponse, EngineError> {
        match self {
            Backend::InProcess(engine) => engine.request(request),
            Backend::Loopback { client, .. } => client.request(request),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..64).map(|i| sub_seed(7, i)).collect();
        let mut b = a.clone();
        b.sort_unstable();
        b.dedup();
        assert_eq!(b.len(), a.len());
        assert_eq!(a[3], sub_seed(7, 3));
        assert_ne!(sub_seed(7, 0), sub_seed(8, 0));
    }

    #[test]
    fn inputs_follow_the_seed() {
        let workload = by_name("churn-wire").expect("known workload");
        let levels = load_levels(workload);
        assert_eq!(levels.len(), workload.traces);
        let picked = pick(workload, 5, &levels);
        assert_eq!(picked, pick(workload, 5, &levels));
        let a = draw_inputs(workload, 5, &picked);
        let b = draw_inputs(workload, 5, &picked);
        assert_eq!(a.inputs.len(), workload.traces);
        assert!(a
            .inputs
            .iter()
            .zip(&b.inputs)
            .all(|(x, y)| x.trace == y.trace));
        let c = draw_inputs(workload, 6, &pick(workload, 6, &levels));
        assert_ne!(a.inputs[0].trace, c.inputs[0].trace);
    }
}

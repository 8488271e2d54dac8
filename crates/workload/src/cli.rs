//! The `loadgen` command-line surface, defined **once**.
//!
//! Earlier revisions hand-maintained the `--help` text next to a separate
//! `match` of accepted flags, and the two drifted (flags like `--vnodes` and
//! `--cold-lp` parsed fine but were missing from `--help`). This module
//! fixes that structurally: [`flags`] is the single table each flag lives
//! in — name, metavar, help text, an example value, and the `apply`
//! function that parses it into [`Args`] — and both the parser
//! ([`parse`]) and the help text ([`usage`]) are generated from it. A flag
//! cannot exist without help text, and the unit tests below assert the
//! generated help covers every flag and that every flag's example value
//! parses.
//!
//! Cross-flag rules (mutually exclusive modes, replay immutability,
//! server-side flags rejected in `--connect` mode) live in [`validate`], so
//! the binary's `main` is dispatch only.

use crate::driver::DriveMode;

/// Everything the `loadgen` command line can express.
#[derive(Clone, Debug)]
pub struct Args {
    /// `loadgen serve …`: run a `svgic-net` server process instead of
    /// driving load.
    pub serve: bool,
    /// `loadgen metrics --connect host:port[,…]`: scrape each serving
    /// node's metric series (a `QueryMetrics` wire exchange per node) and
    /// print one JSON object per node.
    pub metrics: bool,
    /// `loadgen watch --connect host:port[,…]`: poll every node's metrics
    /// into a redrawing terminal table (rps, p99 by phase, memory, health).
    pub watch: bool,
    /// `loadgen profile --connect host:port[,…]`: fetch each node's profile
    /// (a `QueryProfile` wire exchange per node) and print the phase
    /// breakdown, per-template solve ledger and collapsed-stack export.
    pub profile: bool,
    /// (serve mode) Enable the engine's flight recorder, so server-side
    /// spans (queue waits, wire waits, solve phases) feed `loadgen profile`.
    pub obs: bool,
    /// (watch mode) Print one table and exit instead of redrawing.
    pub once: bool,
    /// (watch mode) Poll interval in milliseconds.
    pub interval_ms: u64,
    /// Port to serve on (serve mode; `0` = ephemeral, printed on stdout).
    pub port: Option<u16>,
    /// Remote engines to drive (`--connect host:port[,host:port…]`).
    pub connect: Vec<String>,
    /// Named scenario to generate.
    pub scenario: Option<String>,
    /// Recorded trace to replay.
    pub replay: Option<String>,
    /// Scenario seed.
    pub seed: Option<u64>,
    /// Tick-count override.
    pub ticks: Option<usize>,
    /// Pacing mode.
    pub mode: DriveMode,
    /// Warmup ticks before measurement.
    pub warmup: usize,
    /// Engine workers, the calling thread included (`0` = one per core).
    pub workers: usize,
    /// In-process cluster nodes (`0` = bare engine).
    pub nodes: usize,
    /// Virtual nodes per cluster node on the hash ring.
    pub vnodes: usize,
    /// Warm standby replication in cluster runs.
    pub replicate: bool,
    /// Chaos plan seed for cluster runs (`None` = no fault injection).
    pub chaos: Option<u64>,
    /// Trace record path override.
    pub record: Option<String>,
    /// Skip trace recording.
    pub no_record: bool,
    /// Also write the JSON report here.
    pub out: Option<String>,
    /// Dump a Chrome trace-event JSON file of the run's spans here.
    pub trace_out: Option<String>,
    /// Shrink the scenario to CI-smoke size.
    pub smoke: bool,
    /// Disable warm-started re-solves.
    pub cold_lp: bool,
    /// Suppress the human summary on stderr.
    pub quiet: bool,
    /// List scenarios and exit.
    pub list: bool,
    /// Print usage and exit.
    pub help: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            serve: false,
            metrics: false,
            watch: false,
            profile: false,
            obs: false,
            once: false,
            interval_ms: 1000,
            port: None,
            connect: Vec::new(),
            scenario: None,
            replay: None,
            seed: None,
            ticks: None,
            mode: DriveMode::OpenLoop,
            warmup: 0,
            workers: 0,
            nodes: 0,
            vnodes: 64,
            replicate: false,
            chaos: None,
            record: None,
            no_record: false,
            out: None,
            trace_out: None,
            smoke: false,
            cold_lp: false,
            quiet: false,
            list: false,
            help: false,
        }
    }
}

/// One command-line flag: its name, metavar, help text, a value that the
/// self-tests feed through the parser, and the parse action.
pub struct FlagSpec {
    /// The flag as typed, e.g. `--seed`.
    pub name: &'static str,
    /// Metavar shown in help for value-taking flags; `None` for booleans.
    pub value: Option<&'static str>,
    /// A representative value accepted by `apply` (tests parse it).
    pub example: &'static str,
    /// Help text, one entry per rendered line.
    pub help: &'static [&'static str],
    /// Whether the flag only makes sense when *generating* a scenario
    /// (rejected in `--replay` mode: a recording is immutable provenance).
    pub generation_only: bool,
    /// Whether the flag configures the *serving engine* (rejected in
    /// `--connect` mode, where the remote server owns its engine).
    pub engine_side: bool,
    apply: fn(&mut Args, Option<String>) -> Result<(), String>,
}

fn parse_number<T: std::str::FromStr>(value: Option<String>, what: &str) -> Result<T, String> {
    value
        .expect("value-taking flag")
        .parse::<T>()
        .map_err(|_| format!("{what} wants a number"))
}

/// The flag table — the single source of truth for [`parse`] and
/// [`usage`].
pub fn flags() -> &'static [FlagSpec] {
    &[
        FlagSpec {
            name: "--scenario",
            value: Some("<name>"),
            example: "steady-mall",
            help: &["named scenario to generate and drive"],
            generation_only: false,
            engine_side: false,
            apply: |args, value| {
                args.scenario = value;
                Ok(())
            },
        },
        FlagSpec {
            name: "--replay",
            value: Some("<path>"),
            example: "target/loadgen/steady-mall-seed1.trace",
            help: &["replay a recorded trace instead of generating"],
            generation_only: false,
            engine_side: false,
            apply: |args, value| {
                args.replay = value;
                Ok(())
            },
        },
        FlagSpec {
            name: "--seed",
            value: Some("<N>"),
            example: "7",
            help: &["scenario seed (default 1)"],
            generation_only: true,
            engine_side: false,
            apply: |args, value| {
                args.seed = Some(parse_number(value, "--seed")?);
                Ok(())
            },
        },
        FlagSpec {
            name: "--ticks",
            value: Some("<N>"),
            example: "12",
            help: &["override the scenario's tick count"],
            generation_only: true,
            engine_side: false,
            apply: |args, value| {
                args.ticks = Some(parse_number(value, "--ticks")?);
                Ok(())
            },
        },
        FlagSpec {
            name: "--mode",
            value: Some("<open|closed>"),
            example: "closed",
            help: &["open-loop (batched, default) or closed-loop pacing"],
            generation_only: false,
            engine_side: false,
            apply: |args, value| {
                args.mode = match value.expect("value-taking flag").as_str() {
                    "open" | "open-loop" => DriveMode::OpenLoop,
                    "closed" | "closed-loop" => DriveMode::ClosedLoop,
                    other => return Err(format!("unknown mode `{other}`")),
                };
                Ok(())
            },
        },
        FlagSpec {
            name: "--warmup",
            value: Some("<N>"),
            example: "2",
            help: &[
                "drive N ticks before measuring (caches stay warm,",
                "counters reset at the boundary; digest unaffected)",
            ],
            generation_only: false,
            engine_side: false,
            apply: |args, value| {
                args.warmup = parse_number(value, "--warmup")?;
                Ok(())
            },
        },
        FlagSpec {
            name: "--workers",
            value: Some("<N>"),
            example: "2",
            help: &[
                "engine workers, the calling thread included: spawns",
                "N-1 threads (default: one worker per core)",
            ],
            generation_only: false,
            engine_side: true,
            apply: |args, value| {
                args.workers = parse_number(value, "--workers")?;
                Ok(())
            },
        },
        FlagSpec {
            name: "--nodes",
            value: Some("<N>"),
            example: "4",
            help: &[
                "drive an N-node in-process cluster instead of a bare",
                "engine (emits a svgic-cluster-report/v1). The node-churn",
                "scenario schedules a node kill + join + rebalances; any",
                "other multi-node run gets one guaranteed mid-run live",
                "migration. Served configurations (the digest) are",
                "identical at any node count.",
            ],
            generation_only: false,
            engine_side: false,
            apply: |args, value| {
                let n: usize = parse_number(value, "--nodes")?;
                if n < 1 {
                    return Err("--nodes wants a positive integer".into());
                }
                args.nodes = n;
                Ok(())
            },
        },
        FlagSpec {
            name: "--vnodes",
            value: Some("<N>"),
            example: "64",
            help: &["virtual nodes per cluster node on the hash ring (default 64)"],
            generation_only: false,
            engine_side: false,
            apply: |args, value| {
                let n: usize = parse_number(value, "--vnodes")?;
                if n < 1 {
                    return Err("--vnodes wants a positive integer".into());
                }
                args.vnodes = n;
                Ok(())
            },
        },
        FlagSpec {
            name: "--replicate",
            value: None,
            example: "",
            help: &[
                "(cluster runs) ship warm standby replicas to each",
                "session's ring successor at every tick flush, so node",
                "kills fail over warm (solve generation and LP factors",
                "preserved) instead of rebuilding cold. Digest-neutral.",
            ],
            generation_only: false,
            engine_side: false,
            apply: |args, _| {
                args.replicate = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--chaos",
            value: Some("<seed>"),
            example: "42",
            help: &[
                "(cluster runs) inject a seeded fault plan at the",
                "transport seam: transient router↔node partitions",
                "(absorbed + retried, never lost), slow-node delays, and",
                "kill-during-flush. The same seed replays the identical",
                "schedule — and the config digest is unchanged by design.",
            ],
            generation_only: false,
            engine_side: false,
            apply: |args, value| {
                args.chaos = Some(parse_number(value, "--chaos")?);
                Ok(())
            },
        },
        FlagSpec {
            name: "--connect",
            value: Some("<host:port[,host:port…]>"),
            example: "127.0.0.1:7741,127.0.0.1:7742",
            help: &[
                "drive remote `loadgen serve` processes over TCP instead",
                "of an in-process engine. One address: a single remote",
                "engine (svgic-loadgen-report/v1). Several addresses: a",
                "multi-process cluster with live migration over the wire",
                "(svgic-cluster-report/v1). Digests match in-process runs.",
            ],
            generation_only: false,
            engine_side: false,
            apply: |args, value| {
                let list = value.expect("value-taking flag");
                args.connect = list
                    .split(',')
                    .map(|addr| addr.trim().to_string())
                    .filter(|addr| !addr.is_empty())
                    .collect();
                if args.connect.is_empty() {
                    return Err("--connect wants host:port[,host:port…]".into());
                }
                Ok(())
            },
        },
        FlagSpec {
            name: "--port",
            value: Some("<N>"),
            example: "0",
            help: &[
                "(serve mode) TCP port to listen on, bound on 127.0.0.1;",
                "0 picks an ephemeral port. The bound address is printed",
                "on stdout.",
            ],
            generation_only: false,
            engine_side: false,
            apply: |args, value| {
                args.port = Some(parse_number(value, "--port")?);
                Ok(())
            },
        },
        FlagSpec {
            name: "--smoke",
            value: None,
            example: "",
            help: &["shrink the scenario to CI-smoke size"],
            generation_only: true,
            engine_side: false,
            apply: |args, _| {
                args.smoke = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--cold-lp",
            value: None,
            example: "",
            help: &[
                "disable warm-started re-solves (the cold baseline: every",
                "re-solve recomputes its LP; served configs are identical",
                "either way)",
            ],
            generation_only: false,
            engine_side: true,
            apply: |args, _| {
                args.cold_lp = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--obs",
            value: None,
            example: "",
            help: &[
                "(serve mode) enable the engine's flight recorder so",
                "server-side spans — queue waits, wire waits, solve",
                "phases — feed `loadgen profile` waterfalls and collapsed",
                "stacks (digests are unaffected)",
            ],
            generation_only: false,
            engine_side: true,
            apply: |args, _| {
                args.obs = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--record",
            value: Some("<path>"),
            example: "target/loadgen/example.trace",
            help: &[
                "where to write the generated trace",
                "(default target/loadgen/<scenario>-seed<seed>.trace)",
            ],
            generation_only: true,
            engine_side: false,
            apply: |args, value| {
                args.record = value;
                Ok(())
            },
        },
        FlagSpec {
            name: "--no-record",
            value: None,
            example: "",
            help: &["skip recording the trace"],
            generation_only: true,
            engine_side: false,
            apply: |args, _| {
                args.no_record = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--out",
            value: Some("<path>"),
            example: "target/report.json",
            help: &["also write the JSON report to this file"],
            generation_only: false,
            engine_side: false,
            apply: |args, value| {
                args.out = value;
                Ok(())
            },
        },
        FlagSpec {
            name: "--trace-out",
            value: Some("<path>"),
            example: "target/trace.json",
            help: &[
                "record per-request phase spans and write them as Chrome",
                "trace-event JSON (open in Perfetto). Single-engine runs",
                "only: bare in-process, or one --connect address (then the",
                "trace holds the client-side wire/round-trip spans).",
            ],
            generation_only: false,
            engine_side: false,
            apply: |args, value| {
                args.trace_out = value;
                Ok(())
            },
        },
        FlagSpec {
            name: "--once",
            value: None,
            example: "",
            help: &["(watch mode) print one table and exit instead of redrawing"],
            generation_only: false,
            engine_side: false,
            apply: |args, _| {
                args.once = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--interval-ms",
            value: Some("<N>"),
            example: "500",
            help: &["(watch mode) poll interval in milliseconds (default 1000)"],
            generation_only: false,
            engine_side: false,
            apply: |args, value| {
                let ms: u64 = parse_number(value, "--interval-ms")?;
                if ms < 1 {
                    return Err("--interval-ms wants a positive integer".into());
                }
                args.interval_ms = ms;
                Ok(())
            },
        },
        FlagSpec {
            name: "--quiet",
            value: None,
            example: "",
            help: &["suppress the human-readable summary on stderr"],
            generation_only: false,
            engine_side: false,
            apply: |args, _| {
                args.quiet = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--list-scenarios",
            value: None,
            example: "",
            help: &["list the named scenarios and exit (alias: --list)"],
            generation_only: false,
            engine_side: false,
            apply: |args, _| {
                args.list = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--list",
            value: None,
            example: "",
            help: &["alias of --list-scenarios"],
            generation_only: false,
            engine_side: false,
            apply: |args, _| {
                args.list = true;
                Ok(())
            },
        },
        FlagSpec {
            name: "--help",
            value: None,
            example: "",
            help: &["print this help (alias: -h)"],
            generation_only: false,
            engine_side: false,
            apply: |args, _| {
                args.help = true;
                Ok(())
            },
        },
    ]
}

/// Renders the help text from the flag table.
pub fn usage() -> String {
    let mut out = String::from(
        "loadgen — scenario-driven load testing for the svgic serving engine\n\
         \n\
         USAGE:\n\
         \x20   loadgen --scenario <name> [--seed N] [--ticks N] [options]\n\
         \x20   loadgen --replay <trace-file> [options]\n\
         \x20   loadgen --scenario <name> --connect host:port[,host:port…]\n\
         \x20   loadgen serve --port <N> [--workers N] [--cold-lp]\n\
         \x20   loadgen metrics --connect host:port[,host:port…]\n\
         \x20   loadgen watch --connect host:port[,host:port…] [--once]\n\
         \x20   loadgen profile --connect host:port[,host:port…]\n\
         \x20   loadgen --list-scenarios\n\
         \n\
         MODES:\n\
         \x20   serve               run a svgic-net wire-protocol server fronting one\n\
         \x20                       engine (blocks until a client sends shutdown)\n\
         \x20   metrics             scrape each serving node's metric series over the\n\
         \x20                       wire (QueryMetrics) and print one JSON object per\n\
         \x20                       node, in address order\n\
         \x20   watch               poll every node's metrics into a redrawing fleet\n\
         \x20                       table: rps, p99 by phase, accounted memory, and\n\
         \x20                       SLO health per node (--once prints one table)\n\
         \x20   profile             fetch every node's profile over the wire\n\
         \x20                       (QueryProfile): phase breakdown, per-template\n\
         \x20                       solve ledger with miss causes, and a collapsed-\n\
         \x20                       stack (flamegraph) export. Serve with --obs for\n\
         \x20                       span-based waterfalls.\n\
         \n\
         OPTIONS:\n",
    );
    for flag in flags() {
        if flag.name == "--list" {
            continue; // documented as an alias on --list-scenarios
        }
        let header = match flag.value {
            Some(metavar) => format!("{} {}", flag.name, metavar),
            None => flag.name.to_string(),
        };
        let mut lines = flag.help.iter();
        let first = lines.next().expect("every flag has help text");
        if header.len() <= 19 {
            out.push_str(&format!("    {header:<19} {first}\n"));
        } else {
            out.push_str(&format!("    {header}\n    {:<19} {first}\n", ""));
        }
        for line in lines {
            out.push_str(&format!("    {:<19} {line}\n", ""));
        }
    }
    out.push_str(
        "\nGeneration-only flags (--seed, --ticks, --smoke, --record, --no-record) are\n\
         rejected in --replay mode: a recorded trace is immutable provenance.\n\
         Engine-side flags (--workers, --cold-lp, --obs) are rejected in --connect mode:\n\
         the remote `loadgen serve` process owns its engine configuration.\n",
    );
    out
}

/// Parses a command line (without the program name) against the flag table.
/// The leading positional `serve` selects server mode.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.into_iter().peekable();
    match it.peek().map(String::as_str) {
        Some("serve") => {
            parsed.serve = true;
            it.next();
        }
        Some("metrics") => {
            parsed.metrics = true;
            it.next();
        }
        Some("watch") => {
            parsed.watch = true;
            it.next();
        }
        Some("profile") => {
            parsed.profile = true;
            it.next();
        }
        _ => {}
    }
    while let Some(token) = it.next() {
        let name = if token == "-h" {
            "--help"
        } else {
            token.as_str()
        };
        let Some(flag) = flags().iter().find(|flag| flag.name == name) else {
            return Err(format!("unknown flag `{token}` (see --help)"));
        };
        let value = if flag.value.is_some() {
            Some(
                it.next()
                    .ok_or_else(|| format!("{name} needs a {} argument", flag.value.unwrap()))?,
            )
        } else {
            None
        };
        (flag.apply)(&mut parsed, value)?;
    }
    Ok(parsed)
}

/// Enforces the cross-flag rules the table cannot express. Returns `Ok` for
/// `--help`/`--list` invocations regardless of other flags.
pub fn validate(args: &Args) -> Result<(), String> {
    if args.help || args.list {
        return Ok(());
    }
    if args.metrics || args.watch || args.profile {
        let mode = if args.metrics {
            "metrics"
        } else if args.watch {
            "watch"
        } else {
            "profile"
        };
        if args.connect.is_empty() {
            return Err(format!(
                "{mode} mode needs --connect <host:port[,host:port…]>"
            ));
        }
        for (set, what) in [
            (args.serve, "serve"),
            (args.scenario.is_some(), "--scenario"),
            (args.replay.is_some(), "--replay"),
            (args.nodes > 0, "--nodes"),
            (args.port.is_some(), "--port"),
            (args.trace_out.is_some(), "--trace-out"),
            (!args.watch && args.once, "--once"),
            (args.obs, "--obs"),
        ] {
            if set {
                return Err(format!("{what} does not apply in {mode} mode"));
            }
        }
        return Ok(());
    }
    if args.once {
        return Err("--once only applies in watch mode (loadgen watch --connect …)".into());
    }
    if args.serve {
        if args.port.is_none() {
            return Err("serve mode needs --port <N>".into());
        }
        for (set, what) in [
            (args.scenario.is_some(), "--scenario"),
            (args.replay.is_some(), "--replay"),
            (!args.connect.is_empty(), "--connect"),
            (args.nodes > 0, "--nodes"),
            (args.out.is_some(), "--out"),
            (args.trace_out.is_some(), "--trace-out"),
        ] {
            if set {
                return Err(format!("{what} does not apply in serve mode"));
            }
        }
        return Ok(());
    }
    if args.port.is_some() {
        return Err("--port only applies in serve mode (loadgen serve --port N)".into());
    }
    match (&args.scenario, &args.replay) {
        (Some(_), Some(_)) => return Err("--scenario and --replay are mutually exclusive".into()),
        (None, None) => return Err("need --scenario or --replay (see --help)".into()),
        (None, Some(_)) => {
            // A recorded trace is immutable provenance; silently ignoring
            // generation flags would mislabel the results.
            let set = |flag: &FlagSpec| match flag.name {
                "--seed" => args.seed.is_some(),
                "--ticks" => args.ticks.is_some(),
                "--smoke" => args.smoke,
                "--record" => args.record.is_some(),
                "--no-record" => args.no_record,
                _ => false,
            };
            if let Some(flag) = flags().iter().find(|f| f.generation_only && set(f)) {
                return Err(format!(
                    "{} only applies when generating a scenario; it cannot alter a replayed trace",
                    flag.name
                ));
            }
        }
        (Some(_), None) => {}
    }
    if !args.connect.is_empty() {
        if args.nodes > 0 {
            return Err(
                "--nodes and --connect are mutually exclusive (the address list sets the node count)"
                    .into(),
            );
        }
        let set = |flag: &FlagSpec| match flag.name {
            "--workers" => args.workers > 0,
            "--cold-lp" => args.cold_lp,
            "--obs" => args.obs,
            _ => false,
        };
        if let Some(flag) = flags().iter().find(|f| f.engine_side && set(f)) {
            return Err(format!(
                "{} configures the serving engine; pass it to `loadgen serve` instead of --connect",
                flag.name
            ));
        }
    }
    if args.replicate || args.chaos.is_some() {
        // Replication and chaos are cluster-fabric features: they need the
        // cluster driver (in-process --nodes or a multi-address --connect
        // fleet; a single bare engine has no ring, no standbys, no
        // transport seam worth attacking).
        if args.nodes == 0 && args.connect.len() < 2 {
            let flag = if args.replicate {
                "--replicate"
            } else {
                "--chaos"
            };
            return Err(format!(
                "{flag} applies to cluster runs only (--nodes N or --connect with several addresses)"
            ));
        }
    }
    if args.trace_out.is_some() {
        // A trace is one process's flight recorder; cluster runs would
        // interleave per-node recorders with unrelated epochs. Single-engine
        // runs only: bare in-process, or one remote connection (client-side
        // spans).
        if args.nodes > 0 {
            return Err("--trace-out only applies to single-engine runs, not --nodes".into());
        }
        if args.connect.len() > 1 {
            return Err(
                "--trace-out only applies to single-engine runs; connect to one address".into(),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(tokens: &[&str]) -> Args {
        parse(tokens.iter().map(|t| t.to_string())).expect("parses")
    }

    /// The drift that motivated this module: every flag the parser accepts
    /// must appear in the generated help, automatically, forever.
    #[test]
    fn usage_mentions_every_parsed_flag() {
        let usage = usage();
        for flag in flags() {
            assert!(
                usage.contains(flag.name),
                "--help is missing {} — the table should make this impossible",
                flag.name
            );
        }
        // The specific casualties of the old hand-maintained help.
        for needle in ["--vnodes", "--cold-lp", "--connect", "serve", "--port"] {
            assert!(usage.contains(needle), "usage lost `{needle}`");
        }
    }

    /// Every flag's example value must round-trip through the parser — a
    /// table entry whose `apply` rejects its own example is a bug.
    #[test]
    fn every_flag_example_parses() {
        for flag in flags() {
            let tokens: Vec<String> = match flag.value {
                Some(_) => vec![flag.name.to_string(), flag.example.to_string()],
                None => vec![flag.name.to_string()],
            };
            parse(tokens).unwrap_or_else(|e| panic!("{} rejected its example: {e}", flag.name));
        }
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse(vec!["--frobnicate".to_string()]).is_err());
        assert!(parse(vec!["--seed".to_string()]).is_err(), "missing value");
        assert!(parse(vec!["--seed".to_string(), "x".to_string()]).is_err());
    }

    #[test]
    fn serve_positional_and_port_parse() {
        let args = parse_ok(&["serve", "--port", "7741", "--workers", "2"]);
        assert!(args.serve);
        assert_eq!(args.port, Some(7741));
        assert_eq!(args.workers, 2);
        assert!(validate(&args).is_ok());
        // serve requires --port…
        assert!(validate(&parse_ok(&["serve"])).is_err());
        // …and --port requires serve.
        assert!(validate(&parse_ok(&["--scenario", "steady-mall", "--port", "1"])).is_err());
    }

    #[test]
    fn connect_splits_addresses_and_guards_engine_flags() {
        let args = parse_ok(&[
            "--scenario",
            "steady-mall",
            "--connect",
            "127.0.0.1:7741, 127.0.0.1:7742",
        ]);
        assert_eq!(args.connect, vec!["127.0.0.1:7741", "127.0.0.1:7742"]);
        assert!(validate(&args).is_ok());
        assert!(validate(&parse_ok(&[
            "--scenario",
            "steady-mall",
            "--connect",
            "a:1",
            "--nodes",
            "2"
        ]))
        .is_err());
        assert!(validate(&parse_ok(&[
            "--scenario",
            "steady-mall",
            "--connect",
            "a:1",
            "--workers",
            "4"
        ]))
        .is_err());
        // node-churn over a remote fleet is supported: kills wipe the
        // server (Crash over the wire) and joins reuse the crashed husk.
        assert!(validate(&parse_ok(&[
            "--scenario",
            "node-churn",
            "--connect",
            "a:1,b:2"
        ]))
        .is_ok());
        // Single-address node-churn is fine (no fabric plan fires).
        assert!(validate(&parse_ok(&["--scenario", "node-churn", "--connect", "a:1"])).is_ok());
    }

    #[test]
    fn replicate_and_chaos_require_a_cluster() {
        let ok = parse_ok(&["--scenario", "steady-mall", "--nodes", "3", "--replicate"]);
        assert!(ok.replicate);
        assert!(validate(&ok).is_ok());
        let chaos = parse_ok(&[
            "--scenario",
            "steady-mall",
            "--connect",
            "a:1,b:2",
            "--chaos",
            "7",
        ]);
        assert_eq!(chaos.chaos, Some(7));
        assert!(validate(&chaos).is_ok());
        // A bare engine has no fabric to replicate or attack.
        assert!(validate(&parse_ok(&["--scenario", "steady-mall", "--replicate"])).is_err());
        assert!(validate(&parse_ok(&["--scenario", "steady-mall", "--chaos", "7"])).is_err());
        assert!(
            validate(&parse_ok(&[
                "--scenario",
                "steady-mall",
                "--connect",
                "a:1",
                "--chaos",
                "7"
            ]))
            .is_err(),
            "one remote engine is not a cluster"
        );
    }

    #[test]
    fn replay_rejects_generation_flags_from_the_table() {
        for tokens in [
            vec!["--replay", "t.trace", "--seed", "3"],
            vec!["--replay", "t.trace", "--ticks", "5"],
            vec!["--replay", "t.trace", "--smoke"],
            vec!["--replay", "t.trace", "--record", "x"],
            vec!["--replay", "t.trace", "--no-record"],
        ] {
            let args = parse_ok(&tokens);
            assert!(
                validate(&args).is_err(),
                "replay must reject {:?}",
                tokens[2]
            );
        }
        assert!(validate(&parse_ok(&["--replay", "t.trace", "--nodes", "2"])).is_ok());
    }

    #[test]
    fn metrics_mode_takes_one_or_many_connections() {
        let args = parse_ok(&["metrics", "--connect", "127.0.0.1:7741"]);
        assert!(args.metrics);
        assert!(validate(&args).is_ok());
        assert!(validate(&parse_ok(&["metrics"])).is_err());
        // A comma-separated node list scrapes the whole fleet.
        let fleet = parse_ok(&["metrics", "--connect", "a:1,b:2"]);
        assert_eq!(fleet.connect.len(), 2);
        assert!(validate(&fleet).is_ok());
        assert!(validate(&parse_ok(&[
            "metrics",
            "--connect",
            "a:1",
            "--scenario",
            "steady-mall"
        ]))
        .is_err());
        assert!(
            validate(&parse_ok(&["metrics", "--connect", "a:1", "--once"])).is_err(),
            "--once is watch-only"
        );
    }

    #[test]
    fn watch_mode_polls_connections() {
        let args = parse_ok(&[
            "watch",
            "--connect",
            "127.0.0.1:7741,127.0.0.1:7742",
            "--once",
            "--interval-ms",
            "250",
        ]);
        assert!(args.watch);
        assert!(args.once);
        assert_eq!(args.interval_ms, 250);
        assert_eq!(args.connect.len(), 2);
        assert!(validate(&args).is_ok());
        assert!(validate(&parse_ok(&["watch"])).is_err(), "needs --connect");
        assert!(validate(&parse_ok(&["watch", "--connect", "a:1", "--nodes", "2"])).is_err());
        assert!(validate(&parse_ok(&[
            "watch",
            "--connect",
            "a:1",
            "--scenario",
            "steady-mall"
        ]))
        .is_err());
        // --once outside watch mode is rejected, not silently ignored.
        assert!(validate(&parse_ok(&["--scenario", "steady-mall", "--once"])).is_err());
        // A zero interval is a parse error.
        assert!(parse(
            ["watch", "--connect", "a:1", "--interval-ms", "0"]
                .iter()
                .map(|t| t.to_string())
        )
        .is_err());
    }

    #[test]
    fn profile_mode_takes_connections_and_rejects_engine_flags() {
        let args = parse_ok(&["profile", "--connect", "127.0.0.1:7741,127.0.0.1:7742"]);
        assert!(args.profile);
        assert_eq!(args.connect.len(), 2);
        assert!(validate(&args).is_ok());
        assert!(
            validate(&parse_ok(&["profile"])).is_err(),
            "needs --connect"
        );
        for extra in [
            ["--scenario", "steady-mall"].as_slice(),
            ["--nodes", "2"].as_slice(),
            ["--port", "1"].as_slice(),
            ["--trace-out", "t.json"].as_slice(),
            ["--once"].as_slice(),
            ["--obs"].as_slice(),
        ] {
            let mut tokens = vec!["profile", "--connect", "a:1"];
            tokens.extend_from_slice(extra);
            assert!(
                validate(&parse_ok(&tokens)).is_err(),
                "profile must reject {extra:?}"
            );
        }
    }

    #[test]
    fn obs_is_an_engine_side_serve_flag() {
        let args = parse_ok(&["serve", "--port", "0", "--obs"]);
        assert!(args.obs);
        assert!(validate(&args).is_ok());
        // In-process driving runs may enable the recorder too…
        assert!(validate(&parse_ok(&["--scenario", "steady-mall", "--obs"])).is_ok());
        // …but a --connect driver cannot configure the remote engine.
        assert!(validate(&parse_ok(&[
            "--scenario",
            "steady-mall",
            "--connect",
            "a:1",
            "--obs"
        ]))
        .is_err());
    }

    #[test]
    fn trace_out_is_single_engine_only() {
        assert!(validate(&parse_ok(&[
            "--scenario",
            "steady-mall",
            "--trace-out",
            "t.json"
        ]))
        .is_ok());
        assert!(validate(&parse_ok(&[
            "--scenario",
            "steady-mall",
            "--connect",
            "a:1",
            "--trace-out",
            "t.json"
        ]))
        .is_ok());
        assert!(validate(&parse_ok(&[
            "--scenario",
            "steady-mall",
            "--nodes",
            "2",
            "--trace-out",
            "t.json"
        ]))
        .is_err());
        assert!(validate(&parse_ok(&[
            "--scenario",
            "steady-mall",
            "--connect",
            "a:1,b:2",
            "--trace-out",
            "t.json"
        ]))
        .is_err());
        assert!(validate(&parse_ok(&[
            "serve",
            "--port",
            "0",
            "--trace-out",
            "t.json"
        ]))
        .is_err());
    }

    #[test]
    fn scenario_and_replay_are_exclusive_and_one_is_required() {
        assert!(validate(&parse_ok(&["--scenario", "a", "--replay", "b"])).is_err());
        assert!(validate(&parse_ok(&[])).is_err());
        assert!(validate(&parse_ok(&["--list"])).is_ok());
        assert!(validate(&parse_ok(&["-h"])).is_ok());
    }
}

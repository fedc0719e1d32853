//! # fairsched-cli
//!
//! The command-line face of the workspace. Eleven subcommands:
//!
//! ```text
//! fairsched generate --seed 42 --scale 0.1 --nodes 1024 --out trace.swf
//! fairsched simulate --trace trace.swf --policy cplant24.nomax.all [--trace-out d.jsonl]
//! fairsched compare  --trace trace.swf [--policy A --policy B …]
//! fairsched audit    --trace trace.swf --policy cons.72max
//! fairsched profile  --trace trace.swf --policy cons.nomax
//! fairsched explain  --trace trace.swf --policy cons.nomax [--job 17]
//! fairsched sweep    --journal s.jsonl --seeds 1,2,3 [--grid A,B] [--resume]
//! fairsched serve    [--port N] [--policy ID] [--speedup X | --manual] [...fairschedd flags]
//! fairsched submit   --addr HOST:PORT --id N --user N --submit T --nodes N --runtime T
//! fairsched status   --addr HOST:PORT
//! fairsched watch    --addr HOST:PORT [--interval-ms N] [--count N]
//! ```
//!
//! All logic lives in this library (parsing, dispatch, rendering) so it is
//! unit-testable; `main.rs` is a two-liner. Argument parsing is hand-rolled:
//! a few flags per command do not justify a dependency. Each subcommand
//! rejects flags it does not understand — `audit --mtbf 60` is a usage
//! error, not a silently fault-free run. Diagnostics (skipped SWF records)
//! go through the `fairsched_obs::log` facade, silenced by the global
//! `--quiet` flag (see [`strip_quiet`]) or `FAIRSCHED_QUIET=1`.

use fairsched_core::policy::PolicySpec;
use fairsched_core::runner::{try_run_policy, try_run_policy_traced, RunOptions};
use fairsched_core::sweep::try_run_policies;
use fairsched_core::{run_sweep, FaultPoint, SweepConfig, SweepPlan};
use fairsched_metrics::explain::{explain_wait, worst_miss};
use fairsched_metrics::fairness::peruser::{heavy_vs_light_miss, per_user};
use fairsched_obs::registry::{parse_exposition, quantile_from_buckets};
use fairsched_obs::{log, DecisionTracer};
use fairsched_served::daemon::{serve, ServeArgs};
use fairsched_served::{Client, SubmitRequest};
use fairsched_sim::{FaultConfig, ResiliencePolicy};
use fairsched_workload::job::JobId;
use fairsched_workload::swf::{read_swf_file, write_swf_file};
use fairsched_workload::synthetic::DEFAULT_NODES;
use fairsched_workload::time::format_duration;
use fairsched_workload::CplantModel;
use std::fmt::Write as _;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic trace and write it as SWF.
    Generate {
        /// Generator seed.
        seed: u64,
        /// Fraction of the Table-1 mix.
        scale: f64,
        /// Machine size.
        nodes: u32,
        /// Output path.
        out: String,
    },
    /// Simulate one policy over a trace and print its metrics.
    Simulate {
        /// SWF trace path.
        trace: String,
        /// Policy id (see `PolicySpec::by_id`).
        policy: String,
        /// Machine size.
        nodes: u32,
        /// Fault injection (disabled unless --mtbf/--crash-rate given).
        faults: FaultConfig,
        /// Write the run's decision trace as JSONL to this path.
        trace_out: Option<String>,
    },
    /// Run several policies (default: the paper's nine) side by side.
    Compare {
        /// SWF trace path.
        trace: String,
        /// Policy ids; empty = the paper's nine.
        policies: Vec<String>,
        /// Machine size.
        nodes: u32,
        /// Fault injection (disabled unless --mtbf/--crash-rate given).
        faults: FaultConfig,
    },
    /// Per-user fairness audit of one policy.
    Audit {
        /// SWF trace path.
        trace: String,
        /// Policy id.
        policy: String,
        /// Machine size.
        nodes: u32,
    },
    /// Profile one policy run: runtime counters and pass timings.
    Profile {
        /// SWF trace path.
        trace: String,
        /// Policy id.
        policy: String,
        /// Machine size.
        nodes: u32,
        /// Fault injection (disabled unless --mtbf/--crash-rate given).
        faults: FaultConfig,
    },
    /// Explain one job's wait from a traced run of the policy.
    Explain {
        /// SWF trace path.
        trace: String,
        /// Policy id.
        policy: String,
        /// Machine size.
        nodes: u32,
        /// Fault injection (disabled unless --mtbf/--crash-rate given).
        faults: FaultConfig,
        /// Job to explain; defaults to the worst fair-start miss.
        job: Option<u32>,
    },
    /// Crash-safe design-space sweep with a durable journal.
    Sweep {
        /// Journal path (created fresh, or appended to under `resume`).
        journal: String,
        /// Policy ids forming the grid's policy axis; empty = the paper's
        /// nine.
        policies: Vec<String>,
        /// Workload-generator seeds (one shared trace per seed).
        seeds: Vec<u64>,
        /// Workload scale factor.
        scale: f64,
        /// Machine size.
        nodes: u32,
        /// Per-cell wall-clock budget in seconds; `None` disables the
        /// watchdog.
        timeout_per_cell: Option<f64>,
        /// Extra attempts after a timeout.
        max_retries: u32,
        /// Replay the journal and skip completed cells.
        resume: bool,
        /// Worker threads (`None`: available parallelism).
        threads: Option<usize>,
        /// Fault point crossed with every (seed, policy) pair, besides the
        /// implicit clean point (disabled unless fault flags given).
        faults: FaultConfig,
    },
    /// Run `fairschedd`: the online scheduling daemon, in the foreground
    /// until `POST /v1/shutdown` (or `fairsched submit/status` clients
    /// drive it). Takes exactly `fairschedd`'s flags.
    Serve(ServeArgs),
    /// Submit one job to a running daemon.
    Submit {
        /// Daemon address, e.g. `127.0.0.1:7070`.
        addr: std::net::SocketAddr,
        /// The job to submit.
        request: SubmitRequest,
    },
    /// Query a running daemon's live status.
    Status {
        /// Daemon address.
        addr: std::net::SocketAddr,
    },
    /// Poll a running daemon's live fairness gauges and request
    /// latencies, rendering one frame per poll until the session seals.
    Watch {
        /// Daemon address.
        addr: std::net::SocketAddr,
        /// Milliseconds between polls.
        interval_ms: u64,
        /// Stop after this many frames (0 = watch until sealed).
        count: u64,
    },
    /// Print usage.
    Help,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// The usage text.
pub const USAGE: &str = "\
fairsched — parallel job scheduling fairness toolkit

USAGE:
  fairsched generate [--seed N] [--scale F] [--nodes N] --out FILE.swf
  fairsched simulate --trace FILE.swf --policy ID [--nodes N]
                     [--trace-out FILE.jsonl] [FAULTS]
  fairsched compare  --trace FILE.swf [--policy ID]... [--nodes N] [FAULTS]
  fairsched audit    --trace FILE.swf --policy ID [--nodes N]
  fairsched profile  --trace FILE.swf --policy ID [--nodes N] [FAULTS]
  fairsched explain  --trace FILE.swf --policy ID [--job N] [--nodes N] [FAULTS]
  fairsched sweep    --journal FILE.jsonl [--grid ID,ID,...] [--seeds N,N,...]
                     [--scale F] [--nodes N] [--timeout-per-cell SECONDS]
                     [--max-retries N] [--threads N] [--resume] [FAULTS]
  fairsched serve    [--port N] [--port-file FILE] [--policy ID] [--nodes N]
                     [--speedup X | --manual] [--no-trace] [--id-floor N]
                     [--workers N] [--max-connections N]
                     [--journal-dir DIR] [--recover]
  fairsched submit   --addr HOST:PORT --id N --user N --submit T --nodes N
                     --runtime T [--estimate T] [--group N]
  fairsched status   --addr HOST:PORT
  fairsched watch    --addr HOST:PORT [--interval-ms N] [--count N]
  fairsched help

SERVE (the fairschedd online scheduling daemon):
  Accepts job submissions over HTTP on 127.0.0.1 and schedules them with
  the same deterministic core as batch simulation. --speedup X maps one
  wall second to X simulated seconds (default 1.0); --manual advances
  only on POST /v1/advance. Stream decisions from GET /v1/trace (JSONL),
  explain a queued-then-started job live via GET /v1/explain/{id}, and
  finish the run with POST /v1/seal. Stop with POST /v1/shutdown.
  GET /metrics exposes Prometheus text; GET /v1/fairness a live JSON
  fairness snapshot. `fairsched watch` polls both and renders a frame
  every --interval-ms (default 1000), stopping after --count frames
  (default 0: watch until the session seals). The flags are fairschedd's:
  --workers N bounds requests in a handler at once (default 8),
  --max-connections N caps open connections (default 1024; over the cap
  answers 503), --journal-dir DIR journals every session and --recover
  replays those journals on start.

Fault flags apply to simulate, compare, profile, explain, and sweep;
other subcommands reject them. `--quiet` anywhere (or FAIRSCHED_QUIET=1)
silences diagnostics.

SWEEP (crash-safe design-space grids):
  Runs seeds × policies × fault points, journaling each cell as a
  checksummed JSONL row. A killed sweep resumes with --resume: completed
  cells are replayed from the journal, never re-simulated. With fault
  flags the grid crosses a clean point and the configured fault point.

FAULTS (deterministic fault injection; off by default):
  --mtbf SECONDS          per-node mean time between failures
  --crash-rate F          probability in [0, 1) that a submission crashes
  --resilience POLICY     requeue (rerun from scratch) or resume (keep work)
  --fault-seed N          seed for the fault timeline (default 0)

POLICY IDS:
  cplant24.nomax.all   cplant72.nomax.all   cplant24.nomax.fair
  cplant24.72max.all   cplant72.72max.fair  cons.nomax  cons.72max
  consdyn.nomax        consdyn.72max        easy.nomax  fcfs.nobackfill
  fsp.nomax    las.nomax    hfsp.nomax      (size-based family; also .72max)
  rdepth<n>.nomax rdepth<n>.72max          (conservative truncated to n
                                            reservations, e.g. rdepth4.nomax)
";

/// Removes every `--quiet` from `args`, enabling quiet logging when at
/// least one was present. The flag is global, so it is handled before
/// subcommand parsing; [`parse`] itself never sees it.
pub fn strip_quiet(args: &mut Vec<String>) {
    if args.iter().any(|a| a == "--quiet") {
        log::set_quiet(true);
        args.retain(|a| a != "--quiet");
    }
}

/// Parses argv (without the program name).
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let mut it = args.iter();
    let sub = it.next().map(String::as_str).unwrap_or("help");
    let rest: Vec<&String> = it.collect();

    // A flag that appears without a following value (e.g. `--mtbf` as the
    // last argument) is an error, not an absent flag — silently ignoring it
    // would run a different simulation than the user asked for.
    let flag = |name: &str| -> Result<Option<&str>, UsageError> {
        match rest.iter().position(|a| a.as_str() == name) {
            None => Ok(None),
            Some(i) => match rest.get(i + 1) {
                Some(v) => Ok(Some(v.as_str())),
                None => Err(UsageError(format!("{name} needs a value"))),
            },
        }
    };
    let flags_all = |name: &str| -> Result<Vec<String>, UsageError> {
        let mut out = Vec::new();
        for (i, a) in rest.iter().enumerate() {
            if a.as_str() == name {
                match rest.get(i + 1) {
                    Some(v) => out.push(v.to_string()),
                    None => return Err(UsageError(format!("{name} needs a value"))),
                }
            }
        }
        Ok(out)
    };
    let parse_u64 = |name: &str, default: u64| -> Result<u64, UsageError> {
        match flag(name)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| UsageError(format!("{name} needs an integer, got {v:?}"))),
        }
    };
    let parse_u32 = |name: &str, default: u32| -> Result<u32, UsageError> {
        match flag(name)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| UsageError(format!("{name} needs an integer, got {v:?}"))),
        }
    };
    let parse_f64 = |name: &str, default: f64| -> Result<f64, UsageError> {
        match flag(name)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| UsageError(format!("{name} needs a number, got {v:?}"))),
        }
    };
    let required = |name: &str| -> Result<String, UsageError> {
        flag(name)?
            .map(str::to_string)
            .ok_or_else(|| UsageError(format!("missing required {name}")))
    };
    // Every subcommand whitelists its flags: a flag aimed at a different
    // subcommand (e.g. `audit --mtbf 60`) is a usage error, never silently
    // ignored — ignoring it would run a different simulation than asked.
    // Boolean flags (e.g. `sweep --resume`) take no value, so the scanner
    // must not swallow the next token as one.
    let check_flags_with_bools = |allowed: &[&str], bools: &[&str]| -> Result<(), UsageError> {
        let mut i = 0;
        while i < rest.len() {
            let a = rest[i].as_str();
            if a.starts_with("--") {
                if bools.contains(&a) {
                    i += 1;
                } else if allowed.contains(&a) {
                    i += 2; // skip the flag's value
                } else {
                    return Err(UsageError(format!(
                        "{sub} does not take {a}; try `fairsched help`"
                    )));
                }
            } else {
                i += 1;
            }
        }
        Ok(())
    };
    let check_flags = |allowed: &[&str]| check_flags_with_bools(allowed, &[]);
    const FAULT_FLAGS: [&str; 4] = ["--mtbf", "--crash-rate", "--resilience", "--fault-seed"];
    fn with_faults(flags: &[&'static str]) -> Vec<&'static str> {
        flags.iter().chain(FAULT_FLAGS.iter()).copied().collect()
    }
    let parse_faults = || -> Result<FaultConfig, UsageError> {
        let node_mtbf = match flag("--mtbf")? {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| UsageError(format!("--mtbf needs an integer, got {v:?}")))?,
            ),
        };
        let resilience = match flag("--resilience")? {
            None | Some("requeue") => ResiliencePolicy::RequeueFromScratch,
            Some("resume") => ResiliencePolicy::ChunkResume,
            Some(other) => {
                return Err(UsageError(format!(
                    "--resilience must be `requeue` or `resume`, got {other:?}"
                )))
            }
        };
        let cfg = FaultConfig {
            node_mtbf,
            job_crash_rate: parse_f64("--crash-rate", 0.0)?,
            resilience,
            seed: parse_u64("--fault-seed", 0)?,
            ..FaultConfig::default()
        };
        cfg.validate().map_err(UsageError)?;
        Ok(cfg)
    };

    match sub {
        "generate" => {
            check_flags(&["--seed", "--scale", "--nodes", "--out"])?;
            Ok(Command::Generate {
                seed: parse_u64("--seed", 42)?,
                scale: {
                    let s = parse_f64("--scale", 1.0)?;
                    if !(s > 0.0 && s <= 1.0) {
                        return Err(UsageError(format!("--scale must be in (0, 1], got {s}")));
                    }
                    s
                },
                nodes: parse_u32("--nodes", DEFAULT_NODES)?,
                out: required("--out")?,
            })
        }
        "simulate" => {
            check_flags(&with_faults(&[
                "--trace",
                "--policy",
                "--nodes",
                "--trace-out",
            ]))?;
            Ok(Command::Simulate {
                trace: required("--trace")?,
                policy: required("--policy")?,
                nodes: parse_u32("--nodes", DEFAULT_NODES)?,
                faults: parse_faults()?,
                trace_out: flag("--trace-out")?.map(str::to_string),
            })
        }
        "compare" => {
            check_flags(&with_faults(&["--trace", "--policy", "--nodes"]))?;
            Ok(Command::Compare {
                trace: required("--trace")?,
                policies: flags_all("--policy")?,
                nodes: parse_u32("--nodes", DEFAULT_NODES)?,
                faults: parse_faults()?,
            })
        }
        "audit" => {
            check_flags(&["--trace", "--policy", "--nodes"])?;
            Ok(Command::Audit {
                trace: required("--trace")?,
                policy: required("--policy")?,
                nodes: parse_u32("--nodes", DEFAULT_NODES)?,
            })
        }
        "profile" => {
            check_flags(&with_faults(&["--trace", "--policy", "--nodes"]))?;
            Ok(Command::Profile {
                trace: required("--trace")?,
                policy: required("--policy")?,
                nodes: parse_u32("--nodes", DEFAULT_NODES)?,
                faults: parse_faults()?,
            })
        }
        "explain" => {
            check_flags(&with_faults(&["--trace", "--policy", "--nodes", "--job"]))?;
            Ok(Command::Explain {
                trace: required("--trace")?,
                policy: required("--policy")?,
                nodes: parse_u32("--nodes", DEFAULT_NODES)?,
                faults: parse_faults()?,
                job: match flag("--job")? {
                    None => None,
                    Some(v) => Some(v.parse().map_err(|_| {
                        UsageError(format!("--job needs an integer id, got {v:?}"))
                    })?),
                },
            })
        }
        "sweep" => {
            check_flags_with_bools(
                &with_faults(&[
                    "--journal",
                    "--grid",
                    "--seeds",
                    "--scale",
                    "--nodes",
                    "--timeout-per-cell",
                    "--max-retries",
                    "--threads",
                ]),
                &["--resume"],
            )?;
            let policies = match flag("--grid")? {
                None | Some("paper") => Vec::new(),
                Some(list) => list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect(),
            };
            let seeds = match flag("--seeds")? {
                None => vec![42],
                Some(list) => list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.parse().map_err(|_| {
                            UsageError(format!("--seeds needs comma-separated integers, got {s:?}"))
                        })
                    })
                    .collect::<Result<Vec<u64>, UsageError>>()?,
            };
            if seeds.is_empty() {
                return Err(UsageError("--seeds needs at least one seed".into()));
            }
            let timeout_per_cell = match flag("--timeout-per-cell")? {
                None => None,
                Some(v) => {
                    let secs: f64 = v.parse().map_err(|_| {
                        UsageError(format!("--timeout-per-cell needs seconds, got {v:?}"))
                    })?;
                    if !(secs > 0.0 && secs.is_finite()) {
                        return Err(UsageError(format!(
                            "--timeout-per-cell must be positive, got {secs}"
                        )));
                    }
                    Some(secs)
                }
            };
            let threads =
                match flag("--threads")? {
                    None => None,
                    Some(v) => Some(v.parse::<usize>().map_err(|_| {
                        UsageError(format!("--threads needs an integer, got {v:?}"))
                    })?),
                };
            Ok(Command::Sweep {
                journal: required("--journal")?,
                policies,
                seeds,
                scale: {
                    let s = parse_f64("--scale", 0.02)?;
                    if !(s > 0.0 && s <= 1.0) {
                        return Err(UsageError(format!("--scale must be in (0, 1], got {s}")));
                    }
                    s
                },
                nodes: parse_u32("--nodes", DEFAULT_NODES)?,
                timeout_per_cell,
                max_retries: parse_u64("--max-retries", 1)? as u32,
                resume: rest.iter().any(|a| a.as_str() == "--resume"),
                threads,
                faults: parse_faults()?,
            })
        }
        "serve" => ServeArgs::parse(&rest)
            .map(Command::Serve)
            .map_err(UsageError),
        "submit" => {
            check_flags(&[
                "--addr",
                "--id",
                "--user",
                "--group",
                "--submit",
                "--nodes",
                "--runtime",
                "--estimate",
            ])?;
            let runtime = parse_u64("--runtime", 0)?;
            if flag("--runtime")?.is_none() {
                return Err(UsageError("missing required --runtime".into()));
            }
            Ok(Command::Submit {
                addr: parse_addr(&required("--addr")?)?,
                request: SubmitRequest {
                    id: match flag("--id")? {
                        Some(v) => v
                            .parse()
                            .map_err(|_| UsageError(format!("--id needs an integer, got {v:?}")))?,
                        None => return Err(UsageError("missing required --id".into())),
                    },
                    user: parse_u32("--user", 1)?,
                    group: parse_u32("--group", 1)?,
                    submit: parse_u64("--submit", 0)?,
                    nodes: match flag("--nodes")? {
                        Some(v) => v.parse().map_err(|_| {
                            UsageError(format!("--nodes needs an integer, got {v:?}"))
                        })?,
                        None => return Err(UsageError("missing required --nodes".into())),
                    },
                    runtime,
                    estimate: parse_u64("--estimate", runtime)?,
                },
            })
        }
        "status" => {
            check_flags(&["--addr"])?;
            Ok(Command::Status {
                addr: parse_addr(&required("--addr")?)?,
            })
        }
        "watch" => {
            check_flags(&["--addr", "--interval-ms", "--count"])?;
            let interval_ms = parse_u64("--interval-ms", 1000)?;
            if interval_ms == 0 {
                return Err(UsageError("--interval-ms must be positive".into()));
            }
            Ok(Command::Watch {
                addr: parse_addr(&required("--addr")?)?,
                interval_ms,
                count: parse_u64("--count", 0)?,
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(UsageError(format!(
            "unknown subcommand {other:?}; try `fairsched help`"
        ))),
    }
}

/// Executes a command, returning the text to print.
pub fn execute(cmd: Command) -> Result<String, Box<dyn std::error::Error>> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Generate {
            seed,
            scale,
            nodes,
            out,
        } => {
            let trace = CplantModel::new(seed)
                .with_nodes(nodes)
                .with_scale(scale)
                .generate();
            write_swf_file(
                &out,
                &trace,
                nodes,
                &format!("fairsched generate --seed {seed} --scale {scale} --nodes {nodes}"),
            )?;
            Ok(format!("wrote {} jobs to {out}\n", trace.len()))
        }
        Command::Simulate {
            trace,
            policy,
            nodes,
            faults,
            trace_out,
        } => {
            let (jobs, mut out) = load_trace(&trace, nodes)?;
            let spec = lookup(&policy)?;
            let outcome = match &trace_out {
                None => {
                    // The panic fence turns simulator aborts (e.g. a
                    // diverging fault configuration) into a clean error
                    // line, not a backtrace.
                    try_run_policies(&jobs, std::slice::from_ref(&spec), nodes, &faults)
                        .pop()
                        .expect("one spec in, one result out")
                        .map_err(Box::new)?
                }
                Some(path) => {
                    let mut tracer = DecisionTracer::unbounded();
                    let opts = RunOptions::with_faults(faults.clone());
                    let run = try_run_policy_traced(&jobs, &spec, nodes, &opts, Some(&mut tracer))?;
                    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
                    tracer.write_jsonl(&mut file)?;
                    use std::io::Write as _;
                    file.flush()?;
                    writeln!(out, "wrote {} trace records to {path}", tracer.len())?;
                    run.outcome
                }
            };
            let m = outcome.metrics();
            writeln!(out, "policy:            {}", outcome.policy)?;
            writeln!(out, "jobs:              {}", jobs.len())?;
            writeln!(out, "utilization:       {:.1}%", 100.0 * m.utilization)?;
            writeln!(out, "loss of capacity:  {:.1}%", 100.0 * m.loss_of_capacity)?;
            writeln!(
                out,
                "avg turnaround:    {}",
                format_duration(m.average_turnaround as u64)
            )?;
            writeln!(out, "unfair jobs:       {:.2}%", 100.0 * m.percent_unfair)?;
            writeln!(
                out,
                "avg FST miss:      {}",
                format_duration(m.average_miss_time as u64)
            )?;
            if faults.enabled() {
                let split = outcome.resilience();
                writeln!(out, "goodput:           {:.1}%", 100.0 * split.goodput)?;
                writeln!(
                    out,
                    "interrupted:       {} of {} submissions",
                    split.interrupted_count(),
                    outcome.fairness.entries.len(),
                )?;
                writeln!(
                    out,
                    "down capacity:     {:.0} node-hours",
                    outcome.schedule.down_nodeseconds / 3600.0
                )?;
                writeln!(
                    out,
                    "miss (interrupted): {}   (clean): {}",
                    format_duration(split.interrupted.average_miss_time() as u64),
                    format_duration(split.clean.average_miss_time() as u64),
                )?;
            }
            Ok(out)
        }
        Command::Compare {
            trace,
            policies,
            nodes,
            faults,
        } => {
            let (jobs, mut out) = load_trace(&trace, nodes)?;
            let specs: Vec<PolicySpec> = if policies.is_empty() {
                PolicySpec::paper_policies()
            } else {
                policies
                    .iter()
                    .map(|id| lookup(id))
                    .collect::<Result<_, _>>()?
            };
            let results = try_run_policies(&jobs, &specs, nodes, &faults);
            writeln!(
                out,
                "{:<22} {:>9} {:>12} {:>14} {:>8}",
                "policy", "unfair%", "avg miss(s)", "turnaround(s)", "LOC%"
            )?;
            let mut failures = Vec::new();
            for result in &results {
                match result {
                    Ok(o) => {
                        let m = o.metrics();
                        writeln!(
                            out,
                            "{:<22} {:>8.2}% {:>12.0} {:>14.0} {:>7.2}%",
                            o.policy,
                            100.0 * m.percent_unfair,
                            m.average_miss_time,
                            m.average_turnaround,
                            100.0 * m.loss_of_capacity,
                        )?;
                    }
                    Err(e) => {
                        writeln!(out, "{:<22} FAILED", e.policy)?;
                        failures.push(e);
                    }
                }
            }
            for e in failures {
                writeln!(out, "warning: {e}")?;
            }
            Ok(out)
        }
        Command::Audit {
            trace,
            policy,
            nodes,
        } => {
            let (jobs, mut out) = load_trace(&trace, nodes)?;
            let spec = lookup(&policy)?;
            let outcome = try_run_policy(&jobs, &spec, nodes, &RunOptions::default())?.outcome;
            let users = per_user(&outcome.schedule, &outcome.fairness);
            writeln!(
                out,
                "per-user fairness under {} ({} users):",
                outcome.policy,
                users.len()
            )?;
            writeln!(
                out,
                "{:<8} {:>6} {:>14} {:>9} {:>13} {:>10}",
                "user", "jobs", "proc-hours", "unfair%", "mean miss(s)", "wait(s)"
            )?;
            for u in users.iter().take(15) {
                writeln!(
                    out,
                    "{:<8} {:>6} {:>14.0} {:>8.1}% {:>13.0} {:>10.0}",
                    u.user.to_string(),
                    u.jobs,
                    u.proc_seconds / 3600.0,
                    100.0 * u.percent_unfair(),
                    u.mean_miss(),
                    u.mean_wait,
                )?;
            }
            let (heavy, light) = heavy_vs_light_miss(&users, 0.1);
            writeln!(
                out,
                "top-10% users mean miss {heavy:.0}s; others {light:.0}s"
            )?;
            Ok(out)
        }
        Command::Profile {
            trace,
            policy,
            nodes,
            faults,
        } => {
            let (jobs, mut out) = load_trace(&trace, nodes)?;
            let spec = lookup(&policy)?;
            let opts = RunOptions {
                faults,
                profile: true,
                ..Default::default()
            };
            let run = try_run_policy(&jobs, &spec, nodes, &opts)?;
            let profile = run.profile.expect("requested in RunOptions");
            writeln!(
                out,
                "profile of {} over {} jobs on {nodes} nodes:",
                run.outcome.policy,
                jobs.len()
            )?;
            writeln!(out, "{profile}")?;
            Ok(out)
        }
        Command::Explain {
            trace,
            policy,
            nodes,
            faults,
            job,
        } => {
            let (jobs, mut out) = load_trace(&trace, nodes)?;
            let spec = lookup(&policy)?;
            let mut tracer = DecisionTracer::unbounded();
            let opts = RunOptions::with_faults(faults);
            let run = try_run_policy_traced(&jobs, &spec, nodes, &opts, Some(&mut tracer))?;
            let records = tracer.into_records();
            let fairness = &run.outcome.fairness;
            let target = match job {
                Some(id) => JobId(id),
                None => worst_miss(fairness).ok_or_else(|| {
                    UsageError("the trace produced no scored submissions to explain".into())
                })?,
            };
            let breakdown =
                explain_wait(&records, &run.outcome.schedule, target).ok_or_else(|| {
                    UsageError(format!(
                        "{target} is not in the schedule; pass a submission id from the trace"
                    ))
                })?;
            writeln!(out, "under {}:", run.outcome.policy)?;
            if let Some(e) = fairness.entries.iter().find(|e| e.id == target) {
                if e.unfair() {
                    writeln!(
                        out,
                        "{} was treated unfairly: fair start t={}, actual t={} — missed by {}s",
                        target,
                        e.fst,
                        e.start,
                        e.miss()
                    )?;
                } else {
                    writeln!(
                        out,
                        "{} met its fair start (fair t={}, actual t={})",
                        target, e.fst, e.start
                    )?;
                }
            }
            write!(out, "{breakdown}")?;
            Ok(out)
        }
        Command::Sweep {
            journal,
            policies,
            seeds,
            scale,
            nodes,
            timeout_per_cell,
            max_retries,
            resume,
            threads,
            faults,
        } => {
            let specs: Vec<PolicySpec> = if policies.is_empty() {
                PolicySpec::paper_policies()
            } else {
                policies
                    .iter()
                    .map(|id| lookup(id))
                    .collect::<Result<_, _>>()?
            };
            // The grid always carries the clean point; fault flags add a
            // second fault axis entry so each (seed, policy) pair is
            // measured both ways.
            let mut fault_points = vec![FaultPoint::clean()];
            if faults.enabled() {
                let mut parts = Vec::new();
                if let Some(m) = faults.node_mtbf {
                    parts.push(format!("mtbf{m}"));
                }
                if faults.job_crash_rate > 0.0 {
                    parts.push(format!("crash{}", faults.job_crash_rate));
                }
                fault_points.push(FaultPoint {
                    label: parts.join("+"),
                    config: faults,
                });
            }
            let cfg = SweepConfig {
                plan: SweepPlan {
                    seeds,
                    policies: specs,
                    faults: fault_points,
                    scale,
                    nodes,
                    exact_estimates: false,
                },
                journal: std::path::PathBuf::from(&journal),
                timeout_per_cell: timeout_per_cell.map(std::time::Duration::from_secs_f64),
                max_retries,
                resume,
                threads,
            };
            let summary = run_sweep(&cfg)?;
            let mut out = String::new();
            writeln!(
                out,
                "{:<5} {:<22} {:>10} {:<12} {:>9} {:>8} {:>8}",
                "cell", "policy", "seed", "fault", "status", "attempts", "unfair%"
            )?;
            for r in &summary.rows {
                let unfair = match &r.metrics {
                    Some(m) => format!("{:>7.2}%", 100.0 * m.percent_unfair),
                    None => "       -".to_string(),
                };
                writeln!(
                    out,
                    "{:<5} {:<22} {:>10} {:<12} {:>9} {:>8} {unfair}",
                    r.cell,
                    r.policy,
                    r.workload_seed,
                    r.fault,
                    r.status.as_str(),
                    r.attempts,
                )?;
            }
            writeln!(out, "{summary}")?;
            writeln!(out, "journal: {journal}")?;
            Ok(out)
        }
        Command::Serve(args) => {
            let status = serve(args)?;
            Ok(format!(
                "fairschedd stopped: {} submissions accepted, {} completed, \
                 final simulated time t={}\n",
                status.accepted, status.completed, status.now
            ))
        }
        Command::Submit { addr, request } => {
            let ack = Client::new(addr).submit(&request)?;
            Ok(format!(
                "accepted job {} (arrives in the queue at t={})\n",
                ack.id, ack.arrival
            ))
        }
        Command::Status { addr } => {
            let s = Client::new(addr).status()?;
            let mut out = String::new();
            writeln!(out, "fairschedd at {addr}:")?;
            writeln!(out, "policy:       {}", s.policy)?;
            writeln!(
                out,
                "nodes:        {} ({} free, {} down)",
                s.nodes, s.free, s.down
            )?;
            writeln!(out, "simulated t:  {} (granted {})", s.now, s.granted)?;
            writeln!(out, "queued:       {}", s.queued)?;
            writeln!(out, "running:      {}", s.running)?;
            writeln!(out, "accepted:     {}", s.accepted)?;
            writeln!(out, "completed:    {}", s.completed)?;
            match s.next_event {
                Some(t) => writeln!(out, "next event:   t={t}")?,
                None => writeln!(out, "next event:   none")?,
            }
            writeln!(out, "sealed:       {}", s.sealed)?;
            Ok(out)
        }
        Command::Watch {
            addr,
            interval_ms,
            count,
        } => {
            let client = Client::new(addr);
            let mut frames = 0u64;
            let sealed = loop {
                let status = client.status()?;
                let fairness = client.fairness()?;
                let metrics = client.metrics_text()?;
                let frame = render_watch_frame(&status, &fairness, &metrics);
                {
                    use std::io::Write as _;
                    let mut out = std::io::stdout().lock();
                    out.write_all(frame.as_bytes())?;
                    out.flush()?;
                }
                frames += 1;
                if status.sealed || (count > 0 && frames >= count) {
                    break status.sealed;
                }
                std::thread::sleep(std::time::Duration::from_millis(interval_ms));
            };
            Ok(format!("watched {frames} frame(s); sealed: {sealed}\n"))
        }
    }
}

/// Renders one `fairsched watch` frame from the three live views a poll
/// collects: `/v1/status`, `/v1/fairness`, and the `/metrics` exposition
/// (the source of server-side submit latency quantiles).
fn render_watch_frame(
    s: &fairsched_served::StatusResponse,
    fairness: &fairsched_served::json::Json,
    metrics_text: &str,
) -> String {
    use fairsched_served::json::Json;
    let f_u64 = |key: &str| fairness.get(key).and_then(Json::as_u64).unwrap_or(0);
    let f_f64 = |key: &str| fairness.get(key).and_then(Json::as_f64).unwrap_or(0.0);

    // Server-side request accounting, straight from the exposition. A
    // scrape that fails to parse renders as zeros rather than killing
    // the watch loop — the daemon's own tests pin parseability.
    let samples = parse_exposition(metrics_text).unwrap_or_default();
    // fold, not sum: an empty f64 Sum starts at -0.0 and would render
    // a zero-traffic daemon as "-0 requests".
    let total = |name: &str| -> f64 {
        samples
            .iter()
            .filter(|smp| smp.name == name)
            .fold(0.0, |acc, smp| acc + smp.value)
    };
    let requests = total("fairschedd_http_requests_total");
    let errors = total("fairschedd_http_errors_total");
    let mut submit_buckets: Vec<(f64, u64)> = samples
        .iter()
        .filter(|smp| {
            smp.name == "fairschedd_http_request_duration_ns_bucket"
                && smp.label("route") == Some("/v1/jobs")
        })
        .filter_map(|smp| {
            let le = smp.label("le")?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, smp.value as u64))
        })
        .collect();
    submit_buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let q = |p: f64| quantile_from_buckets(&submit_buckets, p) / 1e3;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- t={} (granted {}){} --",
        s.now,
        s.granted,
        if s.sealed { " SEALED" } else { "" }
    );
    let _ = writeln!(
        out,
        "jobs:     {} queued, {} running, {} accepted, {} completed ({} nodes free)",
        s.queued, s.running, s.accepted, s.completed, s.free
    );
    let _ = writeln!(
        out,
        "fairness: {:.1}% unfair of {} scored, total miss {}s, mean wait {:.1}s, mean slowdown {:.2}",
        f_f64("percent_unfair") * 100.0,
        f_u64("scored"),
        f_u64("total_miss"),
        f_f64("mean_wait"),
        f_f64("mean_slowdown"),
    );
    let _ = writeln!(
        out,
        "live:     {} past FST (worst {}s), oldest queued {}s, utilization {:.2}",
        f_u64("live_fst_misses"),
        f_u64("worst_live_miss"),
        f_u64("starvation_age"),
        f_f64("utilization"),
    );
    let _ = writeln!(
        out,
        "http:     {requests:.0} requests ({errors:.0} errors), submit p50/p95/p99 = {:.0}/{:.0}/{:.0} us",
        q(0.50),
        q(0.95),
        q(0.99),
    );
    let _ = writeln!(
        out,
        "service:  {:.0} workers busy, accept queue {:.0}, journal {:.0} B in {:.0} batches",
        total("served_pool_workers_busy"),
        total("served_accept_queue_depth"),
        total("served_journal_bytes"),
        total("served_journal_batches"),
    );
    out
}

fn parse_addr(s: &str) -> Result<std::net::SocketAddr, UsageError> {
    s.parse()
        .map_err(|_| UsageError(format!("--addr needs HOST:PORT, got {s:?}")))
}

fn lookup(id: &str) -> Result<PolicySpec, UsageError> {
    PolicySpec::parse(id).map_err(|e| UsageError(format!("{e}; try `fairsched help`")))
}

/// Loads a trace and returns it with the (empty) start of the command's
/// output. When the lenient SWF reader dropped records it warns through
/// the `fairsched_obs::log` facade — visible on stderr unless `--quiet`,
/// capturable in tests — so silent cleaning never looks like a complete
/// trace.
fn load_trace(
    path: &str,
    nodes: u32,
) -> Result<(Vec<fairsched_workload::job::Job>, String), Box<dyn std::error::Error>> {
    let parsed = read_swf_file(path)?;
    if parsed.jobs.is_empty() {
        return Err(Box::new(UsageError(format!("{path} holds no usable jobs"))));
    }
    if let Some(too_wide) = parsed.jobs.iter().find(|j| j.nodes > nodes) {
        return Err(Box::new(UsageError(format!(
            "{} requests {} nodes but the machine has {nodes}; pass a larger --nodes",
            too_wide.id, too_wide.nodes
        ))));
    }
    if parsed.skipped_malformed + parsed.skipped_degenerate > 0 {
        log::warn(format!(
            "{path} skipped {} malformed and {} degenerate record(s)",
            parsed.skipped_malformed, parsed.skipped_degenerate
        ));
    }
    Ok((parsed.jobs, String::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_served::clock::ClockMode;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_generate_with_defaults_and_overrides() {
        let cmd = parse(&args("generate --out /tmp/x.swf")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                seed: 42,
                scale: 1.0,
                nodes: DEFAULT_NODES,
                out: "/tmp/x.swf".into()
            }
        );
        let cmd = parse(&args(
            "generate --seed 7 --scale 0.1 --nodes 256 --out t.swf",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                seed: 7,
                scale: 0.1,
                nodes: 256,
                out: "t.swf".into()
            }
        );
    }

    #[test]
    fn rejects_bad_flags_with_messages() {
        assert!(parse(&args("generate")).unwrap_err().0.contains("--out"));
        assert!(parse(&args("generate --scale 2.0 --out x"))
            .unwrap_err()
            .0
            .contains("--scale"));
        assert!(parse(&args("generate --seed abc --out x"))
            .unwrap_err()
            .0
            .contains("--seed"));
        assert!(parse(&args("frobnicate"))
            .unwrap_err()
            .0
            .contains("unknown subcommand"));
        assert!(parse(&args("simulate --trace t.swf"))
            .unwrap_err()
            .0
            .contains("--policy"));
    }

    #[test]
    fn compare_collects_repeated_policy_flags() {
        let cmd = parse(&args(
            "compare --trace t.swf --policy cons.nomax --policy easy.nomax",
        ))
        .unwrap();
        match cmd {
            Command::Compare { policies, .. } => {
                assert_eq!(policies, vec!["cons.nomax", "easy.nomax"]);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn fault_flags_parse_into_a_fault_config() {
        let cmd = parse(&args(
            "simulate --trace t.swf --policy cons.nomax --mtbf 86400 \
             --crash-rate 0.05 --resilience resume --fault-seed 9",
        ))
        .unwrap();
        match cmd {
            Command::Simulate { faults, .. } => {
                assert_eq!(faults.node_mtbf, Some(86_400));
                assert!((faults.job_crash_rate - 0.05).abs() < 1e-12);
                assert_eq!(faults.resilience, ResiliencePolicy::ChunkResume);
                assert_eq!(faults.seed, 9);
                assert!(faults.enabled());
            }
            other => panic!("parsed {other:?}"),
        }
        // Without the flags faults stay disabled.
        match parse(&args("simulate --trace t.swf --policy cons.nomax")).unwrap() {
            Command::Simulate { faults, .. } => {
                assert_eq!(faults, FaultConfig::default());
                assert!(!faults.enabled());
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn bad_fault_flags_are_usage_errors() {
        let base = "compare --trace t.swf";
        assert!(parse(&args(&format!("{base} --resilience retry")))
            .unwrap_err()
            .0
            .contains("--resilience"));
        assert!(parse(&args(&format!("{base} --mtbf soon")))
            .unwrap_err()
            .0
            .contains("--mtbf"));
        // Validation runs at parse time: rate 1.0 would never terminate.
        assert!(parse(&args(&format!("{base} --crash-rate 1.0")))
            .unwrap_err()
            .0
            .contains("crash"));
        assert!(parse(&args(&format!("{base} --mtbf 0")))
            .unwrap_err()
            .0
            .contains("mtbf"));
    }

    #[test]
    fn a_flag_without_a_value_is_an_error_not_ignored() {
        // A trailing valueless flag must not silently fall back to the
        // default — `--mtbf` alone would otherwise run fault-free.
        for cmd in [
            "simulate --trace t.swf --policy cons.72max --mtbf",
            "simulate --trace t.swf --policy cons.72max --crash-rate",
            "compare --trace t.swf --policy",
            "generate --out f.swf --seed",
        ] {
            let err = parse(&args(cmd)).unwrap_err();
            assert!(err.0.contains("needs a value"), "{cmd}: {}", err.0);
        }
    }

    #[test]
    fn help_paths() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
        let text = execute(Command::Help).unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("cons.72max"));
    }

    #[test]
    fn end_to_end_generate_simulate_compare_audit() {
        let dir = std::env::temp_dir().join("fairsched-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.swf");
        let out = execute(Command::Generate {
            seed: 3,
            scale: 0.02,
            nodes: 1024,
            out: path.to_str().unwrap().into(),
        })
        .unwrap();
        assert!(out.contains("wrote"));

        let sim = execute(Command::Simulate {
            trace: path.to_str().unwrap().into(),
            policy: "cplant24.nomax.all".into(),
            nodes: 1024,
            faults: FaultConfig::default(),
            trace_out: None,
        })
        .unwrap();
        assert!(sim.contains("utilization"));
        assert!(sim.contains("avg FST miss"));
        assert!(
            !sim.contains("goodput"),
            "fault lines only appear with faults on"
        );

        let cmp = execute(Command::Compare {
            trace: path.to_str().unwrap().into(),
            policies: vec!["cons.nomax".into(), "easy.nomax".into()],
            nodes: 1024,
            faults: FaultConfig::default(),
        })
        .unwrap();
        assert!(cmp.contains("cons.nomax"));
        assert!(cmp.contains("easy.nomax"));

        let faulted = execute(Command::Simulate {
            trace: path.to_str().unwrap().into(),
            policy: "cplant24.nomax.all".into(),
            nodes: 1024,
            faults: FaultConfig {
                job_crash_rate: 0.2,
                seed: 3,
                ..FaultConfig::default()
            },
            trace_out: None,
        })
        .unwrap();
        assert!(faulted.contains("goodput"));
        assert!(faulted.contains("interrupted"));

        let audit = execute(Command::Audit {
            trace: path.to_str().unwrap().into(),
            policy: "cons.72max".into(),
            nodes: 1024,
        })
        .unwrap();
        assert!(audit.contains("per-user fairness"));
        assert!(audit.contains("wait(s)"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_policy_and_missing_file_error_cleanly() {
        let err = execute(Command::Simulate {
            trace: "/nonexistent.swf".into(),
            policy: "cplant24.nomax.all".into(),
            nodes: 1024,
            faults: FaultConfig::default(),
            trace_out: None,
        })
        .unwrap_err();
        assert!(
            err.to_string().contains("nonexistent") || err.to_string().contains("No such file")
        );

        let err = lookup("not-a-policy").unwrap_err();
        assert!(err.to_string().contains("not-a-policy"), "{err}");
        assert!(err.to_string().contains("rdepth<n>"), "{err}");
    }

    #[test]
    fn parameterized_and_size_based_ids_resolve() {
        use fairsched_sim::EngineKind;
        assert_eq!(
            lookup("rdepth4.nomax").unwrap().engine,
            EngineKind::ReservationDepth(4)
        );
        assert_eq!(lookup("fsp.nomax").unwrap().engine, EngineKind::Fsp);
        assert_eq!(lookup("las.72max").unwrap().engine, EngineKind::Las);
        assert_eq!(lookup("hfsp.nomax").unwrap().engine, EngineKind::Hfsp);
        // A sweep grid naming an unknown cell is rejected up front with the
        // offending id, never silently dropped from the grid.
        let err = execute(
            parse(&args(
                "sweep --journal /tmp/x.jsonl --grid cons.nomax,typo.id",
            ))
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("typo.id"), "{err}");
    }

    #[test]
    fn too_wide_trace_is_a_usage_error_not_a_panic() {
        let dir = std::env::temp_dir().join("fairsched-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wide.swf");
        let jobs = vec![fairsched_workload::job::Job::new(1, 1, 1, 0, 512, 100, 100)];
        fairsched_workload::swf::write_swf_file(&path, &jobs, 512, "wide").unwrap();
        let err = execute(Command::Simulate {
            trace: path.to_str().unwrap().into(),
            policy: "cons.nomax".into(),
            nodes: 64,
            faults: FaultConfig::default(),
            trace_out: None,
        })
        .unwrap_err();
        assert!(err.to_string().contains("--nodes"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn skipped_swf_records_warn_through_the_log_facade() {
        let dir = std::env::temp_dir().join("fairsched-cli-test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dirty.swf");
        std::fs::write(
            &path,
            "; Version: 2\n\
             1 0 -1 100 4 -1 -1 4 900 -1 1 3 7 -1 -1 -1 -1 -1\n\
             2 5 -1 0 4 -1 -1 4 900 -1 1 3 7 -1 -1 -1 -1 -1\n\
             garbage line\n",
        )
        .unwrap();
        let mut result = None;
        let logs = fairsched_obs::log::capture(|| {
            result = Some(execute(Command::Simulate {
                trace: path.to_str().unwrap().into(),
                policy: "cons.nomax".into(),
                nodes: 64,
                faults: FaultConfig::default(),
                trace_out: None,
            }));
        });
        let out = result.unwrap().unwrap();
        // The diagnostic rides the facade (so --quiet can drop it), not
        // the command's stdout.
        assert!(!out.contains("warning"));
        assert!(logs.iter().any(|(level, msg)| {
            *level == fairsched_obs::log::Level::Warn
                && msg.contains("1 malformed and 1 degenerate")
        }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compare_accepts_fault_flags_but_audit_and_generate_reject_them() {
        // Satellite contract: compare runs under a fault model...
        match parse(&args(
            "compare --trace t.swf --mtbf 86400 --crash-rate 0.05 --fault-seed 2",
        ))
        .unwrap()
        {
            Command::Compare { faults, .. } => {
                assert_eq!(faults.node_mtbf, Some(86_400));
                assert!((faults.job_crash_rate - 0.05).abs() < 1e-12);
                assert_eq!(faults.seed, 2);
            }
            other => panic!("parsed {other:?}"),
        }
        // ...while subcommands that cannot honor fault flags refuse them
        // instead of silently running fault-free.
        for (cmd, flag) in [
            (
                "audit --trace t.swf --policy cons.nomax --mtbf 60",
                "--mtbf",
            ),
            (
                "audit --trace t.swf --policy cons.nomax --crash-rate 0.1",
                "--crash-rate",
            ),
            ("generate --out x.swf --fault-seed 1", "--fault-seed"),
            ("generate --out x.swf --resilience resume", "--resilience"),
        ] {
            let err = parse(&args(cmd)).unwrap_err();
            assert!(err.0.contains(flag), "{cmd}: {}", err.0);
            assert!(err.0.contains("does not take"), "{cmd}: {}", err.0);
        }
        // Typos are rejected everywhere, not just fault flags.
        assert!(parse(&args("simulate --trace t.swf --policy x --nods 4"))
            .unwrap_err()
            .0
            .contains("--nods"));
    }

    #[test]
    fn parses_profile_and_explain() {
        match parse(&args(
            "profile --trace t.swf --policy cons.nomax --mtbf 3600",
        ))
        .unwrap()
        {
            Command::Profile { policy, faults, .. } => {
                assert_eq!(policy, "cons.nomax");
                assert_eq!(faults.node_mtbf, Some(3600));
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&args("explain --trace t.swf --policy easy.nomax --job 17")).unwrap() {
            Command::Explain { job, .. } => assert_eq!(job, Some(17)),
            other => panic!("parsed {other:?}"),
        }
        match parse(&args("explain --trace t.swf --policy easy.nomax")).unwrap() {
            Command::Explain { job, .. } => assert_eq!(job, None),
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&args("explain --trace t.swf --policy x --job soon"))
            .unwrap_err()
            .0
            .contains("--job"));
    }

    #[test]
    fn parses_sweep_with_defaults_and_overrides() {
        match parse(&args("sweep --journal s.jsonl")).unwrap() {
            Command::Sweep {
                journal,
                policies,
                seeds,
                scale,
                nodes,
                timeout_per_cell,
                max_retries,
                resume,
                threads,
                faults,
            } => {
                assert_eq!(journal, "s.jsonl");
                assert!(policies.is_empty(), "empty = the paper's nine");
                assert_eq!(seeds, vec![42]);
                assert!((scale - 0.02).abs() < 1e-12);
                assert_eq!(nodes, DEFAULT_NODES);
                assert_eq!(timeout_per_cell, None);
                assert_eq!(max_retries, 1);
                assert!(!resume);
                assert_eq!(threads, None);
                assert!(!faults.enabled());
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&args(
            "sweep --journal s.jsonl --grid cons.nomax,easy.nomax --seeds 1,2,3 \
             --scale 0.01 --nodes 256 --timeout-per-cell 2.5 --max-retries 3 \
             --threads 2 --resume --crash-rate 0.1 --fault-seed 7",
        ))
        .unwrap()
        {
            Command::Sweep {
                policies,
                seeds,
                timeout_per_cell,
                max_retries,
                resume,
                threads,
                faults,
                ..
            } => {
                assert_eq!(policies, vec!["cons.nomax", "easy.nomax"]);
                assert_eq!(seeds, vec![1, 2, 3]);
                assert_eq!(timeout_per_cell, Some(2.5));
                assert_eq!(max_retries, 3);
                assert!(resume);
                assert_eq!(threads, Some(2));
                assert!((faults.job_crash_rate - 0.1).abs() < 1e-12);
                assert_eq!(faults.seed, 7);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn sweep_rejects_bad_flags() {
        assert!(parse(&args("sweep")).unwrap_err().0.contains("--journal"));
        assert!(parse(&args("sweep --journal s.jsonl --seeds 1,abc"))
            .unwrap_err()
            .0
            .contains("--seeds"));
        assert!(parse(&args("sweep --journal s.jsonl --seeds ,"))
            .unwrap_err()
            .0
            .contains("at least one seed"));
        assert!(parse(&args("sweep --journal s.jsonl --timeout-per-cell 0"))
            .unwrap_err()
            .0
            .contains("--timeout-per-cell"));
        assert!(parse(&args("sweep --journal s.jsonl --scale 2.0"))
            .unwrap_err()
            .0
            .contains("--scale"));
        // `--resume` is a boolean flag: the token after it is still
        // validated, never swallowed as a value.
        assert!(parse(&args("sweep --journal s.jsonl --resume --bogus 1"))
            .unwrap_err()
            .0
            .contains("--bogus"));
        // Other subcommands reject sweep-only flags.
        assert!(parse(&args("simulate --trace t.swf --policy x --resume"))
            .unwrap_err()
            .0
            .contains("--resume"));
    }

    #[test]
    fn end_to_end_sweep_writes_a_journal_and_resumes_as_noop() {
        let dir = std::env::temp_dir().join("fairsched-cli-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("grid.jsonl");
        let cmd = |resume: bool| Command::Sweep {
            journal: journal.to_str().unwrap().into(),
            policies: vec!["cons.nomax".into(), "easy.nomax".into()],
            seeds: vec![5],
            scale: 0.01,
            nodes: 1024,
            timeout_per_cell: None,
            max_retries: 0,
            resume,
            threads: Some(1),
            faults: FaultConfig::default(),
        };
        let out = execute(cmd(false)).unwrap();
        assert!(out.contains("2/2 cells ok"));
        assert!(out.contains("grid complete"));
        assert!(out.contains("cons.nomax"));
        let first = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(first.lines().count(), 3, "header + one row per cell");

        // Resuming a complete journal re-simulates nothing and reports the
        // same grid.
        let again = execute(cmd(true)).unwrap();
        assert!(again.contains("2/2 cells ok"));
        assert!(again.contains("2 resumed"));
        assert_eq!(std::fs::read_to_string(&journal).unwrap(), first);
        std::fs::remove_file(&journal).unwrap();
    }

    #[test]
    fn simulate_parses_trace_out() {
        match parse(&args(
            "simulate --trace t.swf --policy cons.nomax --trace-out d.jsonl",
        ))
        .unwrap()
        {
            Command::Simulate { trace_out, .. } => {
                assert_eq!(trace_out.as_deref(), Some("d.jsonl"));
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn strip_quiet_enables_quiet_anywhere_in_argv() {
        let was = fairsched_obs::log::is_quiet();
        let mut argv = args("simulate --quiet --trace t.swf --policy cons.nomax");
        strip_quiet(&mut argv);
        assert!(fairsched_obs::log::is_quiet());
        assert!(!argv.iter().any(|a| a == "--quiet"));
        // The remaining argv parses normally.
        assert!(matches!(parse(&argv), Ok(Command::Simulate { .. })));
        fairsched_obs::log::set_quiet(was);
    }

    #[test]
    fn parses_serve_submit_and_status() {
        match parse(&args("serve")).unwrap() {
            Command::Serve(a) => {
                assert_eq!(a.port, 0);
                assert_eq!(a.daemon.session.policy, "easy.nomax");
                assert_eq!(a.daemon.session.clock, ClockMode::Realtime { speedup: 1.0 });
                assert!(a.daemon.session.traced);
            }
            other => panic!("parsed {other:?}"),
        }
        match parse(&args(
            "serve --port 7070 --policy cons.nomax --nodes 256 --manual --no-trace \
             --workers 3 --max-connections 9 --journal-dir j --recover --id-floor 5",
        ))
        .unwrap()
        {
            Command::Serve(a) => {
                assert_eq!(a.port, 7070);
                assert_eq!(a.daemon.session.policy, "cons.nomax");
                assert_eq!(a.daemon.session.nodes, 256);
                assert_eq!(a.daemon.session.clock, ClockMode::Manual);
                assert!(!a.daemon.session.traced);
                // fairschedd's flags are serve's flags.
                assert_eq!(a.daemon.session.id_floor, 5);
                assert_eq!((a.daemon.workers, a.daemon.max_connections), (3, 9));
                assert!(a.daemon.recover);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&args("serve --recover"))
            .unwrap_err()
            .0
            .contains("--journal-dir"));
        assert!(parse(&args("serve --manual --speedup 100"))
            .unwrap_err()
            .0
            .contains("mutually exclusive"));
        assert!(parse(&args("serve --port 99999"))
            .unwrap_err()
            .0
            .contains("--port"));

        match parse(&args(
            "submit --addr 127.0.0.1:7070 --id 5 --user 2 --submit 100 \
             --nodes 16 --runtime 600",
        ))
        .unwrap()
        {
            Command::Submit { addr, request } => {
                assert_eq!(addr.port(), 7070);
                assert_eq!(request.id, 5);
                assert_eq!(request.user, 2);
                assert_eq!(request.submit, 100);
                assert_eq!(request.nodes, 16);
                assert_eq!(request.runtime, 600);
                // --estimate defaults to the runtime.
                assert_eq!(request.estimate, 600);
            }
            other => panic!("parsed {other:?}"),
        }
        // Dropping any required flag (and its value) is an error naming it.
        for missing in ["--id", "--nodes", "--runtime", "--addr"] {
            let full = args("submit --addr 1.2.3.4:1 --id 1 --nodes 2 --runtime 3");
            let at = full.iter().position(|a| a == missing).unwrap();
            let mut trimmed = full.clone();
            trimmed.drain(at..at + 2);
            let err = parse(&trimmed).unwrap_err();
            assert!(err.0.contains(missing), "{missing}: {}", err.0);
        }
        assert!(
            parse(&args("submit --addr nonsense --id 1 --nodes 2 --runtime 3"))
                .unwrap_err()
                .0
                .contains("HOST:PORT")
        );

        match parse(&args("status --addr 127.0.0.1:7070")).unwrap() {
            Command::Status { addr } => assert_eq!(addr.port(), 7070),
            other => panic!("parsed {other:?}"),
        }

        match parse(&args(
            "watch --addr 127.0.0.1:7070 --interval-ms 250 --count 3",
        ))
        .unwrap()
        {
            Command::Watch {
                addr,
                interval_ms,
                count,
            } => {
                assert_eq!(addr.port(), 7070);
                assert_eq!(interval_ms, 250);
                assert_eq!(count, 3);
            }
            other => panic!("parsed {other:?}"),
        }
        // Defaults: poll every second until the session seals.
        match parse(&args("watch --addr 127.0.0.1:7070")).unwrap() {
            Command::Watch {
                interval_ms, count, ..
            } => {
                assert_eq!(interval_ms, 1000);
                assert_eq!(count, 0);
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&args("watch --interval-ms 5"))
            .unwrap_err()
            .0
            .contains("--addr"));
        assert!(parse(&args("watch --addr 127.0.0.1:1 --interval-ms 0"))
            .unwrap_err()
            .0
            .contains("--interval-ms"));
        // Flag whitelists hold for the service subcommands too.
        assert!(parse(&args("status --addr 127.0.0.1:1 --mtbf 60"))
            .unwrap_err()
            .0
            .contains("--mtbf"));
        assert!(parse(&args("serve --trace t.swf"))
            .unwrap_err()
            .0
            .contains("--trace"));
    }

    #[test]
    fn watch_frames_render_all_three_views() {
        let status = fairsched_served::StatusResponse {
            policy: "easy.nomax".into(),
            nodes: 64,
            now: 500,
            granted: 600,
            queued: 3,
            running: 2,
            free: 16,
            down: 0,
            accepted: 7,
            completed: 2,
            next_event: Some(650),
            sealed: false,
        };
        let fairness = fairsched_served::json::parse(
            r#"{"percent_unfair": 0.25, "scored": 4, "total_miss": 120,
                "mean_wait": 30.5, "mean_slowdown": 1.75, "live_fst_misses": 2,
                "worst_live_miss": 90, "starvation_age": 200, "utilization": 0.8}"#,
        )
        .unwrap();
        let metrics = "\
# TYPE fairschedd_http_requests_total counter
fairschedd_http_requests_total{route=\"/v1/jobs\"} 7
fairschedd_http_requests_total{route=\"/v1/status\"} 3
# TYPE fairschedd_http_errors_total counter
fairschedd_http_errors_total{route=\"/v1/jobs\"} 1
# TYPE fairschedd_http_request_duration_ns_bucket counter
fairschedd_http_request_duration_ns_bucket{route=\"/v1/jobs\",le=\"65535\"} 6
fairschedd_http_request_duration_ns_bucket{route=\"/v1/jobs\",le=\"131071\"} 7
fairschedd_http_request_duration_ns_bucket{route=\"/v1/jobs\",le=\"+Inf\"} 7
# TYPE served_pool_workers_busy gauge
served_pool_workers_busy 3
# TYPE served_accept_queue_depth gauge
served_accept_queue_depth 12
# TYPE served_journal_bytes counter
served_journal_bytes 2048
# TYPE served_journal_batches counter
served_journal_batches 9
";
        let frame = render_watch_frame(&status, &fairness, metrics);
        assert!(frame.contains("t=500 (granted 600)"), "{frame}");
        assert!(
            frame.contains("3 queued, 2 running, 7 accepted, 2 completed"),
            "{frame}"
        );
        assert!(frame.contains("25.0% unfair of 4 scored"), "{frame}");
        assert!(frame.contains("2 past FST (worst 90s)"), "{frame}");
        assert!(frame.contains("10 requests (1 errors)"), "{frame}");
        // p50 falls in the [0, 65535]ns bucket, p99 in (65535, 131071].
        assert!(frame.contains("submit p50/p95/p99 ="), "{frame}");
        assert!(
            frame.contains("3 workers busy, accept queue 12, journal 2048 B in 9 batches"),
            "{frame}"
        );
        assert!(!frame.contains("SEALED"), "{frame}");
        // Garbage exposition degrades to zeros instead of failing.
        let degraded = render_watch_frame(&status, &fairness, "not an exposition");
        assert!(degraded.contains("0 requests (0 errors)"), "{degraded}");
    }

    #[test]
    fn serve_submit_status_round_trip_in_process() {
        let dir = std::env::temp_dir().join("fairsched-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);

        let serve = parse(&args(&format!(
            "serve --port 0 --port-file {} --policy easy.nomax --nodes 64 --manual",
            port_file.display()
        )))
        .unwrap();
        let server = std::thread::spawn(move || execute(serve).unwrap());

        // Wait for the daemon to publish its port.
        let mut port = None;
        for _ in 0..200 {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = text.trim().parse::<u16>() {
                    port = Some(p);
                    break;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let port = port.expect("daemon never wrote its port file");
        let addr: std::net::SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();

        let submitted = execute(Command::Submit {
            addr,
            request: SubmitRequest {
                id: 1,
                user: 1,
                group: 1,
                submit: 0,
                nodes: 64,
                runtime: 120,
                estimate: 120,
            },
        })
        .unwrap();
        assert!(submitted.contains("accepted job 1"), "{submitted}");

        let status = execute(Command::Status { addr }).unwrap();
        assert!(status.contains("accepted:     1"), "{status}");
        assert!(status.contains("policy:       easy.nomax"), "{status}");

        let watched = execute(Command::Watch {
            addr,
            interval_ms: 10,
            count: 1,
        })
        .unwrap();
        assert!(watched.contains("watched 1 frame(s)"), "{watched}");

        let client = Client::new(addr);
        client.seal().unwrap();
        client.shutdown().unwrap();
        let summary = server.join().unwrap();
        assert!(summary.contains("1 submissions accepted"), "{summary}");
        assert!(summary.contains("1 completed"), "{summary}");
        std::fs::remove_file(&port_file).unwrap();
    }

    #[test]
    fn end_to_end_profile_explain_and_trace_out() {
        let dir = std::env::temp_dir().join("fairsched-cli-test4");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.swf");
        execute(Command::Generate {
            seed: 3,
            scale: 0.02,
            nodes: 1024,
            out: path.to_str().unwrap().into(),
        })
        .unwrap();

        let profiled = execute(Command::Profile {
            trace: path.to_str().unwrap().into(),
            policy: "cons.nomax".into(),
            nodes: 1024,
            faults: FaultConfig::default(),
        })
        .unwrap();
        assert!(profiled.contains("scheduler passes"));
        assert!(profiled.contains("earliest_start calls"));

        let explained = execute(Command::Explain {
            trace: path.to_str().unwrap().into(),
            policy: "cplant24.nomax.all".into(),
            nodes: 1024,
            faults: FaultConfig::default(),
            job: None,
        })
        .unwrap();
        assert!(explained.contains("capacity wait"));
        assert!(explained.contains("policy wait"));

        let jsonl = dir.join("d.jsonl");
        let sim = execute(Command::Simulate {
            trace: path.to_str().unwrap().into(),
            policy: "easy.nomax".into(),
            nodes: 1024,
            faults: FaultConfig::default(),
            trace_out: Some(jsonl.to_str().unwrap().into()),
        })
        .unwrap();
        assert!(sim.contains("trace records"));
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert!(text.lines().count() > 0);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(text.contains("\"type\":\"job_started\""));

        std::fs::remove_file(&jsonl).unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}

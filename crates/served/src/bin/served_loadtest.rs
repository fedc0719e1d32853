//! The `fairschedd` acceptance load test: concurrent submitters over
//! real HTTP, with a `/metrics` scraper polling the whole run.
//!
//! ```text
//! served_loadtest [--submitters N] [--jobs N] [--sessions N]
//!                 [--policy ID] [--nodes N] [--epochs N] [--seed N]
//!                 [--port-file PATH] [--out PATH]
//! ```
//!
//! Runs one epoch-fenced replay against a fresh daemon while a scraper
//! thread polls `GET /metrics` every [`SCRAPE_INTERVAL`], the way a
//! Prometheus agent would. It times nothing: `fsbench` is the benchmark.
//!
//! With `--sessions N` the workload splits round-robin across N named
//! sessions hosted by the same daemon — every session runs its share
//! concurrently and must independently reproduce the batch simulation of
//! that share, which is the multi-tenant isolation property.
//!
//! The replay goes through `--submitters` concurrent keep-alive HTTP
//! clients under manual clocks with epoch fences: every submitter posts
//! its share of an epoch's jobs, all threads meet at the epoch gate, then
//! the coordinator grants every session simulated time up to just below
//! the next epoch — so no submitter can ever race a clock into a
//! non-monotonic rejection, and the grant order keeps each session
//! byte-equivalent to the batch simulation of its share.
//!
//! `--port-file` publishes the daemon's port so an external probe (a CI
//! smoke check) can curl `/metrics` mid-run. The JSON report always goes
//! to stderr, and also to `--out` when given.
//!
//! Exits nonzero on any lost submission (reporting how many were lost),
//! schedule divergence from batch, empty trace stream, dropped trace
//! lines, a failed scrape, an unparseable final exposition, an empty
//! `/v1/jobs` latency histogram, or unclean shutdown. No wait is
//! unbounded: the epoch gate gives up after [`EPOCH_TIMEOUT`], and a
//! submitter whose request fails leaves the gate instead of stranding
//! the others.

use fairsched_core::policy::PolicySpec;
use fairsched_obs::registry::parse_exposition;
use fairsched_served::api::SessionSpec;
use fairsched_served::clock::ClockMode;
use fairsched_served::session::SessionConfig;
use fairsched_served::{Client, Daemon, SubmitRequest};
use fairsched_sim::{simulate, NullObserver, Schedule, SimOptions};
use fairsched_workload::job::Job;
use fairsched_workload::time::Time;
use fairsched_workload::CplantModel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Longest anyone waits at the epoch gate before the run is abandoned.
const EPOCH_TIMEOUT: Duration = Duration::from_secs(120);

/// How often the scraper polls `/metrics`.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(25);

struct Args {
    submitters: usize,
    jobs: usize,
    sessions: usize,
    policy: String,
    nodes: u32,
    epochs: usize,
    seed: u64,
    port_file: Option<String>,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        submitters: 100,
        jobs: 2000,
        sessions: 1,
        policy: "easy.nomax".into(),
        nodes: 1024,
        epochs: 8,
        seed: 8,
        port_file: None,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("served_loadtest: {arg} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--submitters" => parsed.submitters = value().parse().unwrap(),
            "--jobs" => parsed.jobs = value().parse().unwrap(),
            "--sessions" => parsed.sessions = value().parse().unwrap(),
            "--policy" => parsed.policy = value(),
            "--nodes" => parsed.nodes = value().parse().unwrap(),
            "--epochs" => parsed.epochs = value().parse().unwrap(),
            "--seed" => parsed.seed = value().parse().unwrap(),
            "--port-file" => parsed.port_file = Some(value()),
            "--out" => parsed.out = Some(value()),
            other => {
                eprintln!("served_loadtest: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    assert!(parsed.submitters >= 1 && parsed.epochs >= 1 && parsed.jobs >= 1);
    assert!(
        parsed.sessions >= 1 && parsed.sessions <= parsed.submitters,
        "--sessions must be between 1 and --submitters"
    );
    parsed
}

/// What the run observed, for the report.
struct Outcome {
    steps: u64,
    scrapes: u64,
    trace_lines: usize,
}

/// The epoch fence between the submitters and the coordinator: every
/// member submits its share of epoch `k` and arrives; once all have, the
/// coordinator grants time and opens epoch `k + 1`. Unlike a `Barrier`,
/// no wait outlasts [`EPOCH_TIMEOUT`], and a failed submitter leaves.
struct EpochGate {
    state: Mutex<GateState>,
    changed: Condvar,
}

struct GateState {
    /// Epochs opened so far: members may work on epoch `open - 1`.
    open: usize,
    /// Members done with the open epoch.
    arrived: usize,
    /// Submitters still taking part.
    members: usize,
    /// Someone gave up; every waiter returns an error.
    aborted: bool,
}

impl EpochGate {
    fn new(members: usize) -> EpochGate {
        EpochGate {
            state: Mutex::new(GateState {
                open: 1,
                arrived: 0,
                members,
                aborted: false,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Waits until `done` holds; a timeout aborts the gate for everyone.
    fn wait_for(
        &self,
        what: &str,
        done: impl Fn(&GateState) -> bool,
    ) -> Result<MutexGuard<'_, GateState>, String> {
        let (mut state, waited) = self
            .changed
            .wait_timeout_while(self.lock(), EPOCH_TIMEOUT, |s| !s.aborted && !done(s))
            .unwrap_or_else(|e| e.into_inner());
        if state.aborted {
            return Err(format!("epoch gate aborted while waiting for {what}"));
        }
        if waited.timed_out() {
            state.aborted = true;
            self.changed.notify_all();
            return Err(format!(
                "timed out after {EPOCH_TIMEOUT:?} waiting for {what}"
            ));
        }
        Ok(state)
    }

    /// A submitter is done with epoch `k`; blocks until epoch `k + 1`
    /// opens.
    fn arrive(&self, k: usize) -> Result<(), String> {
        self.lock().arrived += 1;
        self.changed.notify_all();
        self.wait_for(&format!("epoch {} to open", k + 1), |s| s.open > k + 1)
            .map(drop)
    }

    /// A submitter that failed stops taking part.
    fn leave(&self) {
        self.lock().members -= 1;
        self.changed.notify_all();
    }

    /// The coordinator waits for every member to finish the open epoch.
    fn collect(&self) -> Result<(), String> {
        self.wait_for("submitters to finish the epoch", |s| s.arrived >= s.members)
            .map(drop)
    }

    /// The coordinator granted time: the next epoch opens.
    fn open_next(&self) {
        let mut state = self.lock();
        state.arrived = 0;
        state.open += 1;
        self.changed.notify_all();
    }

    fn abort(&self) {
        self.lock().aborted = true;
        self.changed.notify_all();
    }
}

/// Session `s`'s client: the default session for index 0, a named one
/// otherwise.
fn session_client(base: &Client, s: usize) -> Client {
    if s == 0 {
        base.clone()
    } else {
        base.for_session(&format!("load{s}"))
    }
}

fn run(args: &Args, shares: &[Vec<Job>], batches: &[Schedule]) -> Result<Outcome, String> {
    let total_jobs: usize = shares.iter().map(Vec::len).sum();
    let mut daemon = Daemon::start(
        "127.0.0.1:0",
        SessionConfig {
            policy: args.policy.clone(),
            nodes: args.nodes,
            clock: ClockMode::Manual,
            traced: true,
            id_floor: 0,
            ..SessionConfig::default()
        },
    )
    .expect("daemon start");
    let addr = daemon.addr();
    eprintln!(
        "served_loadtest: daemon on {addr}, {} jobs, {} submitters, {} sessions, {} epochs",
        total_jobs, args.submitters, args.sessions, args.epochs
    );
    if let Some(path) = &args.port_file {
        std::fs::write(path, format!("{}\n", addr.port())).expect("write port file");
    }

    let coordinator = Client::new(addr);
    for s in 1..args.sessions {
        coordinator
            .create_session(&SessionSpec::named(&format!("load{s}")))
            .expect("create session");
    }

    // Epoch boundaries over [0, max_submit] across ALL sessions: epoch k
    // owns submissions in [bounds[k], bounds[k+1]). After an epoch's
    // gate the coordinator grants every session bounds[k+1] - 1 —
    // strictly below every later submission, so arrivals are always
    // inserted before their timestamp is reachable (the property that
    // makes each online session byte-equal to its batch reference).
    let max_submit = shares
        .iter()
        .filter_map(|jobs| jobs.last().map(|j| j.submit))
        .max()
        .unwrap_or(0);
    let epochs = args.epochs.min(total_jobs);
    let bounds: Vec<Time> = (0..=epochs)
        .map(|k| (max_submit + 2) * k as Time / epochs as Time)
        .collect();

    // A live trace subscriber on the default session, attached before
    // any submission.
    let trace_client = Client::new(addr);
    let trace_thread = std::thread::spawn(move || trace_client.trace_capture());

    // The scraper: a Prometheus-shaped poller hitting /metrics for the
    // whole run. Any failed scrape fails the run.
    let scraping = Arc::new(AtomicBool::new(true));
    let scraper = {
        let scraping = Arc::clone(&scraping);
        let client = Client::new(addr);
        std::thread::spawn(move || -> Result<u64, String> {
            let mut scrapes = 0u64;
            while scraping.load(Ordering::Relaxed) {
                client
                    .metrics_text()
                    .map_err(|e| format!("mid-run scrape failed: {e}"))?;
                scrapes += 1;
                std::thread::sleep(SCRAPE_INTERVAL);
            }
            Ok(scrapes)
        })
    };

    // Submitter i serves session i % sessions; within a session's
    // submitter group the share splits round-robin by rank.
    let submitters_for = |s: usize| {
        (args.submitters + args.sessions - 1 - s) / args.sessions // count of i in 0..submitters with i % sessions == s
    };
    let worker_shares: Vec<(usize, Vec<SubmitRequest>)> = (0..args.submitters)
        .map(|i| {
            let s = i % args.sessions;
            let rank = i / args.sessions;
            let share = shares[s]
                .iter()
                .skip(rank)
                .step_by(submitters_for(s).max(1))
                .map(SubmitRequest::from_job)
                .collect();
            (s, share)
        })
        .collect();

    let gate = Arc::new(EpochGate::new(args.submitters));
    let bounds = Arc::new(bounds);
    let workers: Vec<_> = worker_shares
        .into_iter()
        .map(|(s, share)| {
            let gate = Arc::clone(&gate);
            let bounds = Arc::clone(&bounds);
            let client = session_client(&coordinator, s);
            std::thread::spawn(move || -> (usize, Option<String>) {
                let mut accepted = 0usize;
                for (k, window) in bounds.windows(2).enumerate() {
                    for req in share
                        .iter()
                        .filter(|r| r.submit >= window[0] && r.submit < window[1])
                    {
                        if let Err(e) = client.submit(req) {
                            gate.leave();
                            return (accepted, Some(format!("submission {}: {e}", req.id)));
                        }
                        accepted += 1;
                    }
                    if let Err(e) = gate.arrive(k) {
                        return (accepted, Some(e));
                    }
                }
                (accepted, None)
            })
        })
        .collect();

    let session_clients: Vec<Client> = (0..args.sessions)
        .map(|s| session_client(&coordinator, s))
        .collect();
    let mut coordinator_error = None;
    'epochs: for window in bounds.windows(2) {
        if let Err(e) = gate.collect() {
            coordinator_error = Some(e);
            break;
        }
        for client in &session_clients {
            if let Err(e) = client.advance(window[1].saturating_sub(1)) {
                coordinator_error = Some(format!("advance: {e}"));
                gate.abort();
                break 'epochs;
            }
        }
        gate.open_next();
    }

    let mut accepted_total = 0usize;
    let mut errors: Vec<String> = coordinator_error.into_iter().collect();
    for worker in workers {
        let (accepted, error) = worker.join().expect("submitter thread");
        accepted_total += accepted;
        errors.extend(error);
    }
    if accepted_total != total_jobs || !errors.is_empty() {
        return Err(format!(
            "lost {} of {total_jobs} submissions; {} error(s), first: {}",
            total_jobs - accepted_total,
            errors.len(),
            errors.first().map_or("none", String::as_str)
        ));
    }

    // Per-session: accepted counts, seal, and byte-equivalence with the
    // batch reference for that session's share.
    let mut steps = 0u64;
    for (s, client) in session_clients.iter().enumerate() {
        let status = client.status().expect("status");
        assert_eq!(
            status.accepted,
            shares[s].len() as u64,
            "session {s} lost a submission"
        );
        let seal = client.seal().expect("seal");
        assert_eq!(seal.records, batches[s].records.len() as u64);
        let name = if s == 0 {
            "default".to_string()
        } else {
            format!("load{s}")
        };
        let session = daemon.registry().get(&name).expect("session exists");
        steps += session.steps();
        let online = session
            .schedule()
            .expect("sealed session retains its schedule");
        assert_eq!(
            &online, &batches[s],
            "session {s}: online schedule diverged from the batch reference"
        );
    }

    // Stop the scraper *after* seal, then take one post-seal scrape: the
    // full request history must parse and show the submissions.
    scraping.store(false, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread")?;
    assert!(scrapes > 0, "the scraper never scraped");
    let exposition = coordinator.metrics_text().expect("final scrape");
    let samples = parse_exposition(&exposition).expect("daemon exposition must parse");
    assert!(
        samples.iter().any(|s| {
            s.name == "fairschedd_http_request_duration_ns_bucket"
                && s.label("route") == Some("/v1/jobs")
                && s.value > 0.0
        }),
        "/v1/jobs latency histogram is empty after {total_jobs} submissions"
    );

    coordinator.shutdown().expect("shutdown");
    daemon.shutdown();

    let (trace_lines, trace_dropped) = trace_thread
        .join()
        .expect("trace thread")
        .expect("trace stream");
    assert!(
        !trace_lines.is_empty(),
        "trace stream was empty across the whole run"
    );
    assert!(
        trace_lines.iter().any(|l| l.contains("job_started")),
        "trace stream carried no start records"
    );
    assert_eq!(
        trace_dropped, 0,
        "daemon dropped trace lines on a healthy reader"
    );

    Ok(Outcome {
        steps,
        scrapes,
        trace_lines: trace_lines.len(),
    })
}

fn main() {
    let args = parse_args();

    // The synthetic workload, truncated to --jobs and split round-robin
    // across sessions.
    let mut jobs: Vec<Job> = CplantModel::new(args.seed)
        .with_nodes(args.nodes)
        .generate();
    jobs.truncate(args.jobs);
    jobs.sort_by_key(|j| (j.submit, j.id));
    assert!(!jobs.is_empty(), "workload generation produced no jobs");

    let spec = PolicySpec::parse(&args.policy).unwrap_or_else(|e| {
        eprintln!("served_loadtest: {e}");
        std::process::exit(2);
    });

    // Per-session shares and the batch references each session must
    // reproduce byte-for-byte.
    let shares: Vec<Vec<Job>> = (0..args.sessions)
        .map(|s| {
            jobs.iter()
                .enumerate()
                .filter(|(i, _)| i % args.sessions == s)
                .map(|(_, j)| j.clone())
                .collect()
        })
        .collect();
    let batches: Vec<Schedule> = shares
        .iter()
        .map(|share| {
            let mut batch_jobs = share.clone();
            batch_jobs.sort_by_key(|j| j.id);
            simulate(
                &batch_jobs,
                &spec.sim_config(args.nodes),
                &mut NullObserver,
                SimOptions::new(),
            )
            .expect("batch reference simulation")
        })
        .collect();

    let outcome = run(&args, &shares, &batches).unwrap_or_else(|e| {
        eprintln!("served_loadtest: {e}");
        std::process::exit(1);
    });
    let report = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"served_loadtest\",\n",
            "  \"policy\": \"{}\",\n",
            "  \"nodes\": {},\n",
            "  \"jobs\": {},\n",
            "  \"submitters\": {},\n",
            "  \"sessions\": {},\n",
            "  \"epochs\": {},\n",
            "  \"steps\": {},\n",
            "  \"scrapes\": {},\n",
            "  \"trace_lines\": {},\n",
            "  \"schedule_matches_batch\": true\n",
            "}}\n"
        ),
        args.policy,
        args.nodes,
        jobs.len(),
        args.submitters,
        args.sessions,
        args.epochs.min(jobs.len()),
        outcome.steps,
        outcome.scrapes,
        outcome.trace_lines,
    );
    if let Some(out) = &args.out {
        std::fs::write(out, &report).unwrap_or_else(|e| {
            eprintln!("served_loadtest: cannot write {out}: {e}");
            std::process::exit(1);
        });
    }
    eprintln!("served_loadtest: ok — {report}");
}

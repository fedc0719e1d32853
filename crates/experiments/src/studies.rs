//! The studies beyond the paper's numbered artifacts, each one `figures`
//! id that `figures all` leaves out: the Figures 1–2 backfilling demo,
//! the sensitivity ablations, the CPA placement ablation, the
//! fairness-under-failure sweep, and the size-based fairness study.
//!
//! Each study prints its own tables to stdout. Beyond the usual
//! `FAIRSCHED_*` trio (see the crate docs), two studies read extra
//! environment knobs:
//!
//! | study | variable | default | meaning |
//! |---|---|---|---|
//! | `faults` | `FAIRSCHED_CRASH_RATE` | `0.02` | per-submission crash probability |
//! | `faults` | `FAIRSCHED_FAULT_SEED` | `0` | fault timeline seed |
//! | `size_based` | `FAIRSCHED_SWEEP_JOURNAL` | `size_based.jsonl` | journal stem; the exact-model journal appends `.exact` before the extension |
//! | `size_based` | `FAIRSCHED_SWEEP_SEEDS` | the base seed | comma-separated seed list |
//! | `size_based` | `FAIRSCHED_SWEEP_TIMEOUT` | off | per-cell budget in seconds |
//! | `size_based` | `FAIRSCHED_SWEEP_RETRIES` | `1` | extra attempts after a timeout |
//! | `size_based` | `FAIRSCHED_SWEEP_RESUME` | `0` | `1`: resume interrupted journals |

use crate::{ablations as ab, ExperimentConfig};
use fairsched_core::policy::PolicySpec;
use fairsched_core::runner::run_policy;
use fairsched_core::sweep::try_run_policies;
use fairsched_core::{run_sweep, CellStatus, FaultPoint, SweepConfig, SweepPlan, SweepSummary};
use fairsched_cpa::PlacementStrategy;
use fairsched_sim::{
    simulate, AllocationModel, FaultConfig, NullObserver, ResiliencePolicy, SimConfig, SimOptions,
};
use fairsched_workload::job::Job;
use fairsched_workload::time::{DAY, WEEK};
use fairsched_workload::CplantModel;
use std::time::Duration;

/// A study: prints its own tables for the given configuration.
type Study = fn(&ExperimentConfig);

/// Every study, by `figures` id.
pub const STUDIES: [(&str, Study); 5] = [
    ("fig01_02", backfill_demo),
    ("ablations", ablation_tables),
    ("cpa", placement_study),
    ("faults", fault_study),
    ("size_based", size_based_study),
];

fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The paper's Figures 1–2: the two-job example where strict FCFS leaves
/// jobB waiting although it fits, and backfilling starts it immediately —
/// plus the same comparison on a realistic workload slice (fixed seed and
/// scale; the environment does not apply).
pub fn backfill_demo(_cfg: &ExperimentConfig) {
    // Figure 1/2 micro-example: 10 nodes; jobA (8 wide) heads the queue
    // behind a 6-wide runner, jobB (4 wide, short) fits beside the runner.
    let trace = vec![
        Job::new(1, 1, 0, 0, 6, 1000, 1000), // running work
        Job::new(2, 2, 0, 1, 8, 500, 500),   // jobA (stuck head)
        Job::new(3, 3, 0, 2, 4, 100, 100),   // jobB
    ];
    println!("== Figures 1-2: FCFS without vs with backfilling ==");
    for id in ["fcfs.nobackfill", "easy.nomax"] {
        let p = PolicySpec::by_id(id).unwrap();
        let out = run_policy(&trace, &p, 10);
        let start = |j: u32| {
            out.schedule
                .records
                .iter()
                .find(|r| r.id.0 == j)
                .unwrap()
                .start
        };
        println!(
            "{id:<16} jobA starts at {:>5}s, jobB starts at {:>5}s, utilization {:>5.1}%",
            start(2),
            start(3),
            100.0 * out.schedule.utilization(),
        );
        print!("{}", fairsched_core::gantt::gantt(&out.schedule, 48));
        println!();
    }

    // The same contrast at workload scale (§1's "low system utilization").
    println!("\n== FCFS strawman vs the CPlant baseline on a 10% workload ==");
    let nodes = 1024;
    let trace = CplantModel::new(42)
        .with_nodes(nodes)
        .with_scale(0.1)
        .generate();
    for id in ["fcfs.nobackfill", "cplant24.nomax.all"] {
        let p = PolicySpec::by_id(id).unwrap();
        let out = run_policy(&trace, &p, nodes);
        let m = out.metrics();
        println!(
            "{:<20} turnaround {:>9.0}s  LOC {:>6.2}%  unfair {:>5.2}%",
            out.policy,
            m.average_turnaround,
            100.0 * m.loss_of_capacity,
            100.0 * m.percent_unfair,
        );
    }
}

/// Every sensitivity ablation DESIGN.md calls out, one table per knob.
pub fn ablation_tables(cfg: &ExperimentConfig) {
    fairsched_obs::log::info(format!(
        "workload: seed={} scale={} nodes={}",
        cfg.seed, cfg.scale, cfg.nodes
    ));
    let trace = cfg.trace();
    let show = |title: &str, rows: Vec<ab::AblationRow>| println!("{}", ab::render(title, &rows));
    let trace_sweeps = [
        (
            "fairshare decay factor",
            ab::decay_factor_sweep as fn(&[Job], u32) -> _,
        ),
        ("starvation entry delay", ab::starvation_delay_sweep),
        ("maximum runtime limit", ab::runtime_limit_sweep),
        ("heavy-user threshold", ab::heavy_threshold_sweep),
        ("reservation depth", ab::reservation_depth_sweep),
        ("user concurrency (closed loop)", ab::user_concurrency_sweep),
    ];
    for (title, sweep) in trace_sweeps {
        show(title, sweep(&trace, cfg.nodes));
    }
    show(
        "user width affinity",
        ab::width_affinity_sweep(cfg.seed, cfg.scale, cfg.nodes),
    );
    show("machine size", ab::machine_size_sweep(cfg.seed, cfg.scale));
}

/// The same baseline schedule under each 1-D CPA allocation strategy,
/// reporting placement quality. Scheduling outcomes are identical by
/// construction; only compactness differs.
pub fn placement_study(cfg: &ExperimentConfig) {
    let trace = cfg.trace();
    println!("== CPA placement strategies under the baseline policy ==");
    println!(
        "{:<10} {:>12} {:>12} {:>11} {:>11}",
        "strategy", "mean span", "compactness", "scattered", "ext frag"
    );
    for (name, strategy) in [
        ("FirstFit", PlacementStrategy::FirstFit),
        ("BestFit", PlacementStrategy::BestFit),
        ("MinSpan", PlacementStrategy::MinSpan),
    ] {
        let sim_cfg = SimConfig {
            nodes: cfg.nodes,
            allocation: AllocationModel::Linear(strategy),
            ..Default::default()
        };
        let s = match simulate(&trace, &sim_cfg, &mut NullObserver, SimOptions::new()) {
            Ok(s) => s,
            Err(e) => {
                fairsched_obs::log::warn(format!("{name}: simulation failed: {e}"));
                continue;
            }
        };
        let p = s.placement.expect("linear model reports stats");
        println!(
            "{name:<10} {:>12.1} {:>12.3} {:>11} {:>10.3}",
            p.mean_span, p.mean_compactness, p.scattered, p.mean_external_frag,
        );
    }
}

/// Fairness under failure: all nine §5.5 policies at several node-MTBF
/// levels under both resilience policies, printing per (policy, fault
/// level) cell the fairness aggregates split by crash exposure plus the
/// goodput. The fault timeline is a pure function of the fault seed, so
/// every cell is exactly reproducible.
pub fn fault_study(cfg: &ExperimentConfig) {
    let crash_rate = env_parse("FAIRSCHED_CRASH_RATE", 0.02);
    let fault_seed = env_parse("FAIRSCHED_FAULT_SEED", 0u64);
    let trace = cfg.trace();
    let policies = PolicySpec::paper_policies();

    // Per-node MTBF levels: none (control), then increasingly unreliable
    // hardware. On a 1024-node machine 4 weeks/node is a machine-level
    // failure roughly every 40 minutes.
    let mtbf_levels: [(&str, Option<u64>); 4] = [
        ("none", None),
        ("16w", Some(16 * WEEK)),
        ("4w", Some(4 * WEEK)),
        ("7d", Some(7 * DAY)),
    ];

    println!(
        "fault sensitivity: seed={} scale={} nodes={} crash_rate={} fault_seed={}",
        cfg.seed, cfg.scale, cfg.nodes, crash_rate, fault_seed
    );
    println!(
        "{:<22} {:>6} {:>8} {:>8} {:>11} {:>11} {:>9} {:>7}",
        "policy", "mtbf", "resil", "unfair%", "missI(s)", "missC(s)", "goodput%", "intr"
    );

    for (label, mtbf) in mtbf_levels {
        for resilience in [
            ResiliencePolicy::RequeueFromScratch,
            ResiliencePolicy::ChunkResume,
        ] {
            // Without any fault source the resilience policy is inert; run
            // the control row once.
            if mtbf.is_none() && crash_rate == 0.0 && resilience == ResiliencePolicy::ChunkResume {
                continue;
            }
            let faults = FaultConfig {
                node_mtbf: mtbf,
                job_crash_rate: crash_rate,
                resilience,
                seed: fault_seed,
                ..FaultConfig::default()
            };
            let resil = match resilience {
                ResiliencePolicy::RequeueFromScratch => "requeue",
                ResiliencePolicy::ChunkResume => "resume",
            };
            for result in try_run_policies(&trace, &policies, cfg.nodes, &faults) {
                match result {
                    Ok(outcome) => {
                        let split = outcome.resilience();
                        println!(
                            "{:<22} {:>6} {:>8} {:>7.2}% {:>11.0} {:>11.0} {:>8.2}% {:>7}",
                            outcome.policy,
                            label,
                            resil,
                            100.0 * outcome.fairness.percent_unfair(),
                            split.interrupted.average_miss_time(),
                            split.clean.average_miss_time(),
                            100.0 * split.goodput,
                            split.interrupted_count(),
                        );
                    }
                    Err(e) => println!(
                        "{:<22} {:>6} {:>8} FAILED: {}",
                        e.policy, label, resil, e.reason
                    ),
                }
            }
        }
    }
}

/// FSP / LAS / HFSP against the paper's nine policies under both
/// runtime-estimate models: **modeled** (the calibrated Figure 5–7
/// over-estimation the generator applies by default) and **exact** (every
/// estimate replaced by the true runtime). Each model runs as one
/// crash-safe journaled sweep, so a killed study resumes with
/// `FAIRSCHED_SWEEP_RESUME=1`; the two journals differ in fingerprint and
/// live side by side. Ends with the policies ranked by %unfair under each
/// model — the table EXPERIMENTS.md quotes.
pub fn size_based_study(cfg: &ExperimentConfig) {
    let seeds: Vec<u64> = std::env::var("FAIRSCHED_SWEEP_SEEDS")
        .map(|s| {
            s.split(',')
                .filter(|p| !p.is_empty())
                .map(|p| p.parse().expect("FAIRSCHED_SWEEP_SEEDS: integer list"))
                .collect()
        })
        .unwrap_or_else(|_| vec![cfg.seed]);

    let stem =
        std::env::var("FAIRSCHED_SWEEP_JOURNAL").unwrap_or_else(|_| "size_based.jsonl".into());
    let exact_journal = match stem.rsplit_once('.') {
        Some((base, ext)) => format!("{base}.exact.{ext}"),
        None => format!("{stem}.exact"),
    };

    let modeled = run_grid(cfg, &seeds, stem.clone().into(), false);
    let exact = run_grid(cfg, &seeds, exact_journal.clone().into(), true);

    println!();
    println!("ranking by %unfair (mean over seeds; modeled = Figure 5-7 over-estimation)");
    println!(
        "{:<6} {:<22} {:>14} {:>12}   {:<22} {:>14} {:>12}",
        "rank", "modeled", "unfair%", "miss(s)", "exact", "unfair%", "miss(s)"
    );
    let modeled_rank = ranking(&modeled);
    let exact_rank = ranking(&exact);
    for (i, pair) in modeled_rank.iter().zip(exact_rank.iter()).enumerate() {
        let ((mp, mu, mm), (ep, eu, em)) = pair;
        println!(
            "{:<6} {:<22} {:>13.2}% {:>12.0}   {:<22} {:>13.2}% {:>12.0}",
            i + 1,
            mp,
            100.0 * mu,
            mm,
            ep,
            100.0 * eu,
            em,
        );
    }
    println!();
    println!("journals: {stem} (modeled), {exact_journal} (exact)");
}

/// The study's policy axis: the paper's nine plus the size-based family.
fn combined_policies() -> Vec<PolicySpec> {
    let mut policies = PolicySpec::paper_policies();
    policies.extend(PolicySpec::size_based_policies());
    policies
}

fn run_grid(
    cfg: &ExperimentConfig,
    seeds: &[u64],
    journal: std::path::PathBuf,
    exact_estimates: bool,
) -> SweepSummary {
    let sweep = SweepConfig {
        plan: SweepPlan {
            seeds: seeds.to_vec(),
            policies: combined_policies(),
            faults: vec![FaultPoint::clean()],
            scale: cfg.scale,
            nodes: cfg.nodes,
            exact_estimates,
        },
        journal,
        timeout_per_cell: std::env::var("FAIRSCHED_SWEEP_TIMEOUT")
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Duration::from_secs_f64),
        max_retries: env_parse("FAIRSCHED_SWEEP_RETRIES", 1u32),
        resume: env_parse("FAIRSCHED_SWEEP_RESUME", 0u32) == 1,
        threads: None,
    };
    let model = if exact_estimates { "exact" } else { "modeled" };
    println!(
        "size-based grid [{model}]: {} cells ({} seeds x {} policies) scale={} nodes={} -> {}",
        sweep.plan.len(),
        sweep.plan.seeds.len(),
        sweep.plan.policies.len(),
        sweep.plan.scale,
        sweep.plan.nodes,
        sweep.journal.display(),
    );
    let summary = run_sweep(&sweep).expect("sweep journal IO");
    println!("{summary}");
    summary
}

/// Mean %unfair and miss over a journal's ok rows, keyed by policy id.
fn ranking(summary: &SweepSummary) -> Vec<(String, f64, f64)> {
    let mut rows: Vec<(String, f64, f64)> = combined_policies()
        .iter()
        .filter_map(|p| {
            let cells: Vec<_> = summary
                .rows
                .iter()
                .filter(|r| r.policy == p.id.as_ref() && r.status == CellStatus::Ok)
                .filter_map(|r| r.metrics.as_ref())
                .collect();
            if cells.is_empty() {
                return None;
            }
            let n = cells.len() as f64;
            let unfair = cells.iter().map(|m| m.percent_unfair).sum::<f64>() / n;
            let miss = cells.iter().map(|m| m.average_miss_time).sum::<f64>() / n;
            Some((p.id.to_string(), unfair, miss))
        })
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    rows
}

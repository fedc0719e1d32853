//! Regenerates the paper's tables and figures, and runs the studies
//! beyond them.
//!
//! ```text
//! figures <id>   # one of table1 table2 fig03 … fig19, or a study:
//!                # fig01_02 ablations cpa faults size_based
//! figures all    # every table and figure in paper order, from a single
//!                # evaluation (the studies are not included)
//! ```
//!
//! Honors `FAIRSCHED_SEED` / `FAIRSCHED_SCALE` / `FAIRSCHED_NODES`. Tables
//! 1–2 and Figures 4–7 characterize the workload alone; the others run the
//! nine-policy evaluation. The studies' extra knobs are listed in
//! [`fairsched_experiments::studies`]. An unknown id exits 2 with the id
//! list.
use fairsched_experiments::studies::STUDIES;
use fairsched_experiments::{characterization as ch, figures as f};
use fairsched_experiments::{evaluate, Evaluation, ExperimentConfig};
use fairsched_workload::job::Job;

/// What an artifact is computed from.
enum Report {
    Trace(fn(&[Job]) -> String),
    Evaluated(fn(&Evaluation) -> String),
}

/// Every artifact, in paper order.
const REPORTS: [(&str, Report); 19] = [
    ("table1", Report::Trace(ch::table1_report)),
    ("table2", Report::Trace(ch::table2_report)),
    ("fig03", Report::Evaluated(ch::fig03_report)),
    ("fig04", Report::Trace(ch::fig04_report)),
    ("fig05", Report::Trace(ch::fig05_report)),
    ("fig06", Report::Trace(ch::fig06_report)),
    ("fig07", Report::Trace(ch::fig07_report)),
    ("fig08", Report::Evaluated(f::fig08)),
    ("fig09", Report::Evaluated(f::fig09)),
    ("fig10", Report::Evaluated(f::fig10)),
    ("fig11", Report::Evaluated(f::fig11)),
    ("fig12", Report::Evaluated(f::fig12)),
    ("fig13", Report::Evaluated(f::fig13)),
    ("fig14", Report::Evaluated(f::fig14)),
    ("fig15", Report::Evaluated(f::fig15)),
    ("fig16", Report::Evaluated(f::fig16)),
    ("fig17", Report::Evaluated(f::fig17)),
    ("fig18", Report::Evaluated(f::fig18)),
    ("fig19", Report::Evaluated(f::fig19)),
];

fn main() {
    fairsched_obs::log::quiet_from_env();
    let id = std::env::args().nth(1).unwrap_or_default();
    let cfg = ExperimentConfig::from_env();
    match REPORTS.iter().find(|(name, _)| *name == id) {
        Some((_, Report::Trace(report))) => print!("{}", report(&cfg.trace())),
        Some((_, Report::Evaluated(report))) => print!("{}", report(&evaluate(cfg))),
        None if id == "all" => all(cfg),
        None => match STUDIES.iter().find(|(name, _)| *name == id) {
            Some((_, study)) => study(&cfg),
            None => usage(&id),
        },
    }
}

fn usage(id: &str) -> ! {
    let ids: Vec<&str> = REPORTS
        .iter()
        .map(|(name, _)| *name)
        .chain(STUDIES.iter().map(|(name, _)| *name))
        .collect();
    eprintln!(
        "usage: figures <id>|all\nunknown id {id:?}; ids: {}",
        ids.join(" ")
    );
    std::process::exit(2);
}

/// Runs the nine policy simulations once and prints every artifact.
fn all(cfg: ExperimentConfig) {
    fairsched_obs::log::info(format!(
        "workload: seed={} scale={} nodes={}",
        cfg.seed, cfg.scale, cfg.nodes
    ));
    let e = evaluate(cfg);
    for failure in e.failures() {
        fairsched_obs::log::warn(format!("{failure} (its rows are skipped below)"));
    }
    for (_, report) in &REPORTS {
        match report {
            Report::Trace(report) => println!("{}", report(&e.trace)),
            Report::Evaluated(report) => println!("{}", report(&e)),
        }
    }
}

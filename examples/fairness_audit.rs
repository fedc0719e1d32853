//! Fairness audit: §4's metric survey in action. Runs one schedule and
//! scores it with every fairness metric the paper discusses — the hybrid
//! fairshare FST (its contribution), the CONS_P baseline, Sabin &
//! Sadayappan's scheduler-dependent FST, resource equality, and the Jain /
//! standard-deviation strawmen — so their disagreements are visible on real
//! data.
//!
//! ```sh
//! cargo run --release --example fairness_audit
//! ```

use fairsched::metrics::fairness::consp::{consp_fsts, consp_report};
use fairsched::metrics::fairness::jain::{jain_index, stddev};
use fairsched::metrics::fairness::sabin::sabin_fsts_parallel_sampled;
use fairsched::prelude::*;

fn main() {
    // Small scale: the Sabin metric re-simulates per sampled job.
    let nodes = 1024;
    let trace = CplantModel::new(7)
        .with_nodes(nodes)
        .with_scale(0.05)
        .generate();
    let policy = PolicySpec::baseline();
    let cfg = policy.sim_config(nodes);

    println!("auditing {} on {} jobs\n", policy.id, trace.len());

    // One simulation with the hybrid FST observer attached.
    let mut hybrid_obs = HybridFstObserver::new();
    let schedule = simulate(&trace, &cfg, &mut hybrid_obs, SimOptions::new())
        .expect("baseline config is valid");
    let hybrid = hybrid_obs.into_report();

    // CONS_P: one extra FCFS-conservative-perfect run.
    let consp = consp_report(&schedule, &consp_fsts(&trace, nodes));

    // Sabin FST: one truncated re-simulation per sampled job (1 in 8),
    // fanned across the warm-start prefix engine's thread pool.
    let sabin = sabin_report(
        &schedule,
        &sabin_fsts_parallel_sampled(&trace, &cfg, 8, None),
    );

    println!(
        "{:<28} {:>9} {:>14} {:>14}",
        "FST metric", "unfair%", "avg miss (s)", "miss of unfair"
    );
    for (name, report) in [
        ("hybrid fairshare (§4.1)", &hybrid),
        ("CONS_P", &consp),
        ("Sabin (1-in-8 sample)", &sabin),
    ] {
        println!(
            "{:<28} {:>8.2}% {:>14.0} {:>14.0}",
            name,
            100.0 * report.percent_unfair(),
            report.average_miss_time(),
            report.average_miss_of_unfair(),
        );
    }

    // Resource equality: schedule-relative, no FST; a function of the
    // schedule above.
    let equality = equality_report(&schedule);
    println!(
        "\nresource equality: total under-service {:.0} node-hours, discrimination σ {:.0} node-s",
        equality.total_underservice() / 3600.0,
        equality.discrimination_stddev(),
    );

    // The strawmen: turnaround spread punished regardless of cause.
    let turnarounds: Vec<f64> = schedule
        .records
        .iter()
        .map(|r| r.turnaround() as f64)
        .collect();
    println!(
        "strawmen: Jain index over turnaround {:.3}, turnaround σ {:.0}s",
        jain_index(&turnarounds),
        stddev(&turnarounds),
    );
    println!("\n(§4's point: the strawmen cannot distinguish burst-induced variance\nfrom scheduler-induced unfairness; the FST metrics can.)");
}

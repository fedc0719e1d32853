//! Zero-interference contract of the observability layer, end to end.
//!
//! Attaching a decision-trace sink (or the profiling scope) to a run must
//! never change what the scheduler decides: a traced run's `Schedule` and
//! fairness report are byte-identical to the untraced run's, across
//! policies, trace seeds, and fault configurations (every other report is
//! a function of those two, so it follows). This is
//! the half of the "zero-cost when off" design the type system cannot
//! enforce — emission sites live inside the engines' decision loops, so a
//! stray `&mut` or an emission-order dependence would silently fork the
//! schedule. These proptests pin it.

use fairsched::prelude::*;
use fairsched::sim::RepairTime;
use fairsched::workload::synthetic::random_trace;
use proptest::prelude::*;

const NODES: u32 = 32;

fn fault_cfg(variant: u8, seed: u64) -> FaultConfig {
    match variant {
        // Fault-free.
        0 => FaultConfig::default(),
        // Crashes, rerun from scratch.
        1 => FaultConfig {
            job_crash_rate: 0.2,
            resilience: ResiliencePolicy::RequeueFromScratch,
            seed,
            ..FaultConfig::default()
        },
        // Node outages + crashes, resuming chunks.
        _ => FaultConfig {
            node_mtbf: Some(50_000),
            repair: RepairTime { min: 60, max: 600 },
            job_crash_rate: 0.1,
            resilience: ResiliencePolicy::ChunkResume,
            seed,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A fully traced, fully profiled run reproduces the untraced
    /// `PolicyRun` exactly — schedule and fairness — while actually
    /// recording decisions.
    #[test]
    fn traced_runs_are_byte_identical_to_untraced(
        trace_seed in 0u64..1000,
        policy_idx in 0usize..9,
        fault_variant in 0u8..3,
        fault_seed in 0u64..1000,
    ) {
        let trace = random_trace(trace_seed, 40, NODES / 2, 20_000);
        let policy = &PolicySpec::paper_policies()[policy_idx];
        let untraced_opts = RunOptions::with_faults(fault_cfg(fault_variant, fault_seed));
        // The traced run additionally profiles: both instrumentation
        // layers at once must still be invisible to the scheduler.
        let traced_opts = RunOptions { profile: true, ..untraced_opts.clone() };

        let untraced = try_run_policy(&trace, policy, NODES, &untraced_opts).unwrap();
        let mut records: Vec<TraceRecord> = Vec::new();
        let traced =
            try_run_policy_traced(&trace, policy, NODES, &traced_opts, Some(&mut records))
                .unwrap();

        prop_assert_eq!(&traced.outcome.schedule, &untraced.outcome.schedule);
        prop_assert_eq!(&traced.outcome.fairness, &untraced.outcome.fairness);
        prop_assert!(traced.profile.is_some() && untraced.profile.is_none());

        // The trace is not vacuous: every start decision is recorded, in
        // nondecreasing time order, and with a start cause.
        let starts = records
            .iter()
            .filter(|r| matches!(r, TraceRecord::JobStarted { .. }))
            .count();
        prop_assert_eq!(starts, traced.outcome.schedule.records.len());
        prop_assert!(records.windows(2).all(|w| w[0].at() <= w[1].at()));
    }

    /// Tracing twice gives the identical record stream: decisions are a
    /// pure function of (trace, config), and so is their narration.
    #[test]
    fn decision_traces_are_reproducible(
        trace_seed in 0u64..1000,
        policy_idx in 0usize..9,
    ) {
        let trace = random_trace(trace_seed, 30, NODES / 2, 15_000);
        let policy = &PolicySpec::paper_policies()[policy_idx];
        let opts = RunOptions::default();
        let mut a: Vec<TraceRecord> = Vec::new();
        let mut b: Vec<TraceRecord> = Vec::new();
        try_run_policy_traced(&trace, policy, NODES, &opts, Some(&mut a)).unwrap();
        try_run_policy_traced(&trace, policy, NODES, &opts, Some(&mut b)).unwrap();
        prop_assert_eq!(a, b);
    }
}

/// The raw simulator entry point honors the same contract, and the JSONL
/// rendering round-trips every record into one well-formed line.
#[test]
fn traced_simulation_matches_untraced_and_serializes() {
    let trace = random_trace(11, 60, NODES / 2, 20_000);
    let cfg = SimConfig {
        nodes: NODES,
        engine: EngineKind::Conservative { dynamic: false },
        ..Default::default()
    };
    let clean = simulate(&trace, &cfg, &mut NullObserver, SimOptions::new()).unwrap();
    let mut records = Vec::new();
    let traced = simulate(
        &trace,
        &cfg,
        &mut NullObserver,
        SimOptions::new().trace(&mut records),
    )
    .unwrap();
    assert_eq!(clean, traced);
    assert!(!records.is_empty());
    for rec in &records {
        let line = rec.to_jsonl();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"type\":\""), "{line}");
        assert!(!line.contains('\n'));
    }
}

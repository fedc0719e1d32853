//! Properties of the single-pass metric collection: `try_run_policy` must
//! be byte-identical to a bare simulation with the hybrid FST observer,
//! and the warm-start parallel Sabin prefix engine must reproduce the
//! serial from-scratch FSTs exactly.

use fairsched::prelude::*;
use fairsched::workload::synthetic::random_trace;
use proptest::prelude::*;

const NODES: u32 = 32;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `try_run_policy` returns exactly the schedule and hybrid FST report
    /// of one `simulate` run with a single `HybridFstObserver` attached —
    /// with and without fault injection.
    #[test]
    fn try_run_policy_matches_one_hybrid_observer_run(seed in 0u64..500, crash in 0u8..2) {
        let trace = random_trace(seed, 50, NODES, 8000);
        let policy = PolicySpec::baseline();
        let faults = FaultConfig {
            job_crash_rate: if crash == 1 { 0.2 } else { 0.0 },
            seed,
            ..Default::default()
        };
        let run = try_run_policy(&trace, &policy, NODES, &RunOptions::with_faults(faults.clone()))
            .unwrap();

        let mut cfg = policy.sim_config(NODES);
        cfg.faults = faults;
        let mut hybrid = HybridFstObserver::new();
        let schedule = simulate(&trace, &cfg, &mut hybrid, SimOptions::new()).unwrap();

        prop_assert_eq!(run.outcome.schedule, schedule);
        prop_assert_eq!(run.outcome.fairness, hybrid.into_report());
    }

    /// The warm-start parallel Sabin engine returns exactly the serial
    /// from-scratch FSTs, whatever the thread count.
    #[test]
    fn parallel_sabin_matches_serial_from_scratch(
        seed in 0u64..300,
        threads in 1usize..5,
        engine_idx in 0usize..3,
    ) {
        let trace = random_trace(seed, 40, NODES, 6000);
        // NoGuarantee and Easy take the warm-start path; Conservative is
        // stateful and exercises the from-scratch fallback.
        let engine = [
            EngineKind::NoGuarantee,
            EngineKind::Easy,
            EngineKind::Conservative { dynamic: false },
        ][engine_idx];
        let cfg = SimConfig {
            nodes: NODES,
            engine,
            ..Default::default()
        };
        let serial = sabin_fsts(&trace, &cfg);
        let parallel = sabin_fsts_parallel(&trace, &cfg, Some(threads));
        prop_assert_eq!(&serial, &parallel);

        // And the derived reports agree entry for entry.
        let schedule = simulate(&trace, &cfg, &mut NullObserver, SimOptions::new()).unwrap();
        prop_assert_eq!(
            sabin_report(&schedule, &serial),
            sabin_report(&schedule, &parallel)
        );
    }

    /// Every engine composition row is explicitly classified by
    /// `warm_start_forkable`, and for every row it declares forkable the
    /// warm-started prefix FSTs equal the from-scratch ones — the guard
    /// against a new stateful order strategy silently riding the fork path
    /// with state the clone does not carry.
    #[test]
    fn every_engine_row_is_classified_and_warm_equals_cold(
        seed in 0u64..200,
        engine_idx in 0usize..9,
    ) {
        let kinds = EngineKind::representatives();
        prop_assert_eq!(kinds.len(), 9, "representatives() must cover every variant");
        let engine = kinds[engine_idx];
        // Classification is total: the match in warm_start_forkable has no
        // wildcard, so merely calling it on every representative proves
        // each row was consciously classified.
        let forkable = warm_start_forkable(engine);
        if matches!(engine, EngineKind::Conservative { dynamic: true }) {
            prop_assert!(!forkable, "dynamic conservative must stay from-scratch");
        }

        let trace = random_trace(seed, 30, NODES, 5000);
        let cfg = SimConfig {
            nodes: NODES,
            engine,
            ..Default::default()
        };
        prop_assert_eq!(warm_start_supported(&cfg), forkable);
        if forkable {
            // The parallel path forks a warm master when supported; serial
            // replays every prefix from scratch. Equal FSTs prove the
            // strategy's cloned state is exact.
            let warm = sabin_fsts_parallel(&trace, &cfg, Some(2));
            let cold = sabin_fsts(&trace, &cfg);
            prop_assert_eq!(warm, cold, "warm-start diverged for {:?}", engine);
        }
    }
}

//! Streaming-fairness convergence: the live observer riding inside
//! `fairschedd` must agree with the after-the-fact batch verdict.
//!
//! [`StreamingFairness`] maintains the fairness view event-by-event so an
//! operator can watch a live scheduler; the batch path computes the same
//! view from the finished schedule. This suite pins the convergence
//! guarantee the observability layer rests on, for every
//! warm-start-forkable [`EngineKind`] representative over randomized
//! traces driven through the *stepped* core (the service's code path):
//!
//! * the sealed [`FstReport`] is **equal** to the batch
//!   [`HybridFstObserver`] report — same entries, same misses;
//! * per-user rows equal [`per_user`] on the finished schedule,
//!   bit-for-bit (integer accumulation: no f64 ordering drift);
//! * live utilization lands on [`Schedule::utilization`] at seal;
//! * observing changes nothing: the instrumented online run seals into
//!   the schedule the batch simulator produces.

use fairsched::metrics::fairness::peruser::per_user;
use fairsched::metrics::fairness::stream::StreamingFairness;
use fairsched::prelude::*;
use fairsched::sim::StarvationConfig;
use proptest::prelude::*;

const NODES: u32 = 32;

fn arb_trace() -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec(
        (
            0u64..2_000,
            1u32..=NODES,
            1u64..10_000,
            1.0f64..4.0,
            1u32..=5,
        ),
        1..40,
    )
    .prop_map(|rows| {
        let mut t = 0u64;
        rows.iter()
            .enumerate()
            .map(|(i, &(gap, nodes, runtime, factor, user))| {
                t += gap;
                Job::new(
                    i as u32 + 1,
                    user,
                    1,
                    t,
                    nodes,
                    runtime,
                    ((runtime as f64 * factor) as u64).max(1),
                )
            })
            .collect()
    })
}

fn forkable_engines() -> Vec<EngineKind> {
    EngineKind::representatives()
        .into_iter()
        .filter(|&kind| warm_start_forkable(kind))
        .collect()
}

fn base_cfg(engine: EngineKind) -> SimConfig {
    SimConfig {
        nodes: NODES,
        engine,
        starvation: Some(StarvationConfig::default()),
        ..Default::default()
    }
}

/// Replays `jobs` through the stepped core with the streaming observer
/// attached to every step — the exact shape of the serving loop — and
/// returns the sealed schedule alongside the observer.
fn replay_streamed(
    jobs: &[Job],
    cfg: &SimConfig,
) -> Result<(Schedule, StreamingFairness), SimError> {
    let mut core = SteppedSim::new(cfg)?;
    let mut stream = StreamingFairness::new(cfg.nodes);
    let mut sorted: Vec<&Job> = jobs.iter().collect();
    sorted.sort_by_key(|j| (j.submit, j.id));
    for job in sorted {
        core.step(SimEvent::Submit(job.clone()), &mut stream)?;
    }
    while let Some(at) = core.next_wakeup() {
        core.step(SimEvent::AdvanceTo(at), &mut stream)?;
    }
    let schedule = core.finish()?;
    // The stepped core's `finish` hands back the schedule without an
    // observer; the seal hook fires by hand, as `Session::seal` does.
    stream.on_finish(&schedule);
    Ok((schedule, stream))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// At seal, the streaming gauges equal the batch observers' verdict
    /// for the same trace, for every warm-start-forkable engine.
    #[test]
    fn streaming_fairness_converges_to_the_batch_verdict(jobs in arb_trace()) {
        for engine in forkable_engines() {
            let cfg = base_cfg(engine);
            let mut batch = HybridFstObserver::new();
            let reference = simulate(&jobs, &cfg, &mut batch, SimOptions::new())
                .expect("batch run");
            let batch_report = batch.into_report();

            let (sealed, stream) = replay_streamed(&jobs, &cfg).expect("streamed run");
            prop_assert_eq!(
                &sealed,
                &reference,
                "engine {:?}: observing perturbed the schedule",
                engine
            );
            prop_assert_eq!(
                stream.report(),
                batch_report.clone(),
                "engine {:?}: sealed FST report diverged from batch",
                engine
            );
            prop_assert_eq!(
                stream.users(),
                per_user(&reference, &batch_report),
                "engine {:?}: per-user rows diverged from batch",
                engine
            );

            let snap = stream.snapshot();
            prop_assert_eq!(snap.arrivals as usize, jobs.len());
            prop_assert_eq!(snap.completed as usize, reference.records.len());
            prop_assert_eq!(snap.queue_depth, 0);
            prop_assert_eq!(snap.busy_nodes, 0);
            prop_assert!(
                (snap.utilization - reference.utilization()).abs() < 1e-9,
                "engine {:?}: live utilization {} vs batch {}",
                engine,
                snap.utilization,
                reference.utilization()
            );
            prop_assert_eq!(snap.total_miss, batch_report.total_miss());
        }
    }
}

//! Replay equivalence: feeding recorded arrivals through the *online*
//! service — submissions interleaved with virtual-clock grants — must
//! produce a [`Schedule`] byte-identical to handing the whole trace to
//! the batch simulator at once.
//!
//! This is the load-bearing property of `fairschedd`: the event queue
//! orders by `(time, kind, id)` independent of insertion order, and the
//! session's monotonic-submission rule guarantees no event is processed
//! before every arrival at or below its timestamp is in the queue. The
//! suite pins the property for every warm-start-forkable
//! [`EngineKind`] representative, over randomized traces and randomized
//! grant schedules, and once through a realtime clock at high speedup.

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

/// Replays `jobs` online through a [`SteppedSim`]: submissions strictly
/// before any grant reaching their timestamp, with grant horizons chosen
/// by `grant_gaps` (cycled). Returns the sealed schedule.
fn replay_online(jobs: &[Job], cfg: &SimConfig, grant_gaps: &[u64]) -> Result<Schedule, SimError> {
    let mut core = SteppedSim::new(cfg)?;
    let mut granted: Time = 0;
    let mut gap_idx = 0;
    let mut sorted: Vec<&Job> = jobs.iter().collect();
    sorted.sort_by_key(|j| (j.submit, j.id));
    for job in sorted {
        // Grant time in arbitrary increments, but never up to or past the
        // next submission — the service enforces the same invariant via
        // its NonMonotonicSubmit rejection.
        while !grant_gaps.is_empty() && granted + 1 < job.submit {
            let gap = grant_gaps[gap_idx % grant_gaps.len()].max(1);
            gap_idx += 1;
            granted = (granted + gap).min(job.submit.saturating_sub(1));
            core.step(SimEvent::AdvanceTo(granted), &mut NullObserver)?;
        }
        core.step(SimEvent::Submit(job.clone()), &mut NullObserver)?;
    }
    // Seal: play out everything left.
    while let Some(at) = core.next_wakeup() {
        core.step(SimEvent::AdvanceTo(at), &mut NullObserver)?;
    }
    core.finish()
}

fn base_cfg(engine: EngineKind) -> SimConfig {
    SimConfig {
        nodes: NODES,
        engine,
        starvation: Some(StarvationConfig::default()),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Online replay ≡ batch, for every warm-start-forkable engine
    /// representative, any trace, any grant schedule.
    #[test]
    fn online_replay_is_byte_identical_to_batch(
        jobs in arb_trace(),
        gaps in prop::collection::vec(1u64..5_000, 1..6),
    ) {
        for engine in forkable_engines() {
            let cfg = base_cfg(engine);
            let batch = simulate(&jobs, &cfg, &mut NullObserver, SimOptions::new())
                .expect("batch run");
            let online = replay_online(&jobs, &cfg, &gaps).expect("online run");
            prop_assert_eq!(
                &online,
                &batch,
                "engine {:?} diverged online vs batch",
                engine
            );
        }
    }

    /// The id floor keeps chained ids equivalent when a replay starts
    /// from a nonzero floor (the service's --id-floor path).
    #[test]
    fn id_floor_reservation_is_inert_for_plain_traces(
        jobs in arb_trace(),
        floor in 0u32..10_000,
    ) {
        let cfg = base_cfg(EngineKind::Easy);
        let batch = simulate(&jobs, &cfg, &mut NullObserver, SimOptions::new())
            .expect("batch run");
        let mut core = SteppedSim::new(&cfg).expect("core");
        core.reserve_ids(floor);
        for job in &jobs {
            core.step(SimEvent::Submit(job.clone()), &mut NullObserver)
                .expect("submit");
        }
        while let Some(at) = core.next_wakeup() {
            core.step(SimEvent::AdvanceTo(at), &mut NullObserver).expect("advance");
        }
        // Without runtime limits or faults no fresh ids are minted, so
        // the floor cannot leak into the schedule.
        prop_assert_eq!(core.finish().expect("finish"), batch);
    }
}

/// The service path end to end: recorded CplantModel arrivals through a
/// realtime clock at high speedup must seal into the batch schedule, for
/// every warm-start-forkable engine representative (exercised through
/// the session API; the HTTP layer is pinned by `crates/served` tests).
#[test]
fn cplant_arrivals_replay_through_the_service_at_high_speedup() {
    let jobs: Vec<Job> = {
        let mut jobs = CplantModel::new(11).with_nodes(256).generate();
        jobs.truncate(120);
        jobs
    };
    // Shift arrivals far enough ahead that submitting them all comfortably
    // beats the accelerated clock (10_000x: the 1h lead lasts ~0.36 wall
    // seconds per 3.6M simulated seconds of shift — we shift by a week).
    let lead = WEEK;
    let shifted: Vec<Job> = jobs
        .iter()
        .map(|j| Job {
            submit: j.submit + lead,
            ..j.clone()
        })
        .collect();

    // Policy-id-addressable engines with forkable warm starts; the ids
    // mirror EngineKind::representatives() minus dynamic conservative.
    let policies = [
        "cplant24.nomax.all",
        "easy.nomax",
        "cons.nomax",
        "rdepth2.nomax",
        "fcfs.nobackfill",
        "fsp.nomax",
        "las.nomax",
        "hfsp.nomax",
    ];
    for policy in policies {
        let spec = fairsched::core::policy::PolicySpec::parse(policy).expect("known policy");
        assert!(
            warm_start_forkable(spec.engine),
            "{policy} should be forkable"
        );
        let batch = simulate(
            &shifted,
            &spec.sim_config(256),
            &mut NullObserver,
            SimOptions::new(),
        )
        .expect("batch run");

        let session = Session::new(SessionConfig {
            policy: policy.into(),
            nodes: 256,
            clock: ClockMode::Realtime { speedup: 10_000.0 },
            traced: false,
            id_floor: 0,
            ..SessionConfig::default()
        })
        .expect("session");
        for job in &shifted {
            session
                .submit_batched(&SubmitRequest::from_job(job))
                .unwrap_or_else(|e| panic!("{policy}: lost submission {}: {e}", job.id));
        }
        // Let the accelerated clock drive some of the run live, then seal
        // the rest — both paths must agree with batch.
        std::thread::sleep(std::time::Duration::from_millis(30));
        session.tick().expect("tick");
        let seal = session.seal().expect("seal");
        assert_eq!(seal.records, batch.records.len() as u64, "{policy}");
        assert_eq!(
            session.schedule().expect("sealed schedule"),
            batch,
            "{policy} diverged online vs batch"
        );
    }
}

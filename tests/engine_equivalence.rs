//! Old-vs-new engine equivalence suite (the strategy-decomposition refactor).
//!
//! The scheduling core was refactored from monolithic engine
//! implementations into one `Engine` built from a `QueueOrderStrategy` and
//! a `ReservationLedger`, whose admission rule the one shared backfill walk
//! applies. The refactor must preserve byte-identical `Schedule`s: these
//! goldens were recorded at small scale against the pre-refactor engines
//! (commit `bc1d7de`) and every recomposed policy is replayed against them.
//! A digest mismatch means the recomposition changed an actual scheduling
//! decision somewhere — not just formatting. A second table pins each
//! scenario's decision trace, which also carries the start causes and
//! reservation moves a schedule cannot show.
//!
//! To re-record after an *intentional* semantic change (which should be rare
//! and loudly justified):
//!
//! ```text
//! cargo test --test engine_equivalence -- --ignored print_goldens --nocapture
//! cargo test --test engine_equivalence -- --ignored print_trace_goldens --nocapture
//! ```

use fairsched_core::policy::PolicySpec;
use fairsched_obs::TraceRecord;
use fairsched_sim::{
    simulate, EngineKind, FaultConfig, KillPolicy, NullObserver, QueueOrder, ResiliencePolicy,
    RuntimeLimit, Schedule, SimConfig, SimOptions,
};
use fairsched_workload::job::Job;
use fairsched_workload::synthetic::random_trace;

/// Machine size all scenarios run on.
const NODES: u32 = 32;

/// FNV-1a over every semantically meaningful `Schedule` field. Floats are
/// hashed by bit pattern: the integrals must be *identical*, not close.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn digest_schedule(s: &Schedule) -> u64 {
    let mut d = Digest::new();
    d.u64(s.nodes as u64);
    d.u64(s.records.len() as u64);
    for r in &s.records {
        d.u64(r.id.0 as u64);
        d.u64(r.origin.0 as u64);
        d.u64(r.chunk_index as u64);
        d.u64(r.user.0 as u64);
        d.u64(r.nodes as u64);
        d.u64(r.submit);
        d.u64(r.origin_submit);
        d.u64(r.start);
        d.u64(r.end);
        d.u64(r.estimate);
        d.u64(r.killed as u64);
        d.u64(r.interrupted as u64);
    }
    d.f64(s.waste_nodeseconds);
    d.f64(s.busy_nodeseconds);
    d.f64(s.down_nodeseconds);
    d.f64(s.lost_nodeseconds);
    d.u64(s.weekly_busy.len() as u64);
    for w in &s.weekly_busy {
        d.f64(*w);
    }
    d.u64(s.min_start);
    d.u64(s.max_completion);
    d.u64(s.queue_stats.max_queued_jobs as u64);
    d.u64(s.queue_stats.max_queued_demand);
    d.f64(s.queue_stats.mean_queued_jobs);
    d.f64(s.queue_stats.mean_queued_demand);
    d.0
}

/// Trace A: long jobs (up to ~69 h, estimates past the 72 h limit) under
/// heavy backlog, chosen so every policy pair in the table actually
/// diverges — queue waits cross both starvation thresholds, the 72 h-limit
/// policies chunk, and the 24 h vs 72 h entry delays produce different
/// schedules (seed-scanned when the goldens were recorded).
fn trace_a() -> Vec<Job> {
    random_trace(13, 200, 32, 250_000)
}

/// Trace B: shorter, denser mix for the minor-policy subset.
fn trace_b() -> Vec<Job> {
    random_trace(7, 100, 28, 120_000)
}

fn faults_nodes_and_crashes(resilience: ResiliencePolicy) -> FaultConfig {
    FaultConfig {
        node_mtbf: Some(2_000_000),
        job_crash_rate: 0.05,
        resilience,
        seed: 11,
        ..Default::default()
    }
}

/// Every scenario in a fixed order: `(label, trace, config)`.
fn scenarios() -> Vec<(String, Vec<Job>, SimConfig)> {
    let mut out = Vec::new();
    // The nine paper policies on the long-job trace.
    for p in PolicySpec::paper_policies() {
        out.push((format!("paper/{}", p.id), trace_a(), p.sim_config(NODES)));
    }
    // The minor subset again on a second, denser trace.
    for p in PolicySpec::minor_policies() {
        out.push((format!("minor/{}", p.id), trace_b(), p.sim_config(NODES)));
    }
    // The non-paper reference engines.
    for p in [PolicySpec::easy(), PolicySpec::fcfs_no_backfill()] {
        out.push((format!("extra/{}", p.id), trace_a(), p.sim_config(NODES)));
    }
    for depth in [0u32, 2] {
        let mut cfg = SimConfig {
            nodes: NODES,
            engine: EngineKind::ReservationDepth(depth),
            starvation: None,
            ..Default::default()
        };
        cfg.kill = KillPolicy::AtWcl;
        out.push((format!("extra/depth{depth}.atwcl"), trace_a(), cfg));
    }
    // Non-default knobs: FCFS order, never-kill, closed-loop users.
    {
        let mut cfg = PolicySpec::baseline().sim_config(NODES);
        cfg.order = QueueOrder::Fcfs;
        cfg.kill = KillPolicy::Never;
        out.push(("knobs/cplant24.fcfs.nokill".into(), trace_b(), cfg));
    }
    {
        let mut cfg = PolicySpec::by_id("cons.nomax").unwrap().sim_config(NODES);
        cfg.user_concurrency = Some(2);
        out.push(("knobs/cons.nomax.closed2".into(), trace_b(), cfg));
    }
    // Fault injection across the engine families and both resilience
    // policies (node outages force the reservation paths to plan around
    // repairs; crashes exercise the requeue/chunk-resume lifecycles).
    for (policy, resilience, tag) in [
        (
            PolicySpec::baseline(),
            ResiliencePolicy::RequeueFromScratch,
            "requeue",
        ),
        (
            PolicySpec::baseline(),
            ResiliencePolicy::ChunkResume,
            "resume",
        ),
        (
            PolicySpec::by_id("cons.nomax").unwrap(),
            ResiliencePolicy::RequeueFromScratch,
            "requeue",
        ),
        (
            PolicySpec::by_id("consdyn.nomax").unwrap(),
            ResiliencePolicy::ChunkResume,
            "resume",
        ),
        (
            PolicySpec::by_id("cplant24.72max.all").unwrap(),
            ResiliencePolicy::ChunkResume,
            "resume",
        ),
    ] {
        let mut cfg = policy.sim_config(NODES);
        cfg.faults = faults_nodes_and_crashes(resilience);
        out.push((format!("faults/{}.{tag}", policy.id), trace_b(), cfg));
    }
    // The size-based family (FSP / LAS / HFSP): stateful virtual-fair and
    // least-attained orders, recorded when the family landed. Appended
    // after the original 25 so those stay byte-for-byte pinned.
    for p in PolicySpec::size_based_policies() {
        out.push((
            format!("sizebased/{}", p.id),
            trace_a(),
            p.sim_config(NODES),
        ));
    }
    for (id, resilience, tag) in [
        ("fsp.nomax", ResiliencePolicy::RequeueFromScratch, "requeue"),
        ("las.nomax", ResiliencePolicy::ChunkResume, "resume"),
        ("hfsp.72max", ResiliencePolicy::ChunkResume, "resume"),
    ] {
        let mut cfg = PolicySpec::by_id(id).unwrap().sim_config(NODES);
        cfg.faults = faults_nodes_and_crashes(resilience);
        out.push((format!("faults/{id}.{tag}"), trace_b(), cfg));
    }
    out
}

/// Goldens recorded against the pre-refactor monolithic engines. Each line
/// is `(scenario label, FNV-1a digest of the Schedule)`.
const GOLDENS: &[(&str, u64)] = &[
    ("paper/cplant24.nomax.all", 0x1f7c91f8a34f9f06),
    ("paper/cplant72.nomax.all", 0x20785f9645b7d615),
    ("paper/cplant24.nomax.fair", 0x5ca604eddce74d3d),
    ("paper/cplant24.72max.all", 0xa58766cdc706dd5a),
    ("paper/cplant72.72max.fair", 0xb6dd64febb534ff1),
    ("paper/cons.nomax", 0xbd96cd6c195ee7af),
    ("paper/cons.72max", 0x8fec7b6b4a448fe9),
    ("paper/consdyn.nomax", 0xcf1e9d1a6621999d),
    ("paper/consdyn.72max", 0x2e99248d7e84e882),
    ("minor/cplant24.nomax.all", 0x1723ccadde128a56),
    ("minor/cplant72.nomax.all", 0x923f1d032e37585d),
    ("minor/cplant24.nomax.fair", 0xde24ff9495bbf047),
    ("minor/cplant24.72max.all", 0xc5c5a8bb8e625d16),
    ("minor/cplant72.72max.fair", 0xb7101bbdbd5ca49e),
    ("extra/easy.nomax", 0x1516060870104b11),
    ("extra/fcfs.nobackfill", 0x9d401475536a53f6),
    ("extra/depth0.atwcl", 0x4ebd4254e50b08d8),
    ("extra/depth2.atwcl", 0xce31a03f12155e8f),
    ("knobs/cplant24.fcfs.nokill", 0xb71eebb37185a048),
    ("knobs/cons.nomax.closed2", 0x86214840d59baa7b),
    ("faults/cplant24.nomax.all.requeue", 0xe31077d2f40af063),
    ("faults/cplant24.nomax.all.resume", 0x2499fe96c8c30270),
    ("faults/cons.nomax.requeue", 0x3e9564953a9f5613),
    ("faults/consdyn.nomax.resume", 0xe2bfff51b9b840a7),
    ("faults/cplant24.72max.all.resume", 0x978a727e5dace8d2),
    // Size-based family goldens, recorded when FSP/LAS/HFSP landed. FSP
    // and HFSP coincide on the unlimited trace-A scenario (aging never
    // flips a decision there) but diverge under 72 h chunking, which
    // shrinks virtual remainders enough for the aging credit to matter.
    ("sizebased/fsp.nomax", 0x7086e9a3aefdfdd7),
    ("sizebased/las.nomax", 0x2908170e889648ed),
    ("sizebased/hfsp.nomax", 0x7086e9a3aefdfdd7),
    ("sizebased/fsp.72max", 0xa2f3a067387df1dd),
    ("sizebased/las.72max", 0x361117a621a59116),
    ("sizebased/hfsp.72max", 0x2be051936d752f62),
    ("faults/fsp.nomax.requeue", 0x6c14bf498e581c8d),
    ("faults/las.nomax.resume", 0x78cf802f534c967d),
    ("faults/hfsp.72max.resume", 0x5608530cf8dd1df4),
];

fn run(trace: &[Job], cfg: &SimConfig) -> Schedule {
    simulate(trace, cfg, &mut NullObserver, SimOptions::new()).expect("scenario simulates cleanly")
}

/// FNV-1a over a traced run's decision records, one JSONL line each
/// (newline-terminated). Unlike the schedule digest this sees every start
/// cause (`fcfs`, `reservation`, `backfilled` with its bypass list,
/// `starvation_guard`) and every reservation made or shifted.
fn digest_trace(trace: &[Job], cfg: &SimConfig) -> u64 {
    let mut records: Vec<TraceRecord> = Vec::new();
    simulate(
        trace,
        cfg,
        &mut NullObserver,
        SimOptions::new().trace(&mut records),
    )
    .expect("scenario simulates cleanly");
    let mut d = Digest::new();
    for r in &records {
        d.bytes(r.to_jsonl().as_bytes());
        d.bytes(b"\n");
    }
    d.0
}

/// Decision-trace goldens, one per scenario in the same order as
/// `GOLDENS`, recorded before the four backfill walks were merged into
/// one. Re-record with `print_trace_goldens`.
const TRACE_GOLDENS: &[(&str, u64)] = &[
    ("paper/cplant24.nomax.all", 0xf0f679dc55fafbd0),
    ("paper/cplant72.nomax.all", 0x3bdeb057682dc64f),
    ("paper/cplant24.nomax.fair", 0xb63333b06a13f765),
    ("paper/cplant24.72max.all", 0xdf6ee03feaed63c3),
    ("paper/cplant72.72max.fair", 0x77f7479261490c8d),
    ("paper/cons.nomax", 0xfd2bd91f77133e13),
    ("paper/cons.72max", 0x17ee737e949bae04),
    ("paper/consdyn.nomax", 0x240199bd024d2f3d),
    ("paper/consdyn.72max", 0x5dfe63463376642a),
    ("minor/cplant24.nomax.all", 0xaf4fd6bc239df01e),
    ("minor/cplant72.nomax.all", 0x06a4f6cc36c660d6),
    ("minor/cplant24.nomax.fair", 0x0e654131976e81d9),
    ("minor/cplant24.72max.all", 0xd3b02bade408ca7e),
    ("minor/cplant72.72max.fair", 0x55e550fc3b3e71c7),
    ("extra/easy.nomax", 0x2907819a1049177c),
    ("extra/fcfs.nobackfill", 0xe32b6aa2811c289f),
    ("extra/depth0.atwcl", 0xfdb0d3d93af39b94),
    ("extra/depth2.atwcl", 0x707e73fe13faf48d),
    ("knobs/cplant24.fcfs.nokill", 0xa49dc3b95dbc78b1),
    ("knobs/cons.nomax.closed2", 0xbf8f0cd4139f758a),
    ("faults/cplant24.nomax.all.requeue", 0x6cb40d5935b7d2e2),
    ("faults/cplant24.nomax.all.resume", 0x0ec1db7df4156a24),
    ("faults/cons.nomax.requeue", 0x2294829155506aa0),
    ("faults/consdyn.nomax.resume", 0x202a3e5f8e8e1f97),
    ("faults/cplant24.72max.all.resume", 0x756a79b94f116b6f),
    ("sizebased/fsp.nomax", 0x1d90bcd4e142fba4),
    ("sizebased/las.nomax", 0x26a020eea3957ec1),
    ("sizebased/hfsp.nomax", 0x93b4fe3593de052a),
    ("sizebased/fsp.72max", 0xaa0a330f7b21e938),
    ("sizebased/las.72max", 0xc1b280daa395302a),
    ("sizebased/hfsp.72max", 0xd7b99e765b6930b3),
    ("faults/fsp.nomax.requeue", 0xfb6cb99898489bf4),
    ("faults/las.nomax.resume", 0xed71e2c5ed66b38f),
    ("faults/hfsp.72max.resume", 0xa45f5ab2404cf939),
];

/// Re-record helper: prints the `GOLDENS` table for the current engines.
#[test]
#[ignore = "re-records the golden table; run with --nocapture and paste"]
fn print_goldens() {
    for (label, trace, cfg) in scenarios() {
        let digest = digest_schedule(&run(&trace, &cfg));
        println!("    (\"{label}\", 0x{digest:016x}),");
    }
}

/// Re-record helper: prints the `TRACE_GOLDENS` table for the current
/// engines.
#[test]
#[ignore = "re-records the trace golden table; run with --nocapture and paste"]
fn print_trace_goldens() {
    for (label, trace, cfg) in scenarios() {
        let digest = digest_trace(&trace, &cfg);
        println!("    (\"{label}\", 0x{digest:016x}),");
    }
}

/// Property-based leg of the equivalence suite: the goldens above pin the
/// recomposed strategies to fixed pre-refactor scenarios; these properties
/// sweep *random* traces and fault configurations over the same policy
/// table, so a composition bug that happens to dodge the golden traces
/// still gets caught.
mod properties {
    use super::*;
    use fairsched_sim::{warm_start_supported, PrefixSimulator};
    use fairsched_workload::time::Time;
    use proptest::prelude::*;

    /// Every paper policy plus the minor subset, exactly as the refactor's
    /// contract names them. The minor policies are a subset of the nine,
    /// so dedup by id keeps each composition exercised once per case.
    fn specs_under_test() -> Vec<PolicySpec> {
        let mut specs = PolicySpec::paper_policies();
        for p in PolicySpec::minor_policies()
            .into_iter()
            .chain(PolicySpec::size_based_policies())
        {
            if !specs.iter().any(|s| s.id == p.id) {
                specs.push(p);
            }
        }
        specs
    }

    fn arb_trace() -> impl Strategy<Value = Vec<Job>> {
        prop::collection::vec(
            (
                1u64..5_000,   // inter-arrival gap
                1u32..=NODES,  // width
                1u64..100_000, // runtime (long enough to cross 72 h when chunked policies run)
                1.0f64..3.0,   // estimate factor
                1u32..=6,      // user
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

    /// Fault-injection configurations spanning off / crashes-only /
    /// outages-plus-crashes and both resilience policies.
    fn arb_faults() -> impl Strategy<Value = FaultConfig> {
        (0u8..3, 0u8..2, 1u64..64).prop_map(|(mode, resume, seed)| {
            let resilience = if resume == 1 {
                ResiliencePolicy::ChunkResume
            } else {
                ResiliencePolicy::RequeueFromScratch
            };
            match mode {
                0 => FaultConfig::default(),
                1 => FaultConfig {
                    job_crash_rate: 0.1,
                    resilience,
                    seed,
                    ..Default::default()
                },
                _ => FaultConfig {
                    node_mtbf: Some(1_500_000),
                    job_crash_rate: 0.05,
                    resilience,
                    seed,
                    ..Default::default()
                },
            }
        })
    }

    /// From-scratch prefix start of `target`: simulate only the jobs at or
    /// before it in admission order and read its start from the schedule.
    fn scratch_start(trace: &[Job], cfg: &SimConfig, target: &Job) -> Time {
        let prefix: Vec<Job> = trace
            .iter()
            .filter(|j| (j.submit, j.id) <= (target.submit, target.id))
            .cloned()
            .collect();
        let schedule = simulate(&prefix, cfg, &mut NullObserver, SimOptions::new()).unwrap();
        schedule
            .records
            .iter()
            .find(|r| r.id == target.id)
            .map(|r| r.start)
            .expect("target is in its own prefix")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A recomposed policy is a pure function of (trace, config): two
        /// runs agree byte-for-byte, fault injection included. Hidden state
        /// bleeding between the order and ledger layers of an `Engine` (or
        /// between the extracted lifecycle/accounting modules) shows up
        /// here as a digest mismatch.
        #[test]
        fn every_recomposed_policy_is_deterministic(
            trace in arb_trace(),
            faults in arb_faults(),
        ) {
            for spec in specs_under_test() {
                let mut cfg = spec.sim_config(NODES);
                cfg.faults = faults.clone();
                let first = digest_schedule(&run(&trace, &cfg));
                let second = digest_schedule(&run(&trace, &cfg));
                prop_assert_eq!(
                    first, second,
                    "policy {} is not deterministic under {:?}", spec.id, cfg.faults
                );
            }
        }

        /// For every policy the warm-start capability covers (now including
        /// static conservative), the forked-engine prefix query must equal
        /// a from-scratch prefix simulation at every arrival.
        #[test]
        fn warm_start_matches_from_scratch_for_supported_policies(
            trace in arb_trace(),
        ) {
            let mut trace = trace;
            trace.sort_by_key(|j| (j.submit, j.id));
            let mut covered = 0;
            for spec in specs_under_test() {
                let cfg = spec.sim_config(NODES);
                if !warm_start_supported(&cfg) {
                    continue;
                }
                covered += 1;
                let mut prefix = PrefixSimulator::new(&cfg).unwrap();
                for job in &trace {
                    let warm = prefix.start_of(job).unwrap();
                    let cold = scratch_start(&trace, &cfg, job);
                    prop_assert_eq!(
                        warm, cold,
                        "warm-start diverged from from-scratch for job {} under {}",
                        job.id, spec.id
                    );
                }
            }
            // The capability must cover the unlimited no-guarantee rows,
            // the static conservative row, and the three unlimited
            // size-based rows — if it silently shrank, this suite would be
            // vacuous.
            prop_assert!(covered >= 7, "only {covered} policies warm-startable");
        }
    }
}

#[test]
fn recomposed_strategies_match_pre_refactor_goldens() {
    let scenarios = scenarios();
    assert_eq!(
        scenarios.len(),
        GOLDENS.len(),
        "golden table out of sync with the scenario list"
    );
    for ((label, trace, cfg), (golden_label, golden)) in scenarios.into_iter().zip(GOLDENS) {
        assert_eq!(&label, golden_label, "scenario order changed");
        let digest = digest_schedule(&run(&trace, &cfg));
        assert_eq!(
            digest, *golden,
            "schedule for {label} diverged from the pre-refactor golden \
             (0x{digest:016x} != 0x{golden:016x})"
        );
    }
}

#[test]
fn decision_traces_match_goldens() {
    let scenarios = scenarios();
    assert_eq!(
        scenarios.len(),
        TRACE_GOLDENS.len(),
        "trace golden table out of sync with the scenario list"
    );
    for ((label, trace, cfg), (golden_label, golden)) in scenarios.into_iter().zip(TRACE_GOLDENS) {
        assert_eq!(&label, golden_label, "scenario order changed");
        let digest = digest_trace(&trace, &cfg);
        assert_eq!(
            digest, *golden,
            "decision trace for {label} diverged from its golden \
             (0x{digest:016x} != 0x{golden:016x})"
        );
    }
}

/// `simulate` admits each job only when the clock reaches its submit time.
/// A trace listed out of submit order, with its largest id first and long
/// jobs split into 24 h chunks (whose fresh ids are minted above the whole
/// trace's largest id), must still yield the schedule and decision trace
/// pinned when every job was submitted before the first event. The second
/// case adds node failures and crashes, whose timeline must run on through
/// gaps where no job has been admitted yet.
#[test]
fn lazy_admission_matches_up_front_admission() {
    let mut trace = trace_a();
    // A fixed permutation: 83 is coprime to the trace length.
    let n = trace.len();
    trace = (0..n).map(|i| trace[i * 83 % n].clone()).collect();
    let largest = (0..n).max_by_key(|&i| trace[i].id).expect("non-empty");
    trace.swap(0, largest);
    assert!(trace.windows(2).any(|w| w[0].submit > w[1].submit));

    let mut chunked = PolicySpec::by_id("cplant24.72max.all")
        .unwrap()
        .sim_config(NODES);
    chunked.runtime_limit = Some(RuntimeLimit { limit: 24 * 3600 });
    let mut faulted = chunked.clone();
    faulted.faults = faults_nodes_and_crashes(ResiliencePolicy::ChunkResume);
    let pinned = [
        ("chunked", chunked, (0x1815556f90b0c69d, 0x8e84fc8ef3ef54d5)),
        (
            "chunked+faults",
            faulted,
            (0xca1c69c2f8c91869, 0x34566985cd15f729),
        ),
    ];
    for (label, cfg, expected) in pinned {
        let schedule = run(&trace, &cfg);
        assert!(schedule.records.len() > n, "{label}: no job was chunked");
        let got = (
            fairsched_served::api::schedule_fingerprint(&schedule),
            digest_trace(&trace, &cfg),
        );
        assert_eq!(got, expected, "{label}: 0x{:016x}, 0x{:016x}", got.0, got.1);
    }
}

//! Runtime counters and profiling.
//!
//! The simulator's hot paths carry a handful of instrumentation points
//! (scheduler passes, `earliest_start` probes, backfill attempts, skipped
//! conservative re-planning, warm-start prefix reuse). Each point costs one
//! relaxed atomic load while profiling is off; inside a [`ProfileScope`] it
//! additionally pays a relaxed increment (and, for pass timing, two
//! monotonic clock reads).
//!
//! Counters are **process-wide**: profiling a parallel sweep attributes
//! every worker's activity to one report. Profile one run at a time when
//! per-policy numbers matter — `fairsched profile` and
//! `RunOptions { profile: true, .. }` both do.
//!
//! Timing never feeds back into the simulation: schedules stay a pure
//! function of (trace, config, seed) whether or not a scope is active.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

const BUCKETS: usize = 64;

/// A mergeable histogram over `u64` samples with log2-scaled buckets.
///
/// Bucket `0` holds zeros; bucket `i >= 1` holds samples in
/// `[2^(i-1), 2^i)`. Sixty-four buckets cover the whole `u64` range, so
/// recording never saturates. The exact sum is tracked alongside, so the
/// mean is exact even though quantiles are bucket-resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (BUCKETS as u32 - value.leading_zeros()).min(BUCKETS as u32 - 1) as usize
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The count in bucket `i` (0 for out-of-range indices).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// The highest occupied bucket index (0 when empty).
    pub fn highest_bucket(&self) -> usize {
        self.buckets.iter().rposition(|&n| n > 0).unwrap_or(0)
    }

    /// Adds `n` samples directly into bucket `i`, bumping the count but
    /// not the sum (callers reconstructing a histogram from bucketized
    /// data set the sum separately via [`Histogram::set_sum`]).
    pub fn add_bucket(&mut self, i: usize, n: u64) {
        self.buckets[i.min(BUCKETS - 1)] += n;
        self.count += n;
    }

    /// Overwrites the exact sum (pairs with [`Histogram::add_bucket`]).
    pub fn set_sum(&mut self, sum: u64) {
        self.sum = sum;
    }

    /// Lower bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`). Bucket resolution: the true value is within 2x.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << (i - 1) };
            }
        }
        1u64 << (BUCKETS - 1)
    }

    /// The `q`-quantile with linear interpolation inside the log2 bucket
    /// containing the rank. Smoother than [`Histogram::quantile`] for
    /// rendering p50/p95/p99 — still bucket-resolution underneath, but
    /// monotone in `q` and free of the power-of-two staircase.
    pub fn quantile_interpolated(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut below = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if below + n >= rank {
                if i == 0 {
                    return 0.0;
                }
                let lower = (1u64 << (i - 1)) as f64;
                let upper = if i == BUCKETS - 1 {
                    lower * 2.0
                } else {
                    (1u64 << i) as f64
                };
                let into = (rank - below) as f64;
                return lower + (upper - lower) * (into / (n.max(1)) as f64);
            }
            below += n;
        }
        (1u64 << (BUCKETS - 1)) as f64
    }

    fn saturating_sub(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (i, (a, b)) in self.buckets.iter().zip(&earlier.buckets).enumerate() {
            out.buckets[i] = a.saturating_sub(*b);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }
}

// Process-wide instrumentation state. `ENABLED_DEPTH` counts live
// `ProfileScope`s so nested/overlapping scopes compose.
static ENABLED_DEPTH: AtomicU64 = AtomicU64::new(0);
static SCHED_PASSES: AtomicU64 = AtomicU64::new(0);
static EARLIEST_START_CALLS: AtomicU64 = AtomicU64::new(0);
static BACKFILL_ATTEMPTS: AtomicU64 = AtomicU64::new(0);
static BACKFILL_SUCCESSES: AtomicU64 = AtomicU64::new(0);
static PLAN_SKIPPED: AtomicU64 = AtomicU64::new(0);
static WARM_START_HITS: AtomicU64 = AtomicU64::new(0);
static WARM_START_MISSES: AtomicU64 = AtomicU64::new(0);
static PASS_NS_SUM: AtomicU64 = AtomicU64::new(0);
static PASS_NS_BUCKETS: [AtomicU64; BUCKETS] = [const { AtomicU64::new(0) }; BUCKETS];
// Sweep-harness counters. Unlike the profiling counters above these are
// *operational* — they move unconditionally, not only inside a
// `ProfileScope`: a crash-safe sweep wants its progress visible whether or
// not anyone asked for a profile.
static SWEEP_CELLS_OK: AtomicU64 = AtomicU64::new(0);
static SWEEP_CELLS_RETRIED: AtomicU64 = AtomicU64::new(0);
static SWEEP_CELLS_TIMED_OUT: AtomicU64 = AtomicU64::new(0);
static SWEEP_CELLS_POISONED: AtomicU64 = AtomicU64::new(0);
static SWEEP_JOURNAL_BYTES: AtomicU64 = AtomicU64::new(0);

/// True while at least one [`ProfileScope`] is alive. Instrumented call
/// sites check this first so profiling-off costs a single relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED_DEPTH.load(Relaxed) > 0
}

/// RAII switch for the process-wide counters.
///
/// Counters accumulate only while a scope is alive; snapshot deltas
/// ([`CounterSnapshot::since`]) isolate one region of interest.
#[derive(Debug)]
pub struct ProfileScope(());

impl ProfileScope {
    /// Enables instrumentation until the returned guard drops.
    pub fn enter() -> ProfileScope {
        ENABLED_DEPTH.fetch_add(1, Relaxed);
        ProfileScope(())
    }
}

impl Drop for ProfileScope {
    fn drop(&mut self) {
        ENABLED_DEPTH.fetch_sub(1, Relaxed);
    }
}

/// Counts one `earliest_start` probe (the conservative-family hot call).
#[inline]
pub fn record_earliest_start() {
    if enabled() {
        EARLIEST_START_CALLS.fetch_add(1, Relaxed);
    }
}

/// Counts one backfill walk: `attempts` queued candidates were examined,
/// `successes` of them started.
#[inline]
pub fn record_backfill(attempts: u64, successes: u64) {
    if enabled() {
        BACKFILL_ATTEMPTS.fetch_add(attempts, Relaxed);
        BACKFILL_SUCCESSES.fetch_add(successes, Relaxed);
    }
}

/// Counts one conservative re-planning pass skipped because the ledger
/// was settled: nothing it planned against had freed capacity since.
#[inline]
pub fn record_plan_skipped() {
    if enabled() {
        PLAN_SKIPPED.fetch_add(1, Relaxed);
    }
}

/// Counts one warm-start prefix lookup: `hit` when the master simulator
/// could be reused, false when it fell back to a cold replay.
#[inline]
pub fn record_warm_start(hit: bool) {
    if enabled() {
        if hit {
            WARM_START_HITS.fetch_add(1, Relaxed);
        } else {
            WARM_START_MISSES.fetch_add(1, Relaxed);
        }
    }
}

/// Counts one sweep cell reaching a terminal state. Exactly one of the
/// first four moves per cell; `record_sweep_retry` additionally counts
/// every extra attempt a cell needed before settling.
#[inline]
pub fn record_sweep_cell_ok() {
    SWEEP_CELLS_OK.fetch_add(1, Relaxed);
}

/// Counts one retried sweep-cell attempt (attempt 2 and later).
#[inline]
pub fn record_sweep_retry() {
    SWEEP_CELLS_RETRIED.fetch_add(1, Relaxed);
}

/// Counts one sweep cell whose watchdog expired (terminal state).
#[inline]
pub fn record_sweep_timed_out() {
    SWEEP_CELLS_TIMED_OUT.fetch_add(1, Relaxed);
}

/// Counts one sweep cell quarantined after a panic (terminal state).
#[inline]
pub fn record_sweep_poisoned() {
    SWEEP_CELLS_POISONED.fetch_add(1, Relaxed);
}

/// Counts bytes appended to a sweep results journal.
#[inline]
pub fn record_journal_bytes(n: u64) {
    SWEEP_JOURNAL_BYTES.fetch_add(n, Relaxed);
}

/// Times one scheduler pass. Obtain before the pass ([`pass_timer`]),
/// call [`PassTimer::finish`] after; both are no-ops while profiling is
/// off.
#[derive(Debug)]
#[must_use = "call finish() after the pass to record its duration"]
pub struct PassTimer(Option<Instant>);

/// Starts timing a scheduler pass (no-op unless profiling is enabled).
#[inline]
pub fn pass_timer() -> PassTimer {
    PassTimer(if enabled() {
        Some(Instant::now())
    } else {
        None
    })
}

impl PassTimer {
    /// Records the elapsed pass duration into the global histogram.
    #[inline]
    pub fn finish(self) {
        if let Some(t0) = self.0 {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            SCHED_PASSES.fetch_add(1, Relaxed);
            PASS_NS_SUM.fetch_add(ns, Relaxed);
            PASS_NS_BUCKETS[bucket_of(ns)].fetch_add(1, Relaxed);
        }
    }
}

/// A point-in-time copy of every process-wide counter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterSnapshot {
    /// Scheduler passes timed (fixpoint iterations across all runs).
    pub sched_passes: u64,
    /// `earliest_start` probes.
    pub earliest_start_calls: u64,
    /// Queued candidates examined by backfill walks.
    pub backfill_attempts: u64,
    /// Candidates those walks actually started.
    pub backfill_successes: u64,
    /// Conservative re-planning passes skipped on a settled ledger.
    pub plan_skipped: u64,
    /// Prefix simulations served from the warm master.
    pub warm_start_hits: u64,
    /// Prefix simulations that fell back to a cold replay.
    pub warm_start_misses: u64,
    /// Sweep cells that completed with a usable result.
    pub sweep_cells_ok: u64,
    /// Sweep-cell attempts beyond the first (retries).
    pub sweep_cells_retried: u64,
    /// Sweep cells whose watchdog expired.
    pub sweep_cells_timed_out: u64,
    /// Sweep cells quarantined after a panic.
    pub sweep_cells_poisoned: u64,
    /// Bytes appended to sweep results journals.
    pub sweep_journal_bytes: u64,
    /// Per-pass wall time in nanoseconds.
    pub pass_ns: Histogram,
}

impl CounterSnapshot {
    /// Reads the current process-wide counter values.
    pub fn capture() -> CounterSnapshot {
        let mut pass_ns = Histogram::new();
        for (i, b) in PASS_NS_BUCKETS.iter().enumerate() {
            let n = b.load(Relaxed);
            pass_ns.buckets[i] = n;
            pass_ns.count += n;
        }
        pass_ns.sum = PASS_NS_SUM.load(Relaxed);
        CounterSnapshot {
            sched_passes: SCHED_PASSES.load(Relaxed),
            earliest_start_calls: EARLIEST_START_CALLS.load(Relaxed),
            backfill_attempts: BACKFILL_ATTEMPTS.load(Relaxed),
            backfill_successes: BACKFILL_SUCCESSES.load(Relaxed),
            plan_skipped: PLAN_SKIPPED.load(Relaxed),
            warm_start_hits: WARM_START_HITS.load(Relaxed),
            warm_start_misses: WARM_START_MISSES.load(Relaxed),
            sweep_cells_ok: SWEEP_CELLS_OK.load(Relaxed),
            sweep_cells_retried: SWEEP_CELLS_RETRIED.load(Relaxed),
            sweep_cells_timed_out: SWEEP_CELLS_TIMED_OUT.load(Relaxed),
            sweep_cells_poisoned: SWEEP_CELLS_POISONED.load(Relaxed),
            sweep_journal_bytes: SWEEP_JOURNAL_BYTES.load(Relaxed),
            pass_ns,
        }
    }

    /// Counter movement between `earlier` and this snapshot.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            sched_passes: self.sched_passes.saturating_sub(earlier.sched_passes),
            earliest_start_calls: self
                .earliest_start_calls
                .saturating_sub(earlier.earliest_start_calls),
            backfill_attempts: self
                .backfill_attempts
                .saturating_sub(earlier.backfill_attempts),
            backfill_successes: self
                .backfill_successes
                .saturating_sub(earlier.backfill_successes),
            plan_skipped: self.plan_skipped.saturating_sub(earlier.plan_skipped),
            warm_start_hits: self.warm_start_hits.saturating_sub(earlier.warm_start_hits),
            warm_start_misses: self
                .warm_start_misses
                .saturating_sub(earlier.warm_start_misses),
            sweep_cells_ok: self.sweep_cells_ok.saturating_sub(earlier.sweep_cells_ok),
            sweep_cells_retried: self
                .sweep_cells_retried
                .saturating_sub(earlier.sweep_cells_retried),
            sweep_cells_timed_out: self
                .sweep_cells_timed_out
                .saturating_sub(earlier.sweep_cells_timed_out),
            sweep_cells_poisoned: self
                .sweep_cells_poisoned
                .saturating_sub(earlier.sweep_cells_poisoned),
            sweep_journal_bytes: self
                .sweep_journal_bytes
                .saturating_sub(earlier.sweep_journal_bytes),
            pass_ns: self.pass_ns.saturating_sub(&earlier.pass_ns),
        }
    }
}

/// Where one run's simulation time went, as surfaced by
/// `try_run_policy` (with `RunOptions::profile`) and `fairsched profile`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileReport {
    /// Counter movement attributable to the profiled region.
    pub counters: CounterSnapshot,
    /// Wall time of the profiled region, in nanoseconds.
    pub wall_ns: u64,
}

impl ProfileReport {
    /// Folds another report into this one (summing wall time).
    pub fn merge(&mut self, other: &ProfileReport) {
        let z = CounterSnapshot::default();
        let mut merged = self.counters.since(&z);
        merged.sched_passes += other.counters.sched_passes;
        merged.earliest_start_calls += other.counters.earliest_start_calls;
        merged.backfill_attempts += other.counters.backfill_attempts;
        merged.backfill_successes += other.counters.backfill_successes;
        merged.plan_skipped += other.counters.plan_skipped;
        merged.warm_start_hits += other.counters.warm_start_hits;
        merged.warm_start_misses += other.counters.warm_start_misses;
        merged.sweep_cells_ok += other.counters.sweep_cells_ok;
        merged.sweep_cells_retried += other.counters.sweep_cells_retried;
        merged.sweep_cells_timed_out += other.counters.sweep_cells_timed_out;
        merged.sweep_cells_poisoned += other.counters.sweep_cells_poisoned;
        merged.sweep_journal_bytes += other.counters.sweep_journal_bytes;
        merged.pass_ns.merge(&other.counters.pass_ns);
        self.counters = merged;
        self.wall_ns += other.wall_ns;
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.counters;
        writeln!(f, "wall time            {}", fmt_ns(self.wall_ns))?;
        writeln!(
            f,
            "scheduler passes     {}  (total {}, mean {}, p50 ~{}, p99 ~{})",
            c.sched_passes,
            fmt_ns(c.pass_ns.sum()),
            fmt_ns(c.pass_ns.mean() as u64),
            fmt_ns(c.pass_ns.quantile(0.50)),
            fmt_ns(c.pass_ns.quantile(0.99)),
        )?;
        writeln!(f, "earliest_start calls {}", c.earliest_start_calls)?;
        let rate = if c.backfill_attempts == 0 {
            0.0
        } else {
            100.0 * c.backfill_successes as f64 / c.backfill_attempts as f64
        };
        writeln!(
            f,
            "backfill walk        {} candidates examined, {} started ({rate:.1}% hit rate)",
            c.backfill_attempts, c.backfill_successes,
        )?;
        writeln!(
            f,
            "settled ledger       {} re-planning passes skipped",
            c.plan_skipped
        )?;
        write!(
            f,
            "warm-start prefix    {} hits / {} cold replays",
            c.warm_start_hits, c.warm_start_misses
        )?;
        // Sweep counters only appear when a sweep actually ran inside the
        // profiled region; plain policy runs keep the historical report.
        let sweep_moved = c.sweep_cells_ok
            + c.sweep_cells_retried
            + c.sweep_cells_timed_out
            + c.sweep_cells_poisoned
            + c.sweep_journal_bytes
            > 0;
        if sweep_moved {
            write!(
                f,
                "\nsweep cells          {} ok, {} retried, {} timed out, {} poisoned; \
                 journal {} bytes",
                c.sweep_cells_ok,
                c.sweep_cells_retried,
                c.sweep_cells_timed_out,
                c.sweep_cells_poisoned,
                c.sweep_journal_bytes,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_mean_is_exact_and_merge_adds() {
        let mut a = Histogram::new();
        for v in [1, 2, 3, 4] {
            a.record(v);
        }
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 10);
        assert!((a.mean() - 2.5).abs() < 1e-12);

        let mut b = Histogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 110);
    }

    #[test]
    fn histogram_quantile_brackets_the_samples() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1000);
        // p50 lands in 10's bucket [8,16); p100 in 1000's bucket [512,1024).
        assert_eq!(h.quantile(0.5), 8);
        assert_eq!(h.quantile(1.0), 512);
    }

    #[test]
    fn interpolated_quantiles_stay_inside_their_bucket_and_are_monotone() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1000);
        let p50 = h.quantile_interpolated(0.50);
        assert!((8.0..16.0).contains(&p50), "p50 = {p50}");
        let p100 = h.quantile_interpolated(1.0);
        assert!((512.0..=1024.0).contains(&p100), "p100 = {p100}");
        let mut prev = 0.0;
        for step in 0..=20 {
            let q = step as f64 / 20.0;
            let v = h.quantile_interpolated(q);
            assert!(v >= prev, "quantile must be monotone in q");
            prev = v;
        }
        assert_eq!(Histogram::new().quantile_interpolated(0.5), 0.0);
    }

    #[test]
    fn bucket_accessors_round_trip() {
        let mut h = Histogram::new();
        h.record(5); // bucket 3
        h.record(0); // bucket 0
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(3), 1);
        assert_eq!(h.bucket(99), 0);
        assert_eq!(h.highest_bucket(), 3);

        let mut rebuilt = Histogram::new();
        for i in 0..=h.highest_bucket() {
            if h.bucket(i) > 0 {
                rebuilt.add_bucket(i, h.bucket(i));
            }
        }
        rebuilt.set_sum(h.sum());
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn counters_only_move_inside_a_scope() {
        // Outside any scope the call sites must not record: delta of the
        // earliest_start counter across un-scoped calls stays attributable
        // to concurrently-profiled tests at most (those never call this
        // private helper combination with the magic amounts below).
        let before = CounterSnapshot::capture();
        if !enabled() {
            record_backfill(1_000_003, 0);
            let after = CounterSnapshot::capture();
            assert_eq!(
                after.since(&before).backfill_attempts % 1_000_003,
                after.since(&before).backfill_attempts,
                "un-scoped record_backfill must be a no-op"
            );
        }

        let _scope = ProfileScope::enter();
        let before = CounterSnapshot::capture();
        record_earliest_start();
        record_backfill(5, 2);
        record_plan_skipped();
        record_warm_start(true);
        record_warm_start(false);
        let timer = pass_timer();
        timer.finish();
        let d = CounterSnapshot::capture().since(&before);
        assert!(d.earliest_start_calls >= 1);
        assert!(d.backfill_attempts >= 5);
        assert!(d.backfill_successes >= 2);
        assert!(d.plan_skipped >= 1);
        assert!(d.warm_start_hits >= 1);
        assert!(d.warm_start_misses >= 1);
        assert!(d.sched_passes >= 1);
        assert!(d.pass_ns.count() >= 1);
    }

    #[test]
    fn report_renders_every_counter() {
        let mut c = CounterSnapshot {
            sched_passes: 10,
            earliest_start_calls: 20,
            backfill_attempts: 30,
            backfill_successes: 15,
            plan_skipped: 7,
            warm_start_hits: 4,
            warm_start_misses: 1,
            ..CounterSnapshot::default()
        };
        c.pass_ns.record(1_500);
        let report = ProfileReport {
            counters: c,
            wall_ns: 2_000_000,
        };
        let text = report.to_string();
        assert!(text.contains("2.00 ms"));
        assert!(text.contains("50.0% hit rate"));
        assert!(text.contains("7 re-planning passes skipped"));
        assert!(text.contains("4 hits / 1 cold replays"));
    }
}

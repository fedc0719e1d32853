//! `fairschedd`'s metric surface: every counter, gauge, and histogram
//! the daemon exports at `GET /metrics`.
//!
//! The shape follows Prometheus conventions — `*_total` counters per
//! route, one latency histogram per route, and gauges for everything the
//! scheduler knows about itself (queue pressure, clock lag, live
//! fairness). All route series are registered **up front**, so a scrape
//! taken before the first request still shows every family with zeroed
//! series: dashboards and the CI smoke check can assert on shape without
//! racing traffic.
//!
//! Request accounting is two relaxed atomic adds plus a histogram record
//! on the connection thread. Gauges are refreshed lazily, at scrape time,
//! from one session status + fairness snapshot — the scheduling path
//! never updates a gauge.

use crate::session::Session;
use fairsched_obs::registry::{Counter, Gauge, HistogramHandle, Registry};

/// Route labels the daemon exports, one per route in the daemon's table
/// (parameterized paths collapse onto one label). `other` absorbs
/// unroutable paths so probes and typos are visible rather than silently
/// unlabeled.
pub const ROUTES: &[&str] = &[
    "/metrics",
    "/v1/advance",
    "/v1/explain/{id}",
    "/v1/fairness",
    "/v1/jobs",
    "/v1/jobs/{id}",
    "/v1/profile",
    "/v1/seal",
    "/v1/sessions",
    "/v1/sessions/{name}",
    "/v1/shutdown",
    "/v1/status",
    "/v1/tick",
    "/v1/trace",
    "other",
];

/// Collapses a request path onto its route label. Session-prefixed paths
/// (`/v1/sessions/{name}/jobs`, ...) collapse onto the label of the route
/// inside the session, so the label set stays bounded no matter how many
/// sessions exist.
pub fn route_label(path: &str) -> &'static str {
    if let Some(rest) = path.strip_prefix("/v1/explain/") {
        if !rest.is_empty() {
            return "/v1/explain/{id}";
        }
    }
    if let Some(rest) = path.strip_prefix("/v1/jobs/") {
        if !rest.is_empty() {
            return "/v1/jobs/{id}";
        }
    }
    if let Some(rest) = path.strip_prefix("/v1/sessions/") {
        match rest.find('/') {
            // `/v1/sessions/{name}/<route>` carries the inner route.
            Some(slash) if slash + 1 < rest.len() => {
                return route_label(&format!("/v1/{}", &rest[slash + 1..]))
            }
            _ if !rest.is_empty() => return "/v1/sessions/{name}",
            _ => {}
        }
    }
    ROUTES
        .iter()
        .find(|&&r| r == path && r != "other")
        .copied()
        .unwrap_or("other")
}

struct RouteMetrics {
    requests: Counter,
    errors: Counter,
    latency_ns: HistogramHandle,
}

/// The daemon's registered metric handles. One instance per [`Session`];
/// shared across connection threads by reference.
pub struct ServiceMetrics {
    registry: Registry,
    routes: Vec<(&'static str, RouteMetrics)>,
    /// Trace lines dropped because a subscriber's buffer was full.
    pub trace_lines_dropped: Counter,
    /// Subscribers severed for falling behind.
    pub trace_subscribers_dropped: Counter,
    /// Bytes appended to session durability journals.
    pub journal_bytes: Counter,
    /// Journal commit batches fsynced (one per submission batch, grant,
    /// or seal that had rows to flush).
    pub journal_batches: Counter,
    /// Handler permits held: requests running a handler right now
    /// (bounded by `DaemonConfig::workers`).
    pub pool_workers_busy: Gauge,
    /// Requests read and waiting for a handler permit.
    pub accept_queue_depth: Gauge,
    // Session gauges, refreshed at scrape time.
    jobs_queued: Gauge,
    jobs_running: Gauge,
    jobs_accepted: Gauge,
    jobs_completed: Gauge,
    nodes_free: Gauge,
    nodes_busy: Gauge,
    clock_lag: Gauge,
    sealed: Gauge,
    steps: Gauge,
    utilization: Gauge,
    percent_unfair: Gauge,
    total_miss_seconds: Gauge,
    live_fst_misses: Gauge,
    worst_live_miss_seconds: Gauge,
    starvation_age_seconds: Gauge,
    mean_wait_seconds: Gauge,
    mean_slowdown: Gauge,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// Registers every family and series the daemon exports.
    pub fn new() -> ServiceMetrics {
        let registry = Registry::new();
        let routes = ROUTES
            .iter()
            .map(|&route| {
                let labels = [("route", route)];
                (
                    route,
                    RouteMetrics {
                        requests: registry.counter(
                            "fairschedd_http_requests_total",
                            "HTTP requests received, by route.",
                            &labels,
                        ),
                        errors: registry.counter(
                            "fairschedd_http_errors_total",
                            "HTTP responses with status >= 400, by route.",
                            &labels,
                        ),
                        latency_ns: registry.histogram(
                            "fairschedd_http_request_duration_ns",
                            "Wall time from request parse to response write, nanoseconds.",
                            &labels,
                        ),
                    },
                )
            })
            .collect();
        let gauge = |name: &str, help: &str| registry.gauge(name, help, &[]);
        ServiceMetrics {
            trace_lines_dropped: registry.counter(
                "fairschedd_trace_lines_dropped_total",
                "Trace lines undelivered because a subscriber's buffer was full.",
                &[],
            ),
            trace_subscribers_dropped: registry.counter(
                "fairschedd_trace_subscribers_dropped_total",
                "Trace subscribers severed for falling behind.",
                &[],
            ),
            journal_bytes: registry.counter(
                "served_journal_bytes",
                "Bytes appended to session durability journals.",
                &[],
            ),
            journal_batches: registry.counter(
                "served_journal_batches",
                "Journal commit batches fsynced.",
                &[],
            ),
            pool_workers_busy: registry.gauge(
                "served_pool_workers_busy",
                "Handler permits held: requests running a handler now.",
                &[],
            ),
            accept_queue_depth: registry.gauge(
                "served_accept_queue_depth",
                "Requests read and waiting for a handler permit.",
                &[],
            ),
            jobs_queued: gauge("fairschedd_jobs_queued", "Jobs waiting in the queue."),
            jobs_running: gauge("fairschedd_jobs_running", "Jobs currently running."),
            jobs_accepted: gauge(
                "fairschedd_jobs_accepted",
                "Submissions accepted this session.",
            ),
            jobs_completed: gauge(
                "fairschedd_jobs_completed",
                "Submissions finished this session.",
            ),
            nodes_free: gauge("fairschedd_nodes_free", "Nodes currently free."),
            nodes_busy: gauge(
                "fairschedd_nodes_busy",
                "Nodes currently occupied by running jobs.",
            ),
            clock_lag: gauge(
                "fairschedd_clock_lag_seconds",
                "Granted clock horizon minus the simulated-time frontier.",
            ),
            sealed: gauge("fairschedd_sealed", "1 once the session has sealed."),
            steps: gauge(
                "fairschedd_session_steps",
                "Core step events processed (submissions + grant batches).",
            ),
            utilization: gauge(
                "fairschedd_utilization",
                "Busy node-seconds over capacity since the first start (live).",
            ),
            percent_unfair: gauge(
                "fairschedd_fairness_percent_unfair",
                "Fraction of started jobs that missed their fair start time.",
            ),
            total_miss_seconds: gauge(
                "fairschedd_fairness_total_miss_seconds",
                "Total fair-start miss accumulated, seconds.",
            ),
            live_fst_misses: gauge(
                "fairschedd_fairness_live_misses",
                "Queued jobs currently past their fair start time.",
            ),
            worst_live_miss_seconds: gauge(
                "fairschedd_fairness_worst_live_miss_seconds",
                "Largest current fair-start overshoot among queued jobs, seconds.",
            ),
            starvation_age_seconds: gauge(
                "fairschedd_starvation_age_seconds",
                "Age of the oldest queued job, seconds.",
            ),
            mean_wait_seconds: gauge(
                "fairschedd_mean_wait_seconds",
                "Mean queue wait over finished submissions, seconds.",
            ),
            mean_slowdown: gauge(
                "fairschedd_mean_slowdown",
                "Mean bounded slowdown over finished submissions.",
            ),
            routes,
            registry,
        }
    }

    /// Records one handled request: its route, response status, and wall
    /// time in nanoseconds.
    pub fn observe_request(&self, route: &str, status: u16, elapsed_ns: u64) {
        let m = self
            .routes
            .iter()
            .find(|(r, _)| *r == route)
            .map(|(_, m)| m)
            .unwrap_or_else(|| {
                &self
                    .routes
                    .last()
                    .expect("ROUTES is non-empty; `other` is last")
                    .1
            });
        m.requests.inc();
        if status >= 400 {
            m.errors.inc();
        }
        m.latency_ns.record(elapsed_ns);
    }

    /// Refreshes every gauge from the session and renders the full
    /// exposition text. This is `GET /metrics`.
    pub fn render(&self, session: &Session) -> String {
        let status = session.status();
        let (snap, _) = session.fairness();
        self.jobs_queued.set_u64(status.queued as u64);
        self.jobs_running.set_u64(status.running as u64);
        self.jobs_accepted.set_u64(status.accepted);
        self.jobs_completed.set_u64(status.completed);
        self.nodes_free.set_u64(u64::from(status.free));
        self.nodes_busy.set_u64(snap.busy_nodes);
        self.clock_lag
            .set_u64(status.granted.saturating_sub(status.now));
        self.sealed.set_u64(u64::from(status.sealed));
        self.steps.set_u64(session.steps());
        self.utilization.set(snap.utilization);
        self.percent_unfair.set(snap.percent_unfair);
        self.total_miss_seconds.set_u64(snap.total_miss);
        self.live_fst_misses.set_u64(snap.live_fst_misses);
        self.worst_live_miss_seconds.set_u64(snap.worst_live_miss);
        self.starvation_age_seconds.set_u64(snap.starvation_age);
        self.mean_wait_seconds.set(snap.mean_wait);
        self.mean_slowdown.set(snap.mean_slowdown);
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_obs::registry::parse_exposition;

    #[test]
    fn route_labels_collapse_parameterized_paths() {
        assert_eq!(route_label("/v1/jobs"), "/v1/jobs");
        assert_eq!(route_label("/v1/jobs/42"), "/v1/jobs/{id}");
        assert_eq!(route_label("/v1/explain/7"), "/v1/explain/{id}");
        assert_eq!(route_label("/metrics"), "/metrics");
        assert_eq!(route_label("/v1/nonsense"), "other");
        assert_eq!(route_label("/"), "other");
        assert_eq!(route_label("other"), "other");
    }

    #[test]
    fn every_route_has_series_before_any_traffic() {
        let metrics = ServiceMetrics::new();
        let session = Session::new(Default::default()).unwrap();
        let text = metrics.render(&session);
        let samples = parse_exposition(&text).unwrap();
        for route in ROUTES {
            for family in [
                "fairschedd_http_requests_total",
                "fairschedd_http_errors_total",
                "fairschedd_http_request_duration_ns_count",
            ] {
                assert!(
                    samples
                        .iter()
                        .any(|s| s.name == family && s.label("route") == Some(route)),
                    "{family} missing for {route}"
                );
            }
            // The mandatory +Inf latency bucket exists even with zero
            // observations — the CI smoke check asserts on this.
            assert!(
                samples.iter().any(|s| {
                    s.name == "fairschedd_http_request_duration_ns_bucket"
                        && s.label("route") == Some(route)
                        && s.label("le") == Some("+Inf")
                }),
                "latency buckets missing for {route}"
            );
        }
    }

    #[test]
    fn request_observations_land_on_their_route() {
        let metrics = ServiceMetrics::new();
        metrics.observe_request("/v1/jobs", 200, 1_000);
        metrics.observe_request("/v1/jobs", 409, 2_000);
        metrics.observe_request("/definitely/not/a/route", 400, 10);
        let session = Session::new(Default::default()).unwrap();
        let samples = parse_exposition(&metrics.render(&session)).unwrap();
        let find = |name: &str, route: &str| {
            samples
                .iter()
                .find(|s| s.name == name && s.label("route") == Some(route))
                .map(|s| s.value)
        };
        assert_eq!(
            find("fairschedd_http_requests_total", "/v1/jobs"),
            Some(2.0)
        );
        assert_eq!(find("fairschedd_http_errors_total", "/v1/jobs"), Some(1.0));
        assert_eq!(find("fairschedd_http_requests_total", "other"), Some(1.0));
        assert_eq!(find("fairschedd_http_errors_total", "other"), Some(1.0));
    }
}

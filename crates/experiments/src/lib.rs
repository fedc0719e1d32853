//! # fairsched-experiments
//!
//! Regeneration harness for every table and figure in the paper's
//! evaluation. The one `figures <id>` binary reproduces each artifact (and
//! runs the [`studies`] beyond the paper); this library holds the shared
//! machinery so the whole evaluation (nine policy simulations plus fairness
//! scoring) runs once per process.
//!
//! Configuration comes from environment variables so the same binary
//! serves quick smoke runs and the full reproduction:
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `FAIRSCHED_SEED` | `42` | workload generator seed |
//! | `FAIRSCHED_SCALE` | `1.0` | fraction of the Table-1 job counts |
//! | `FAIRSCHED_NODES` | `1024` | machine size |

use fairsched_core::policy::PolicySpec;
use fairsched_core::report;
use fairsched_core::runner::{OutcomeMetrics, PolicyOutcome};
use fairsched_core::sweep::{try_run_policies, SweepError};
use fairsched_sim::FaultConfig;
use fairsched_workload::categories::WIDTH_BUCKETS;
use fairsched_workload::job::Job;
use fairsched_workload::synthetic::DEFAULT_NODES;
use fairsched_workload::CplantModel;

pub mod ablations;
pub mod characterization;
pub mod figures;
pub mod studies;

/// Workload / machine configuration for an evaluation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Generator seed.
    pub seed: u64,
    /// Fraction of Table 1's job counts, in `(0, 1]`.
    pub scale: f64,
    /// Machine size in nodes.
    pub nodes: u32,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 42,
            scale: 1.0,
            nodes: DEFAULT_NODES,
        }
    }
}

impl ExperimentConfig {
    /// Reads `FAIRSCHED_SEED` / `FAIRSCHED_SCALE` / `FAIRSCHED_NODES`,
    /// falling back to the defaults. Malformed values fall back too (the
    /// binaries are reproduction tools, not input validators).
    pub fn from_env() -> Self {
        let mut cfg = ExperimentConfig::default();
        if let Ok(s) = std::env::var("FAIRSCHED_SEED") {
            if let Ok(v) = s.parse() {
                cfg.seed = v;
            }
        }
        if let Ok(s) = std::env::var("FAIRSCHED_SCALE") {
            if let Ok(v) = s.parse::<f64>() {
                if v > 0.0 && v <= 1.0 {
                    cfg.scale = v;
                }
            }
        }
        if let Ok(s) = std::env::var("FAIRSCHED_NODES") {
            if let Ok(v) = s.parse() {
                cfg.nodes = v;
            }
        }
        cfg
    }

    /// Generates the workload for this configuration.
    pub fn trace(&self) -> Vec<Job> {
        CplantModel::new(self.seed)
            .with_nodes(self.nodes)
            .with_scale(self.scale)
            .generate()
    }
}

/// A complete evaluation: the trace plus all nine policy results, computed
/// once and shared by every figure.
pub struct Evaluation {
    /// The configuration that produced this evaluation.
    pub cfg: ExperimentConfig,
    /// The generated workload.
    pub trace: Vec<Job>,
    /// Per-policy results of [`PolicySpec::paper_policies`], in the paper's
    /// order. A failed policy carries its fenced [`SweepError`] instead of
    /// aborting the process, so the surviving rows still render.
    pub results: Vec<Result<PolicyOutcome, SweepError>>,
    /// Scalar metrics per policy, same order; `None` where the run failed.
    pub metrics: Vec<Option<OutcomeMetrics>>,
}

/// Runs the full nine-policy evaluation (parallel across policies, each one
/// fenced so a single failure never takes down a figure binary).
pub fn evaluate(cfg: ExperimentConfig) -> Evaluation {
    let trace = cfg.trace();
    let policies = PolicySpec::paper_policies();
    let results = try_run_policies(&trace, &policies, cfg.nodes, &FaultConfig::default());
    let metrics = results
        .iter()
        .map(|r| r.as_ref().ok().map(|o| o.metrics()))
        .collect();
    Evaluation {
        cfg,
        trace,
        results,
        metrics,
    }
}

impl Evaluation {
    /// The outcome at paper index `i`, if that policy succeeded.
    pub fn outcome(&self, i: usize) -> Option<&PolicyOutcome> {
        self.results.get(i).and_then(|r| r.as_ref().ok())
    }

    /// Every policy that failed, with the fenced error explaining why.
    pub fn failures(&self) -> Vec<&SweepError> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .collect()
    }

    /// Indices of the "minor changes" subset (Figures 8–13).
    pub fn minor_indices() -> [usize; 5] {
        [0, 1, 2, 3, 4]
    }

    /// Indices of the conservative comparison subset (Figures 16, 18).
    pub fn conservative_indices() -> [usize; 5] {
        [0, 5, 6, 7, 8]
    }

    /// Indices of all nine policies (Figures 14, 15, 17, 19).
    pub fn all_indices() -> [usize; 9] {
        [0, 1, 2, 3, 4, 5, 6, 7, 8]
    }

    /// `(policy, value)` rows for a scalar metric over a policy subset.
    /// Failed policies are silently skipped — their rows would be lies.
    pub fn scalar_rows(
        &self,
        indices: &[usize],
        value: impl Fn(&OutcomeMetrics) -> f64,
    ) -> Vec<(String, f64)> {
        indices
            .iter()
            .filter_map(|&i| {
                let o = self.outcome(i)?;
                let m = self.metrics[i].as_ref()?;
                Some((o.policy.clone(), value(m)))
            })
            .collect()
    }

    /// `(policy, by-width)` rows for a width-bucketed metric. Failed
    /// policies are skipped, as in [`Evaluation::scalar_rows`].
    pub fn width_rows(
        &self,
        indices: &[usize],
        value: impl Fn(&OutcomeMetrics) -> [f64; WIDTH_BUCKETS],
    ) -> Vec<(String, [f64; WIDTH_BUCKETS])> {
        indices
            .iter()
            .filter_map(|&i| {
                let o = self.outcome(i)?;
                let m = self.metrics[i].as_ref()?;
                Some((o.policy.clone(), value(m)))
            })
            .collect()
    }

    /// Renders a scalar-metric figure as text.
    pub fn scalar_figure(
        &self,
        title: &str,
        unit: &str,
        indices: &[usize],
        value: impl Fn(&OutcomeMetrics) -> f64,
    ) -> String {
        report::policy_table(title, unit, &self.scalar_rows(indices, value))
    }

    /// Renders a by-width figure as text.
    pub fn width_figure(
        &self,
        title: &str,
        unit: &str,
        indices: &[usize],
        value: impl Fn(&OutcomeMetrics) -> [f64; WIDTH_BUCKETS],
    ) -> String {
        report::width_matrix(title, unit, &self.width_rows(indices, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Evaluation {
        evaluate(ExperimentConfig {
            seed: 7,
            scale: 0.015,
            nodes: 1024,
        })
    }

    #[test]
    fn evaluation_runs_all_nine_policies_in_order() {
        let e = tiny();
        assert!(e.failures().is_empty(), "no paper policy should fail");
        let names: Vec<&str> = (0..e.results.len())
            .map(|i| e.outcome(i).expect("succeeded").policy.as_str())
            .collect();
        assert_eq!(names[0], "cplant24.nomax.all");
        assert_eq!(names[8], "consdyn.72max");
        assert_eq!(e.results.len(), 9);
        assert_eq!(e.metrics.len(), 9);
        assert!(e.metrics.iter().all(|m| m.is_some()));
    }

    #[test]
    fn subsets_select_the_right_policies() {
        let e = tiny();
        let minor = e.scalar_rows(&Evaluation::minor_indices(), |m| m.percent_unfair);
        assert_eq!(minor.len(), 5);
        assert!(minor.iter().all(|(n, _)| n.starts_with("cplant")));
        let cons = e.scalar_rows(&Evaluation::conservative_indices(), |m| m.percent_unfair);
        assert_eq!(cons[0].0, "cplant24.nomax.all");
        assert!(cons[1..].iter().all(|(n, _)| n.starts_with("cons")));
    }

    #[test]
    fn figures_render_nonempty_text() {
        let e = tiny();
        let fig = e.scalar_figure("Fig 8", "%", &Evaluation::minor_indices(), |m| {
            m.percent_unfair
        });
        assert!(fig.contains("Fig 8"));
        assert_eq!(fig.lines().count(), 7);
        let wfig = e.width_figure("Fig 10", "seconds", &Evaluation::minor_indices(), |m| {
            m.miss_by_width
        });
        assert!(wfig.contains("513+"));
    }

    #[test]
    fn default_config_matches_the_paper_scale() {
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.scale, 1.0);
        assert_eq!(cfg.nodes, DEFAULT_NODES);
    }
}

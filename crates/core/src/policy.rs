//! The scheduling policies under study (§5.5), as data.
//!
//! A [`PolicySpec`] is the declarative description of one row of the
//! paper's figures: which backfilling engine, what starvation-queue rules,
//! and whether a maximum-runtime limit applies. [`PolicySpec::sim_config`]
//! lowers it onto the simulator.

use fairsched_sim::{EngineKind, HeavyUserRule, RuntimeLimit, SimConfig, StarvationConfig};
use fairsched_workload::time::HOUR;
use std::borrow::Cow;
use std::fmt;

/// The 72-hour maximum runtime §5.1 proposes.
pub const RUNTIME_LIMIT_72H: RuntimeLimit = RuntimeLimit { limit: 72 * HOUR };

/// A policy id that names no known policy. Carries the offending id so
/// callers (`fairsched sweep`/`simulate`) can report it instead of silently
/// dropping the cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyIdError {
    /// The id that failed to parse.
    pub id: String,
}

impl fmt::Display for PolicyIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown policy id {:?}; known ids: the nine \u{a7}5.5 names \
             (cplant24.nomax.all, ..., consdyn.72max), easy.nomax, \
             fcfs.nobackfill, the size-based family \
             (fsp|las|hfsp).(nomax|72max), and rdepth<n>.(nomax|72max)",
            self.id
        )
    }
}

impl std::error::Error for PolicyIdError {}

/// A named scheduling policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySpec {
    /// The policy identifier, e.g. `"cplant24.nomax.all"`. Borrowed for the
    /// fixed table (the paper's nine and the reference points); owned for
    /// parameterized ids like `"rdepth4.nomax"`.
    pub id: Cow<'static, str>,
    /// Backfilling engine.
    pub engine: EngineKind,
    /// Starvation queue (no-guarantee policies only).
    pub starvation: Option<StarvationConfig>,
    /// Maximum-runtime chunking, if any.
    pub runtime_limit: Option<RuntimeLimit>,
}

impl PolicySpec {
    const fn cplant(
        id: &'static str,
        entry_hours: u64,
        heavy_barred: bool,
        limited: bool,
    ) -> PolicySpec {
        PolicySpec {
            id: Cow::Borrowed(id),
            engine: EngineKind::NoGuarantee,
            starvation: Some(StarvationConfig {
                entry_delay: entry_hours * HOUR,
                heavy_rule: if heavy_barred {
                    Some(HeavyUserRule { mean_multiple: 2.0 })
                } else {
                    None
                },
            }),
            runtime_limit: if limited {
                Some(RUNTIME_LIMIT_72H)
            } else {
                None
            },
        }
    }

    const fn conservative(id: &'static str, dynamic: bool, limited: bool) -> PolicySpec {
        PolicySpec {
            id: Cow::Borrowed(id),
            engine: EngineKind::Conservative { dynamic },
            starvation: None,
            runtime_limit: if limited {
                Some(RUNTIME_LIMIT_72H)
            } else {
                None
            },
        }
    }

    /// The original CPlant scheduler: no-guarantee backfilling, fairshare
    /// order, 24 h starvation entry, open to all users, no runtime limit.
    pub const fn baseline() -> PolicySpec {
        PolicySpec::cplant("cplant24.nomax.all", 24, false, false)
    }

    /// All nine policies of §5.5, in the paper's order.
    pub fn paper_policies() -> Vec<PolicySpec> {
        vec![
            PolicySpec::baseline(),
            PolicySpec::cplant("cplant72.nomax.all", 72, false, false),
            PolicySpec::cplant("cplant24.nomax.fair", 24, true, false),
            PolicySpec::cplant("cplant24.72max.all", 24, false, true),
            PolicySpec::cplant("cplant72.72max.fair", 72, true, true),
            PolicySpec::conservative("cons.nomax", false, false),
            PolicySpec::conservative("cons.72max", false, true),
            PolicySpec::conservative("consdyn.nomax", true, false),
            PolicySpec::conservative("consdyn.72max", true, true),
        ]
    }

    /// The "minor changes" subset (§6.1, Figures 8–13): the baseline plus
    /// the four small modifications.
    pub fn minor_policies() -> Vec<PolicySpec> {
        PolicySpec::paper_policies().into_iter().take(5).collect()
    }

    /// The conservative comparison set (§6.2, Figures 16 and 18): the
    /// baseline plus the four conservative variants.
    pub fn conservative_set() -> Vec<PolicySpec> {
        let all = PolicySpec::paper_policies();
        let mut out = vec![all[0].clone()];
        out.extend(all.into_iter().skip(5));
        out
    }

    /// Aggressive (EASY) backfilling with the fairshare order — not one of
    /// the paper's nine, but described in its introduction; used by the
    /// extension benches.
    pub const fn easy() -> PolicySpec {
        PolicySpec {
            id: Cow::Borrowed("easy.nomax"),
            engine: EngineKind::Easy,
            starvation: None,
            runtime_limit: None,
        }
    }

    /// Strict FCFS without backfilling — the §1 strawman (Figure 1): fair
    /// in arrival order but with poor utilization. Reference point for the
    /// claims the paper builds on.
    pub const fn fcfs_no_backfill() -> PolicySpec {
        PolicySpec {
            id: Cow::Borrowed("fcfs.nobackfill"),
            engine: EngineKind::FcfsNoBackfill,
            starvation: None,
            runtime_limit: None,
        }
    }

    const fn size_based(id: &'static str, engine: EngineKind, limited: bool) -> PolicySpec {
        PolicySpec {
            id: Cow::Borrowed(id),
            engine,
            starvation: None,
            runtime_limit: if limited {
                Some(RUNTIME_LIMIT_72H)
            } else {
                None
            },
        }
    }

    /// The size-based policy family (FSP / LAS / HFSP) this study adds as
    /// extension rows: each pairs a size-aware queue order with the EASY
    /// aggressive guard, with and without the 72 h runtime limit.
    pub fn size_based_policies() -> Vec<PolicySpec> {
        vec![
            PolicySpec::size_based("fsp.nomax", EngineKind::Fsp, false),
            PolicySpec::size_based("las.nomax", EngineKind::Las, false),
            PolicySpec::size_based("hfsp.nomax", EngineKind::Hfsp, false),
            PolicySpec::size_based("fsp.72max", EngineKind::Fsp, true),
            PolicySpec::size_based("las.72max", EngineKind::Las, true),
            PolicySpec::size_based("hfsp.72max", EngineKind::Hfsp, true),
        ]
    }

    /// Conservative backfilling truncated to `depth` guaranteed
    /// reservations — the Depth(n) tunable between EASY (`depth == 1`) and
    /// full conservative. Its id is the parameterized `rdepth<n>.<limit>`
    /// form, e.g. `rdepth4.nomax`.
    pub fn reservation_depth(depth: u32, limited: bool) -> PolicySpec {
        let suffix = if limited { "72max" } else { "nomax" };
        PolicySpec {
            id: Cow::Owned(format!("rdepth{depth}.{suffix}")),
            engine: EngineKind::ReservationDepth(depth),
            starvation: None,
            runtime_limit: if limited {
                Some(RUNTIME_LIMIT_72H)
            } else {
                None
            },
        }
    }

    /// Parses a policy id: the nine of §5.5, the `easy.nomax` and
    /// `fcfs.nobackfill` reference points, the size-based family
    /// (`fsp|las|hfsp`)`.`(`nomax|72max`), and the parameterized
    /// `rdepth<n>.(nomax|72max)` depth tunable. Unknown ids produce a
    /// typed [`PolicyIdError`] carrying the offending id, so callers can
    /// report the cell instead of silently dropping it.
    pub fn parse(id: &str) -> Result<PolicySpec, PolicyIdError> {
        match id {
            "easy.nomax" => return Ok(PolicySpec::easy()),
            "fcfs.nobackfill" => return Ok(PolicySpec::fcfs_no_backfill()),
            _ => {}
        }
        if let Some(p) = PolicySpec::paper_policies()
            .into_iter()
            .chain(PolicySpec::size_based_policies())
            .find(|p| p.id == id)
        {
            return Ok(p);
        }
        if let Some(rest) = id.strip_prefix("rdepth") {
            let (depth, limited) = match rest.split_once('.') {
                Some((d, "nomax")) => (d, false),
                Some((d, "72max")) => (d, true),
                _ => return Err(PolicyIdError { id: id.to_string() }),
            };
            // Reject non-canonical spellings like `rdepth04`: the id must
            // round-trip, or journal fingerprints would alias.
            if let Ok(n) = depth.parse::<u32>() {
                if depth == n.to_string() {
                    return Ok(PolicySpec::reservation_depth(n, limited));
                }
            }
        }
        Err(PolicyIdError { id: id.to_string() })
    }

    /// Looks a policy up by id; `None` when unknown. [`PolicySpec::parse`]
    /// is the same lookup with a typed error instead.
    pub fn by_id(id: &str) -> Option<PolicySpec> {
        PolicySpec::parse(id).ok()
    }

    /// Lowers this policy onto a simulator configuration for a
    /// `nodes`-wide machine. Everything not policy-specific (fairshare
    /// decay, queue order, kill rule) keeps the CPlant defaults.
    pub fn sim_config(&self, nodes: u32) -> SimConfig {
        SimConfig {
            nodes,
            engine: self.engine,
            starvation: self.starvation,
            runtime_limit: self.runtime_limit,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairsched_sim::QueueOrder;

    #[test]
    fn there_are_exactly_nine_paper_policies_with_the_published_names() {
        let all = PolicySpec::paper_policies();
        let names: Vec<&str> = all.iter().map(|p| p.id.as_ref()).collect();
        assert_eq!(
            names,
            vec![
                "cplant24.nomax.all",
                "cplant72.nomax.all",
                "cplant24.nomax.fair",
                "cplant24.72max.all",
                "cplant72.72max.fair",
                "cons.nomax",
                "cons.72max",
                "consdyn.nomax",
                "consdyn.72max",
            ]
        );
    }

    #[test]
    fn policy_knobs_match_their_names() {
        let p = PolicySpec::by_id("cplant72.72max.fair").unwrap();
        let s = p.starvation.unwrap();
        assert_eq!(s.entry_delay, 72 * HOUR);
        assert!(s.heavy_rule.is_some());
        assert_eq!(p.runtime_limit, Some(RUNTIME_LIMIT_72H));
        assert_eq!(p.engine, EngineKind::NoGuarantee);

        let c = PolicySpec::by_id("consdyn.nomax").unwrap();
        assert_eq!(c.engine, EngineKind::Conservative { dynamic: true });
        assert!(c.starvation.is_none());
        assert!(c.runtime_limit.is_none());

        let c72 = PolicySpec::by_id("cons.72max").unwrap();
        assert_eq!(c72.engine, EngineKind::Conservative { dynamic: false });
        assert_eq!(c72.runtime_limit, Some(RUNTIME_LIMIT_72H));
    }

    #[test]
    fn subsets_match_the_figures() {
        let minor_all = PolicySpec::minor_policies();
        let minor: Vec<&str> = minor_all.iter().map(|p| p.id.as_ref()).collect();
        assert_eq!(minor.len(), 5);
        assert!(minor.iter().all(|n| n.starts_with("cplant")));

        let cons_all = PolicySpec::conservative_set();
        let cons: Vec<&str> = cons_all.iter().map(|p| p.id.as_ref()).collect();
        assert_eq!(
            cons,
            vec![
                "cplant24.nomax.all",
                "cons.nomax",
                "cons.72max",
                "consdyn.nomax",
                "consdyn.72max"
            ]
        );
    }

    #[test]
    fn sim_config_keeps_cplant_defaults() {
        let cfg = PolicySpec::baseline().sim_config(512);
        assert_eq!(cfg.nodes, 512);
        assert_eq!(cfg.order, QueueOrder::Fairshare);
        assert_eq!(cfg.engine, EngineKind::NoGuarantee);
    }

    #[test]
    fn unknown_ids_return_none() {
        assert!(PolicySpec::by_id("cplant48.nomax.all").is_none());
    }

    #[test]
    fn parse_reports_the_offending_id_in_a_typed_error() {
        let err = PolicySpec::parse("cplant48.nomax.all").unwrap_err();
        assert_eq!(err.id, "cplant48.nomax.all");
        let msg = err.to_string();
        assert!(msg.contains("cplant48.nomax.all"), "{msg}");
        assert!(msg.contains("rdepth<n>"), "{msg}");
    }

    #[test]
    fn size_based_ids_resolve_to_their_engines() {
        for (id, engine, limited) in [
            ("fsp.nomax", EngineKind::Fsp, false),
            ("las.nomax", EngineKind::Las, false),
            ("hfsp.nomax", EngineKind::Hfsp, false),
            ("fsp.72max", EngineKind::Fsp, true),
            ("las.72max", EngineKind::Las, true),
            ("hfsp.72max", EngineKind::Hfsp, true),
        ] {
            let p = PolicySpec::by_id(id).unwrap_or_else(|| panic!("{id}"));
            assert_eq!(p.id, id);
            assert_eq!(p.engine, engine, "{id}");
            assert!(p.starvation.is_none(), "{id}");
            assert_eq!(
                p.runtime_limit,
                limited.then_some(RUNTIME_LIMIT_72H),
                "{id}"
            );
        }
    }

    #[test]
    fn rdepth_ids_round_trip_through_parse() {
        let p = PolicySpec::parse("rdepth4.nomax").unwrap();
        assert_eq!(p.engine, EngineKind::ReservationDepth(4));
        assert_eq!(p.id, "rdepth4.nomax");
        assert!(p.runtime_limit.is_none());

        let p = PolicySpec::parse("rdepth2.72max").unwrap();
        assert_eq!(p.engine, EngineKind::ReservationDepth(2));
        assert_eq!(p.runtime_limit, Some(RUNTIME_LIMIT_72H));
        assert_eq!(p, PolicySpec::reservation_depth(2, true));

        // Non-canonical or malformed depth ids stay errors: they would not
        // round-trip and would alias journal fingerprints.
        for bad in ["rdepth04.nomax", "rdepth.nomax", "rdepth4", "rdepth4.max"] {
            assert_eq!(
                PolicySpec::parse(bad).unwrap_err().id,
                bad,
                "{bad} should not parse"
            );
        }
    }
}

//! Statistics-driven cost-based access-path selection.
//!
//! The planner prices the two access paths every executor can build —
//! a full [`super::TableScan`] versus an [`super::IndexScan`] over probe
//! candidates — from catalog-style statistics (cardinality, distinct
//! keys) and picks the cheaper one:
//!
//! ```text
//! cost(scan)  = cardinality
//! cost(probe) = 1 + 2 * ceil-free(cardinality / max(distinct_keys, 1))
//! ```
//!
//! The probe formula charges one unit for the index lookup plus two units
//! per expected candidate (fetch + residual predicate), which reproduces
//! the seed heuristic ("probe whenever an index matches") on uniform
//! data and flips to a scan on heavily skewed indexes where a probe
//! would visit nearly the whole table *and* pay per-candidate lookups.
//! Ties favor the probe, again matching the seed.
//!
//! Plan choice is **semantics-neutral** by the Scan-layer contract
//! (storage-order candidates, full predicate re-applied), so a
//! [`PlanMode`] override can force either path for equivalence testing
//! and benchmarking without changing observable traces:
//!
//! * [`PlanMode::CostBased`] — the default: price both paths, take the
//!   cheaper.
//! * [`PlanMode::ForceScan`] — always full-scan (the equivalence
//!   baseline).
//! * [`PlanMode::AlwaysProbe`] — probe whenever an index matches, the
//!   PR 1 heuristic (bench baseline).
//!
//! Every decision is instrumented: `planner.*` counters accumulate plan
//! counts and estimated-versus-actual cost, and inside an obs capture a
//! `planner.plan` event records the chosen path per operation.

use std::sync::atomic::{AtomicU8, Ordering};

/// Global access-path selection policy. Process-wide because executors
/// are constructed in too many places to thread a knob through; tests
/// that switch modes serialize on a lock (`tests/plan_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Price scan vs probe from statistics; take the cheaper (default).
    CostBased,
    /// Always full-scan, ignoring indexes (equivalence baseline).
    ForceScan,
    /// Probe whenever an index matches (the pre-planner heuristic).
    AlwaysProbe,
}

static PLAN_MODE: AtomicU8 = AtomicU8::new(0);

/// Set the process-wide [`PlanMode`]; returns the previous mode.
pub fn set_plan_mode(mode: PlanMode) -> PlanMode {
    let raw = match mode {
        PlanMode::CostBased => 0,
        PlanMode::ForceScan => 1,
        PlanMode::AlwaysProbe => 2,
    };
    decode(PLAN_MODE.swap(raw, Ordering::SeqCst))
}

/// The current process-wide [`PlanMode`].
pub fn plan_mode() -> PlanMode {
    decode(PLAN_MODE.load(Ordering::SeqCst))
}

fn decode(raw: u8) -> PlanMode {
    match raw {
        1 => PlanMode::ForceScan,
        2 => PlanMode::AlwaysProbe,
        _ => PlanMode::CostBased,
    }
}

/// The access path a plan committed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Full enumeration in storage order.
    FullScan,
    /// Index probe followed by candidate fetches.
    IndexProbe,
}

impl AccessPath {
    pub fn as_str(self) -> &'static str {
        match self {
            AccessPath::FullScan => "scan",
            AccessPath::IndexProbe => "probe",
        }
    }
}

/// Statistics for a candidate index probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeStats {
    /// Distinct key tuples in the index the probe would use.
    pub distinct_keys: u64,
    /// Whether a key matches at most one row.
    pub unique: bool,
}

/// A priced access-path decision for one retrieval operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanChoice {
    pub path: AccessPath,
    /// Estimated cost of the chosen path, in abstract row-visit units.
    pub est_cost: u64,
}

/// Estimated cost of a full scan over `cardinality` rows.
pub fn cost_scan(cardinality: u64) -> u64 {
    cardinality
}

/// Estimated cost of an index probe: one lookup plus two units per
/// expected candidate (`cardinality / distinct_keys`, integer division,
/// floored at one candidate for a unique index hit).
pub fn cost_probe(cardinality: u64, stats: ProbeStats) -> u64 {
    let expected = if stats.unique {
        1
    } else {
        (cardinality / stats.distinct_keys.max(1)).max(1)
    };
    1 + 2 * expected
}

/// Choose an access path for one retrieval over `cardinality` rows, with
/// `probe` describing the best matching index (if any index matches the
/// bound columns at all). Honors the global [`PlanMode`].
pub fn choose(cardinality: u64, probe: Option<ProbeStats>) -> PlanChoice {
    choose_in(plan_mode(), cardinality, probe)
}

/// [`choose`] under an explicit `mode` instead of the global one: a pure
/// function of its arguments.
fn choose_in(mode: PlanMode, cardinality: u64, probe: Option<ProbeStats>) -> PlanChoice {
    match mode {
        PlanMode::ForceScan => PlanChoice {
            path: AccessPath::FullScan,
            est_cost: cost_scan(cardinality),
        },
        PlanMode::AlwaysProbe => match probe {
            Some(stats) => PlanChoice {
                path: AccessPath::IndexProbe,
                est_cost: cost_probe(cardinality, stats),
            },
            None => PlanChoice {
                path: AccessPath::FullScan,
                est_cost: cost_scan(cardinality),
            },
        },
        PlanMode::CostBased => match probe {
            // Tie goes to the probe, matching the pre-planner heuristic.
            Some(stats) if cost_probe(cardinality, stats) <= cost_scan(cardinality) => PlanChoice {
                path: AccessPath::IndexProbe,
                est_cost: cost_probe(cardinality, stats),
            },
            _ => PlanChoice {
                path: AccessPath::FullScan,
                est_cost: cost_scan(cardinality),
            },
        },
    }
}

/// Record the outcome of an executed plan: `actual_cost` is the realized
/// row-visit count (scan-path rows visited, or probe candidates fetched).
/// Accumulates `planner.*` counters and, inside a capture, emits a
/// `planner.plan` event carrying the decision.
pub fn finish(op: &str, choice: PlanChoice, actual_cost: u64) {
    dbpc_obs::count("planner.plans", 1);
    match choice.path {
        AccessPath::FullScan => dbpc_obs::count("planner.scan_chosen", 1),
        AccessPath::IndexProbe => dbpc_obs::count("planner.probe_chosen", 1),
    }
    dbpc_obs::count("planner.est_cost_total", choice.est_cost);
    dbpc_obs::count("planner.actual_cost_total", actual_cost);
    dbpc_obs::count(
        "planner.cost_error_total",
        choice.est_cost.abs_diff(actual_cost),
    );
    if dbpc_obs::in_capture() {
        dbpc_obs::event_with(
            "planner.plan",
            &[
                ("op", op),
                ("path", choice.path.as_str()),
                ("est", &choice.est_cost.to_string()),
                ("actual", &actual_cost.to_string()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test names its mode: none reads or writes the process-wide one,
    // which other tests in this binary may set at any moment.
    fn cost_based(cardinality: u64, probe: Option<ProbeStats>) -> PlanChoice {
        choose_in(PlanMode::CostBased, cardinality, probe)
    }

    #[test]
    fn uniform_selectivity_prefers_probe() {
        // 200 rows, 10 distinct classes: probe ≈ 1 + 2*20 = 41 < 200.
        let choice = cost_based(
            200,
            Some(ProbeStats {
                distinct_keys: 10,
                unique: false,
            }),
        );
        assert_eq!(choice.path, AccessPath::IndexProbe);
        assert_eq!(choice.est_cost, 41);
    }

    #[test]
    fn skewed_index_prefers_scan() {
        // 4000 rows, 2 distinct keys: probe = 1 + 2*2000 > 4000.
        let choice = cost_based(
            4000,
            Some(ProbeStats {
                distinct_keys: 2,
                unique: false,
            }),
        );
        assert_eq!(choice.path, AccessPath::FullScan);
        assert_eq!(choice.est_cost, 4000);
    }

    #[test]
    fn unique_probe_wins_from_three_rows_up() {
        let unique = ProbeStats {
            distinct_keys: 3,
            unique: true,
        };
        // cost_probe(unique) = 3: a 2-row table is cheaper to scan, a
        // 3-row table ties (probe), anything larger probes outright.
        assert_eq!(cost_based(2, Some(unique)).path, AccessPath::FullScan);
        let choice = cost_based(3, Some(unique));
        assert_eq!(choice.path, AccessPath::IndexProbe);
        assert_eq!(choice.est_cost, 3);
    }

    #[test]
    fn empty_table_scans() {
        // cost_probe(0, ..) = 3 > cost_scan(0) = 0 → scan.
        let choice = cost_based(
            0,
            Some(ProbeStats {
                distinct_keys: 0,
                unique: false,
            }),
        );
        assert_eq!(choice.path, AccessPath::FullScan);
    }

    #[test]
    fn mode_override_forces_paths() {
        let stats = ProbeStats {
            distinct_keys: 10,
            unique: false,
        };
        let scan = choose_in(PlanMode::ForceScan, 200, Some(stats));
        assert_eq!(scan.path, AccessPath::FullScan);
        assert_eq!(scan.est_cost, 200);
        let probe = choose_in(PlanMode::AlwaysProbe, 4000, Some(stats));
        assert_eq!(probe.path, AccessPath::IndexProbe);
        assert_eq!(probe.est_cost, 801);
        assert_eq!(
            choose_in(PlanMode::AlwaysProbe, 4000, None).path,
            AccessPath::FullScan
        );
    }
}

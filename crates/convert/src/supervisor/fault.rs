//! Deterministic fault injection for the conversion pipeline.
//!
//! Robustness claims are only testable if failure is reproducible. A
//! [`FaultPlan`] decides — as a pure function of `(seed, stage, key)` —
//! whether a pipeline stage fails for a given work item, so an injected
//! fault lands on exactly the same program at any thread count and on
//! every rerun. Two fault shapes are injected: a typed
//! [`PipelineError::Injected`] error, and a panic (unwound quietly via
//! [`std::panic::resume_unwind`], so supervised runs don't spam stderr
//! through the default panic hook).

use dbpc_datamodel::error::{PipelineError, PipelineResult, Stage};
use dbpc_storage::disk::DiskFaultPlan;

/// The shape of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return a typed [`PipelineError::Injected`].
    Error,
    /// Unwind a panic through the stage (exercises `catch_unwind`
    /// supervision boundaries).
    Panic,
}

/// A targeted fault: fires for one `(stage, key)` work item.
#[derive(Debug, Clone, PartialEq)]
struct Targeted {
    stage: Stage,
    key: u64,
    kind: FaultKind,
    /// Fire only while `attempt < attempts` — a "transient" fault that a
    /// bounded retry budget recovers from. `usize::MAX` means persistent.
    attempts: usize,
}

/// A seeded, per-stage fault plan.
///
/// The probabilistic part injects a fault into stage `s` of work item
/// `key` iff `hash(seed, s, key) < probability`; of those, a `panic_share`
/// fraction are panics and the rest typed errors. The targeted part
/// ([`FaultPlan::with_fault`]) pins faults to specific work items for
/// acceptance tests. The default plan is idle (injects nothing) — that is
/// the production configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    /// Probability in `[0, 1]` that any given `(stage, key)` faults.
    pub probability: f64,
    /// Fraction of injected faults that are panics (the rest are errors).
    pub panic_share: f64,
    /// Restrict probabilistic injection to these stages; `None` = all.
    pub stages: Option<Vec<Stage>>,
    targeted: Vec<Targeted>,
    /// Deterministic disk faults (torn page writes, short writes, fsync
    /// failures) for the durable components a run drives — handed to
    /// [`FileMgr`][dbpc_storage::disk::FileMgr] construction wherever the
    /// pipeline opens a journal or durable store.
    disk: Option<DiskFaultPlan>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The idle plan: injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            probability: 0.0,
            panic_share: 0.0,
            stages: None,
            targeted: Vec::new(),
            disk: None,
        }
    }

    /// A probabilistic plan over all stages, half errors / half panics.
    pub fn seeded(seed: u64, probability: f64) -> FaultPlan {
        FaultPlan {
            seed,
            probability,
            panic_share: 0.5,
            stages: None,
            targeted: Vec::new(),
            disk: None,
        }
    }

    /// Restrict probabilistic injection to the given stages.
    pub fn in_stages(mut self, stages: &[Stage]) -> FaultPlan {
        self.stages = Some(stages.to_vec());
        self
    }

    /// Add a persistent targeted fault for one `(stage, key)` work item.
    pub fn with_fault(self, stage: Stage, key: u64, kind: FaultKind) -> FaultPlan {
        self.with_transient_fault(stage, key, kind, usize::MAX)
    }

    /// Add a targeted fault that fires only for the first `attempts`
    /// attempts at its work item — recoverable by a retry budget of at
    /// least `attempts`.
    pub fn with_transient_fault(
        mut self,
        stage: Stage,
        key: u64,
        kind: FaultKind,
        attempts: usize,
    ) -> FaultPlan {
        self.targeted.push(Targeted {
            stage,
            key,
            kind,
            attempts,
        });
        self
    }

    /// Attach deterministic disk faults — the storage layer's seeded
    /// torn-write / short-write / fsync-failure plan — to this pipeline
    /// plan, so one `FaultPlan` value configures a whole run's failure
    /// model, in-memory stages and durable I/O alike.
    pub fn with_disk_faults(mut self, disk: DiskFaultPlan) -> FaultPlan {
        self.disk = Some(disk);
        self
    }

    /// The disk-fault plan for durable components, if any.
    pub fn disk_faults(&self) -> Option<&DiskFaultPlan> {
        self.disk.as_ref()
    }

    /// True when this plan can never inject anything — the fast path the
    /// production pipeline checks to stay byte-identical to unfaulted runs.
    pub fn is_idle(&self) -> bool {
        self.probability <= 0.0
            && self.targeted.is_empty()
            && self.disk.as_ref().is_none_or(DiskFaultPlan::is_empty)
    }

    /// Decide whether `(stage, key)` faults on its `attempt`-th try
    /// (0-based). Pure: identical at any thread count.
    pub fn decide(&self, stage: Stage, key: u64, attempt: usize) -> Option<FaultKind> {
        for t in &self.targeted {
            if t.stage == stage && t.key == key && attempt < t.attempts {
                return Some(t.kind);
            }
        }
        if self.probability > 0.0
            && self
                .stages
                .as_ref()
                .map(|ss| ss.contains(&stage))
                .unwrap_or(true)
        {
            // Probabilistic faults are persistent across attempts (the
            // decision ignores `attempt`): a retry budget only recovers
            // transient targeted faults, keeping study outcomes a pure
            // function of (seed, stage, key).
            let u = unit_hash(self.seed, stage, key, 0);
            if u < self.probability {
                let v = unit_hash(self.seed, stage, key, 1);
                return Some(if v < self.panic_share {
                    FaultKind::Panic
                } else {
                    FaultKind::Error
                });
            }
        }
        None
    }

    /// Trip the plan at a stage boundary: returns `Err` for an injected
    /// error, unwinds for an injected panic, and is a no-op otherwise.
    pub fn trip(&self, stage: Stage, key: u64, attempt: usize) -> PipelineResult<()> {
        match self.decide(stage, key, attempt) {
            None => Ok(()),
            Some(FaultKind::Error) => Err(PipelineError::Injected {
                stage,
                detail: format!("planned error (key {key}, attempt {attempt})"),
            }),
            Some(FaultKind::Panic) => {
                // resume_unwind skips the panic hook: injected panics are
                // expected control flow under supervision, not bugs worth
                // a backtrace on stderr.
                std::panic::resume_unwind(Box::new(format!(
                    "injected panic at {stage} stage (key {key}, attempt {attempt})"
                )))
            }
        }
    }
}

/// SplitMix64-style avalanche of `(seed, stage, key, salt)` into `[0, 1)`.
fn unit_hash(seed: u64, stage: Stage, key: u64, salt: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(key.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add((stage as u64).wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(salt.wrapping_mul(0xd6e8_feb8_6659_fd93));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(plan.is_idle());
        for stage in Stage::ALL {
            for key in 0..100 {
                assert_eq!(plan.decide(stage, key, 0), None);
                assert!(plan.trip(stage, key, 0).is_ok());
            }
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::seeded(42, 0.3);
        let b = FaultPlan::seeded(42, 0.3);
        for stage in Stage::ALL {
            for key in 0..200 {
                assert_eq!(a.decide(stage, key, 0), b.decide(stage, key, 0));
                // Probabilistic faults persist across attempts.
                assert_eq!(a.decide(stage, key, 0), a.decide(stage, key, 7));
            }
        }
    }

    #[test]
    fn probability_roughly_respected() {
        let plan = FaultPlan::seeded(7, 0.2);
        let mut fired = 0;
        let total = Stage::ALL.len() * 500;
        for stage in Stage::ALL {
            for key in 0..500 {
                if plan.decide(stage, key, 0).is_some() {
                    fired += 1;
                }
            }
        }
        let rate = fired as f64 / total as f64;
        assert!((0.1..0.3).contains(&rate), "rate {rate}");
    }

    #[test]
    fn targeted_fault_fires_only_at_its_coordinates() {
        let plan = FaultPlan::none().with_fault(Stage::Converter, 9, FaultKind::Error);
        assert!(!plan.is_idle());
        assert_eq!(plan.decide(Stage::Converter, 9, 0), Some(FaultKind::Error));
        assert_eq!(plan.decide(Stage::Converter, 9, 3), Some(FaultKind::Error));
        assert_eq!(plan.decide(Stage::Converter, 8, 0), None);
        assert_eq!(plan.decide(Stage::Analyzer, 9, 0), None);
    }

    #[test]
    fn transient_fault_expires_after_budgeted_attempts() {
        let plan = FaultPlan::none().with_transient_fault(Stage::Generator, 4, FaultKind::Panic, 2);
        assert_eq!(plan.decide(Stage::Generator, 4, 0), Some(FaultKind::Panic));
        assert_eq!(plan.decide(Stage::Generator, 4, 1), Some(FaultKind::Panic));
        assert_eq!(plan.decide(Stage::Generator, 4, 2), None);
    }

    #[test]
    fn trip_returns_typed_injected_error() {
        let plan = FaultPlan::none().with_fault(Stage::Optimizer, 1, FaultKind::Error);
        let err = plan.trip(Stage::Optimizer, 1, 0).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Injected {
                stage: Stage::Optimizer,
                ..
            }
        ));
    }

    #[test]
    fn trip_panic_is_catchable() {
        let plan = FaultPlan::none().with_fault(Stage::Analyzer, 2, FaultKind::Panic);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.trip(Stage::Analyzer, 2, 0)
        }));
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("injected panic at analyzer stage"));
    }

    #[test]
    fn disk_faults_ride_the_plan_and_wake_it_from_idle() {
        use dbpc_storage::disk::DiskFault;
        let disk = DiskFaultPlan::default().with_fault_at(3, DiskFault::FsyncFail);
        let plan = FaultPlan::none().with_disk_faults(disk.clone());
        assert!(!plan.is_idle());
        assert_eq!(plan.disk_faults(), Some(&disk));
        // An *empty* disk plan keeps the overall plan idle.
        assert!(FaultPlan::none()
            .with_disk_faults(DiskFaultPlan::default())
            .is_idle());
        // Stage decisions are untouched by the disk component.
        assert_eq!(plan.decide(Stage::Converter, 3, 0), None);
    }

    #[test]
    fn stage_restriction_limits_probabilistic_injection() {
        let plan = FaultPlan::seeded(3, 1.0).in_stages(&[Stage::Verification]);
        assert!(plan.decide(Stage::Verification, 0, 0).is_some());
        assert_eq!(plan.decide(Stage::Converter, 0, 0), None);
    }
}

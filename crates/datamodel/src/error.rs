//! Error type shared by schema construction, validation, and DDL parsing.

use std::fmt;

/// Errors raised while building or validating schemas and while parsing DDL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A record/table/segment/set name was declared twice.
    Duplicate { kind: &'static str, name: String },
    /// A reference to an undeclared record/field/set/table/segment.
    Unknown { kind: &'static str, name: String },
    /// Structural rule violated (e.g. set member equal to owner, cyclic
    /// hierarchy, key field not in record).
    Invalid(String),
    /// DDL syntax error with a line number.
    Syntax { line: usize, message: String },
}

impl ModelError {
    pub fn unknown(kind: &'static str, name: impl Into<String>) -> Self {
        ModelError::Unknown {
            kind,
            name: name.into(),
        }
    }
    pub fn duplicate(kind: &'static str, name: impl Into<String>) -> Self {
        ModelError::Duplicate {
            kind,
            name: name.into(),
        }
    }
    pub fn invalid(msg: impl Into<String>) -> Self {
        ModelError::Invalid(msg.into())
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Duplicate { kind, name } => {
                write!(f, "duplicate {kind} '{name}'")
            }
            ModelError::Unknown { kind, name } => {
                write!(f, "unknown {kind} '{name}'")
            }
            ModelError::Invalid(m) => write!(f, "invalid schema: {m}"),
            ModelError::Syntax { line, message } => {
                write!(f, "DDL syntax error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Convenient result alias for this crate.
pub type ModelResult<T> = Result<T, ModelError>;

/// The stages of the conversion pipeline, as supervised by the Figure 4.1
/// conversion program manager. Fault injection, fuel accounting, and the
/// strategy fallback ladder all speak in these terms, so the enum lives in
/// the base crate every pipeline layer already depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Program analysis (§3.2 hazard detection).
    Analyzer,
    /// Rule-based program rewriting (§4).
    Converter,
    /// Post-conversion cleanup (§5.4).
    Optimizer,
    /// Target program text emission.
    Generator,
    /// Data translation of the source database (§1, refs 3–7).
    Translation,
    /// Execution-equivalence checking (§1.1 / §5.2).
    Verification,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Analyzer,
        Stage::Converter,
        Stage::Optimizer,
        Stage::Generator,
        Stage::Translation,
        Stage::Verification,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Stage::Analyzer => "analyzer",
            Stage::Converter => "converter",
            Stage::Optimizer => "optimizer",
            Stage::Generator => "generator",
            Stage::Translation => "translation",
            Stage::Verification => "verification",
        }
    }

    /// The `dbpc-obs` span name for this stage boundary (`stage.<name>`).
    /// One canonical mapping, so trace consumers can match spans to the
    /// Figure 4.1 boxes without string assembly at every call site.
    pub fn span_name(&self) -> &'static str {
        match self {
            Stage::Analyzer => "stage.analyzer",
            Stage::Converter => "stage.converter",
            Stage::Optimizer => "stage.optimizer",
            Stage::Generator => "stage.generator",
            Stage::Translation => "stage.translation",
            Stage::Verification => "stage.verification",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The crate-spanning pipeline error: everything a supervision layer may
/// need to report about a failed conversion attempt, regardless of which
/// crate the failure originated in. Engine and storage errors are carried
/// as rendered text to keep the dependency graph acyclic — the datamodel
/// crate sits below both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A schema/mapping error (the conversion analyzer's domain).
    Model(ModelError),
    /// A pipeline stage failed with a typed runtime/storage error,
    /// rendered to text.
    Stage { stage: Stage, detail: String },
    /// A deterministic fault injected by a `FaultPlan` (robustness
    /// testing; never raised in production configurations).
    Injected { stage: Stage, detail: String },
    /// A panic caught at a supervision boundary; `detail` is the rendered
    /// panic payload.
    Panic { detail: String },
    /// An execution exceeded its interpreter fuel (statement budget) —
    /// the runaway-loop guard on supervised verification runs.
    FuelExhausted { stage: Stage },
    /// A concurrency-control wait expired: the conversion service's lock
    /// table resolves deadlocks by bounded waits (SimpleDB-style), and an
    /// expired wait surfaces here so the fallback ladder can retry or
    /// degrade the job instead of wedging it. `resource` is the rendered
    /// lock resource (engine or record type) that could not be acquired.
    LockTimeout { resource: String },
    /// The service dropped the job while it was still queued: a
    /// bounded-time drain expired, or the service was halted. Terminal —
    /// the client must resubmit; the job never ran.
    Overloaded { detail: String },
}

impl PipelineError {
    /// A stage failure carrying a rendered error from another crate.
    pub fn stage(stage: Stage, detail: impl fmt::Display) -> Self {
        PipelineError::Stage {
            stage,
            detail: detail.to_string(),
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Model(e) => write!(f, "{e}"),
            PipelineError::Stage { stage, detail } => {
                write!(f, "{stage} stage failed: {detail}")
            }
            PipelineError::Injected { stage, detail } => {
                write!(f, "injected fault at {stage} stage: {detail}")
            }
            PipelineError::Panic { detail } => write!(f, "panic: {detail}"),
            PipelineError::FuelExhausted { stage } => {
                write!(f, "{stage} stage exhausted its interpreter fuel")
            }
            PipelineError::LockTimeout { resource } => {
                write!(f, "lock request timed out on {resource}")
            }
            PipelineError::Overloaded { detail } => {
                write!(f, "service overloaded: {detail}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ModelError> for PipelineError {
    fn from(e: ModelError) -> Self {
        PipelineError::Model(e)
    }
}

/// Result alias for supervised pipeline operations.
pub type PipelineResult<T> = Result<T, PipelineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(
            ModelError::duplicate("record", "EMP").to_string(),
            "duplicate record 'EMP'"
        );
        assert_eq!(
            ModelError::unknown("set", "DIV-EMP").to_string(),
            "unknown set 'DIV-EMP'"
        );
        assert!(ModelError::Syntax {
            line: 3,
            message: "expected RECORD".into()
        }
        .to_string()
        .contains("line 3"));
    }
}

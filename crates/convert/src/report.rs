//! Questions, warnings, analysts, verdicts, reports.
//!
//! The paper is emphatic that "a completely automated system is probably not
//! possible, and an interactive system makes more sense" (§3.2). The
//! supervisor therefore raises typed [`Question`]s to an [`Analyst`]; a
//! production deployment would put a human behind that trait, while tests
//! and the success-rate study use [`AutoAnalyst`] (fully automatic: every
//! question is a rejection) and [`ScriptedAnalyst`].

use dbpc_analyzer::dataflow::Hazard;
use std::fmt;

/// A problem the conversion system cannot resolve automatically.
#[derive(Debug, Clone, PartialEq)]
pub enum Question {
    /// The program references a field the restructuring drops —
    /// information loss meets program dependence (§1.1).
    DroppedFieldReferenced { record: String, field: String },
    /// The program references a field that migrated to another record type
    /// (the virtual fields the Figure 4.2→4.4 promotion moves to `DEPT`);
    /// re-homing the reference needs an access path the program's shape
    /// does not provide.
    MigratedFieldReference {
        record: String,
        field: String,
        moved_to: String,
    },
    /// The program MODIFYs a field that became a grouping record; changing
    /// it means re-homing the record to another owner occurrence.
    ModifyMovedField { record: String, field: String },
    /// The program's retrieval targets a record type the restructuring
    /// removes (demotion of the mid record).
    TargetEntityRemoved { record: String },
    /// A path filter mixes promoted and retained fields in one conjunct;
    /// it cannot be split across the new path steps.
    UnsplittableFilter { detail: String },
    /// A §3.2 execution-time-variability hazard blocks conversion.
    RuntimeVariability { hazard: Hazard },
    /// The source result order cannot be reproduced (keyless set order was
    /// chronological; the restructuring loses it).
    OrderIrrecoverable { query: String },
    /// More than one minimal access path realizes the traversal in the
    /// target schema; the application meaning must be chosen by a person.
    AmbiguousPath {
        from: String,
        to: String,
        candidates: Vec<String>,
    },
    /// A STORE of this record type will newly require a connection
    /// (MANUAL → AUTOMATIC insertion) the program does not establish.
    InsertionTightened { record: String, set: String },
    /// A DISCONNECT will newly be forbidden (OPTIONAL → MANDATORY).
    RetentionTightened { set: String },
    /// A literal `CALL DML` retrieval prints every field of a record whose
    /// field list the restructuring changes.
    CallDmlFieldListChanged { record: String },
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Question::DroppedFieldReferenced { record, field } => write!(
                f,
                "program references {record}.{field}, which the restructuring drops"
            ),
            Question::MigratedFieldReference {
                record,
                field,
                moved_to,
            } => write!(
                f,
                "program references {record}.{field}, which moved to {moved_to}"
            ),
            Question::ModifyMovedField { record, field } => write!(
                f,
                "program modifies {record}.{field}, which became a grouping record"
            ),
            Question::TargetEntityRemoved { record } => {
                write!(
                    f,
                    "program retrieves {record}, which the restructuring removes"
                )
            }
            Question::UnsplittableFilter { detail } => {
                write!(f, "filter cannot be split across new path steps: {detail}")
            }
            Question::RuntimeVariability { hazard } => write!(f, "{hazard}"),
            Question::OrderIrrecoverable { query } => {
                write!(f, "source order cannot be reproduced for {query}")
            }
            Question::AmbiguousPath {
                from,
                to,
                candidates,
            } => write!(
                f,
                "multiple access paths from {from} to {to}: {}",
                candidates.join(" | ")
            ),
            Question::InsertionTightened { record, set } => write!(
                f,
                "STORE {record} will require a connection in {set} (now AUTOMATIC)"
            ),
            Question::RetentionTightened { set } => {
                write!(f, "DISCONNECT from {set} will be forbidden (now MANDATORY)")
            }
            Question::CallDmlFieldListChanged { record } => write!(
                f,
                "CALL DML output for {record} changes because its field list changes"
            ),
        }
    }
}

/// A note about a behavior-affecting but automatically handled aspect.
#[derive(Debug, Clone, PartialEq)]
pub enum Warning {
    /// A SORT was inserted to preserve the source result order.
    OrderCompensated {
        query: String,
    },
    /// A redundant SORT was removed (target ordering already matches).
    RedundantSortRemoved {
        query: String,
    },
    /// A procedural integrity check duplicated by the target schema's
    /// declarative constraint was removed.
    RedundantCheckRemoved {
        constraint: String,
    },
    /// A dead retrieval (result never used) was removed.
    DeadFindRemoved {
        var: String,
    },
    /// Compensating statements were inserted (find-or-create owner,
    /// explicit member deletion, …) — Su's "the system will insert
    /// statements to traverse this relationship".
    CompensationInserted {
        detail: String,
    },
    /// The restructuring deletes data the program reads; the conversion is
    /// only equivalent at the §5.2 "warned" level.
    InformationDeleted {
        record: String,
    },
    /// Integrity semantics tightened/loosened; operations may newly fail or
    /// newly succeed — "the desired behavior because the application
    /// requirements have changed, but … not strictly equivalent" (§5.2).
    IntegrityTightened {
        detail: String,
    },
    IntegrityLoosened {
        detail: String,
    },
    /// Purely advisory access-path note from the statistics-driven
    /// planner (§5.4 optimizer): e.g. a FIND that will scan a large
    /// record type with no usable key. Never affects the verdict — the
    /// access path is free to change under the §1.1 equivalence
    /// criterion.
    PlanAdvice {
        detail: String,
    },
}

impl Warning {
    /// Advisory warnings report optimization opportunities, not behavior
    /// differences; they never demote a conversion's verdict.
    pub fn is_advisory(&self) -> bool {
        matches!(self, Warning::PlanAdvice { .. })
    }
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Warning::OrderCompensated { query } => {
                write!(f, "inserted SORT to preserve order of {query}")
            }
            Warning::RedundantSortRemoved { query } => {
                write!(f, "removed redundant SORT in {query}")
            }
            Warning::RedundantCheckRemoved { constraint } => {
                write!(f, "removed procedural check now declared: {constraint}")
            }
            Warning::DeadFindRemoved { var } => {
                write!(f, "removed dead retrieval into {var}")
            }
            Warning::CompensationInserted { detail } => {
                write!(f, "inserted compensating statements: {detail}")
            }
            Warning::InformationDeleted { record } => {
                write!(f, "restructuring deletes {record} data the program reads")
            }
            Warning::IntegrityTightened { detail } => {
                write!(f, "integrity tightened: {detail}")
            }
            Warning::IntegrityLoosened { detail } => {
                write!(f, "integrity loosened: {detail}")
            }
            Warning::PlanAdvice { detail } => {
                write!(f, "plan advice: {detail}")
            }
        }
    }
}

/// An analyst's ruling on a question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Accept the behavior change / promise manual follow-up.
    Proceed,
    /// Abandon the conversion of this program.
    Reject,
}

/// The interactive party of Figure 4.1 ("controlled by a Conversion
/// Analyst interacting with the Program Conversion Supervisor").
pub trait Analyst {
    fn resolve(&mut self, question: &Question) -> Answer;
}

/// Fully automatic mode: every question is a rejection. This is the
/// configuration under which the success-rate study measures what fraction
/// of programs convert with no human at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct AutoAnalyst;

impl Analyst for AutoAnalyst {
    fn resolve(&mut self, _q: &Question) -> Answer {
        Answer::Reject
    }
}

/// A scripted analyst for tests: answers in order, then rejects.
#[derive(Debug, Default)]
pub struct ScriptedAnalyst {
    pub answers: Vec<Answer>,
    next: usize,
}

impl ScriptedAnalyst {
    pub fn new(answers: Vec<Answer>) -> ScriptedAnalyst {
        ScriptedAnalyst { answers, next: 0 }
    }

    /// An analyst that approves everything.
    pub fn permissive() -> PermissiveAnalyst {
        PermissiveAnalyst
    }
}

impl Analyst for ScriptedAnalyst {
    fn resolve(&mut self, _q: &Question) -> Answer {
        let a = self
            .answers
            .get(self.next)
            .copied()
            .unwrap_or(Answer::Reject);
        self.next += 1;
        a
    }
}

/// Approves every question (accepting all behavior changes).
#[derive(Debug, Default, Clone, Copy)]
pub struct PermissiveAnalyst;

impl Analyst for PermissiveAnalyst {
    fn resolve(&mut self, _q: &Question) -> Answer {
        Answer::Proceed
    }
}

/// How a conversion ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Fully automatic, no behavioral caveats.
    Converted,
    /// Converted, with warnings (order compensation, integrity changes,
    /// §5.2 weaker equivalence, …).
    ConvertedWithWarnings,
    /// The analyst approved proceeding despite unresolved questions; the
    /// emitted program (if any) needs manual completion.
    NeedsManualWork,
    /// Conversion abandoned.
    Rejected,
    /// The conversion pipeline itself crashed (panic caught at a
    /// supervision boundary); no verdict about the program could be
    /// reached. Distinct from [`Verdict::Rejected`], which is a judgment.
    Poisoned,
}

/// The supervisor's complete account of one program conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct ConversionReport {
    pub verdict: Verdict,
    /// The converted program, present unless rejected.
    pub program: Option<dbpc_dml::host::Program>,
    /// Generated target source text, when a program was produced.
    pub text: Option<String>,
    pub warnings: Vec<Warning>,
    /// Questions raised, paired with the analyst's answers.
    pub questions: Vec<(Question, Answer)>,
    /// Which §2 strategy rung produced this report. Plain (non-ladder)
    /// conversion is always full rewriting.
    pub rung: crate::supervisor::ladder::Rung,
    /// Why each higher-preference rung failed, in descent order. Empty
    /// when the first rung served.
    pub fallbacks: Vec<crate::supervisor::ladder::RungFailure>,
    /// Structured observability for this conversion: the span tree and
    /// metrics recorded while producing it. `None` on the plain entry
    /// points (zero overhead); filled by [`Supervisor::convert_traced`].
    ///
    /// [`Supervisor::convert_traced`]: crate::supervisor::Supervisor::convert_traced
    pub run_report: Option<Box<dbpc_obs::RunReport>>,
}

impl ConversionReport {
    pub fn succeeded(&self) -> bool {
        matches!(
            self.verdict,
            Verdict::Converted | Verdict::ConvertedWithWarnings
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_analyst_rejects() {
        let mut a = AutoAnalyst;
        let q = Question::TargetEntityRemoved {
            record: "DEPT".into(),
        };
        assert_eq!(a.resolve(&q), Answer::Reject);
    }

    #[test]
    fn scripted_analyst_answers_in_order_then_rejects() {
        let mut a = ScriptedAnalyst::new(vec![Answer::Proceed]);
        let q = Question::RetentionTightened { set: "S".into() };
        assert_eq!(a.resolve(&q), Answer::Proceed);
        assert_eq!(a.resolve(&q), Answer::Reject);
    }

    #[test]
    fn displays_are_informative() {
        let q = Question::MigratedFieldReference {
            record: "EMP".into(),
            field: "DIV-NAME".into(),
            moved_to: "DEPT".into(),
        };
        assert!(q.to_string().contains("moved to DEPT"));
        let w = Warning::OrderCompensated {
            query: "FIND(…)".into(),
        };
        assert!(w.to_string().contains("SORT"));
    }
}

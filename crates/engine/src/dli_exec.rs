//! The DL/I position machine.
//!
//! IMS execution state is a *position* in the hierarchic sequence plus
//! *parentage*: `GU` and `GN` establish both; `GNP` advances position within
//! the established parent's subtree only. The Mehl & Wang conversion
//! problem (ref 11) arises because `GN`'s meaning is defined by the
//! hierarchic order itself — permute the hierarchy and every unqualified
//! `GN` loop silently changes meaning. This interpreter makes that
//! observable.

use crate::atomic::run_atomic;
use crate::error::{RunError, RunResult};
use crate::scan::{planner, AccessPath, PlanChoice, Scan, Select, TableScan};
use crate::trace::{Inputs, Trace, TraceEvent};
use dbpc_datamodel::value::Value;
use dbpc_dml::dli::{DliProgram, DliStatus, DliStmt, DliUnit, PrintItem, Ssa};
use dbpc_storage::HierDb;

/// The DL/I machine.
pub struct DliMachine<'d> {
    db: &'d mut HierDb,
    /// Current position in the hierarchic sequence.
    position: Option<u64>,
    /// Parentage established by the last successful GU/GN.
    parentage: Option<u64>,
    status: DliStatus,
    trace: Trace,
    steps: usize,
    step_limit: usize,
}

/// Run a DL/I program; returns the observable trace, carrying the run's
/// access-path counters (notably `preorder_rebuilds`).
///
/// The run is atomic ([`crate::atomic`]): a typed error, fuel exhaustion,
/// or a panic (re-raised after cleanup) rolls the store back to its
/// pre-run state.
pub fn run_dli(db: &mut HierDb, program: &DliProgram, _inputs: Inputs) -> RunResult<Trace> {
    run_atomic("engine.dli", db, |db| DliMachine::new(db).run(program))
}

impl<'d> DliMachine<'d> {
    pub fn new(db: &'d mut HierDb) -> Self {
        DliMachine {
            db,
            position: None,
            parentage: None,
            status: DliStatus::Ok,
            trace: Trace::new(),
            steps: 0,
            step_limit: 1_000_000,
        }
    }

    pub fn with_step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit;
        self
    }

    pub fn run(mut self, program: &DliProgram) -> RunResult<Trace> {
        let mut pc = 0usize;
        while pc < program.units.len() {
            self.steps += 1;
            if self.steps > self.step_limit {
                return Err(RunError::StepLimit);
            }
            match &program.units[pc] {
                DliUnit::Label(_) => pc += 1,
                DliUnit::Stmt(s) => match s {
                    DliStmt::Stop => break,
                    DliStmt::Goto(label) => {
                        pc = program
                            .label_index(label)
                            .ok_or_else(|| RunError::NoSuchLabel(label.clone()))?;
                    }
                    DliStmt::IfStatus { cond, goto } => {
                        if self.status == *cond {
                            pc = program
                                .label_index(goto)
                                .ok_or_else(|| RunError::NoSuchLabel(goto.clone()))?;
                        } else {
                            pc += 1;
                        }
                    }
                    other => {
                        self.exec(other)?;
                        pc += 1;
                    }
                },
            }
        }
        Ok(self.trace)
    }

    fn exec(&mut self, s: &DliStmt) -> RunResult<()> {
        match s {
            DliStmt::Gu { ssas } => match self.search_path(ssas)? {
                Some(id) => {
                    self.position = Some(id);
                    self.parentage = Some(id);
                    self.status = DliStatus::Ok;
                }
                None => self.status = DliStatus::NotFound,
            },
            DliStmt::Gn { segment } => {
                // Amortized: the hierarchic sequence is cached in the
                // engine; no per-call preorder materialization or linear
                // position search.
                match self.db.next_in_preorder(self.position, segment.as_deref()) {
                    Some(id) => {
                        self.position = Some(id);
                        self.parentage = Some(id);
                        self.status = DliStatus::Ok;
                    }
                    None => self.status = DliStatus::EndOfDb,
                }
            }
            DliStmt::Gnp { segment } => {
                let Some(parent) = self.parentage else {
                    self.status = DliStatus::NotFound;
                    return Ok(());
                };
                match self
                    .db
                    .next_within(parent, self.position, segment.as_deref())
                {
                    Some(id) => {
                        self.position = Some(id);
                        self.status = DliStatus::Ok;
                    }
                    None => self.status = DliStatus::NotFound,
                }
            }
            DliStmt::Isrt { segment, assigns } => {
                let parent_type = self.db.schema().parent_of(segment).map(str::to_string);
                let parent_occ = match &parent_type {
                    None => None,
                    Some(pt) => {
                        // The insert parent is the current position if it has
                        // the right type, else the nearest ancestor of it.
                        match self.find_ancestor_of_type(pt) {
                            Some(p) => Some(p),
                            None => {
                                self.status = DliStatus::NotFound;
                                return Ok(());
                            }
                        }
                    }
                };
                let vals: Vec<(&str, Value)> = assigns
                    .iter()
                    .map(|(f, v)| (f.as_str(), v.clone()))
                    .collect();
                match self.db.insert(segment, &vals, parent_occ) {
                    Ok(id) => {
                        self.position = Some(id);
                        self.parentage = Some(id);
                        self.status = DliStatus::Ok;
                    }
                    Err(e) => {
                        self.trace.push(TraceEvent::Abort(e.to_string()));
                        self.status = DliStatus::NotFound;
                    }
                }
            }
            DliStmt::Dlet => {
                let Some(p) = self.position else {
                    self.status = DliStatus::NotFound;
                    return Ok(());
                };
                self.db.delete(p)?;
                self.position = None;
                self.parentage = None;
                self.status = DliStatus::Ok;
            }
            DliStmt::Repl { assigns } => {
                let Some(p) = self.position else {
                    self.status = DliStatus::NotFound;
                    return Ok(());
                };
                let vals: Vec<(&str, Value)> = assigns
                    .iter()
                    .map(|(f, v)| (f.as_str(), v.clone()))
                    .collect();
                self.db.replace(p, &vals)?;
                self.status = DliStatus::Ok;
            }
            DliStmt::Print { items } => {
                let mut parts = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        PrintItem::Lit(v) => parts.push(v.to_string()),
                        PrintItem::Field(f) => {
                            let Some(p) = self.position else {
                                self.status = DliStatus::NotFound;
                                return Ok(());
                            };
                            parts.push(self.db.field_value(p, f)?.to_string());
                        }
                    }
                }
                self.trace.push(TraceEvent::TerminalOut(parts.join(" ")));
            }
            DliStmt::Stop | DliStmt::Goto(_) | DliStmt::IfStatus { .. } => {
                unreachable!("handled in run()")
            }
        }
        Ok(())
    }

    /// Nearest occurrence of `seg_type` at or above the current position.
    fn find_ancestor_of_type(&self, seg_type: &str) -> Option<u64> {
        let mut cur = self.position?;
        loop {
            let inst = self.db.get(cur).ok()?;
            if inst.seg_type == seg_type {
                return Some(cur);
            }
            cur = inst.parent?;
        }
    }

    /// First occurrence (hierarchic order) matching an SSA path.
    ///
    /// Routed through the Scan layer: top-level occurrences of the first
    /// SSA's segment type stream through a [`Select`] applying the SSA
    /// qualifier. Hierarchic stores expose no secondary index, so this is
    /// a single-path plan priced at the segment type's cardinality —
    /// recorded so est-vs-actual error shows up in planner metrics.
    fn search_path(&self, ssas: &[Ssa]) -> RunResult<Option<u64>> {
        let Some((first, rest)) = ssas.split_first() else {
            return Ok(None);
        };
        let choice = PlanChoice {
            path: AccessPath::FullScan,
            est_cost: self.db.type_cardinality(&first.segment),
        };
        let occurrences = self.db.occurrences_of(&first.segment);
        let actual = occurrences.len() as u64;
        let mut candidates = Select::new(TableScan::new(occurrences.into_iter()), |&id| {
            Ok(self.ssa_matches(id, first))
        });
        let mut hit = None;
        while let Some(c) = candidates.next()? {
            if let Some(h) = self.search_below(c, rest)? {
                hit = Some(h);
                break;
            }
        }
        planner::finish("dli.search_path", choice, actual);
        Ok(hit)
    }

    fn search_below(&self, under: u64, ssas: &[Ssa]) -> RunResult<Option<u64>> {
        let Some((first, rest)) = ssas.split_first() else {
            return Ok(Some(under));
        };
        let children = self.db.children_of(under, &first.segment)?;
        for c in children {
            if self.ssa_matches(c, first) {
                if let Some(hit) = self.search_below(c, rest)? {
                    return Ok(Some(hit));
                }
            }
        }
        Ok(None)
    }

    fn ssa_matches(&self, id: u64, ssa: &Ssa) -> bool {
        match &ssa.qual {
            None => true,
            Some((field, op, value)) => match self.db.field_value(id, field) {
                Ok(v) => op.eval(&v, value),
                Err(_) => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_datamodel::hierarchical::{HierSchema, SegmentDef};
    use dbpc_datamodel::network::FieldDef;
    use dbpc_datamodel::types::FieldType;
    use dbpc_dml::dli::parse_dli;

    fn schema() -> HierSchema {
        HierSchema::new("COMPANY").with_root(
            SegmentDef::new("DIV", vec![FieldDef::new("DIV-NAME", FieldType::Char(20))])
                .with_seq_field("DIV-NAME")
                .with_child(
                    SegmentDef::new(
                        "EMP",
                        vec![
                            FieldDef::new("EMP-NAME", FieldType::Char(25)),
                            FieldDef::new("AGE", FieldType::Int(2)),
                        ],
                    )
                    .with_seq_field("EMP-NAME"),
                )
                .with_child(SegmentDef::new(
                    "PROJ",
                    vec![FieldDef::new("PROJ-NAME", FieldType::Char(10))],
                )),
        )
    }

    fn db() -> HierDb {
        let mut db = HierDb::new(schema()).unwrap();
        let mach = db
            .insert("DIV", &[("DIV-NAME", Value::str("MACHINERY"))], None)
            .unwrap();
        let aero = db
            .insert("DIV", &[("DIV-NAME", Value::str("AEROSPACE"))], None)
            .unwrap();
        for (n, a, d) in [
            ("JONES", 34, mach),
            ("ADAMS", 28, mach),
            ("CLARK", 52, aero),
        ] {
            db.insert(
                "EMP",
                &[("EMP-NAME", Value::str(n)), ("AGE", Value::Int(a))],
                Some(d),
            )
            .unwrap();
        }
        db.insert("PROJ", &[("PROJ-NAME", Value::str("P1"))], Some(mach))
            .unwrap();
        db
    }

    fn run(src: &str, db: &mut HierDb) -> Trace {
        let p = parse_dli(src).unwrap();
        run_dli(db, &p, Inputs::new()).unwrap()
    }

    #[test]
    fn gu_positions_on_qualified_path() {
        let mut d = db();
        let t = run(
            "DLI PROGRAM G.
  GU DIV(DIV-NAME = 'MACHINERY') EMP(EMP-NAME = 'JONES').
  PRINT EMP-NAME, AGE.
  STOP.
END PROGRAM.",
            &mut d,
        );
        assert_eq!(t.terminal_lines(), vec!["JONES 34"]);
    }

    #[test]
    fn gnp_iterates_children_of_parent() {
        let mut d = db();
        let t = run(
            "DLI PROGRAM P.
  GU DIV(DIV-NAME = 'MACHINERY').
LOOP.
  GNP EMP.
  IF STATUS GE GO TO DONE.
  PRINT EMP-NAME.
  GO TO LOOP.
DONE.
  STOP.
END PROGRAM.",
            &mut d,
        );
        assert_eq!(t.terminal_lines(), vec!["ADAMS", "JONES"]);
    }

    #[test]
    fn gn_walks_hierarchic_sequence() {
        let mut d = db();
        let t = run(
            "DLI PROGRAM W.
  GU DIV(DIV-NAME = 'AEROSPACE').
LOOP.
  GN EMP.
  IF STATUS GB GO TO DONE.
  PRINT EMP-NAME.
  GO TO LOOP.
DONE.
  STOP.
END PROGRAM.",
            &mut d,
        );
        // AEROSPACE first (seq order), its CLARK, then MACHINERY's
        // ADAMS/JONES.
        assert_eq!(t.terminal_lines(), vec!["CLARK", "ADAMS", "JONES"]);
    }

    #[test]
    fn gu_miss_sets_ge() {
        let mut d = db();
        let t = run(
            "DLI PROGRAM M.
  GU DIV(DIV-NAME = 'NOPE').
  IF STATUS GE GO TO MISS.
  PRINT 'FOUND'.
  GO TO DONE.
MISS.
  PRINT 'MISSING'.
DONE.
  STOP.
END PROGRAM.",
            &mut d,
        );
        assert_eq!(t.terminal_lines(), vec!["MISSING"]);
    }

    #[test]
    fn isrt_repl_dlet_cycle() {
        let mut d = db();
        let t = run(
            "DLI PROGRAM U.
  GU DIV(DIV-NAME = 'AEROSPACE').
  ISRT EMP (EMP-NAME = 'NEW', AGE = 21).
  PRINT EMP-NAME, AGE.
  REPL (AGE = 22).
  PRINT AGE.
  DLET.
  GU DIV(DIV-NAME = 'AEROSPACE') EMP(EMP-NAME = 'NEW').
  IF STATUS GE GO TO GONE.
  PRINT 'STILL THERE'.
  GO TO DONE.
GONE.
  PRINT 'DELETED'.
DONE.
  STOP.
END PROGRAM.",
            &mut d,
        );
        assert_eq!(t.terminal_lines(), vec!["NEW 21", "22", "DELETED"]);
    }

    #[test]
    fn unqualified_gn_scans_everything() {
        let mut d = db();
        let t = run(
            "DLI PROGRAM S.
  LET-US-BEGIN.
LOOP.
  GN DIV.
  IF STATUS GB GO TO DONE.
  PRINT DIV-NAME.
  GO TO LOOP.
DONE.
  STOP.
END PROGRAM.",
            &mut d,
        );
        assert_eq!(t.terminal_lines(), vec!["AEROSPACE", "MACHINERY"]);
    }

    #[test]
    fn isrt_without_parent_position_fails() {
        let mut d = db();
        let t = run(
            "DLI PROGRAM I.
  ISRT EMP (EMP-NAME = 'ORPHAN').
  IF STATUS GE GO TO BAD.
  PRINT 'INSERTED'.
  GO TO DONE.
BAD.
  PRINT 'NO PARENT'.
DONE.
  STOP.
END PROGRAM.",
            &mut d,
        );
        assert_eq!(t.terminal_lines(), vec!["NO PARENT"]);
    }

    #[test]
    fn step_limit_guards_loops() {
        let mut d = db();
        let p = parse_dli("DLI PROGRAM L.\nX.\n  GO TO X.\nEND PROGRAM.").unwrap();
        let r = DliMachine::new(&mut d).with_step_limit(50).run(&p);
        assert_eq!(r.unwrap_err(), RunError::StepLimit);
    }
}

//! Interpreter for host programs with Maryland `FIND` paths.
//!
//! The interpreter is generic over [`NetworkOps`], the owner-coupled-set DML
//! surface. This indirection is load-bearing for the paper's experiments:
//! the *same unmodified program AST* can run against
//!
//! * a [`dbpc_storage::NetworkDb`] directly (original program on the source
//!   database, or rewritten program on the target database), or
//! * a **DML emulation / bridge layer** (the §2.1.2 baseline strategies,
//!   implemented in `dbpc-emulate`) that answers the same calls from a
//!   restructured database.
//!
//! Database rejections (integrity violations, duplicates) become observable
//! `Abort` trace events — a 1979 batch program dying with an error message —
//! so integrity-behavior differences between source and target schemas show
//! up in the equivalence check, exactly as §3.1 requires.

use crate::atomic::{run_atomic, AtomicStore};
use crate::error::{RunError, RunResult};
use crate::scan::{planner, AccessPath, PlanChoice, Project, Scan, Select, TableScan};
use crate::trace::{Inputs, Trace, TraceEvent};
use dbpc_datamodel::value::{cmp_tuple, Value};
use dbpc_dml::expr::{BinOp, BoolExpr, Expr};
use dbpc_dml::host::{FindExpr, FindSpec, ForSource, PathStart, Program, Stmt};
use dbpc_storage::{DbError, DbResult, NetworkDb, RecordId, SYSTEM_OWNER};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The owner-coupled-set DML surface the interpreter drives.
///
/// `NetworkDb` implements it directly; emulation and bridge strategies
/// implement it over a restructured database.
pub trait NetworkOps: AtomicStore {
    /// Read a field of a record (virtuals resolved).
    fn field_value(&self, id: RecordId, field: &str) -> DbResult<Value>;
    /// Does `rtype` declare `field`?
    fn has_field(&self, rtype: &str, field: &str) -> bool;
    /// All field values of a record in declaration order.
    fn resolved_values(&self, id: RecordId) -> DbResult<Vec<Value>>;
    /// Members of a set occurrence, in set order.
    fn members_of(&mut self, set: &str, owner: RecordId) -> DbResult<Vec<RecordId>>;
    /// Declared ordering keys of a set type.
    fn set_keys(&self, set: &str) -> DbResult<Vec<String>>;
    /// The record type of an occurrence.
    fn rtype_of(&self, id: RecordId) -> DbResult<&str>;
    /// The owner of `member` in `set`, if connected.
    fn owner_in(&mut self, set: &str, member: RecordId) -> DbResult<Option<RecordId>>;
    /// All records of a type (creation order).
    fn records_of_type(&mut self, rtype: &str) -> DbResult<Vec<RecordId>>;
    /// Store a record with connections.
    fn store(
        &mut self,
        rtype: &str,
        values: &[(&str, Value)],
        connects: &[(&str, RecordId)],
    ) -> DbResult<RecordId>;
    /// Modify stored fields.
    fn modify(&mut self, id: RecordId, assigns: &[(&str, Value)]) -> DbResult<()>;
    /// Erase a record; `cascade` erases owned members recursively
    /// (DBTG `ERASE ALL`). Non-cascade erasure fails while members exist,
    /// except through characterizing sets.
    fn erase(&mut self, id: RecordId, cascade: bool) -> DbResult<()>;
    /// Connect / disconnect membership.
    fn connect(&mut self, set: &str, owner: RecordId, member: RecordId) -> DbResult<()>;
    fn disconnect(&mut self, set: &str, member: RecordId) -> DbResult<()>;

    // -- access-path hooks (optional) --------------------------------------
    //
    // Default implementations describe an ops layer with no index support:
    // keyed lookups fall back to scans and no counters are reported. The
    // emulation layer deliberately stays on these defaults — its per-call
    // re-sorting IS the degraded access path §2.1.2 predicts — while
    // `NetworkDb` overrides them with its calc-key index and counters.

    /// Records of `rtype` whose stored `fields` equal `key`, in creation
    /// order. `Ok(None)` means "no index available": the caller must scan.
    fn find_keyed(
        &mut self,
        _rtype: &str,
        _fields: &[&str],
        _key: &[Value],
    ) -> DbResult<Option<Vec<RecordId>>> {
        Ok(None)
    }

    /// Cardinality of a record type, for planner cost estimates.
    /// `None` = the layer keeps no statistics (emulation/bridge): plans
    /// are priced from the candidate list alone.
    fn type_cardinality_stat(&self, _rtype: &str) -> Option<u64> {
        None
    }
}

impl NetworkOps for NetworkDb {
    fn field_value(&self, id: RecordId, field: &str) -> DbResult<Value> {
        NetworkDb::field_value(self, id, field)
    }

    fn has_field(&self, rtype: &str, field: &str) -> bool {
        self.schema()
            .record(rtype)
            .is_some_and(|r| r.field(field).is_some())
    }

    fn resolved_values(&self, id: RecordId) -> DbResult<Vec<Value>> {
        NetworkDb::resolved_values(self, id)
    }

    fn members_of(&mut self, set: &str, owner: RecordId) -> DbResult<Vec<RecordId>> {
        NetworkDb::members_of(self, set, owner)
    }

    fn set_keys(&self, set: &str) -> DbResult<Vec<String>> {
        self.schema()
            .set(set)
            .map(|s| s.keys.clone())
            .ok_or_else(|| DbError::unknown("set", set))
    }

    fn rtype_of(&self, id: RecordId) -> DbResult<&str> {
        NetworkDb::rtype_of(self, id)
    }

    fn owner_in(&mut self, set: &str, member: RecordId) -> DbResult<Option<RecordId>> {
        NetworkDb::owner_in(self, set, member)
    }

    fn records_of_type(&mut self, rtype: &str) -> DbResult<Vec<RecordId>> {
        Ok(NetworkDb::records_of_type(self, rtype))
    }

    fn store(
        &mut self,
        rtype: &str,
        values: &[(&str, Value)],
        connects: &[(&str, RecordId)],
    ) -> DbResult<RecordId> {
        NetworkDb::store(self, rtype, values, connects)
    }

    fn modify(&mut self, id: RecordId, assigns: &[(&str, Value)]) -> DbResult<()> {
        NetworkDb::modify(self, id, assigns)
    }

    fn erase(&mut self, id: RecordId, cascade: bool) -> DbResult<()> {
        NetworkDb::erase(self, id, cascade).map(|_| ())
    }

    fn connect(&mut self, set: &str, owner: RecordId, member: RecordId) -> DbResult<()> {
        NetworkDb::connect(self, set, owner, member)
    }

    fn disconnect(&mut self, set: &str, member: RecordId) -> DbResult<()> {
        NetworkDb::disconnect(self, set, member)
    }

    fn find_keyed(
        &mut self,
        rtype: &str,
        fields: &[&str],
        key: &[Value],
    ) -> DbResult<Option<Vec<RecordId>>> {
        NetworkDb::find_keyed(self, rtype, fields, key)
    }

    fn type_cardinality_stat(&self, rtype: &str) -> Option<u64> {
        Some(NetworkDb::type_cardinality(self, rtype))
    }
}

/// A runtime value: a scalar or a record collection. `FOR EACH` loop
/// variables hold singleton collections.
#[derive(Debug, Clone, PartialEq)]
pub enum RtVal {
    Scalar(Value),
    Records(Vec<RecordId>),
}

impl RtVal {
    fn as_records(&self) -> Option<&[RecordId]> {
        match self {
            RtVal::Records(r) => Some(r),
            RtVal::Scalar(_) => None,
        }
    }
}

/// Outcome of a run: the program either completed (possibly having aborted
/// observably) or malfunctioned.
enum Flow {
    Continue,
    Halt,
}

/// The host-program interpreter.
pub struct HostInterpreter<'d, D: NetworkOps> {
    db: &'d mut D,
    env: BTreeMap<String, RtVal>,
    inputs: Inputs,
    trace: Trace,
    steps: usize,
    step_limit: usize,
}

/// Run `program` against `db` with scripted `inputs`; returns the trace,
/// carrying the ops layer's access-path counters when it keeps any.
///
/// The run is atomic ([`crate::atomic`]): a typed error, fuel exhaustion,
/// or a panic (re-raised after cleanup) rolls the store back to its
/// pre-run state.
pub fn run_host<D: NetworkOps>(db: &mut D, program: &Program, inputs: Inputs) -> RunResult<Trace> {
    run_host_guarded(db, program, inputs, None)
}

/// Default interpreter fuel for supervised verification runs: generous for
/// any legitimate corpus program, small enough that a runaway loop fails a
/// fallback-ladder rung in milliseconds instead of hanging the batch.
pub const DEFAULT_VERIFY_FUEL: usize = 250_000;

/// Like [`run_host`] but with an explicit fuel (statement budget).
/// Exceeding it returns [`RunError::StepLimit`](crate::error::RunError) —
/// the supervision layer's guard against a looping generated program —
/// after rolling back whatever the partial run had already mutated.
pub fn run_host_with_fuel<D: NetworkOps>(
    db: &mut D,
    program: &Program,
    inputs: Inputs,
    fuel: usize,
) -> RunResult<Trace> {
    run_host_guarded(db, program, inputs, Some(fuel))
}

fn run_host_guarded<D: NetworkOps>(
    db: &mut D,
    program: &Program,
    inputs: Inputs,
    fuel: Option<usize>,
) -> RunResult<Trace> {
    run_atomic("engine.host", db, |db| {
        let mut interp = HostInterpreter::new(db, inputs);
        if let Some(f) = fuel {
            interp = interp.with_step_limit(f);
        }
        interp.run(program)
    })
}

impl<'d, D: NetworkOps> HostInterpreter<'d, D> {
    pub fn new(db: &'d mut D, inputs: Inputs) -> Self {
        HostInterpreter {
            db,
            env: BTreeMap::new(),
            inputs,
            trace: Trace::new(),
            steps: 0,
            step_limit: 1_000_000,
        }
    }

    /// Override the runaway-loop guard.
    pub fn with_step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit;
        self
    }

    /// Execute the program to completion; returns the observable trace.
    pub fn run(mut self, program: &Program) -> RunResult<Trace> {
        self.exec_block(&program.stmts)?;
        Ok(self.trace)
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> RunResult<Flow> {
        for s in stmts {
            match self.exec_stmt(s)? {
                Flow::Continue => {}
                Flow::Halt => return Ok(Flow::Halt),
            }
        }
        Ok(Flow::Continue)
    }

    fn tick(&mut self) -> RunResult<()> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(RunError::StepLimit);
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &Stmt) -> RunResult<Flow> {
        self.tick()?;
        match s {
            Stmt::Let { var, expr } => {
                let v = self.eval(expr, None)?;
                self.env.insert(var.clone(), RtVal::Scalar(v));
            }
            Stmt::Find { var, query } => {
                let recs = self.eval_find(query)?;
                self.env.insert(var.clone(), RtVal::Records(recs));
            }
            Stmt::ForEach { var, source, body } => {
                let recs = match source {
                    ForSource::Var(v) => self.records_var(v)?.to_vec(),
                    ForSource::Query(q) => self.eval_find(q)?,
                };
                for id in recs {
                    // Rebind in place: the body may have rebound the loop
                    // variable, but usually it still holds the last
                    // iteration's singleton, whose key and buffer are reused.
                    match self.env.get_mut(var) {
                        Some(RtVal::Records(ids)) => {
                            ids.clear();
                            ids.push(id);
                        }
                        _ => {
                            self.env.insert(var.clone(), RtVal::Records(vec![id]));
                        }
                    }
                    match self.exec_block(body)? {
                        Flow::Continue => {}
                        Flow::Halt => return Ok(Flow::Halt),
                    }
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let branch = if self.eval_bool(cond, None)? {
                    then_branch
                } else {
                    else_branch
                };
                return self.exec_block(branch);
            }
            Stmt::While { cond, body } => {
                while self.eval_bool(cond, None)? {
                    self.tick()?;
                    match self.exec_block(body)? {
                        Flow::Continue => {}
                        Flow::Halt => return Ok(Flow::Halt),
                    }
                }
            }
            Stmt::Print(exprs) => {
                let line = self.format_values(exprs)?;
                self.trace.push(TraceEvent::TerminalOut(line));
            }
            Stmt::WriteFile { file, exprs } => {
                let line = self.format_values(exprs)?;
                self.trace.push(TraceEvent::FileWrite {
                    file: file.clone(),
                    line,
                });
            }
            Stmt::ReadTerminal { var } => {
                let line = self.inputs.read_terminal();
                self.trace.push(TraceEvent::TerminalIn(line.clone()));
                self.env
                    .insert(var.clone(), RtVal::Scalar(parse_input(&line)));
            }
            Stmt::ReadFile { file, var } => {
                let line = self.inputs.read_file(file);
                self.trace.push(TraceEvent::FileRead {
                    file: file.clone(),
                    line: line.clone(),
                });
                self.env
                    .insert(var.clone(), RtVal::Scalar(parse_input(&line)));
            }
            Stmt::Store {
                record,
                assigns,
                connects,
            } => {
                let mut vals: Vec<(&str, Value)> = Vec::with_capacity(assigns.len());
                for (f, e) in assigns {
                    vals.push((f, self.eval(e, None)?));
                }
                let mut conns: Vec<(&str, RecordId)> = Vec::with_capacity(connects.len());
                for c in connects {
                    conns.push((&c.set, self.single_record(&c.owner_var)?));
                }
                if let Err(e) = self.db.store(record, &vals, &conns) {
                    return self.db_abort(e);
                }
            }
            Stmt::Connect {
                member_var,
                set,
                owner_var,
            } => {
                let member = self.single_record(member_var)?;
                let owner = self.single_record(owner_var)?;
                if let Err(e) = self.db.connect(set, owner, member) {
                    return self.db_abort(e);
                }
            }
            Stmt::Disconnect { member_var, set } => {
                let member = self.single_record(member_var)?;
                if let Err(e) = self.db.disconnect(set, member) {
                    return self.db_abort(e);
                }
            }
            Stmt::Delete { var, all } => {
                let recs = self.records_var(var)?.to_vec();
                for id in recs {
                    if let Err(e) = self.db.erase(id, *all) {
                        return self.db_abort(e);
                    }
                }
                self.env.insert(var.clone(), RtVal::Records(Vec::new()));
            }
            Stmt::Modify { var, assigns } => {
                let recs = self.records_var(var)?.to_vec();
                for id in recs {
                    let mut vals: Vec<(&str, Value)> = Vec::with_capacity(assigns.len());
                    for (f, e) in assigns {
                        vals.push((f, self.eval(e, Some(id))?));
                    }
                    if let Err(e) = self.db.modify(id, &vals) {
                        return self.db_abort(e);
                    }
                }
            }
            Stmt::Check { cond, message } => {
                if !self.eval_bool(cond, None)? {
                    self.trace.push(TraceEvent::Abort(message.clone()));
                    return Ok(Flow::Halt);
                }
            }
            Stmt::CallDml { verb, record } => {
                let v = self.eval(verb, None)?;
                let verb_name = match &v {
                    Value::Str(s) => s.to_ascii_uppercase(),
                    other => other.to_string(),
                };
                match verb_name.as_str() {
                    // The §3.2 pathology: the same statement is a read or a
                    // destructive update depending on a run-time value.
                    "RETRIEVE" => {
                        // Single-path plan (creation-order type scan),
                        // streamed through the Scan layer: fetch resolved
                        // values, project to a terminal line.
                        let ids = self.db.records_of_type(record)?;
                        let actual = ids.len() as u64;
                        let choice = PlanChoice {
                            path: AccessPath::FullScan,
                            est_cost: self.db.type_cardinality_stat(record).unwrap_or(actual),
                        };
                        let db = &self.db;
                        let mut lines = Project::new(
                            Project::new(TableScan::new(ids.into_iter()), |id| {
                                db.resolved_values(id).map_err(RunError::Db)
                            }),
                            |vals: Vec<Value>| {
                                Ok(vals
                                    .iter()
                                    .map(|v| v.to_string())
                                    .collect::<Vec<_>>()
                                    .join(" "))
                            },
                        );
                        while let Some(line) = lines.next()? {
                            self.trace.push(TraceEvent::TerminalOut(line));
                        }
                        planner::finish("host.retrieve", choice, actual);
                    }
                    "ERASE" => {
                        let ids = self.db.records_of_type(record)?;
                        for id in ids {
                            // Records may vanish through cascades.
                            match self.db.erase(id, true) {
                                Ok(()) | Err(DbError::NotFound(_)) => {}
                                Err(e) => return self.db_abort(e),
                            }
                        }
                    }
                    other => return Err(RunError::BadDmlVerb(other.to_string())),
                }
            }
        }
        Ok(Flow::Continue)
    }

    /// A database rejection becomes an observable abort.
    fn db_abort(&mut self, e: DbError) -> RunResult<Flow> {
        match e {
            // Genuine program/schema mismatches are malfunctions, not
            // observable 1979 behavior.
            DbError::UnknownName { .. } => Err(RunError::Db(e)),
            other => {
                self.trace.push(TraceEvent::Abort(other.to_string()));
                Ok(Flow::Halt)
            }
        }
    }

    fn format_values(&mut self, exprs: &[Expr]) -> RunResult<String> {
        let mut line = String::new();
        for (i, e) in exprs.iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            let _ = write!(line, "{}", self.eval(e, None)?);
        }
        Ok(line)
    }

    fn records_var(&self, var: &str) -> RunResult<&[RecordId]> {
        self.env
            .get(var)
            .ok_or_else(|| RunError::UnboundVar(var.to_string()))?
            .as_records()
            .ok_or(RunError::Kind {
                var: var.to_string(),
                expected: "record collection",
            })
    }

    fn single_record(&self, var: &str) -> RunResult<RecordId> {
        let recs = self.records_var(var)?;
        if recs.len() == 1 {
            Ok(recs[0])
        } else {
            Err(RunError::NotARecord(var.to_string()))
        }
    }

    // -- FIND evaluation ----------------------------------------------------

    fn eval_find(&mut self, q: &FindExpr) -> RunResult<Vec<RecordId>> {
        match q {
            FindExpr::Find(spec) => self.eval_find_spec(spec),
            FindExpr::Sort { inner, keys } => {
                let recs = self.eval_find(inner)?;
                self.sort_records(recs, keys)
            }
        }
    }

    fn sort_records(&mut self, recs: Vec<RecordId>, keys: &[String]) -> RunResult<Vec<RecordId>> {
        let mut keyed: Vec<(Vec<Value>, RecordId)> = Vec::with_capacity(recs.len());
        for id in recs {
            let mut k = Vec::with_capacity(keys.len());
            for key in keys {
                k.push(self.db.field_value(id, key)?);
            }
            keyed.push((k, id));
        }
        keyed.sort_by(|a, b| cmp_tuple(&a.0, &b.0));
        Ok(keyed.into_iter().map(|(_, id)| id).collect())
    }

    fn eval_find_spec(&mut self, spec: &FindSpec) -> RunResult<Vec<RecordId>> {
        let mut steps = spec.steps.iter();
        let mut current: Vec<RecordId> = match &spec.start {
            PathStart::System => {
                let first = steps.next().ok_or_else(|| {
                    RunError::Db(DbError::constraint(
                        "FIND from SYSTEM requires at least one path step",
                    ))
                })?;
                let members = self.db.members_of(&first.set, SYSTEM_OWNER)?;
                self.filter_records(members, first.filter.as_ref())?
            }
            PathStart::Collection(var) => self.records_var(var)?.to_vec(),
        };
        let mut final_set: Option<&str> = match &spec.start {
            PathStart::System => spec.steps.first().map(|s| s.set.as_str()),
            PathStart::Collection(_) => None,
        };
        for step in steps {
            let mut next = Vec::new();
            for owner in &current {
                let members = self.db.members_of(&step.set, *owner)?;
                let kept = self.filter_records(members, step.filter.as_ref())?;
                next.extend(kept);
            }
            current = next;
            final_set = Some(step.set.as_str());
        }
        // Maryland FIND semantics: the result collection is ordered by the
        // final traversed set's declared keys (globally, stably). This is
        // the reading under which the paper's own §4.2 conversion — wrapping
        // the restructured FIND in `SORT ... ON (EMP-NAME)` — preserves I/O
        // equivalence. A keyless final set yields traversal order.
        if let Some(set) = final_set {
            let keys = self.db.set_keys(set)?;
            if !keys.is_empty() {
                current = self.sort_records(current, &keys)?;
            }
        }
        Ok(current)
    }

    fn filter_records(
        &mut self,
        ids: Vec<RecordId>,
        filter: Option<&BoolExpr>,
    ) -> RunResult<Vec<RecordId>> {
        let Some(f) = filter else {
            return Ok(ids);
        };
        // Unqualified names in a path filter resolve to fields of each
        // candidate record, falling back to host variables (see `eval`).
        // Single-path plan: the members of a set occurrence are only
        // reachable by walking it, so the estimate is the candidate count.
        let actual = ids.len() as u64;
        let choice = PlanChoice {
            path: AccessPath::FullScan,
            est_cost: actual,
        };
        let mut pipe = Select::new(TableScan::new(ids.into_iter()), |&id| {
            self.eval_bool(f, Some(id))
        });
        let out = pipe.collect_vec()?;
        planner::finish("host.filter", choice, actual);
        Ok(out)
    }

    // -- expression evaluation ----------------------------------------------

    fn eval_bool(&mut self, b: &BoolExpr, ctx: Option<RecordId>) -> RunResult<bool> {
        match b {
            BoolExpr::Cmp { op, left, right } => {
                let l = self.eval(left, ctx)?;
                let r = self.eval(right, ctx)?;
                Ok(op.eval(&l, &r))
            }
            BoolExpr::And(a, b) => Ok(self.eval_bool(a, ctx)? && self.eval_bool(b, ctx)?),
            BoolExpr::Or(a, b) => Ok(self.eval_bool(a, ctx)? || self.eval_bool(b, ctx)?),
            BoolExpr::Not(a) => Ok(!self.eval_bool(a, ctx)?),
        }
    }

    fn eval(&mut self, e: &Expr, ctx: Option<RecordId>) -> RunResult<Value> {
        match e {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Name(n) => {
                // Contextual resolution: a field of the context record wins;
                // otherwise a host variable.
                if let Some(id) = ctx {
                    if let Ok(v) = self.db.field_value(id, n) {
                        return Ok(v);
                    }
                }
                match self.env.get(n) {
                    Some(RtVal::Scalar(v)) => Ok(v.clone()),
                    Some(RtVal::Records(_)) => Err(RunError::Kind {
                        var: n.clone(),
                        expected: "scalar",
                    }),
                    None => Err(RunError::UnboundVar(n.clone())),
                }
            }
            Expr::Field { var, field } => {
                let id = self.single_record(var)?;
                Ok(self.db.field_value(id, field)?)
            }
            Expr::Count(var) => Ok(Value::Int(self.records_var(var)?.len() as i64)),
            Expr::Bin { op, left, right } => {
                let l = self.eval(left, ctx)?;
                let r = self.eval(right, ctx)?;
                eval_bin(*op, &l, &r)
            }
        }
    }
}

fn eval_bin(op: BinOp, l: &Value, r: &Value) -> RunResult<Value> {
    // String concatenation via `+`.
    if op == BinOp::Add {
        if let (Value::Str(a), Value::Str(b)) = (l, r) {
            return Ok(Value::Str(format!("{a}{b}")));
        }
    }
    match (l.as_int(), r.as_int()) {
        (Some(a), Some(b)) => {
            let v = match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(RunError::Arith("division by zero".into()));
                    }
                    a / b
                }
            };
            Ok(Value::Int(v))
        }
        _ => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => {
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                };
                Ok(Value::Float(v))
            }
            _ => Err(RunError::Arith(format!(
                "cannot apply {} to {} and {}",
                op.symbol(),
                l.type_name(),
                r.type_name()
            ))),
        },
    }
}

/// Terminal/file input lines are numbers when they look like numbers.
fn parse_input(line: &str) -> Value {
    match line.trim().parse::<i64>() {
        Ok(n) => Value::Int(n),
        Err(_) => Value::Str(line.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_datamodel::network::{FieldDef, NetworkSchema, RecordTypeDef, SetDef};
    use dbpc_datamodel::types::FieldType;
    use dbpc_dml::host::parse_program;

    fn company_schema() -> NetworkSchema {
        NetworkSchema::new("COMPANY-NAME")
            .with_record(RecordTypeDef::new(
                "DIV",
                vec![
                    FieldDef::new("DIV-NAME", FieldType::Char(20)),
                    FieldDef::new("DIV-LOC", FieldType::Char(10)),
                ],
            ))
            .with_record(RecordTypeDef::new(
                "EMP",
                vec![
                    FieldDef::new("EMP-NAME", FieldType::Char(25)),
                    FieldDef::new("DEPT-NAME", FieldType::Char(5)),
                    FieldDef::new("AGE", FieldType::Int(2)),
                    FieldDef::virtual_field("DIV-NAME", FieldType::Char(20), "DIV-EMP", "DIV-NAME"),
                ],
            ))
            .with_set(SetDef::system("ALL-DIV", "DIV", vec!["DIV-NAME"]))
            .with_set(SetDef::owned("DIV-EMP", "DIV", "EMP", vec!["EMP-NAME"]))
    }

    fn company_db() -> NetworkDb {
        let mut db = NetworkDb::new(company_schema()).unwrap();
        let mach = db
            .store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str("MACHINERY")),
                    ("DIV-LOC", Value::str("DETROIT")),
                ],
                &[],
            )
            .unwrap();
        let aero = db
            .store(
                "DIV",
                &[
                    ("DIV-NAME", Value::str("AEROSPACE")),
                    ("DIV-LOC", Value::str("SEATTLE")),
                ],
                &[],
            )
            .unwrap();
        for (name, dept, age, div) in [
            ("JONES", "SALES", 34, mach),
            ("ADAMS", "SALES", 28, mach),
            ("BAKER", "MFG", 45, mach),
            ("CLARK", "SALES", 52, aero),
            ("DAVIS", "ENG", 31, aero),
        ] {
            db.store(
                "EMP",
                &[
                    ("EMP-NAME", Value::str(name)),
                    ("DEPT-NAME", Value::str(dept)),
                    ("AGE", Value::Int(age)),
                ],
                &[("DIV-EMP", div)],
            )
            .unwrap();
        }
        db
    }

    fn run(src: &str, db: &mut NetworkDb, inputs: Inputs) -> Trace {
        let p = parse_program(src).unwrap();
        run_host(db, &p, inputs).unwrap()
    }

    #[test]
    fn paper_example_1_find_age_over_30() {
        let mut db = company_db();
        let t = run(
            "PROGRAM P;
  FOR EACH R IN FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30)) DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;",
            &mut db,
            Inputs::new(),
        );
        // The result collection is ordered by the final set's keys
        // (EMP-NAME), globally.
        assert_eq!(t.terminal_lines(), vec!["BAKER", "CLARK", "DAVIS", "JONES"]);
    }

    #[test]
    fn paper_example_2_machinery_sales() {
        let mut db = company_db();
        let t = run(
            "PROGRAM P;
  FOR EACH R IN FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP(DEPT-NAME = 'SALES')) DO
    PRINT R.EMP-NAME, R.AGE;
  END FOR;
END PROGRAM;",
            &mut db,
            Inputs::new(),
        );
        assert_eq!(t.terminal_lines(), vec!["ADAMS 28", "JONES 34"]);
    }

    #[test]
    fn sort_pins_global_order() {
        let mut db = company_db();
        let t = run(
            "PROGRAM P;
  FOR EACH R IN SORT(FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 30))) ON (EMP-NAME) DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;",
            &mut db,
            Inputs::new(),
        );
        assert_eq!(t.terminal_lines(), vec!["BAKER", "CLARK", "DAVIS", "JONES"]);
    }

    #[test]
    fn virtual_field_readable_in_program() {
        let mut db = company_db();
        let t = run(
            "PROGRAM P;
  FOR EACH R IN FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(EMP-NAME = 'JONES')) DO
    PRINT R.DIV-NAME;
  END FOR;
END PROGRAM;",
            &mut db,
            Inputs::new(),
        );
        assert_eq!(t.terminal_lines(), vec!["MACHINERY"]);
    }

    #[test]
    fn collection_start_continues_path() {
        let mut db = company_db();
        let t = run(
            "PROGRAM P;
  FIND D := FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-LOC = 'DETROIT'));
  FOR EACH R IN FIND(EMP: D, DIV-EMP, EMP) DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;",
            &mut db,
            Inputs::new(),
        );
        assert_eq!(t.terminal_lines(), vec!["ADAMS", "BAKER", "JONES"]);
    }

    #[test]
    fn store_modify_delete_cycle() {
        let mut db = company_db();
        let t = run(
            "PROGRAM P;
  FIND D := FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'));
  STORE EMP (EMP-NAME := 'NEWHIRE', DEPT-NAME := 'ENG', AGE := 22) CONNECT TO DIV-EMP OF D;
  FIND E := FIND(EMP: D, DIV-EMP, EMP(EMP-NAME = 'NEWHIRE'));
  PRINT COUNT(E);
  MODIFY E SET (AGE := AGE + 1);
  FOR EACH R IN E DO
    PRINT R.AGE;
  END FOR;
  DELETE E;
  FIND E2 := FIND(EMP: D, DIV-EMP, EMP(EMP-NAME = 'NEWHIRE'));
  PRINT COUNT(E2);
END PROGRAM;",
            &mut db,
            Inputs::new(),
        );
        assert_eq!(t.terminal_lines(), vec!["1", "23", "0"]);
    }

    #[test]
    fn terminal_dialogue_is_traced() {
        let mut db = company_db();
        let t = run(
            "PROGRAM P;
  PRINT 'WHICH DIVISION?';
  READ TERMINAL INTO D;
  FOR EACH R IN FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = D), DIV-EMP, EMP) DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;",
            &mut db,
            Inputs::new().with_terminal(&["AEROSPACE"]),
        );
        assert_eq!(
            t.events,
            vec![
                TraceEvent::TerminalOut("WHICH DIVISION?".into()),
                TraceEvent::TerminalIn("AEROSPACE".into()),
                TraceEvent::TerminalOut("CLARK".into()),
                TraceEvent::TerminalOut("DAVIS".into()),
            ]
        );
    }

    #[test]
    fn failed_check_aborts_observably() {
        let mut db = company_db();
        let t = run(
            "PROGRAM P;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP);
  CHECK COUNT(E) < 3 ELSE ABORT 'TOO MANY EMPLOYEES';
  PRINT 'NEVER';
END PROGRAM;",
            &mut db,
            Inputs::new(),
        );
        assert!(t.aborted());
        assert!(t.terminal_lines().is_empty());
    }

    #[test]
    fn integrity_rejection_becomes_abort_event() {
        let mut db = company_db();
        // JONES already exists under MACHINERY: duplicate set key.
        let t = run(
            "PROGRAM P;
  FIND D := FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'));
  STORE EMP (EMP-NAME := 'JONES') CONNECT TO DIV-EMP OF D;
  PRINT 'NEVER';
END PROGRAM;",
            &mut db,
            Inputs::new(),
        );
        assert!(t.aborted());
    }

    #[test]
    fn call_dml_retrieve_vs_erase_diverge() {
        // The §3.2 pathology made concrete: same program text, different
        // run-time verb, wildly different behavior.
        let mut db1 = company_db();
        let t1 = run(
            "PROGRAM P;
  READ TERMINAL INTO V;
  CALL DML V ON EMP;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP);
  PRINT COUNT(E);
END PROGRAM;",
            &mut db1,
            Inputs::new().with_terminal(&["RETRIEVE"]),
        );
        assert_eq!(*t1.terminal_lines().last().unwrap(), "5");

        let mut db2 = company_db();
        let t2 = run(
            "PROGRAM P;
  READ TERMINAL INTO V;
  CALL DML V ON EMP;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP);
  PRINT COUNT(E);
END PROGRAM;",
            &mut db2,
            Inputs::new().with_terminal(&["ERASE"]),
        );
        assert_eq!(*t2.terminal_lines().last().unwrap(), "0");
    }

    #[test]
    fn while_and_arith() {
        let mut db = company_db();
        let t = run(
            "PROGRAM P;
  LET I := 0;
  WHILE I < 3 DO
    PRINT 'I IS', I;
    LET I := I + 1;
  END WHILE;
END PROGRAM;",
            &mut db,
            Inputs::new(),
        );
        assert_eq!(t.terminal_lines(), vec!["I IS 0", "I IS 1", "I IS 2"]);
    }

    #[test]
    fn runaway_loop_hits_step_limit() {
        let mut db = company_db();
        let p = parse_program(
            "PROGRAM P;
  LET I := 0;
  WHILE 1 = 1 DO
    LET I := I + 1;
  END WHILE;
END PROGRAM;",
        )
        .unwrap();
        let r = HostInterpreter::new(&mut db, Inputs::new())
            .with_step_limit(1000)
            .run(&p);
        assert_eq!(r.unwrap_err(), RunError::StepLimit);
    }

    #[test]
    fn unbound_variable_is_malfunction() {
        let mut db = company_db();
        let p = parse_program("PROGRAM P;\n  PRINT X;\nEND PROGRAM;").unwrap();
        assert!(matches!(
            run_host(&mut db, &p, Inputs::new()),
            Err(RunError::UnboundVar(_))
        ));
    }

    #[test]
    fn file_io_traced() {
        let mut db = company_db();
        let t = run(
            "PROGRAM P;
  READ FILE 'PARAMS' INTO LIMIT;
  FOR EACH R IN FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > LIMIT)) DO
    WRITE FILE 'REPORT' R.EMP-NAME, R.AGE;
  END FOR;
END PROGRAM;",
            &mut db,
            Inputs::new().with_file("PARAMS", &["44"]),
        );
        assert_eq!(
            t.events,
            vec![
                TraceEvent::FileRead {
                    file: "PARAMS".into(),
                    line: "44".into()
                },
                TraceEvent::FileWrite {
                    file: "REPORT".into(),
                    line: "BAKER 45".into()
                },
                TraceEvent::FileWrite {
                    file: "REPORT".into(),
                    line: "CLARK 52".into()
                },
            ]
        );
    }

    #[test]
    fn filter_mixes_fields_and_variables() {
        let mut db = company_db();
        let t = run(
            "PROGRAM P;
  LET MIN := 40;
  FOR EACH R IN FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > MIN)) DO
    PRINT R.EMP-NAME;
  END FOR;
END PROGRAM;",
            &mut db,
            Inputs::new(),
        );
        assert_eq!(t.terminal_lines(), vec!["BAKER", "CLARK"]);
    }
}

//! The SEQUEL subset — the relational dialect of §4.1 listing (A).
//!
//! The paper renders the access pattern `ACCESS EMP via EMP-DEPT` in SEQUEL
//! as a nested `IN` subquery:
//!
//! ```text
//! SELECT ENAME
//! FROM EMP
//! WHERE E# IN
//! SELECT E#
//! FROM EMP-DEPT
//! WHERE D# = 'D2'
//! AND YEAR-OF-SERVICE = 3
//! ```
//!
//! We reconstruct exactly that sublanguage: single-table `SELECT` blocks
//! composed through `IN`-subqueries (one level per association traversed),
//! plus `ORDER BY` (needed when the converter must pin an observable
//! ordering), and `INSERT`/`DELETE`/`UPDATE` for update programs. There are
//! no joins — period SEQUEL programs written from access-path thinking
//! nested instead of joining, and the nesting mirrors the access-pattern
//! sequence one-to-one, which is what makes cross-model conversion a
//! straightforward lowering (§4.1).

use crate::error::ParseResult;
use crate::expr::{parse_cmp_op, CmpOp};
use crate::lexer::{Tok, TokenStream};
use dbpc_datamodel::value::Value;
use std::fmt::Write as _;

/// A predicate in a `WHERE` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum SequelPred {
    /// `column op literal`
    Cmp {
        column: String,
        op: CmpOp,
        value: Value,
    },
    /// `column IN SELECT …`
    In {
        column: String,
        sub: Box<SelectQuery>,
    },
    And(Box<SequelPred>, Box<SequelPred>),
    Or(Box<SequelPred>, Box<SequelPred>),
    Not(Box<SequelPred>),
}

impl SequelPred {
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> SequelPred {
        SequelPred::Cmp {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    pub fn and(self, other: SequelPred) -> SequelPred {
        SequelPred::And(Box::new(self), Box::new(other))
    }

    /// Depth of `IN`-subquery nesting (used by benches to characterize
    /// query complexity).
    pub fn nesting_depth(&self) -> usize {
        match self {
            SequelPred::Cmp { .. } => 0,
            SequelPred::In { sub, .. } => 1 + sub.nesting_depth(),
            SequelPred::And(a, b) | SequelPred::Or(a, b) => {
                a.nesting_depth().max(b.nesting_depth())
            }
            SequelPred::Not(a) => a.nesting_depth(),
        }
    }
}

/// A `SELECT` block.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    pub columns: Vec<String>,
    pub table: String,
    pub where_: Option<SequelPred>,
    pub order_by: Vec<String>,
}

impl SelectQuery {
    pub fn new(columns: Vec<&str>, table: impl Into<String>) -> SelectQuery {
        SelectQuery {
            columns: columns.into_iter().map(String::from).collect(),
            table: table.into(),
            where_: None,
            order_by: Vec::new(),
        }
    }

    pub fn nesting_depth(&self) -> usize {
        self.where_.as_ref().map_or(0, |w| w.nesting_depth())
    }
}

/// A SEQUEL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SequelStmt {
    Select(SelectQuery),
    Insert {
        table: String,
        assigns: Vec<(String, Value)>,
    },
    Delete {
        table: String,
        where_: Option<SequelPred>,
    },
    Update {
        table: String,
        assigns: Vec<(String, Value)>,
        where_: Option<SequelPred>,
    },
}

/// A SEQUEL program: a sequence of statements (the paper's "statement or
/// series of statements in a query/update language").
#[derive(Debug, Clone, PartialEq)]
pub struct SequelProgram {
    pub name: String,
    pub stmts: Vec<SequelStmt>,
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parse a SEQUEL program: `SEQUEL PROGRAM name; stmt; …; END PROGRAM;`
pub fn parse_sequel_program(src: &str) -> ParseResult<SequelProgram> {
    let mut ts = TokenStream::new(src)?;
    ts.expect_kw("SEQUEL")?;
    ts.expect_kw("PROGRAM")?;
    let name = ts.expect_ident()?;
    ts.expect(Tok::Semi)?;
    let mut stmts = Vec::new();
    while !ts.at_kw("END") {
        stmts.push(parse_stmt(&mut ts)?);
        ts.expect(Tok::Semi)?;
    }
    ts.expect_kw("END")?;
    ts.expect_kw("PROGRAM")?;
    ts.expect(Tok::Semi)?;
    Ok(SequelProgram { name, stmts })
}

/// Parse a single standalone `SELECT` (useful for tests and the generator's
/// round-trip checks).
pub fn parse_select(src: &str) -> ParseResult<SelectQuery> {
    let mut ts = TokenStream::new(src)?;
    let q = parse_select_query(&mut ts)?;
    if !ts.at_eof() {
        return Err(ts.err("trailing input after SELECT"));
    }
    Ok(q)
}

fn parse_stmt(ts: &mut TokenStream) -> ParseResult<SequelStmt> {
    if ts.at_kw("SELECT") {
        return Ok(SequelStmt::Select(parse_select_query(ts)?));
    }
    if ts.eat_kw("INSERT") {
        ts.expect_kw("INTO")?;
        let table = ts.expect_ident()?;
        let assigns = parse_assigns(ts)?;
        return Ok(SequelStmt::Insert { table, assigns });
    }
    if ts.eat_kw("DELETE") {
        ts.expect_kw("FROM")?;
        let table = ts.expect_ident()?;
        let where_ = if ts.eat_kw("WHERE") {
            Some(parse_pred(ts)?)
        } else {
            None
        };
        return Ok(SequelStmt::Delete { table, where_ });
    }
    if ts.eat_kw("UPDATE") {
        let table = ts.expect_ident()?;
        ts.expect_kw("SET")?;
        let assigns = parse_assigns(ts)?;
        let where_ = if ts.eat_kw("WHERE") {
            Some(parse_pred(ts)?)
        } else {
            None
        };
        return Ok(SequelStmt::Update {
            table,
            assigns,
            where_,
        });
    }
    Err(ts.err(format!(
        "expected SELECT/INSERT/DELETE/UPDATE, found {}",
        ts.peek().describe()
    )))
}

fn parse_assigns(ts: &mut TokenStream) -> ParseResult<Vec<(String, Value)>> {
    ts.expect(Tok::LParen)?;
    let mut out = Vec::new();
    loop {
        let col = ts.expect_ident()?;
        ts.expect(Tok::Eq)?;
        out.push((col, parse_value(ts)?));
        if !ts.eat(Tok::Comma) {
            break;
        }
    }
    ts.expect(Tok::RParen)?;
    Ok(out)
}

fn parse_value(ts: &mut TokenStream) -> ParseResult<Value> {
    match ts.peek().clone() {
        Tok::Int(n) => {
            ts.next();
            Ok(Value::Int(n))
        }
        Tok::Minus => {
            ts.next();
            Ok(Value::Int(-ts.expect_int()?))
        }
        Tok::Str(s) => {
            ts.next();
            Ok(Value::Str(s))
        }
        Tok::Ident(s) if s.eq_ignore_ascii_case("NULL") => {
            ts.next();
            Ok(Value::Null)
        }
        other => Err(ts.err(format!("expected a literal, found {}", other.describe()))),
    }
}

fn parse_select_query(ts: &mut TokenStream) -> ParseResult<SelectQuery> {
    ts.expect_kw("SELECT")?;
    let mut columns = Vec::new();
    if ts.eat(Tok::Star) {
        // `SELECT *` — empty column list means all columns.
    } else {
        columns.push(ts.expect_ident()?);
        while ts.eat(Tok::Comma) {
            columns.push(ts.expect_ident()?);
        }
    }
    ts.expect_kw("FROM")?;
    let table = ts.expect_ident()?;
    let where_ = if ts.eat_kw("WHERE") {
        Some(parse_pred(ts)?)
    } else {
        None
    };
    let mut order_by = Vec::new();
    if ts.eat_kw("ORDER") {
        ts.expect_kw("BY")?;
        order_by.push(ts.expect_ident()?);
        while ts.eat(Tok::Comma) {
            order_by.push(ts.expect_ident()?);
        }
    }
    Ok(SelectQuery {
        columns,
        table,
        where_,
        order_by,
    })
}

/// `pred := term (OR term)*`, `term := factor (AND factor)*`.
fn parse_pred(ts: &mut TokenStream) -> ParseResult<SequelPred> {
    let mut left = parse_pred_term(ts)?;
    while ts.eat_kw("OR") {
        let right = parse_pred_term(ts)?;
        left = SequelPred::Or(Box::new(left), Box::new(right));
    }
    Ok(left)
}

fn parse_pred_term(ts: &mut TokenStream) -> ParseResult<SequelPred> {
    let mut left = parse_pred_factor(ts)?;
    while ts.eat_kw("AND") {
        let right = parse_pred_factor(ts)?;
        left = SequelPred::And(Box::new(left), Box::new(right));
    }
    Ok(left)
}

fn parse_pred_factor(ts: &mut TokenStream) -> ParseResult<SequelPred> {
    if ts.eat_kw("NOT") {
        let inner = parse_pred_factor(ts)?;
        return Ok(SequelPred::Not(Box::new(inner)));
    }
    if ts.eat(Tok::LParen) {
        let inner = parse_pred(ts)?;
        ts.expect(Tok::RParen)?;
        return Ok(inner);
    }
    let column = ts.expect_ident()?;
    if ts.eat_kw("IN") {
        // Parenthesized or bare subquery (the paper's listing is bare).
        let parenthesized = ts.eat(Tok::LParen);
        let sub = parse_select_query(ts)?;
        if parenthesized {
            ts.expect(Tok::RParen)?;
        }
        return Ok(SequelPred::In {
            column,
            sub: Box::new(sub),
        });
    }
    let op = parse_cmp_op(ts)?;
    let value = parse_value(ts)?;
    Ok(SequelPred::Cmp { column, op, value })
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

/// Render a `SELECT` in the paper's multi-line layout (listing A).
pub fn print_select(q: &SelectQuery) -> String {
    let mut out = String::new();
    print_select_into(q, &mut out);
    out
}

fn print_select_into(q: &SelectQuery, out: &mut String) {
    if q.columns.is_empty() {
        let _ = writeln!(out, "SELECT *");
    } else {
        let _ = writeln!(out, "SELECT {}", q.columns.join(", "));
    }
    let _ = writeln!(out, "FROM {}", q.table);
    if let Some(w) = &q.where_ {
        let _ = write!(out, "WHERE ");
        // The paper's bare-subquery layout is only unambiguous when the
        // subquery ends the statement; in tail position we print it bare
        // (reproducing listing A), otherwise parenthesized.
        let tail = q.order_by.is_empty();
        print_pred_into(w, out, tail);
        if !out.ends_with('\n') {
            out.push('\n');
        }
    }
    if !q.order_by.is_empty() {
        let _ = writeln!(out, "ORDER BY {}", q.order_by.join(", "));
    }
}

fn print_pred_into(p: &SequelPred, out: &mut String, tail: bool) {
    match p {
        SequelPred::Cmp { column, op, value } => {
            let v = match value {
                Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
                other => other.to_string(),
            };
            let _ = write!(out, "{column} {} {v}", op.symbol());
        }
        SequelPred::In { column, sub } => {
            if tail {
                let _ = writeln!(out, "{column} IN");
                print_select_into(sub, out);
                // Trim the trailing newline so callers can continue cleanly.
                if out.ends_with('\n') {
                    out.pop();
                }
            } else {
                let _ = write!(out, "{column} IN (");
                print_select_into(sub, out);
                while out.ends_with('\n') {
                    out.pop();
                }
                let _ = write!(out, ")");
            }
        }
        SequelPred::And(a, b) => {
            print_pred_into(a, out, false);
            let _ = write!(out, "\nAND ");
            print_pred_into(b, out, tail);
        }
        SequelPred::Or(a, b) => {
            let _ = write!(out, "(");
            print_pred_into(a, out, false);
            let _ = write!(out, " OR ");
            print_pred_into(b, out, false);
            let _ = write!(out, ")");
        }
        SequelPred::Not(a) => {
            let _ = write!(out, "NOT (");
            print_pred_into(a, out, false);
            let _ = write!(out, ")");
        }
    }
}

/// Render a full SEQUEL program.
pub fn print_sequel_program(p: &SequelProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "SEQUEL PROGRAM {};", p.name);
    for s in &p.stmts {
        match s {
            SequelStmt::Select(q) => {
                let text = print_select(q);
                let text = text.trim_end();
                let _ = writeln!(out, "{text};");
            }
            SequelStmt::Insert { table, assigns } => {
                let list: Vec<String> = assigns
                    .iter()
                    .map(|(c, v)| format!("{c} = {}", lit(v)))
                    .collect();
                let _ = writeln!(out, "INSERT INTO {table} ({});", list.join(", "));
            }
            SequelStmt::Delete { table, where_ } => {
                let _ = write!(out, "DELETE FROM {table}");
                if let Some(w) = where_ {
                    let _ = write!(out, " WHERE ");
                    print_pred_into(w, &mut out, false);
                }
                let _ = writeln!(out, ";");
            }
            SequelStmt::Update {
                table,
                assigns,
                where_,
            } => {
                let list: Vec<String> = assigns
                    .iter()
                    .map(|(c, v)| format!("{c} = {}", lit(v)))
                    .collect();
                let _ = write!(out, "UPDATE {table} SET ({})", list.join(", "));
                if let Some(w) = where_ {
                    let _ = write!(out, " WHERE ");
                    print_pred_into(w, &mut out, false);
                }
                let _ = writeln!(out, ";");
            }
        }
    }
    let _ = writeln!(out, "END PROGRAM;");
    out
}

fn lit(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's §4.1 listing (A), verbatim layout.
    pub const LISTING_A: &str = "\
SELECT ENAME
FROM EMP
WHERE E# IN
SELECT E#
FROM EMP-DEPT
WHERE D# = 'D2'
AND YEAR-OF-SERVICE = 3
";

    #[test]
    fn parses_listing_a() {
        let q = parse_select(LISTING_A).unwrap();
        assert_eq!(q.columns, vec!["ENAME"]);
        assert_eq!(q.table, "EMP");
        assert_eq!(q.nesting_depth(), 1);
        let Some(SequelPred::In { column, sub }) = &q.where_ else {
            panic!("expected IN predicate, got {:?}", q.where_);
        };
        assert_eq!(column, "E#");
        assert_eq!(sub.table, "EMP-DEPT");
    }

    #[test]
    fn prints_listing_a_verbatim() {
        let q = parse_select(LISTING_A).unwrap();
        assert_eq!(print_select(&q), LISTING_A);
    }

    #[test]
    fn parenthesized_subquery_also_accepted() {
        let src = "SELECT ENAME FROM EMP WHERE E# IN (SELECT E# FROM EMP-DEPT WHERE D# = 'D2')";
        let q = parse_select(src).unwrap();
        assert_eq!(q.nesting_depth(), 1);
    }

    #[test]
    fn order_by_parses_and_prints() {
        let src = "SELECT ENAME\nFROM EMP\nORDER BY ENAME\n";
        let q = parse_select(src).unwrap();
        assert_eq!(q.order_by, vec!["ENAME"]);
        assert_eq!(print_select(&q), src);
    }

    #[test]
    fn select_star() {
        let q = parse_select("SELECT * FROM EMP").unwrap();
        assert!(q.columns.is_empty());
        assert_eq!(print_select(&q), "SELECT *\nFROM EMP\n");
    }

    #[test]
    fn program_round_trip() {
        let src = "\
SEQUEL PROGRAM MAINT;
INSERT INTO EMP (E# = 'E9', ENAME = 'NEW', AGE = 21);
UPDATE EMP SET (AGE = 22) WHERE E# = 'E9';
SELECT ENAME
FROM EMP
WHERE AGE > 21
ORDER BY ENAME;
DELETE FROM EMP WHERE E# = 'E9';
END PROGRAM;
";
        let p = parse_sequel_program(src).unwrap();
        assert_eq!(p.stmts.len(), 4);
        let printed = print_sequel_program(&p);
        assert_eq!(parse_sequel_program(&printed).unwrap(), p);
    }

    #[test]
    fn deep_nesting() {
        let src = "SELECT A FROM T1 WHERE K IN \
                   SELECT K FROM T2 WHERE J IN \
                   SELECT J FROM T3 WHERE X = 1";
        let q = parse_select(src).unwrap();
        assert_eq!(q.nesting_depth(), 2);
    }

    #[test]
    fn boolean_combinations() {
        let q = parse_select("SELECT A FROM T WHERE X = 1 AND Y = 2 OR NOT (Z = 3)").unwrap();
        let w = q.where_.unwrap();
        assert!(matches!(w, SequelPred::Or(_, _)));
    }
}

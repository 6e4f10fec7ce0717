//! Observable I/O traces and scripted inputs.
//!
//! The trace is the paper's yardstick: a conversion succeeds iff the
//! converted program, run against the restructured database, produces a
//! trace equal to the original program's trace against the source database.

use dbpc_storage::AccessProfile;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

/// One observable event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A line printed to the terminal.
    TerminalOut(String),
    /// A line read from the terminal (the request/response dialogue must be
    /// preserved, so inputs are part of the observable behavior).
    TerminalIn(String),
    /// A line written to a non-database file.
    FileWrite { file: String, line: String },
    /// A line read from a non-database file.
    FileRead { file: String, line: String },
    /// Abnormal termination with a message (failed CHECK, integrity
    /// violation surfaced to the user, …).
    Abort(String),
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::TerminalOut(s) => write!(f, "OUT   | {s}"),
            TraceEvent::TerminalIn(s) => write!(f, "IN    | {s}"),
            TraceEvent::FileWrite { file, line } => write!(f, "WRITE | {file}: {line}"),
            TraceEvent::FileRead { file, line } => write!(f, "READ  | {file}: {line}"),
            TraceEvent::Abort(s) => write!(f, "ABORT | {s}"),
        }
    }
}

/// An ordered sequence of observable events.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
    /// Access-path counters for the run (rows scanned, index probes/hits,
    /// preorder rebuilds). Diagnostic only: equality between traces
    /// compares `events` alone, because the paper's criterion is observable
    /// I/O — converted programs are *expected* to take different access
    /// paths while producing identical output (§1.1, Fig. 4.1).
    pub access: AccessProfile,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        self.events == other.events
    }
}

impl Eq for Trace {}

impl Trace {
    pub fn new() -> Trace {
        Trace::default()
    }

    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    pub fn out(&mut self, line: impl Into<String>) {
        self.events.push(TraceEvent::TerminalOut(line.into()));
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Just the terminal output lines (the most common assertion target).
    pub fn terminal_lines(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TerminalOut(s) => Some(s.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Did the program abort?
    pub fn aborted(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, TraceEvent::Abort(_)))
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        Ok(())
    }
}

/// First difference between two traces, if any — the conversion system's
/// failure evidence, formatted for the Conversion Analyst.
pub fn diff_traces(original: &Trace, converted: &Trace) -> Option<String> {
    let n = original.events.len().max(converted.events.len());
    for i in 0..n {
        match (original.events.get(i), converted.events.get(i)) {
            (Some(a), Some(b)) if a == b => continue,
            (a, b) => {
                let fmt_ev = |e: Option<&TraceEvent>| {
                    e.map_or("<end of trace>".to_string(), |e| e.to_string())
                };
                return Some(format!(
                    "traces diverge at event {i}:\n  original : {}\n  converted: {}",
                    fmt_ev(a),
                    fmt_ev(b)
                ));
            }
        }
    }
    None
}

/// Scripted inputs for a run: terminal lines and per-file line contents.
/// Both programs under comparison are run against identical inputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Inputs {
    pub terminal: VecDeque<String>,
    pub files: BTreeMap<String, VecDeque<String>>,
}

impl Inputs {
    pub fn new() -> Inputs {
        Inputs::default()
    }

    pub fn with_terminal(mut self, lines: &[&str]) -> Inputs {
        self.terminal = lines.iter().map(|s| s.to_string()).collect();
        self
    }

    pub fn with_file(mut self, name: &str, lines: &[&str]) -> Inputs {
        self.files.insert(
            name.to_string(),
            lines.iter().map(|s| s.to_string()).collect(),
        );
        self
    }

    /// Pop the next terminal line ("" when the script is exhausted, matching
    /// an operator pressing enter on an empty line).
    pub fn read_terminal(&mut self) -> String {
        self.terminal.pop_front().unwrap_or_default()
    }

    /// Pop the next line of a file ("" when exhausted or missing).
    pub fn read_file(&mut self, name: &str) -> String {
        self.files
            .get_mut(name)
            .and_then(|f| f.pop_front())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_traces_have_no_diff() {
        let mut a = Trace::new();
        a.out("X");
        let b = a.clone();
        assert_eq!(diff_traces(&a, &b), None);
    }

    #[test]
    fn diff_reports_first_divergence() {
        let mut a = Trace::new();
        a.out("SAME");
        a.out("ALPHA");
        let mut b = Trace::new();
        b.out("SAME");
        b.out("BETA");
        let d = diff_traces(&a, &b).unwrap();
        assert!(d.contains("event 1"));
        assert!(d.contains("ALPHA"));
        assert!(d.contains("BETA"));
    }

    #[test]
    fn diff_catches_length_mismatch() {
        let mut a = Trace::new();
        a.out("X");
        let b = Trace::new();
        let d = diff_traces(&a, &b).unwrap();
        assert!(d.contains("<end of trace>"));
    }

    #[test]
    fn inputs_pop_in_order_and_default_empty() {
        let mut i = Inputs::new()
            .with_terminal(&["one", "two"])
            .with_file("F", &["a"]);
        assert_eq!(i.read_terminal(), "one");
        assert_eq!(i.read_terminal(), "two");
        assert_eq!(i.read_terminal(), "");
        assert_eq!(i.read_file("F"), "a");
        assert_eq!(i.read_file("F"), "");
        assert_eq!(i.read_file("MISSING"), "");
    }

    #[test]
    fn trace_helpers() {
        let mut t = Trace::new();
        t.out("A");
        t.push(TraceEvent::Abort("boom".into()));
        assert_eq!(t.terminal_lines(), vec!["A"]);
        assert!(t.aborted());
        assert_eq!(t.len(), 2);
        assert!(t.to_string().contains("ABORT | boom"));
    }
}

//! The unified Scan layer: composable access-path operators shared by all
//! four executors.
//!
//! Before this layer each interpreter hand-rolled retrieval — candidate
//! enumeration, index-vs-scan choice, predicate filtering — four times
//! over. Now every retrieval is a small pipeline of [`Scan`] operators:
//!
//! * [`TableScan`] — full enumeration in storage order (relational row
//!   cursor, network creation order, hierarchic preorder, set-key order);
//! * [`IndexScan`] — drains index-probe candidates (relational secondary
//!   indexes / primary keys, network CALC-key probes) through a fetch
//!   function;
//! * [`Select`] — predicate pushdown: a fallible filter applied as rows
//!   stream by;
//! * [`Project`] — per-item mapping (column projection, id → row).
//!
//! Which pipeline to build — probe or scan — is decided by the
//! [`planner`] from [`dbpc_storage::StatCatalog`]-style statistics, not by
//! ad-hoc `if` chains in the executors. The contract inherited from PR 1
//! stands: candidates always arrive in **storage order** and the **full**
//! predicate is re-applied to each, so plan choice changes row visits,
//! never the observable 1979 trace.
//!
//! Operators pull one item at a time (`next()` is Volcano-shaped) and
//! propagate [`RunError`](crate::RunError) instead of panicking, matching the executors'
//! error discipline.

pub mod planner;

pub use planner::{plan_mode, set_plan_mode, AccessPath, PlanChoice, PlanMode, ProbeStats};

use crate::error::RunResult;

/// A pull-based access-path operator. `next` yields the next item in the
/// operator's deterministic order, `Ok(None)` at exhaustion.
pub trait Scan {
    type Item;

    fn next(&mut self) -> RunResult<Option<Self::Item>>;

    /// Drain the scan into a vector.
    fn collect_vec(&mut self) -> RunResult<Vec<Self::Item>> {
        let mut out = Vec::new();
        while let Some(item) = self.next()? {
            out.push(item);
        }
        Ok(out)
    }

    /// First item, if any (FIND ANY / GU shapes: stop at the first match).
    fn first(&mut self) -> RunResult<Option<Self::Item>> {
        self.next()
    }
}

/// Full enumeration over an underlying storage-order iterator.
pub struct TableScan<I> {
    iter: I,
}

impl<I: Iterator> TableScan<I> {
    pub fn new(iter: I) -> TableScan<I> {
        TableScan { iter }
    }
}

impl<I: Iterator> Scan for TableScan<I> {
    type Item = I::Item;

    fn next(&mut self) -> RunResult<Option<Self::Item>> {
        Ok(self.iter.next())
    }
}

/// Index-probe candidates drained through a fallible fetch (id → item).
/// Candidates must already be in storage order — both the relational
/// secondary indexes and the network calc-key indexes guarantee it.
pub struct IndexScan<Id, F> {
    ids: std::vec::IntoIter<Id>,
    fetch: F,
}

impl<Id, T, F> IndexScan<Id, F>
where
    F: FnMut(Id) -> RunResult<T>,
{
    pub fn new(ids: Vec<Id>, fetch: F) -> IndexScan<Id, F> {
        IndexScan {
            ids: ids.into_iter(),
            fetch,
        }
    }
}

impl<Id, T, F> Scan for IndexScan<Id, F>
where
    F: FnMut(Id) -> RunResult<T>,
{
    type Item = T;

    fn next(&mut self) -> RunResult<Option<T>> {
        match self.ids.next() {
            Some(id) => (self.fetch)(id).map(Some),
            None => Ok(None),
        }
    }
}

/// Predicate pushdown: yields only the input items the (fallible)
/// predicate admits.
pub struct Select<S, P> {
    input: S,
    pred: P,
}

impl<S, P> Select<S, P>
where
    S: Scan,
    P: FnMut(&S::Item) -> RunResult<bool>,
{
    pub fn new(input: S, pred: P) -> Select<S, P> {
        Select { input, pred }
    }
}

impl<S, P> Scan for Select<S, P>
where
    S: Scan,
    P: FnMut(&S::Item) -> RunResult<bool>,
{
    type Item = S::Item;

    fn next(&mut self) -> RunResult<Option<S::Item>> {
        while let Some(item) = self.input.next()? {
            if (self.pred)(&item)? {
                return Ok(Some(item));
            }
        }
        Ok(None)
    }
}

/// Per-item mapping (column projection, id → record image).
pub struct Project<S, F> {
    input: S,
    f: F,
}

impl<S, T, F> Project<S, F>
where
    S: Scan,
    F: FnMut(S::Item) -> RunResult<T>,
{
    pub fn new(input: S, f: F) -> Project<S, F> {
        Project { input, f }
    }
}

impl<S, T, F> Scan for Project<S, F>
where
    S: Scan,
    F: FnMut(S::Item) -> RunResult<T>,
{
    type Item = T;

    fn next(&mut self) -> RunResult<Option<T>> {
        match self.input.next()? {
            Some(item) => (self.f)(item).map(Some),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RunError;

    #[test]
    fn pipeline_filters_and_projects() {
        let scan = TableScan::new(0..10u64);
        let select = Select::new(scan, |&x| Ok(x % 2 == 0));
        let mut project = Project::new(select, |x| Ok(x * 10));
        assert_eq!(project.collect_vec().unwrap(), vec![0, 20, 40, 60, 80]);
    }

    #[test]
    fn index_scan_fetches_in_candidate_order() {
        let mut scan = IndexScan::new(vec![3u64, 1, 2], |id| Ok(id * id));
        assert_eq!(scan.collect_vec().unwrap(), vec![9, 1, 4]);
    }

    #[test]
    fn errors_propagate_through_operators() {
        let scan = TableScan::new(0..4u64);
        let mut select = Select::new(scan, |&x| {
            if x == 2 {
                Err(RunError::StepLimit)
            } else {
                Ok(true)
            }
        });
        assert_eq!(select.next().unwrap(), Some(0));
        assert_eq!(select.next().unwrap(), Some(1));
        assert!(select.next().is_err());
    }

    #[test]
    fn first_stops_early() {
        let mut calls = 0;
        {
            let scan = TableScan::new(0..100u64);
            let mut select = Select::new(scan, |&x| {
                calls += 1;
                Ok(x >= 5)
            });
            assert_eq!(select.first().unwrap(), Some(5));
        }
        assert_eq!(calls, 6);
    }
}

//! A minimal scoped thread-pool for the study harnesses and the
//! conversion service.
//!
//! The paper's framing is *fleet* conversion — "the several hundred
//! programs a typical installation must convert" (§1) — so the batch
//! pipeline around the engines is a hot path in its own right. This module
//! supplies the only primitive the harnesses need: a deterministic parallel
//! map that keeps every worker busy until the work runs out.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Results are reassembled by item index, so the output
//!    vector is identical at any thread count. Workers claim items from one
//!    shared cursor (an [`AtomicUsize`] handing out the next unclaimed
//!    index), so *which thread computes which item* varies from run to run;
//!    determinism rests on index-ordered reassembly and on each item's
//!    computation being a pure function of `(index, item)`, never on the
//!    placement. A slow item delays only the worker running it: the others
//!    keep claiming until the cursor passes the last item.
//! 2. **No new dependencies.** Built on [`std::thread::scope`] alone; no
//!    registry crates, no additions to `shims/`.
//! 3. **Graceful degradation.** `threads <= 1` (the default on single-core
//!    hosts) runs inline on the calling thread with zero spawn overhead.

use std::env;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Environment variable overriding the worker count.
pub const THREADS_ENV: &str = "DBPC_THREADS";

/// Parse a `DBPC_THREADS`-style override. `None`, empty, unparsable, or
/// zero values all mean "no override".
pub fn parse_threads(var: Option<&str>) -> Option<usize> {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The worker count used when a harness is asked for "default" threading:
/// `DBPC_THREADS` if set to a positive integer, otherwise the host's
/// available parallelism (1 when that cannot be determined).
pub fn default_threads() -> usize {
    parse_threads(env::var(THREADS_ENV).ok().as_deref()).unwrap_or_else(|| {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// A work item whose computation panicked, with the rendered payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poisoned {
    pub payload: String,
}

impl std::fmt::Display for Poisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked: {}", self.payload)
    }
}

/// Render a caught panic payload for error reports. Panics raised through
/// `panic!` carry `&str` or `String`; anything else is opaque.
pub fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Map `f` over `items` on up to `threads` scoped workers.
///
/// `f` receives `(index, &item)` and must be pure with respect to the
/// output's determinism guarantee: the returned vector holds `f(i,
/// &items[i])` at position `i` regardless of thread count. A panic in any
/// worker is re-raised on the calling thread — but only after every other
/// item has completed, so sibling work is never abandoned mid-flight.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    try_parallel_map(items, threads, f)
        .into_iter()
        .map(|r| match r {
            Ok(u) => u,
            Err(p) => panic!("pool {p}"),
        })
        .collect()
}

/// Panic-safe [`parallel_map`]: each item's computation runs under
/// `catch_unwind`, so one panicking item yields an `Err(Poisoned)` in its
/// slot instead of killing the scoped pool — the robustness contract the
/// study harnesses rely on ("one poisoned program no longer kills a
/// 1000-program batch").
///
/// Reassembly never assumes every index completed: each worker returns
/// whatever it produced, and any slot left unfilled (a worker death
/// outside the guarded closure — e.g. an allocation failure moving the
/// result) is reported as `Poisoned` rather than deadlocking or aborting
/// the collection.
pub fn try_parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<Result<U, Poisoned>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    let guarded = |i: usize, t: &T| {
        catch_unwind(AssertUnwindSafe(|| f(i, t))).map_err(|p| Poisoned {
            payload: panic_payload(p),
        })
    };
    if threads == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| guarded(i, t))
            .collect();
    }
    let mut slots: Vec<Option<Result<U, Poisoned>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let guarded = &guarded;
    let next = &AtomicUsize::new(0);
    thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break produced;
                        }
                        produced.push((i, guarded(i, &items[i])));
                    }
                })
            })
            .collect();
        for h in workers {
            if let Ok(produced) = h.join() {
                for (i, u) in produced {
                    slots[i] = Some(u);
                }
            }
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.unwrap_or_else(|| {
                Err(Poisoned {
                    payload: "worker died before producing this slot".to_string(),
                })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_index_order_at_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map(&items, threads, |_, &x| x * x);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn index_argument_matches_position() {
        let items: Vec<usize> = (0..20).collect();
        let got = parallel_map(&items, 4, |i, &x| i == x);
        assert!(got.into_iter().all(|b| b));
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-1")), None);
        assert_eq!(parse_threads(Some("lots")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn default_threads_is_at_least_one() {
        assert!(default_threads() >= 1);
    }

    /// A slow item must not hold back the items after it: while item 0
    /// runs, the other worker claims and finishes every remaining item.
    /// A fixed stride would queue items 2, 4, … behind item 0 on its
    /// worker, and item 0 would wait out its bound without seeing them.
    #[test]
    fn a_slow_item_does_not_hold_back_the_rest() {
        use std::time::{Duration, Instant};
        let items: Vec<u64> = (0..16).collect();
        let finished = AtomicUsize::new(0);
        let got = parallel_map(&items, 2, |i, _| {
            if i != 0 {
                finished.fetch_add(1, Ordering::SeqCst);
                return true;
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while finished.load(Ordering::SeqCst) < items.len() - 1 {
                if Instant::now() >= deadline {
                    return false;
                }
                thread::sleep(Duration::from_millis(1));
            }
            true
        });
        assert!(got[0], "item 0 timed out waiting for the other items");
        assert!(got.iter().all(|&ok| ok));
    }

    #[test]
    fn poisoned_item_does_not_kill_siblings() {
        let items: Vec<u64> = (0..23).collect();
        for threads in [1, 2, 8] {
            let got = try_parallel_map(&items, threads, |_, &x| {
                if x == 13 {
                    panic!("unlucky item {x}");
                }
                x * 2
            });
            assert_eq!(got.len(), items.len(), "threads = {threads}");
            for (i, r) in got.iter().enumerate() {
                if i == 13 {
                    let p = r.as_ref().unwrap_err();
                    assert!(p.payload.contains("unlucky item 13"));
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i as u64 * 2));
                }
            }
        }
    }

    #[test]
    fn all_items_complete_even_when_several_panic() {
        let items: Vec<u64> = (0..40).collect();
        let got = try_parallel_map(&items, 4, |_, &x| {
            if x % 3 == 0 {
                panic!("boom {x}");
            }
            x
        });
        let (ok, poisoned): (Vec<_>, Vec<_>) = got.iter().partition(|r| r.is_ok());
        assert_eq!(poisoned.len(), items.iter().filter(|x| *x % 3 == 0).count());
        assert_eq!(ok.len() + poisoned.len(), items.len());
    }

    #[test]
    fn parallel_map_repropagates_panics_as_panics() {
        let items: Vec<u64> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, 2, |_, &x| {
                if x == 5 {
                    panic!("late failure");
                }
                x
            })
        });
        assert!(caught.is_err());
    }
}

//! Experiment E22: out-of-core scale — the million-record translation.
//!
//! The paper's framework assumes conversion runs over *stored* databases;
//! this artifact proves the engine now does. A company corpus of a
//! million-plus records is streamed straight into a **paged** `NetworkDb`
//! whose buffer pool is capped at a small fraction (≤ 4%) of the heap
//! file it produces, then run through the Figure 4.4 restructuring. The
//! translated target is heap-backed too ([`NetworkDb::fresh_like`] keeps
//! the backend), so both sides of the translation live out of core and
//! the run's record traffic crosses evictions throughout.
//!
//! What the artifact records:
//!
//! - corpus size, heap-file bytes, pool bytes, and the pool/data ratio
//!   (asserted ≤ 4% in the full run — the out-of-core claim);
//! - build and translate wall-clock, each one run through
//!   [`paired::timed`](dbpc_bench::paired::timed), plus records/second;
//! - peak RSS (`VmHWM`) — *reported*, not gated: the pool is bounded by
//!   construction, while the RAM-side id directory and set indexes grow
//!   O(records) by design (DESIGN.md §12);
//! - an equivalence leg at an overlapping corpus size: the same corpus
//!   and transform through the in-memory engine and through a paged
//!   engine under a deliberately starved pool must land on identical
//!   source and target fingerprints.
//!
//! Invariants asserted on every run (smoke included): paged source and
//! target really are paged, the equivalence fingerprints match, and the
//! tiny-pool leg evicted (the equivalence crossed the paging machinery).
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): thousands of records instead of a
//! million, one timed iteration, all assertions active, no artifact
//! written.

use dbpc_bench::artifact;
use dbpc_bench::paired::timed;
use dbpc_corpus::named;
use dbpc_obs::json::Json;
use dbpc_storage::NetworkDb;

/// Peak resident set size of this process in kB (Linux `VmHWM`; 0 when
/// unavailable).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn main() {
    let smoke = artifact::smoke();
    // Corpus shape, heap page size, and pool frames. The full corpus is
    // 1000 divisions × 1000 employees = 1,001,000 records; 512 frames of
    // 4 KiB is 2 MiB of pool against a heap file in the tens of MB.
    let (divisions, emps_per_div, page, pool) = if smoke {
        (8usize, 250usize, 1024usize, 16usize)
    } else {
        (1000, 1000, 4096, 512)
    };
    let records = divisions * (1 + emps_per_div);
    let transform = named::fig_4_4_restructuring();

    // ---- Build: stream the corpus into the paged engine --------------------
    let (build, src) = timed(|| {
        let mut src = NetworkDb::new_paged(named::company_schema(), page, pool).unwrap();
        named::fill_company_db(&mut src, divisions, 3, emps_per_div);
        src
    });
    assert!(src.is_paged());
    let src_stats = src.heap_stats().unwrap();
    assert_eq!(src_stats.records as usize, records);
    let data_bytes = src_stats.pages * page as u64;
    let pool_bytes = (pool * page) as u64;
    let pool_pct = 100.0 * pool_bytes as f64 / data_bytes.max(1) as f64;
    if !smoke {
        assert!(
            pool_pct <= 4.0,
            "pool is {pool_pct:.2}% of the heap file — the ≤4% out-of-core gate failed"
        );
    }

    // ---- Translate: Figure 4.4 over the out-of-core source -----------------
    let (translate, tgt) = timed(|| transform.translate(&src).unwrap());
    assert!(
        tgt.is_paged(),
        "fresh_like must keep the target out of core"
    );
    let tgt_stats = tgt.heap_stats().unwrap();
    let translate_rps = records as f64 / translate.as_secs_f64();
    let rss_kb = peak_rss_kb();

    // ---- Equivalence at an overlapping corpus size --------------------------
    // Same corpus, same transform, two engines: all-in-RAM and paged under
    // a 4-frame pool (dozens of heap pages, so every scan evicts). Source
    // and target fingerprints must agree exactly — paging is invisible.
    let mem_src = named::company_db(4, 3, 25);
    let mut paged_src = NetworkDb::new_paged(named::company_schema(), 256, 4).unwrap();
    named::fill_company_db(&mut paged_src, 4, 3, 25);
    assert!(
        paged_src.heap_stats().unwrap().pages > 8,
        "equivalence leg must outgrow its 4-frame pool"
    );
    assert_eq!(
        paged_src.fingerprint(),
        mem_src.fingerprint(),
        "paged corpus build diverged from the in-memory build"
    );
    let mem_tgt = transform.translate(&mem_src).unwrap();
    let paged_tgt = transform.translate(&paged_src).unwrap();
    assert!(!mem_tgt.is_paged() && paged_tgt.is_paged());
    assert_eq!(
        paged_tgt.fingerprint(),
        mem_tgt.fingerprint(),
        "translation through the paged engine diverged from in-memory"
    );

    // ---- Emit artifact ----------------------------------------------------
    artifact::emit(
        "scale",
        Json::obj([
            ("records", Json::from(records)),
            ("page_bytes", page.into()),
            ("pool_frames", pool.into()),
            ("pool_bytes", pool_bytes.into()),
            ("heap_bytes", data_bytes.into()),
            ("pool_pct_of_data", pool_pct.into()),
            ("gate_pool_pct", 4.0.into()),
            ("source_pages", src_stats.pages.into()),
            ("source_fill_pct", src_stats.fill_pct.into()),
            ("target_pages", tgt_stats.pages.into()),
            ("target_records", tgt_stats.records.into()),
            ("build_ns", build.as_nanos().into()),
            ("translate_ns", translate.as_nanos().into()),
            ("translate_records_per_sec", translate_rps.into()),
            ("peak_rss_kb", rss_kb.into()),
            ("equivalence_fingerprints_match", true.into()),
        ]),
    );
}

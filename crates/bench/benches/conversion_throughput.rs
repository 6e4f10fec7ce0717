//! Experiment E14: conversion-pipeline throughput.
//!
//! Times the E2 success-rate matrix and the E9 cost model under the
//! pre-optimization pipeline (sequential, database rebuilt per program, no
//! analysis memoization) against the tuned pipeline (per-cell database
//! reuse, memoized analysis, batch conversion) at 1, 2 and 4 worker
//! threads, plus the clone-heavy vs. borrowed data-translation inner loop.
//! Every configuration must render the **byte-identical** study matrix —
//! the speedups are pure pipeline efficiency, asserted here alongside the
//! work counters (schema clones per translation, analysis cache hits,
//! database builds vs. clones) that explain them.
//!
//! Thread-scaling configurations engage real parallelism only where the
//! host has cores to offer; the artifact header's `host_threads` in the
//! emitted `BENCH_conversion_throughput.json` lets readers interpret the
//! per-thread numbers.
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): one tiny iteration of everything,
//! all invariant assertions active, no artifact written — the CI guard.

use std::collections::BTreeMap;
use std::time::Instant;

use dbpc_bench::artifact;
use dbpc_corpus::harness::{
    cost_model, success_rate_study_config, CostParams, StudyConfig, StudyProfile,
};
use dbpc_corpus::named::company_db;
use dbpc_obs::json::Json;
use dbpc_restructure::data::translate;
use dbpc_restructure::{stats as translation_stats, Transform};
use dbpc_storage::{NetworkDb, RecordId, SYSTEM_OWNER};

/// Best-of-N wall clock. On a shared, single-core host, scheduler
/// interference only ever *adds* time, so the minimum is the stable
/// estimator of a configuration's actual cost — medians of block-wise runs
/// drift with whatever else the machine was doing during that block.
fn best_ns<F: FnMut()>(iters: u32, mut f: F) -> u128 {
    (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .min()
        .unwrap()
}

/// The pre-optimization data-translation inner loop, reconstructed against
/// the public storage API: per *record* it re-clones the record-type
/// definition and materializes owned `(String, Value)` pairs (plus a second
/// value clone for the `&str` view `store` wants). The tuned loop in
/// `dbpc_restructure::data` hoists all of that to one plan per record
/// *type*; this baseline is what the clone-audit speedup is measured
/// against.
fn cloning_rebuild(db: &NetworkDb) -> NetworkDb {
    let mut out = NetworkDb::new(db.schema().clone()).unwrap();
    let mut idmap: BTreeMap<RecordId, RecordId> = BTreeMap::new();
    // Schema order is owners-first for the company schema.
    let types: Vec<String> = db.schema().records.iter().map(|r| r.name.clone()).collect();
    for rtype in &types {
        for old_id in db.records_of_type(rtype) {
            let rt = db.schema().record(rtype).unwrap().clone();
            let old_rec = db.get(old_id).unwrap();
            let values: Vec<(String, dbpc_datamodel::value::Value)> = rt
                .fields
                .iter()
                .enumerate()
                .filter(|(_, f)| !f.is_virtual())
                .map(|(i, f)| (f.name.clone(), old_rec.values[i].clone()))
                .collect();
            let mut connects: Vec<(String, RecordId)> = Vec::new();
            for s in db.schema().sets_with_member(rtype) {
                if s.is_system() {
                    continue;
                }
                if let Some(owner) = db.owner_in(&s.name, old_id).unwrap() {
                    if owner != SYSTEM_OWNER {
                        connects.push((s.name.clone(), idmap[&owner]));
                    }
                }
            }
            let vref: Vec<(&str, dbpc_datamodel::value::Value)> = values
                .iter()
                .map(|(f, v)| (f.as_str(), v.clone()))
                .collect();
            let cref: Vec<(&str, RecordId)> =
                connects.iter().map(|(s, o)| (s.as_str(), *o)).collect();
            let new_id = out.store(rtype, &vref, &cref).unwrap();
            idmap.insert(old_id, new_id);
        }
    }
    out
}

struct MatrixRun {
    label: &'static str,
    threads: usize,
    best_ns: u128,
    profile: StudyProfile,
}

fn main() {
    let (samples, iters) = if artifact::smoke() { (1, 1) } else { (3, 5) };
    let seed = 1979u64;

    // ---- E2 matrix: seed pipeline vs. tuned pipeline at 1/2/4 threads -----
    let configs: [(&'static str, StudyConfig); 4] = [
        ("seed_pipeline", StudyConfig::baseline(samples, seed)),
        (
            "tuned_1_thread",
            StudyConfig {
                threads: 1,
                ..StudyConfig::new(samples, seed)
            },
        ),
        (
            "tuned_2_threads",
            StudyConfig {
                threads: 2,
                ..StudyConfig::new(samples, seed)
            },
        ),
        (
            "tuned_4_threads",
            StudyConfig {
                threads: 4,
                ..StudyConfig::new(samples, seed)
            },
        ),
    ];

    let reference = success_rate_study_config(&configs[0].1);
    let rendered = reference.to_string();
    let mut runs: Vec<MatrixRun> = Vec::new();
    for (label, config) in &configs {
        let study = success_rate_study_config(config);
        assert_eq!(
            study.to_string(),
            rendered,
            "{label}: study matrix must be byte-identical to the seed pipeline's"
        );
        runs.push(MatrixRun {
            label,
            threads: study.profile.threads,
            best_ns: u128::MAX,
            profile: study.profile,
        });
    }
    // Interleave one timed run of every configuration per round, keeping
    // each configuration's best: a slow system phase then degrades the
    // whole round instead of biasing whichever configuration it landed on.
    for _ in 0..iters {
        for (run, (_, config)) in runs.iter_mut().zip(&configs) {
            let t = Instant::now();
            let s = success_rate_study_config(config);
            let ns = t.elapsed().as_nanos();
            assert_eq!(s.rows, reference.rows);
            run.best_ns = run.best_ns.min(ns);
        }
    }
    let seed_ns = runs[0].best_ns;

    // The tuned pipeline memoizes analysis and generation and swaps
    // per-program database rebuilds for shared-base runs (update-free
    // programs) or clones (updating ones); the seed pipeline does none of
    // that.
    assert_eq!(runs[0].profile.analysis_cache_hits, 0);
    assert_eq!(runs[0].profile.generation_cache_hits, 0);
    assert!(runs[1].profile.analysis_cache_hits > 0);
    assert!(runs[1].profile.generation_cache_hits > 0);
    assert_eq!(runs[0].profile.db_clones, 0);
    assert_eq!(runs[0].profile.db_shared_runs, 0);
    assert_eq!(
        runs[1].profile.db_clones + runs[1].profile.db_shared_runs,
        runs[1].profile.equivalence_runs + runs[1].profile.source_trace_misses
    );
    assert!(runs[1].profile.db_shared_runs > 0);
    // Base databases are built once per cell instead of once per program;
    // at one sample per cell the two coincide, so smoke mode only checks
    // the tuned pipeline never builds *more*.
    if samples > 1 {
        assert!(runs[1].profile.db_builds < runs[0].profile.db_builds);
    } else {
        assert!(runs[1].profile.db_builds <= runs[0].profile.db_builds);
    }
    assert!(runs[1].profile.source_trace_hits > 0);

    // ---- E9 cost model under both pipelines -------------------------------
    let interactive_base = StudyConfig {
        permissive: true,
        ..StudyConfig::baseline(samples, seed)
    };
    let interactive_tuned = StudyConfig {
        permissive: true,
        threads: 4,
        ..StudyConfig::new(samples, seed)
    };
    let report_base = cost_model(
        &success_rate_study_config(&interactive_base),
        CostParams::default(),
    );
    let report_tuned = cost_model(
        &success_rate_study_config(&interactive_tuned),
        CostParams::default(),
    );
    assert_eq!(
        report_base.to_string(),
        report_tuned.to_string(),
        "cost report must not depend on the pipeline configuration"
    );
    let (mut cost_base_ns, mut cost_tuned_ns) = (u128::MAX, u128::MAX);
    for _ in 0..iters {
        for (slot, config) in [
            (&mut cost_base_ns, &interactive_base),
            (&mut cost_tuned_ns, &interactive_tuned),
        ] {
            let t = Instant::now();
            cost_model(&success_rate_study_config(config), CostParams::default());
            *slot = (*slot).min(t.elapsed().as_nanos());
        }
    }

    // ---- Translation clone audit ------------------------------------------
    let rename = Transform::RenameRecord {
        old: "DIV".into(),
        new: "DIVISION".into(),
    };
    let (small_db, large_db) = (company_db(2, 3, 8), company_db(8, 3, 32));
    let mut audits = Vec::new();
    for db in [&small_db, &large_db] {
        let records = db.records_of_type("DIV").len() + db.records_of_type("EMP").len();
        let before = translation_stats::snapshot();
        translate(db, &rename).unwrap();
        let work = translation_stats::snapshot().since(&before);
        assert_eq!(
            work.schema_clones, 1,
            "one schema clone per translation, independent of N = {records}"
        );
        assert_eq!(
            work.record_type_preps, 2,
            "one plan per record type (DIV, EMP), independent of N = {records}"
        );
        assert_eq!(work.records_stored as usize, records);
        audits.push((records, work));
    }
    let cloning_ns = best_ns(iters, || {
        cloning_rebuild(&large_db);
    });
    let borrowed_ns = best_ns(iters, || {
        translate(&large_db, &rename).unwrap();
    });

    // ---- Database reuse: build-from-scratch vs. clone ---------------------
    let base = company_db(4, 3, 8);
    let build_ns = best_ns(iters, || {
        company_db(4, 3, 8);
    });
    let clone_ns = best_ns(iters, || {
        let _ = base.clone();
    });

    // ---- Emit artifact ----------------------------------------------------
    let speedup = |a: u128, b: u128| Json::from(a as f64 / b.max(1) as f64);
    let run_json = |run: &MatrixRun| {
        let p = &run.profile;
        Json::obj([
            ("threads", Json::from(run.threads)),
            ("best_ns", run.best_ns.into()),
            ("speedup_vs_seed", speedup(seed_ns, run.best_ns)),
            ("analysis_cache_hits", p.analysis_cache_hits.into()),
            ("analysis_cache_misses", p.analysis_cache_misses.into()),
            ("generation_cache_hits", p.generation_cache_hits.into()),
            ("source_trace_hits", p.source_trace_hits.into()),
            ("source_trace_misses", p.source_trace_misses.into()),
            ("db_builds", p.db_builds.into()),
            ("db_clones", p.db_clones.into()),
            ("db_shared_runs", p.db_shared_runs.into()),
        ])
    };
    let stage_ns = |p: &StudyProfile| {
        Json::obj([
            ("generate", Json::from(p.generate_ns)),
            ("convert", p.convert_ns.into()),
            ("verify", p.verify_ns.into()),
        ])
    };
    let e2_matrix = [
        ("samples_per_cell", Json::from(samples)),
        ("seed", seed.into()),
        ("cells", runs[0].profile.cells_done.into()),
        ("programs", runs[0].profile.programs_generated.into()),
        ("identical_output", true.into()),
    ]
    .into_iter()
    .chain(runs.iter().map(|run| (run.label, run_json(run))))
    .chain([
        ("stage_ns_seed", stage_ns(&runs[0].profile)),
        ("stage_ns_tuned", stage_ns(&runs[1].profile)),
    ]);
    let audit = ["small", "large"]
        .into_iter()
        .zip(&audits)
        .map(|(name, (records, work))| {
            let audit = Json::obj([
                ("records", Json::from(*records)),
                ("schema_clones", work.schema_clones.into()),
                ("record_type_preps", work.record_type_preps.into()),
                ("records_stored", work.records_stored.into()),
            ]);
            (name, audit)
        });
    let clone_audit = [("record_types", Json::from(2))]
        .into_iter()
        .chain(audit)
        .chain([
            ("cloning_rebuild_best_ns", cloning_ns.into()),
            ("borrowed_translate_best_ns", borrowed_ns.into()),
            ("speedup", speedup(cloning_ns, borrowed_ns)),
        ]);
    artifact::emit(
        "conversion_throughput",
        Json::obj([
            ("e2_matrix", Json::obj(e2_matrix)),
            (
                "e9_cost_model",
                Json::obj([
                    ("identical_output", Json::from(true)),
                    ("seed_best_ns", cost_base_ns.into()),
                    ("tuned_best_ns", cost_tuned_ns.into()),
                    ("speedup", speedup(cost_base_ns, cost_tuned_ns)),
                ]),
            ),
            ("translation_clone_audit", Json::obj(clone_audit)),
            (
                "db_reuse",
                Json::obj([
                    ("build_best_ns", Json::from(build_ns)),
                    ("clone_best_ns", clone_ns.into()),
                    ("speedup", speedup(build_ns, clone_ns)),
                ]),
            ),
        ]),
    );
}

//! Experiment E14: conversion-pipeline throughput.
//!
//! Times the E2 success-rate matrix and the E9 cost model under the
//! pre-optimization pipeline (sequential, database rebuilt per program,
//! every program regenerated per row) against the tuned pipeline (per-cell
//! database reuse, memoized programs, batch conversion) at 1, 2 and 4 worker
//! threads, plus the clone-heavy vs. borrowed data-translation inner loop.
//! Every configuration must render the **byte-identical** study matrix —
//! the speedups are pure pipeline efficiency, asserted here alongside the
//! work counters (schema clones per translation, generation memo hits,
//! database builds vs. clones) that explain them.
//!
//! Every speedup is the median per-round ratio baseline / tuned of the two
//! configurations run in alternating rounds ([`paired::ratio`]), and every
//! timed run re-checks its output. Thread-scaling configurations engage
//! real parallelism only where the host has cores to offer; the artifact
//! header's `host_threads` in the emitted
//! `BENCH_conversion_throughput.json` lets readers interpret the
//! per-thread numbers.
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): one tiny round of everything,
//! all invariant assertions active, no artifact written — the CI guard.

use std::collections::BTreeMap;

use dbpc_bench::artifact;
use dbpc_bench::paired::{self, timed, Paired};
use dbpc_corpus::harness::{
    cost_model, success_rate_study_config, CostParams, StudyConfig, StudyProfile,
};
use dbpc_corpus::named::company_db;
use dbpc_obs::json::Json;
use dbpc_restructure::data::translate;
use dbpc_restructure::stats::{RECORDS_STORED, RECORD_TYPE_PREPS, SCHEMA_CLONES};
use dbpc_restructure::Transform;
use dbpc_storage::{NetworkDb, RecordId, SYSTEM_OWNER};

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
    /// The seed pipeline against this configuration; `None` for the seed
    /// pipeline itself.
    vs_seed: Option<Paired>,
    profile: StudyProfile,
}

fn main() {
    let (samples, rounds) = if artifact::smoke() { (1, 1) } else { (3, 5) };
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
            vs_seed: None,
            profile: study.profile,
        });
    }
    let matrix_arm = |config| {
        let rows = &reference.rows;
        move || {
            let (d, s) = timed(|| success_rate_study_config(config));
            assert_eq!(&s.rows, rows);
            d
        }
    };
    for (run, (_, config)) in runs.iter_mut().zip(&configs).skip(1) {
        let seed = matrix_arm(&configs[0].1);
        run.vs_seed = Some(paired::ratio(rounds, seed, matrix_arm(config)));
    }

    // The tuned pipeline memoizes generation and swaps per-program
    // database rebuilds for shared-base runs (update-free programs) or
    // clones (updating ones); the seed pipeline does none of that.
    assert_eq!(runs[0].profile.generation_cache_hits, 0);
    assert!(runs[1].profile.generation_cache_hits > 0);
    assert_eq!(runs[0].profile.db_shared_runs, 0);
    assert_eq!(
        runs[1].profile.db_shared_runs,
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
    let cost_arm = |config| {
        let want = report_base.to_string();
        move || {
            let (d, report) =
                timed(|| cost_model(&success_rate_study_config(config), CostParams::default()));
            assert_eq!(report.to_string(), want);
            d
        }
    };
    let e9 = paired::ratio(
        rounds,
        cost_arm(&interactive_base),
        cost_arm(&interactive_tuned),
    );

    // ---- Translation clone audit ------------------------------------------
    let rename = Transform::RenameRecord {
        old: "DIV".into(),
        new: "DIVISION".into(),
    };
    let (small_db, large_db) = (company_db(2, 3, 8), company_db(8, 3, 32));
    let mut audits = Vec::new();
    for db in [&small_db, &large_db] {
        let records = db.records_of_type("DIV").len() + db.records_of_type("EMP").len();
        let mark = dbpc_obs::local_mark();
        translate(db, &rename).unwrap();
        let work = mark.delta();
        let [schema_clones, record_type_preps, records_stored] =
            [SCHEMA_CLONES, RECORD_TYPE_PREPS, RECORDS_STORED].map(|m| work.counter(m));
        assert_eq!(
            schema_clones, 1,
            "one schema clone per translation, independent of N = {records}"
        );
        assert_eq!(
            record_type_preps, 2,
            "one plan per record type (DIV, EMP), independent of N = {records}"
        );
        assert_eq!(records_stored as usize, records);
        audits.push((records, [schema_clones, record_type_preps, records_stored]));
    }
    let clone_audit_timing = paired::ratio(
        rounds,
        || timed(|| cloning_rebuild(&large_db)).0,
        || timed(|| translate(&large_db, &rename).unwrap()).0,
    );

    // ---- Database reuse: build-from-scratch vs. clone ---------------------
    let base = company_db(4, 3, 8);
    let db_reuse = paired::ratio(
        rounds,
        || timed(|| company_db(4, 3, 8)).0,
        || timed(|| base.clone()).0,
    );

    // ---- Emit artifact ----------------------------------------------------
    let run_json = |run: &MatrixRun| {
        let p = &run.profile;
        let timing = run.vs_seed.as_ref().map(|v| v.json("seed", "tuned"));
        Json::obj(
            [("threads", Json::from(run.threads))]
                .into_iter()
                .chain(timing.map(|t| ("seed_vs_tuned", t)))
                .chain([
                    ("generation_cache_hits", p.generation_cache_hits.into()),
                    ("source_trace_hits", p.source_trace_hits.into()),
                    ("source_trace_misses", p.source_trace_misses.into()),
                    ("db_builds", p.db_builds.into()),
                    ("db_shared_runs", p.db_shared_runs.into()),
                ]),
        )
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
    let audit = ["small", "large"].into_iter().zip(&audits).map(
        |(name, (records, [schema_clones, record_type_preps, records_stored]))| {
            let audit = Json::obj([
                ("records", Json::from(*records)),
                ("schema_clones", (*schema_clones).into()),
                ("record_type_preps", (*record_type_preps).into()),
                ("records_stored", (*records_stored).into()),
            ]);
            (name, audit)
        },
    );
    let clone_audit = [("record_types", Json::from(2))]
        .into_iter()
        .chain(audit)
        .chain([(
            "cloning_vs_borrowed",
            clone_audit_timing.json("cloning_rebuild", "borrowed_translate"),
        )]);
    artifact::emit(
        "conversion_throughput",
        Json::obj([
            ("e2_matrix", Json::obj(e2_matrix)),
            (
                "e9_cost_model",
                Json::obj([
                    ("identical_output", Json::from(true)),
                    ("seed_vs_tuned", e9.json("seed", "tuned")),
                ]),
            ),
            ("translation_clone_audit", Json::obj(clone_audit)),
            ("db_reuse", db_reuse.json("build", "clone")),
        ]),
    );
}

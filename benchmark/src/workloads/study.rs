//! `study`: the paper's headline experiment, the E2 success-rate matrix
//! (8 restructurings × 12 program classes), run as back-to-back passes on
//! 2 threads. Every pass uses a fresh seed, so the process-wide
//! generation, analysis and source-trace memos start cold for its
//! programs, as they do for a study in a new process; the memos still pay
//! off across the 8 restructuring rows of one pass.
//!
//! Unit of work: a program converted and verified. Operation: one pass.

use std::collections::BTreeMap;
use std::time::Instant;

use dbpc_corpus::harness::{success_rate_study_config, StudyConfig, StudyResult};

use super::{digest, ns_since, Ctx, Outcome};
use crate::host;
use crate::stats::derive_seed;
use crate::trace::obs_self_times;

const THREADS: usize = 2;
const ROWS: usize = 8;
const CLASSES: usize = 12;

/// The program's own stage spans, reported per program.
pub(super) const STAGES: [(&str, &str); 7] = [
    ("stage.analyzer", "span.stage.analyzer.self_us_per_op"),
    ("stage.converter", "span.stage.converter.self_us_per_op"),
    ("stage.optimizer", "span.stage.optimizer.self_us_per_op"),
    ("stage.generator", "span.stage.generator.self_us_per_op"),
    (
        "stage.verification",
        "span.stage.verification.self_us_per_op",
    ),
    ("stage.translation", "span.stage.translation.self_us_per_op"),
    ("engine.host", "span.engine.host.self_us_per_op"),
];

fn study(samples: usize, seed: u64, threads: usize) -> StudyResult {
    success_rate_study_config(&StudyConfig {
        threads,
        ..StudyConfig::new(samples, seed)
    })
}

/// Check one study result; returns (programs, failed programs).
fn check(out: &mut Outcome, result: &StudyResult, samples: usize) -> (u64, u64) {
    let cells_ok = result.rows.len() == ROWS
        && result
            .rows
            .iter()
            .all(|r| r.cells.len() == CLASSES && r.cells.iter().all(|(_, c)| c.total == samples));
    out.check(cells_ok, || {
        format!("study matrix is not {ROWS}x{CLASSES} cells of {samples} programs")
    });
    let programs: usize = result.rows.iter().map(|r| r.aggregate().total).sum();
    let poisoned: usize = result.rows.iter().map(|r| r.aggregate().poisoned).sum();
    let wrong = result.total_verified_wrong();
    out.check(wrong == 0, || format!("{wrong} programs verified wrong"));
    out.check(poisoned == 0, || format!("{poisoned} programs poisoned"));
    (programs as u64, (wrong + poisoned) as u64)
}

/// Per-layer sums over the traced passes.
#[derive(Default)]
struct Traced {
    programs: u64,
    generate_ns: u64,
    convert_ns: u64,
    verify_ns: u64,
    analysis: (u64, u64),
    source_traces: (u64, u64),
    self_ns: BTreeMap<String, u64>,
    cell_ns: u64,
}

impl Traced {
    fn add(&mut self, r: &StudyResult, programs: u64) {
        let p = &r.profile;
        self.programs += programs;
        self.generate_ns += p.generate_ns;
        self.convert_ns += p.convert_ns;
        self.verify_ns += p.verify_ns;
        self.analysis.0 += p.analysis_cache_hits;
        self.analysis.1 += p.analysis_cache_misses;
        self.source_traces.0 += p.source_trace_hits;
        self.source_traces.1 += p.source_trace_misses;
        for cell in &r.report.spans {
            self.cell_ns += cell.wall_ns.unwrap_or(0);
            obs_self_times(cell, &mut self.self_ns);
        }
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Passes after which peak memory is read: 80 passes of 25 samples per
/// cell are the 192,000 programs of a 2,000-sample E2 study. The memos
/// keep every distinct program, so memory grows with the work done, and
/// reading it at a fixed amount of work keeps it independent of speed.
const RSS_PASSES: u64 = 80;

pub fn run(ctx: &Ctx) -> Outcome {
    let samples = if ctx.smoke { 1 } else { 25 };
    let mut out = Outcome::default();

    // Set-up: a cold one-sample study (96 programs), 25 times, each on its
    // own seed. One thread, so a sample measures the pipeline's cold start
    // rather than thread start-up on a contended host; a sample takes tens
    // of milliseconds, so it takes many to steady their median.
    for i in 0..25 {
        out.probe_host();
        let t = Instant::now();
        let r = study(1, derive_seed(ctx.seed, u64::MAX - i), 1);
        out.setup(t.elapsed().as_secs_f64());
        check(&mut out, &r, 1);
    }

    let rss_before = host::rss_bytes();
    let mut traced = Traced::default();
    let deadline = ctx.deadline();
    let mut pass = 0u64;
    while pass == 0 || Instant::now() < deadline {
        out.probe_host();
        let on = ctx.trace_op(pass);
        let t = Instant::now();
        let r = ctx.tracer.span("study.pass", pass, None, |_| {
            study(samples, derive_seed(ctx.seed, pass), THREADS)
        });
        let ns = ns_since(t);
        let (programs, failed) = check(&mut out, &r, samples);
        out.attempted += programs;
        out.failed += failed;
        out.segment(programs, ns / 1e9);
        out.latency(ns);
        out.split(ctx, on, ns);
        if pass == 0 {
            out.digest = digest(format!("{:?}", r.rows).as_bytes());
        }
        if on {
            traced.add(&r, programs);
        }
        pass += 1;
        if pass == RSS_PASSES {
            out.peak_rss_bytes = Some(host::peak_rss_bytes());
        }
    }
    out.probe_host();
    ctx.tracer.set_active(true);

    if ctx.tracer.enabled() {
        let per = |ns: u64| ns as f64 / 1e3 / traced.programs.max(1) as f64;
        let l = &mut out.layers;
        l.set("study.generate_us_per_program", per(traced.generate_ns));
        l.set("study.convert_us_per_program", per(traced.convert_ns));
        l.set("study.verify_us_per_program", per(traced.verify_ns));
        l.set(
            "analyzer.cache_hit_ratio",
            ratio(traced.analysis.0, traced.analysis.1),
        );
        l.set(
            "study.source_trace_hit_ratio",
            ratio(traced.source_traces.0, traced.source_traces.1),
        );
        let grown = host::rss_bytes().saturating_sub(rss_before);
        l.set(
            "study.rss_bytes_per_program",
            grown as f64 / out.units.max(1) as f64,
        );
        for (span, metric) in STAGES {
            l.set(metric, per(traced.self_ns.get(span).copied().unwrap_or(0)));
        }
        // Coverage: the share of cell time inside the program's own spans.
        let cell_self: u64 = traced
            .self_ns
            .iter()
            .filter(|(name, _)| name.starts_with("cell."))
            .map(|(_, ns)| ns)
            .sum();
        if traced.cell_ns > 0 {
            l.set(
                "trace.coverage",
                1.0 - cell_self as f64 / traced.cell_ns as f64,
            );
        }
    }
    out
}

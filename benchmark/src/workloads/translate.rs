//! `translate_paged` and `translate_mem`: the Figure 4.4 restructuring
//! (promote DEPT-NAME to an owner record) translating a seeded company
//! corpus of 50,050 records, back to back, each target dropped before the
//! next pass.
//!
//! `translate_paged` stores the corpus with `NetworkDb::store` into
//! `new_paged(schema, 4096, 16)`: a 64 KiB pool against a heap of about
//! 800 pages (3 MB), about 2% of the data, so the heap, buffer pool and
//! file layers do most of the work. `translate_mem` stores the same corpus
//! into `NetworkDb::new`: the in-memory baseline at the same scale. Both
//! must produce the same target fingerprint for a seed.
//!
//! Unit of work: a source record translated. Operation: one translation.

use std::time::Instant;

use dbpc_corpus::named;
use dbpc_obs::metrics::local_snapshot;
use dbpc_obs::MetricsFrame;
use dbpc_restructure::stats::{RECORDS_STORED, SCHEMA_CLONES};
use dbpc_storage::NetworkDb;

use super::{company_mem, disk_layers, fill_corpus, ns_since, Corpus, Ctx, Outcome};
use crate::host;
use crate::stats::{derive_seed, percentile, sorted, SplitMix64};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Paged,
    Mem,
}

const PAGE: usize = 4096;

/// Corpus builds timed as set-up; the last one is translated.
const BUILDS: usize = 9;

struct Sizes {
    divisions: usize,
    emps: usize,
    pool: usize,
    probes: usize,
}

const FULL: Sizes = Sizes {
    divisions: 50,
    emps: 1000,
    pool: 16,
    probes: 20_000,
};
const SMOKE: Sizes = Sizes {
    divisions: 8,
    emps: 50,
    pool: 4,
    probes: 2_000,
};

fn empty(backend: Backend, pool: usize) -> NetworkDb {
    match backend {
        Backend::Mem => company_mem(),
        Backend::Paged => NetworkDb::new_paged(named::company_schema(), PAGE, pool)
            .unwrap_or_else(|e| panic!("paged database must open: {e}")),
    }
}

/// Check one translated target against the corpus; returns its
/// fingerprint.
fn check(out: &mut Outcome, target: &NetworkDb, corpus: &Corpus, divisions: usize) -> u64 {
    let counts = [
        ("DIV", divisions),
        ("DEPT", corpus.dept_pairs),
        ("EMP", corpus.emp_ids.len()),
    ];
    for (rtype, want) in counts {
        let got = target.type_cardinality(rtype) as usize;
        out.check(got == want, || {
            format!("translated target holds {got} {rtype} records, expected {want}")
        });
    }
    target.fingerprint()
}

/// Counter deltas of the traced passes.
#[derive(Default)]
struct Traced {
    records: u64,
    passes: u64,
    frame: MetricsFrame,
}

pub fn run(ctx: &Ctx, backend: Backend) -> Outcome {
    let sizes = if ctx.smoke { &SMOKE } else { &FULL };
    let records = sizes.divisions * (sizes.emps + 1);
    let corpus_seed = derive_seed(ctx.seed, 7);
    let xf = named::fig_4_4_restructuring();
    let mut out = Outcome::default();

    // Set-up: build the corpus nine times and keep the last. A traced run
    // also times every `store` call of the last build.
    let mut store_ns = Vec::new();
    let mut built = None;
    let mut ram_per_record = 0.0;
    for i in 0..BUILDS {
        drop(built.take());
        out.probe_host();
        let timed = (ctx.tracer.enabled() && i == BUILDS - 1).then_some(&mut store_ns);
        let rss = host::rss_bytes();
        let t = Instant::now();
        let mut src = empty(backend, sizes.pool);
        let corpus = fill_corpus(&mut src, sizes.divisions, sizes.emps, corpus_seed, timed);
        out.setup(t.elapsed().as_secs_f64());
        // Freed memory is reused by later builds, so only the first build
        // shows what a corpus holds in RAM outside the pool.
        if i == 0 {
            let pool_bytes = match backend {
                Backend::Paged => (sizes.pool * PAGE) as u64,
                Backend::Mem => 0,
            };
            let grown = host::rss_bytes().saturating_sub(rss);
            ram_per_record = grown.saturating_sub(pool_bytes) as f64 / records as f64;
        }
        built = Some((src, corpus));
    }
    let (src, corpus) = built.expect("the set-ups ran");

    let mut traced = Traced::default();
    let mut last_target = None;
    let mut first_fp = None;
    let deadline = ctx.deadline();
    let mut pass = 0u64;
    while pass == 0 || Instant::now() < deadline {
        drop(last_target.take());
        out.probe_host();
        let on = ctx.trace_op(pass);
        let before = on.then(local_snapshot);
        let t = Instant::now();
        let result = ctx.tracer.span("translate.pass", pass, None, |root| {
            ctx.tracer
                .span("restructure.translate", pass, root, |_| xf.translate(&src))
        });
        let ns = ns_since(t);
        out.attempted += records as u64;
        let target = match result {
            Ok(target) => target,
            Err(e) => {
                out.failed += records as u64;
                out.check(false, || format!("translation failed: {e}"));
                pass += 1;
                continue;
            }
        };
        if let Some(before) = before {
            traced.frame.merge(&local_snapshot().since(&before));
            traced.records += records as u64;
            traced.passes += 1;
        }
        out.segment(records as u64, ns / 1e9);
        out.latency(ns);
        out.split(ctx, on, ns);
        let fp = check(&mut out, &target, &corpus, sizes.divisions);
        match first_fp {
            None => first_fp = Some(fp),
            Some(first) => {
                if fp != first {
                    out.failed += records as u64;
                    out.check(false, || {
                        format!("pass {pass} fingerprint {fp:x} != {first:x}")
                    });
                }
            }
        }
        last_target = Some(target);
        pass += 1;
    }
    out.probe_host();
    ctx.tracer.set_active(true);
    out.digest = first_fp.unwrap_or(0);
    cross_backend_check(&mut out, ctx.seed);

    if ctx.tracer.enabled() {
        let store = sorted(&store_ns);
        let decile = |slice: &[f64]| slice.iter().sum::<f64>() / slice.len().max(1) as f64 / 1e3;
        let tenth = store_ns.len() / 10;
        let (get, probe_failures) = last_target
            .as_ref()
            .map_or((Vec::new(), 0), |t| probe(t, sizes.probes, ctx.seed));
        out.check(probe_failures == 0, || {
            format!("{probe_failures} get probes on the target failed")
        });
        let f = &traced.frame;
        let per_pass = |name| f.counter(name) as f64 / traced.passes.max(1) as f64;
        let l = &mut out.layers;
        let us = |v: &[f64], q| percentile(v, q).unwrap_or(0.0) / 1e3;
        l.set("storage.store_us.p50", us(&store, 50.0));
        l.set("storage.store_us.p99", us(&store, 99.0));
        l.set(
            "storage.store_us.first_decile_mean",
            decile(&store_ns[..tenth]),
        );
        l.set(
            "storage.store_us.last_decile_mean",
            decile(&store_ns[store_ns.len() - tenth..]),
        );
        l.set("storage.get_us.p50", us(&get, 50.0));
        l.set("storage.get_us.p99", us(&get, 99.0));
        l.set("storage.ram_bytes_per_record", ram_per_record);
        l.set("restructure.records_stored", per_pass(RECORDS_STORED));
        l.set("restructure.schema_clones", per_pass(SCHEMA_CLONES));
        disk_layers(l, f, traced.records);
        if let Some(heap) = src.heap_stats() {
            l.set(
                "heap.bytes_per_record",
                (heap.pages * PAGE as u64) as f64 / records as f64,
            );
        }
        let spans = ctx.tracer.spans();
        if let Some(c) = crate::trace::coverage(&spans, "translate.pass") {
            l.set("trace.coverage", c);
        }
    }
    out
}

/// Latencies (ns, ascending) of `n` seeded `get` calls on the EMP records
/// of the translated target, and how many of them failed.
fn probe(target: &NetworkDb, n: usize, seed: u64) -> (Vec<f64>, usize) {
    let ids = target.records_of_type("EMP");
    if ids.is_empty() {
        return (Vec::new(), n);
    }
    let mut rng = SplitMix64::new(derive_seed(seed, 9));
    let mut ns = Vec::with_capacity(n);
    let mut failed = 0;
    for _ in 0..n {
        let id = ids[rng.below(ids.len() as u64) as usize];
        let t = Instant::now();
        let rec = target.get(id);
        ns.push(ns_since(t));
        failed += usize::from(rec.is_err());
    }
    (sorted(&ns), failed)
}

/// The same small seeded corpus through both backends must translate to
/// the same target.
fn cross_backend_check(out: &mut Outcome, seed: u64) {
    let fps: Vec<u64> = [Backend::Mem, Backend::Paged]
        .into_iter()
        .map(|b| {
            let mut db = empty(b, 4);
            fill_corpus(&mut db, 4, 60, derive_seed(seed, 11), None);
            named::fig_4_4_restructuring()
                .translate(&db)
                .map_or(0, |t| t.fingerprint())
        })
        .collect();
    out.check(fps[0] != 0 && fps[0] == fps[1], || {
        format!(
            "paged and in-memory translations differ: {:x} vs {:x}",
            fps[1], fps[0]
        )
    });
}

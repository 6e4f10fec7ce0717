//! Observability overhead: the recording premium on the E2 batch pipeline.
//!
//! The obs layer's contract is "always on, never felt": every `Stage`
//! boundary opens a span and every work counter records into the ambient
//! sheet on the production path, so the premium of recording — versus the
//! same study with `dbpc_obs::set_recording(false)` — must stay within 5 %.
//! Both configurations must render the byte-identical study matrix:
//! recording is an observer, never a participant.
//!
//! Measurement: the two configurations run in alternating rounds
//! ([`paired::ratio`]), one study each per round, and the gate reads the
//! median of the per-round ratios, so host drift lands on both sides; the
//! artifact reports every round's ratio.
//!
//! The same pairing prices recording on the conversion service: a
//! 1,000-job, 2-worker run of E19's job mix with recording on against
//! off. That premium is recorded, not gated; both runs must return the
//! byte-identical outcomes.
//!
//! Emits `BENCH_observability.json` with the timed comparisons and the
//! recorded run's span/metric census.
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): one tiny round of each comparison,
//! matrix, outcome and census assertions active, no artifact written and
//! no premium gate (a single pair's wall clock is noise).

use std::time::Duration;

use dbpc_bench::paired::{self, timed};
use dbpc_bench::{artifact, service_builder, service_jobs, submit_all};
use dbpc_convert::service::{ServiceConfig, Ticket};
use dbpc_corpus::harness::{success_rate_study_config, StudyConfig};
use dbpc_obs::json::Json;

const PREMIUM_BUDGET: f64 = 0.05;
const SERVICE_WORKERS: usize = 2;

/// Run `f` with recording switched to `on`, then switch it back on.
fn recording<T>(on: bool, f: impl FnOnce() -> T) -> T {
    dbpc_obs::set_recording(on);
    let out = f();
    dbpc_obs::set_recording(true);
    out
}

fn main() {
    let smoke = artifact::smoke();
    let (samples, rounds, jobs_n, service_rounds) = if smoke {
        (1, 1, 120, 1)
    } else {
        (4, 75, 1000, 5)
    };
    let seed = 1979u64;
    let config = StudyConfig {
        threads: 1,
        ..StudyConfig::new(samples, seed)
    };

    // Warm the process-wide analysis cache once so both timed
    // configurations run against the same steady state (each study builds
    // and drops its own program and ground-truth memos).
    let recorded = success_rate_study_config(&config);
    let silent = recording(false, || success_rate_study_config(&config));

    // Recording is an observer: the matrix is identical with it off.
    assert_eq!(recorded.rows, silent.rows);
    assert_eq!(recorded.to_string(), silent.to_string());
    // The recorded run carries a real trace; the silent run's captures are
    // bare roots and its frame tallies nothing (the metric keys may linger
    // in the thread-local sheet from the warm run, but every delta is zero).
    assert!(recorded.report.node_count() > silent.report.node_count());
    assert!(recorded.profile.cells_done > 0);
    assert!(recorded.profile.equivalence_runs > 0);
    assert_eq!(silent.profile.cells_done, 0);
    assert_eq!(silent.profile.equivalence_runs, 0);

    let study_arm = |on| {
        let (config, recorded) = (&config, &recorded);
        move || -> Duration {
            let (d, s) = recording(on, || timed(|| success_rate_study_config(config)));
            assert_eq!(s.rows, recorded.rows);
            d
        }
    };
    let study = paired::ratio(rounds, study_arm(true), study_arm(false));

    // ---- The service's recording premium (recorded, not gated) ------------
    let jobs = service_jobs(jobs_n);
    let config = || ServiceConfig {
        workers: SERVICE_WORKERS,
        ..ServiceConfig::default()
    };
    let serial = service_builder(config()).run_serial(&jobs).unwrap();
    let want: Vec<_> = serial.iter().map(|o| (&o.report, &o.level)).collect();
    let service_arm = |on| {
        let (jobs, want) = (&jobs, &want);
        move || -> Duration {
            let (d, outcomes) = recording(on, || {
                let svc = service_builder(config()).start();
                let run = timed(|| {
                    let tickets = submit_all(&svc, jobs);
                    tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>()
                });
                svc.shutdown();
                run
            });
            let got: Vec<_> = outcomes.iter().map(|o| (&o.report, &o.level)).collect();
            assert!(got == *want, "recording changed a service outcome");
            d
        }
    };
    let service = paired::ratio(service_rounds, service_arm(true), service_arm(false));

    // ---- The study's premium gate ------------------------------------------
    let premium = study.ratio - 1.0;
    if !smoke {
        assert!(
            premium <= PREMIUM_BUDGET,
            "recording premium {:.2}% exceeds the {:.0}% budget (per-round ratios: {:?}; \
             the service's premium, not gated: {:.2}%)",
            premium * 100.0,
            PREMIUM_BUDGET * 100.0,
            study.ratios,
            (service.ratio - 1.0) * 100.0
        );
    }

    artifact::emit(
        "observability",
        Json::obj([
            ("samples_per_cell", Json::from(samples)),
            ("seed", seed.into()),
            ("rounds", rounds.into()),
            ("on_vs_off", study.json("recording_on", "recording_off")),
            ("premium", premium.into()),
            ("premium_budget", PREMIUM_BUDGET.into()),
            ("service_premium", (service.ratio - 1.0).into()),
            (
                "service",
                Json::obj([
                    ("jobs", Json::from(jobs_n)),
                    ("workers", SERVICE_WORKERS.into()),
                    ("rounds", service_rounds.into()),
                    ("on_vs_off", service.json("recording_on", "recording_off")),
                    ("identical_outcomes", true.into()),
                ]),
            ),
            ("span_nodes", recorded.report.node_count().into()),
            ("metrics", recorded.report.metrics.len().into()),
        ]),
    );
}

//! Observability overhead: the recording premium on the E2 batch pipeline.
//!
//! The obs layer's contract is "always on, never felt": every `Stage`
//! boundary opens a span and every work counter records into the ambient
//! sheet on the production path, so the premium of recording — versus the
//! same study with `dbpc_obs::set_recording(false)` — must stay within 5 %.
//! Both configurations must render the byte-identical study matrix:
//! recording is an observer, never a participant.
//!
//! Measurement: shared runners drift (frequency scaling, CPU steal) on the
//! second scale, which swamps a millisecond-scale premium when the two
//! configurations are timed in separate blocks. Each round therefore
//! interleaves recording-on and recording-off runs pairwise (alternating
//! which goes first) and compares the *summed* times, so drift lands on
//! both sides; the gate takes the minimum premium over several rounds as
//! the least-noise-contaminated estimate, and the artifact reports every
//! round.
//!
//! Emits `BENCH_observability.json` with the timed comparison and the
//! recorded run's span/metric census.
//!
//! Smoke mode (`DBPC_BENCH_SMOKE=1`): one tiny iteration, matrix-identity
//! and census assertions active, no artifact written and no premium gate
//! (a single pair's wall clock is noise).

use std::time::Instant;

use dbpc_bench::artifact;
use dbpc_corpus::harness::{success_rate_study_config, StudyConfig};
use dbpc_obs::json::Json;

const PREMIUM_BUDGET: f64 = 0.05;

fn main() {
    let smoke = artifact::smoke();
    let (samples, pairs, rounds) = if smoke { (1, 1, 1) } else { (4, 25, 3) };
    let seed = 1979u64;
    let config = StudyConfig {
        threads: 1,
        ..StudyConfig::new(samples, seed)
    };

    // Warm the process-wide memo caches once so both timed configurations
    // run against the same steady state.
    let recorded = success_rate_study_config(&config);
    dbpc_obs::set_recording(false);
    let silent = success_rate_study_config(&config);
    dbpc_obs::set_recording(true);

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

    let time_on = || {
        let t = Instant::now();
        let s = success_rate_study_config(&config);
        let ns = t.elapsed().as_nanos();
        assert_eq!(s.rows, recorded.rows);
        ns
    };
    let time_off = || {
        dbpc_obs::set_recording(false);
        let t = Instant::now();
        let s = success_rate_study_config(&config);
        let ns = t.elapsed().as_nanos();
        dbpc_obs::set_recording(true);
        assert_eq!(s.rows, recorded.rows);
        ns
    };

    let mut round_premiums: Vec<f64> = Vec::with_capacity(rounds);
    let (mut best_on, mut best_off) = (0u128, 0u128);
    for _ in 0..rounds {
        let (mut on_sum, mut off_sum) = (0u128, 0u128);
        for i in 0..pairs {
            let (on, off) = if i % 2 == 0 {
                let on = time_on();
                (on, time_off())
            } else {
                let off = time_off();
                (time_on(), off)
            };
            on_sum += on;
            off_sum += off;
        }
        let premium = on_sum as f64 / off_sum.max(1) as f64 - 1.0;
        if round_premiums.iter().all(|p| premium < *p) {
            best_on = on_sum;
            best_off = off_sum;
        }
        round_premiums.push(premium);
    }
    let premium = round_premiums.iter().copied().fold(f64::MAX, f64::min);
    if !smoke {
        assert!(
            premium <= PREMIUM_BUDGET,
            "recording premium {:.2}% exceeds the {:.0}% budget in every round \
             (per-round: {:?})",
            premium * 100.0,
            PREMIUM_BUDGET * 100.0,
            round_premiums
        );
    }

    artifact::emit(
        "observability",
        Json::obj([
            ("samples_per_cell", Json::from(samples)),
            ("seed", seed.into()),
            ("pairs_per_round", pairs.into()),
            ("round_premiums", round_premiums.into()),
            ("recording_on_sum_ns", best_on.into()),
            ("recording_off_sum_ns", best_off.into()),
            ("premium", premium.into()),
            ("premium_budget", PREMIUM_BUDGET.into()),
            ("span_nodes", recorded.report.node_count().into()),
            ("metrics", recorded.report.metrics.len().into()),
        ]),
    );
}

//! # dbpc-bench
//!
//! Shared workloads for the benchmark harness. Every bench times through
//! [`paired`]: two arms in alternating rounds, judged on the median of the
//! per-round ratios ([`paired::ratio`]), and a one-shot with
//! [`paired::timed`]. The paper's latency-shaped claims (EXPERIMENTS.md E1,
//! E3–E8) are gated by one bench, `paper_shapes`; the table-shaped
//! experiments have a report binary each (E2 `success_rate`, E9
//! `cost_model`). Benches that leave a `BENCH_*.json` artifact write it
//! through [`artifact`].

use dbpc_convert::report::AutoAnalyst;
use dbpc_convert::service::{ConversionService, CtxId, ServiceBuilder, ServiceConfig, Ticket};
use dbpc_convert::Supervisor;
use dbpc_corpus::gen::{generate_program, ProgramClass};
use dbpc_corpus::named;
use dbpc_dml::host::{parse_program, Program};
use dbpc_engine::Inputs;
use dbpc_restructure::Restructuring;
use dbpc_storage::NetworkDb;

/// The standard retrieval workload of experiment E1: a filtered,
/// division-scoped report plus a whole-database aggregate.
pub fn retrieval_workload() -> Program {
    parse_program(
        "PROGRAM WORKLOAD;
  FIND E := FIND(EMP: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'), DIV-EMP, EMP(DEPT-NAME = 'SALES'));
  FOR EACH R IN E DO
    WRITE FILE 'OUT' R.EMP-NAME, R.AGE;
  END FOR;
  FIND ALL-E := FIND(EMP: SYSTEM, ALL-DIV, DIV, DIV-EMP, EMP(AGE > 40));
  PRINT COUNT(ALL-E);
END PROGRAM;",
    )
    .expect("workload parses")
}

/// The update workload of experiments E1/E5: hires and a modification.
pub fn update_workload() -> Program {
    parse_program(
        "PROGRAM UPDATES;
  FIND D := FIND(DIV: SYSTEM, ALL-DIV, DIV(DIV-NAME = 'MACHINERY'));
  STORE EMP (EMP-NAME := 'ZZ-HIRE-1', DEPT-NAME := 'SALES', AGE := 25) CONNECT TO DIV-EMP OF D;
  STORE EMP (EMP-NAME := 'ZZ-HIRE-2', DEPT-NAME := 'ENG', AGE := 31) CONNECT TO DIV-EMP OF D;
  FIND E := FIND(EMP: D, DIV-EMP, EMP(EMP-NAME = 'ZZ-HIRE-1'));
  MODIFY E SET (AGE := 26);
  PRINT 'DONE';
END PROGRAM;",
    )
    .expect("workload parses")
}

/// Standard scales for the strategy comparison (divisions, depts, emps/div).
pub const SCALES: &[(usize, usize, usize, &str)] =
    &[(4, 4, 25, "1e2"), (4, 4, 250, "1e3"), (4, 4, 2500, "1e4")];

/// Build the target database (Figure 4.4 form) for a scale.
pub fn target_db(divs: usize, depts: usize, emps: usize) -> (NetworkDb, Restructuring) {
    let r = named::fig_4_4_restructuring();
    let src = named::company_db(divs, depts, emps);
    let tgt = r.translate(&src).expect("translation");
    (tgt, r)
}

/// Convert a program for the Figure 4.2→4.4 restructuring.
pub fn convert_for_fig44(program: &Program, optimize: bool) -> Program {
    let schema = named::company_schema();
    let supervisor = if optimize {
        Supervisor::new()
    } else {
        Supervisor::without_optimizer()
    };
    supervisor
        .convert(
            &schema,
            &named::fig_4_4_restructuring(),
            program,
            &mut AutoAnalyst,
        )
        .expect("analyzer accepts")
        .program
        .expect("workload converts")
}

/// The seed of the conversion service's job mix ([`service_jobs`]).
pub const SERVICE_SEED: u64 = 1979;

/// The conversion service's design traffic (E19): `n` jobs on context 0,
/// 80% read-only and 20% mutating, deterministic per [`SERVICE_SEED`].
/// Like real sustained traffic, the mix replays a bounded corpus of
/// distinct programs (the seed cycles) rather than inventing a fresh
/// program per request — repeats are what the service's ground-truth memo
/// amortizes. Every job still carries a distinct fault/identity key.
pub fn service_jobs(n: usize) -> Vec<(CtxId, Program, u64)> {
    const READ: [ProgramClass; 4] = [
        ProgramClass::PlainReport,
        ProgramClass::SortedReport,
        ProgramClass::AggregateOnly,
        ProgramClass::VirtualRef,
    ];
    const MUTATE: [ProgramClass; 4] = [
        ProgramClass::StoreEmp,
        ProgramClass::ModifyAge,
        ProgramClass::ModifyDept,
        ProgramClass::DeleteEmp,
    ];
    let seeds = (n / 20).max(8);
    (0..n)
        .map(|i| {
            let class = if i % 5 == 4 {
                MUTATE[i % MUTATE.len()]
            } else {
                READ[i % READ.len()]
            };
            let seed = SERVICE_SEED
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add((i % seeds) as u64);
            let key = SERVICE_SEED.wrapping_add(i as u64);
            (0, generate_program(class, seed), key)
        })
        .collect()
}

/// A conversion service under `config` with the company context (the
/// Figure 4.2→4.4 restructuring over a small company database) as
/// context 0, the one [`service_jobs`] targets.
pub fn service_builder(config: ServiceConfig) -> ServiceBuilder {
    let mut b = ServiceBuilder::new(config);
    b.register_context(
        &named::company_schema(),
        &named::fig_4_4_restructuring(),
        named::company_db(2, 2, 6),
        Inputs::new().with_terminal(&["RETRIEVE"]),
    )
    .expect("the company context registers");
    b
}

/// Submit every job of `jobs` to `svc` in order, through one session.
pub fn submit_all(svc: &ConversionService, jobs: &[(CtxId, Program, u64)]) -> Vec<Ticket> {
    let session = svc.session();
    (jobs.iter())
        .map(|(c, p, k)| session.submit(*c, p.clone(), *k).expect("submit"))
        .collect()
}

/// The one writer of the `BENCH_<bench>.json` artifacts at the repo root.
pub mod artifact {
    use dbpc_obs::json::Json;

    /// Smoke mode (`DBPC_BENCH_SMOKE=1`): a bench runs a small workload with
    /// every assertion active and writes no artifact.
    pub fn smoke() -> bool {
        std::env::var("DBPC_BENCH_SMOKE").is_ok_and(|v| v == "1")
    }

    /// The members every artifact opens with.
    pub fn header(bench: &str) -> Vec<(String, Json)> {
        let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        vec![
            ("bench".to_string(), bench.into()),
            ("smoke".to_string(), smoke().into()),
            ("host_threads".to_string(), host_threads.into()),
        ]
    }

    /// Print the artifact — [`header`] followed by the members of `body` —
    /// and, outside smoke mode, write it to `BENCH_<bench>.json`.
    pub fn emit(bench: &str, body: Json) {
        let Json::Obj(members) = body else {
            panic!("{bench}: an artifact body is a JSON object");
        };
        let mut doc = header(bench);
        doc.extend(members);
        let text = Json::Obj(doc).pretty() + "\n";
        print!("{text}");
        if smoke() {
            println!("smoke mode: artifact not written");
        } else {
            let out = format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
            std::fs::write(&out, text).unwrap();
            println!("wrote {out}");
        }
    }
}

/// Paired timing of two arms in one process, so that drift in the host's
/// speed over a run moves both arms of a comparison alike. The only clock
/// the benches read is [`paired::timed`]'s.
pub mod paired {
    use dbpc_obs::json::Json;
    use std::time::{Duration, Instant};

    /// What [`ratio`] measured.
    #[derive(Debug, Clone)]
    pub struct Paired {
        /// The median of the per-round ratios `a / b`.
        pub ratio: f64,
        /// The median time of arm `a`.
        pub a: Duration,
        /// The median time of arm `b`.
        pub b: Duration,
        /// Each round's ratio `a / b`, in round order.
        pub ratios: Vec<f64>,
    }

    impl Paired {
        /// The artifact form: the ratio, each arm's median time under its
        /// name (`<a>_ns`, `<b>_ns`) and the per-round ratios.
        pub fn json(&self, a: &str, b: &str) -> Json {
            Json::obj([
                ("ratio".to_string(), Json::from(self.ratio)),
                (format!("{a}_ns"), self.a.as_nanos().into()),
                (format!("{b}_ns"), self.b.as_nanos().into()),
                ("round_ratios".to_string(), self.ratios.clone().into()),
            ])
        }
    }

    /// Time `f`, handing back its result so that dropping it stays
    /// outside the measurement.
    pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
        let t = Instant::now();
        let out = f();
        (t.elapsed(), out)
    }

    /// Run each arm once untimed, then once each in `rounds` rounds: `a`
    /// first in even rounds and `b` first in odd ones, so neither arm
    /// always inherits the other's cache state. Each call returns the
    /// time it measured (see [`timed`]), which leaves an arm's set-up,
    /// such as cloning a database, outside its time.
    pub fn ratio(
        rounds: usize,
        mut a: impl FnMut() -> Duration,
        mut b: impl FnMut() -> Duration,
    ) -> Paired {
        assert!(rounds > 0, "a paired ratio needs a round");
        a();
        b();
        let (mut ta, mut tb, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..rounds {
            let (x, y) = if round % 2 == 0 {
                let x = a();
                (x, b())
            } else {
                let y = b();
                (a(), y)
            };
            ratios.push(x.as_secs_f64() / y.as_secs_f64());
            ta.push(x.as_secs_f64());
            tb.push(y.as_secs_f64());
        }
        Paired {
            ratio: median(&mut ratios.clone()),
            a: Duration::from_secs_f64(median(&mut ta)),
            b: Duration::from_secs_f64(median(&mut tb)),
            ratios,
        }
    }

    /// The median of `xs`: the middle value, or the mean of the two middle
    /// values of an even count.
    pub fn median(xs: &mut [f64]) -> f64 {
        assert!(!xs.is_empty(), "the median of nothing");
        xs.sort_by(f64::total_cmp);
        let mid = xs.len() / 2;
        if xs.len() % 2 == 1 {
            xs[mid]
        } else {
            (xs[mid - 1] + xs[mid]) / 2.0
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::cell::RefCell;

        /// An arm that logs its calls and returns the untimed warm-up's
        /// time, then `script`'s times in turn, in microseconds.
        fn arm<'a>(
            name: char,
            script: &'a [u64],
            log: &'a RefCell<Vec<char>>,
        ) -> impl FnMut() -> Duration + 'a {
            let mut times = std::iter::once(&1).chain(script);
            move || {
                log.borrow_mut().push(name);
                Duration::from_micros(*times.next().expect("a scripted call"))
            }
        }

        fn scripted(a_us: &[u64], b_us: &[u64]) -> (Paired, Vec<char>) {
            let log = RefCell::new(Vec::new());
            let paired = ratio(a_us.len(), arm('a', a_us, &log), arm('b', b_us, &log));
            (paired, log.into_inner())
        }

        #[test]
        fn the_first_arm_alternates_round_by_round() {
            let (_, order) = scripted(&[1; 4], &[1; 4]);
            // The untimed warm-up, then a, b, a, b first in turn.
            let pairs: Vec<String> = order.chunks(2).map(String::from_iter).collect();
            assert_eq!(pairs, ["ab", "ab", "ba", "ab", "ba"]);
        }

        #[test]
        fn the_ratio_is_the_median_of_the_per_round_ratios() {
            let close = |x: f64, want: f64| (x - want).abs() < 1e-9;
            // Per-round ratios 3, 0.5, 2: median 2, where the arms'
            // medians (30 / 20) would give 1.5.
            let (p, _) = scripted(&[30, 10, 40], &[10, 20, 20]);
            assert!(close(p.ratio, 2.0), "{p:?}");
            assert_eq!(p.ratios, [3.0, 0.5, 2.0], "rounds in order");
            assert!(close(p.a.as_secs_f64(), 30e-6) && close(p.b.as_secs_f64(), 20e-6));
            // An even count: ratios 3, 0.5, 2, 1 give (1 + 2) / 2, where
            // the arms' medians (20 / 15) would give 1.33.
            let (p, _) = scripted(&[30, 10, 40, 10], &[10, 20, 20, 10]);
            assert!(close(p.ratio, 1.5), "{p:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpc_engine::host_exec::run_host;
    use dbpc_engine::Inputs;

    #[test]
    fn workloads_run_on_source_and_target() {
        let mut src = named::company_db(4, 4, 25);
        let t = run_host(&mut src, &retrieval_workload(), Inputs::new()).unwrap();
        assert!(!t.is_empty());

        let (mut tgt, _) = target_db(4, 4, 25);
        let conv = convert_for_fig44(&retrieval_workload(), true);
        let t2 = run_host(&mut tgt, &conv, Inputs::new()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn update_workload_converts_and_runs() {
        let (mut tgt, _) = target_db(4, 4, 25);
        let conv = convert_for_fig44(&update_workload(), true);
        let t = run_host(&mut tgt, &conv, Inputs::new()).unwrap();
        assert_eq!(t.terminal_lines(), vec!["DONE"]);
    }
}

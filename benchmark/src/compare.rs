//! `compare DIR_A DIR_B`: judge run set B against run set A (each a
//! directory of `run-all` outputs) under the bounds in `BENCHMARK.json`,
//! read from the working directory (the repository root).
//!
//! For each workload and end-to-end metric it prints both sides' median
//! and quartiles and a verdict:
//!
//! - `unresolved` when either side's interquartile range exceeds the bound
//!   (unless every B run beats, or loses to, every A run);
//! - `worse` when B's median is worse than A's by more than the bound;
//! - `better` only under the pair rule: B wins at least 9 in 10 of the
//!   pairs (A's i-th run against B's i-th run, ties counting for neither)
//!   and the medians differ by more than A's interquartile range;
//! - `same` otherwise.
//!
//! It also shows the p99 latency every run records (not gated: on a shared
//! host its spread is wider than any useful bound), and flags outputs
//! whose digest differs between runs of one seed, incorrect runs, and any
//! rise in the failed/attempted rate.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::stats::{error_rate, quartiles};

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against `a` (runs in order) for a metric where `better` is
/// good, allowed to worsen by `bound` (a share of A's median).
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some([a1, am, a3]), Some([b1, bm, b3])) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    // Positive when `x` is better than `y`.
    let gain = |x: f64, y: f64| match better {
        Better::Higher => x - y,
        Better::Lower => y - x,
    };
    let spread = |q1: f64, q3: f64, m: f64| (q3 - q1) / m.abs().max(f64::MIN_POSITIVE);
    if spread(a1, a3, am) > bound || spread(b1, b3, bm) > bound {
        let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| f(x, y)));
        return if all(&|x, y| gain(y, x) > 0.0) {
            Verdict::Better
        } else if all(&|x, y| gain(y, x) < 0.0) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let change = gain(bm, am) / am.abs().max(f64::MIN_POSITIVE);
    if change < -bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| gain(y, x) > 0.0).count();
    if change > 0.0 && wins * 10 >= pairs * 9 && (bm - am).abs() > a3 - a1 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

struct SpecMetric {
    name: String,
    better: Better,
    bound: f64,
}

fn load_spec(path: &Path) -> Result<Vec<SpecMetric>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                _ => return Err(format!("{name}: better must be higher or lower")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(SpecMetric {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// One run's output: the info line and the result line.
struct Run {
    file: String,
    workload: String,
    seed: f64,
    digest: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    p99_ms: Option<f64>,
}

fn load_run(path: &Path) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let [.., info, result] = lines[..] else {
        return Err("needs an info line and a result line".to_string());
    };
    let info = json::parse(info)?;
    let result = json::parse(result)?;
    let field = |j: &Json, k: &str| j.get(k).cloned().ok_or(format!("no {k}"));
    let count = |k: &str| field(&result, k).map(|v| v.as_f64().unwrap_or(0.0) as u64);
    let metrics = field(&result, "metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    Ok(Run {
        file: path.display().to_string(),
        workload: field(&info, "workload")?.as_str().unwrap_or("").to_string(),
        seed: field(&info, "seed")?.as_f64().unwrap_or(f64::NAN),
        digest: field(&info, "output_digest")?
            .as_str()
            .unwrap_or("")
            .to_string(),
        correct: field(&result, "correct")?.as_bool().unwrap_or(false),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
        p99_ms: info.get("latency_p99_ms").and_then(Json::as_f64),
    })
}

fn load_dir(dir: &Path) -> Result<Vec<Run>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "out"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| load_run(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

fn fmt_side(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, m, q3]) => format!("{m:>12.4} [{q1:.4}, {q3:.4}]"),
        None => format!("{:>12}", "-"),
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [dir_a, dir_b] = args else {
        return Err("usage: compare DIR_A DIR_B".to_string());
    };
    let spec = load_spec(Path::new("BENCHMARK.json"))?;
    let a = load_dir(Path::new(dir_a))?;
    let b = load_dir(Path::new(dir_b))?;
    let mut bad = false;

    println!(
        "{:<16} {:<18} {:>34} {:>34} {:>9}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    let workloads: BTreeSet<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    for w in workloads {
        let ra: Vec<&Run> = a.iter().filter(|r| r.workload == w).collect();
        let rb: Vec<&Run> = b.iter().filter(|r| r.workload == w).collect();
        if rb.is_empty() {
            println!("{w:<16} (no runs in {dir_b})");
            continue;
        }
        for m in &spec {
            let va: Vec<f64> = ra
                .iter()
                .filter_map(|r| r.metrics.get(&m.name).copied())
                .collect();
            let vb: Vec<f64> = rb
                .iter()
                .filter_map(|r| r.metrics.get(&m.name).copied())
                .collect();
            let v = verdict(&va, &vb, m.better, m.bound);
            bad |= v == Verdict::Worse;
            let change = match (quartiles(&va), quartiles(&vb)) {
                (Some([_, ma, _]), Some([_, mb, _])) if ma != 0.0 => {
                    format!("{:+.2}%", 100.0 * (mb - ma) / ma)
                }
                _ => "-".to_string(),
            };
            println!(
                "{w:<16} {:<18} {:>34} {:>34} {change:>9}  {}",
                m.name,
                fmt_side(&va),
                fmt_side(&vb),
                v.name()
            );
        }
        let p99 = |runs: &[&Run]| runs.iter().filter_map(|r| r.p99_ms).collect::<Vec<_>>();
        println!(
            "{w:<16} {:<18} {:>34} {:>34} {:>9}  not gated",
            "latency_p99_ms",
            fmt_side(&p99(&ra)),
            fmt_side(&p99(&rb)),
            ""
        );
        let rate = |runs: &[&Run]| {
            error_rate(
                runs.iter().map(|r| r.failed).sum(),
                runs.iter().map(|r| r.attempted).sum(),
            )
        };
        match (rate(&ra), rate(&rb)) {
            (Ok(ea), Ok(eb)) => {
                let worse = eb > ea;
                bad |= worse;
                println!(
                    "{w:<16} {:<18} {ea:>34} {eb:>34} {:>9}  {}",
                    "error_rate",
                    "",
                    if worse { "worse" } else { "same" }
                );
            }
            (ea, eb) => {
                bad = true;
                println!("{w:<16} error_rate cannot be formed: A {ea:?}, B {eb:?}");
            }
        }
    }

    // Outputs must not depend on anything but the seed.
    let mut digests: BTreeMap<(&str, u64), BTreeSet<&str>> = BTreeMap::new();
    for r in a.iter().chain(&b) {
        digests
            .entry((r.workload.as_str(), r.seed.to_bits()))
            .or_default()
            .insert(r.digest.as_str());
        if !r.correct {
            bad = true;
            println!("INCORRECT run: {}", r.file);
        }
    }
    for ((w, seed), set) in &digests {
        if set.len() > 1 {
            bad = true;
            println!(
                "DIGEST MISMATCH: {w} seed {} has {} digests: {set:?}",
                f64::from_bits(*seed),
                set.len()
            );
        }
    }
    // The two translations of one corpus must agree.
    for seed in digests.keys().map(|(_, s)| *s).collect::<BTreeSet<_>>() {
        let paged = digests.get(&("translate_paged", seed));
        let mem = digests.get(&("translate_mem", seed));
        if let (Some(p), Some(m)) = (paged, mem) {
            if p != m {
                bad = true;
                println!(
                    "DIGEST MISMATCH: translate_paged and translate_mem differ at seed {}",
                    f64::from_bits(seed)
                );
            }
        }
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bounds_and_the_pair_rule() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        // Within the bound: same.
        let b = a.map(|x| x * 1.02);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Same);
        // Beyond the bound in the bad direction: worse.
        let b = a.map(|x| x * 1.2);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Worse);
        // A clear gain on every pair: better.
        let b = a.map(|x| x * 0.8);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Better);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.10), Verdict::Worse);
        // A gain that wins too few pairs is not claimed.
        let mut b = a.map(|x| x * 0.97);
        b[0] = a[0] * 1.05;
        b[1] = a[1] * 1.05;
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10), Verdict::Same);
        // A spread wider than the bound cannot be judged.
        let wide = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&a, &wide, Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&a, &[], Better::Lower, 0.10), Verdict::Unresolved);
    }
}

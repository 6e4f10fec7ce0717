//! The repository benchmark. See README.md for the workloads, metrics and
//! how to run, trace and compare.
//!
//! ```text
//! dbpc-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                [--trace-out FILE] [--smoke]
//! dbpc-benchmark run-all --out DIR [--reps N] [--seed N] [--seconds S]
//!                [--trace 0|1] [--workloads a,b,...]
//! dbpc-benchmark compare DIR_A DIR_B      # from the root: reads BENCHMARK.json
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dbpc_benchmark::json::Json;
use dbpc_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use dbpc_benchmark::stats::{self, median, percentile, sorted};
use dbpc_benchmark::trace::{self, Tracer};
use dbpc_benchmark::workloads::{Ctx, Outcome, Probed, Workload};
use dbpc_benchmark::{compare, host, RUN_SECONDS};

/// The default seed; 4242 is the holdout seed for confirming a claim.
const DEFAULT_SEED: u64 = 1979;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run-all") => run_all(&args[1..]),
        _ => run(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

/// `--flag value` pairs and bare `--flag`s.
struct Args(Vec<(String, Option<String>)>);

impl Args {
    fn parse(args: &[String], bare: &[&str]) -> Result<Args, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let flag = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?}"))?;
            let value = if bare.contains(&flag) {
                None
            } else {
                Some(
                    it.next()
                        .ok_or_else(|| format!("--{flag} needs a value"))?
                        .clone(),
                )
            };
            out.push((flag.to_string(), value));
        }
        Ok(Args(out))
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(f, _)| !known.contains(&f.as_str())) {
            Some((f, _)) => Err(format!("unknown flag --{f}")),
            None => Ok(()),
        }
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{flag} {v:?}")),
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.value("trace") {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(format!("--trace takes 0 or 1, not {v:?}")),
        }
    }
}

/// Removes this run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(args, &["smoke"])?;
    a.check_known(&["workload", "seed", "seconds", "trace", "trace-out", "smoke"])?;
    let name = a.value("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = a.parsed("seed", DEFAULT_SEED)?;
    let seconds: f64 = a.parsed("seconds", RUN_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let traced = a.trace()?;
    let smoke = a.has("smoke");

    // Every file the run creates lives under the working directory (the
    // checkout), including the paged engine's scratch heaps, which follow
    // TMPDIR. Environment changes happen before any thread starts.
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let scratch = Scratch(cwd.join(".bench_run").join(std::process::id().to_string()));
    std::fs::create_dir_all(&scratch.0).map_err(|e| e.to_string())?;
    std::env::set_var("TMPDIR", &scratch.0);
    if traced {
        std::env::set_var("DBPC_OBS_WALL", "1");
    }

    let tracer = Tracer::new(traced);
    let ctx = Ctx {
        seed,
        seconds,
        smoke,
        tracer: &tracer,
        scratch: &scratch.0,
    };
    let out = workload.run(&ctx);
    let (defs, mut values) = if traced {
        (PER_LAYER, per_layer(&out, &tracer))
    } else {
        (END_TO_END, end_to_end(&out))
    };
    let mut problems = out.problems.clone();
    if let Err(e) = stats::error_rate(out.failed, out.attempted) {
        problems.push(format!("error rate: {e}"));
    }
    for (d, v) in defs.iter().zip(values.iter_mut()) {
        if !v.is_finite() {
            problems.push(format!("{} is not a number", d.name));
            *v = 0.0;
        } else if !traced && *v <= 0.0 {
            problems.push(format!("{} must be positive, measured {v}", d.name));
        }
    }
    let correct = problems.is_empty() && out.failed == 0;

    let latency = sorted(&quiet(&out, &out.latency_ns, Scale::Time));
    let measured_latency = sorted(&measured(&out.latency_ns));
    let measured_p50 = percentile(&measured_latency, 50.0).unwrap_or(0.0);
    let info = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("trace", Json::Bool(traced)),
        ("output_digest", Json::str(format!("{:016x}", out.digest))),
        ("host_threads", Json::Num(host::threads() as f64)),
        ("cpu", Json::str(host::cpu_model())),
        ("units", Json::Num(out.units as f64)),
        ("segments", Json::Num(out.rates.len() as f64)),
        (
            "reference_kernel_ns",
            Json::Num(median(&out.kernel_ns).unwrap_or(0.0)),
        ),
        (
            "reference_kernel_runs",
            Json::Num(out.kernel_ns.len() as f64),
        ),
        ("probe_points", Json::Num(out.probes.len() as f64)),
        (
            "measured_throughput_per_s",
            Json::Num(median(&measured(&out.rates)).unwrap_or(0.0)),
        ),
        ("measured_latency_p50_ms", Json::Num(measured_p50 / 1e6)),
        (
            "measured_setup_s",
            Json::Num(median(&measured(&out.setup_s)).unwrap_or(0.0)),
        ),
        ("latency_samples", Json::Num(latency.len() as f64)),
        (
            "latency_p99_ms",
            Json::Num(percentile(&latency, 99.0).unwrap_or(0.0) / 1e6),
        ),
        (
            "latency_beyond_p99",
            Json::Num(stats::beyond(&latency, 99.0) as f64),
        ),
        ("setup_samples", Json::Num(out.setup_s.len() as f64)),
        (
            "problems",
            Json::Arr(problems.iter().map(|p| Json::str(p.as_str())).collect()),
        ),
    ]);
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::obj(defs.iter().zip(&values).map(|(d, v)| {
                (
                    d.name,
                    Json::obj([("value", Json::Num(*v)), ("unit", Json::str(d.unit))]),
                )
            })),
        ),
    ]);
    if let Some(path) = a.value("trace-out") {
        std::fs::write(path, trace::to_json(&tracer.spans()).to_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    println!("{info}");
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Whether a value is a time or a rate.
#[derive(Clone, Copy)]
enum Scale {
    Time,
    Rate,
}

/// The values as measured.
fn measured(values: &[Probed]) -> Vec<f64> {
    values.iter().map(|&(v, _)| v).collect()
}

/// The values as they would read on the quiet host: each time divided by,
/// and each rate multiplied by, the host's slowdown around it. A drift in
/// the host's speed moves the reference kernel as it moves the program, so
/// it does not read as a change in the program.
fn quiet(out: &Outcome, values: &[Probed], scale: Scale) -> Vec<f64> {
    values
        .iter()
        .map(|&(v, p)| match scale {
            Scale::Time => v / out.slowdown_at(p),
            Scale::Rate => v * out.slowdown_at(p),
        })
        .collect()
}

/// The end-to-end values, in `END_TO_END` order.
fn end_to_end(out: &Outcome) -> Vec<f64> {
    let value = |d: &MetricDef| match d.name {
        "throughput_per_s" => median(&quiet(out, &out.rates, Scale::Rate)).unwrap_or(0.0),
        "latency_p50_ms" => {
            let lat = sorted(&quiet(out, &out.latency_ns, Scale::Time));
            percentile(&lat, 50.0).unwrap_or(0.0) / 1e6
        }
        "setup_s" => median(&quiet(out, &out.setup_s, Scale::Time)).unwrap_or(0.0),
        "peak_rss_mb" => {
            out.peak_rss_bytes.unwrap_or_else(host::peak_rss_bytes) as f64 / (1024.0 * 1024.0)
        }
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    END_TO_END.iter().map(value).collect()
}

/// The per-layer values, in `PER_LAYER` order.
fn per_layer(out: &Outcome, tracer: &Tracer) -> Vec<f64> {
    let overhead = match (median(&out.traced_ns), median(&out.untraced_ns)) {
        (Some(t), Some(u)) if u > 0.0 => 100.0 * (t / u - 1.0),
        _ => 0.0,
    };
    let spans = tracer.spans().len() as f64;
    PER_LAYER
        .iter()
        .map(|d| match d.name {
            "trace.overhead_pct" => overhead,
            "trace.spans" => spans,
            name => out.layers.get(name),
        })
        .collect()
}

/// Run workloads in fresh processes, one per workload and repetition, and
/// keep each run's output as `DIR/<workload>.<rep>.out`.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let a = Args::parse(args, &[])?;
    a.check_known(&["out", "reps", "seed", "seconds", "trace", "workloads"])?;
    let dir = Path::new(a.value("out").ok_or("--out is required")?);
    let reps: u64 = a.parsed("reps", 5)?;
    let seed: u64 = a.parsed("seed", DEFAULT_SEED)?;
    let seconds: f64 = a.parsed("seconds", RUN_SECONDS)?;
    let trace = if a.trace()? { "1" } else { "0" };
    let selected: Vec<Workload> = match a.value("workloads") {
        None => Workload::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(|n| Workload::parse(n).ok_or_else(|| format!("unknown workload {n:?}")))
            .collect::<Result<_, _>>()?,
    };
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for rep in 0..reps {
        for w in &selected {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", trace]);
            let output = cmd.output().map_err(|e| e.to_string())?;
            let path = dir.join(format!("{}.{rep}.out", w.name()));
            std::fs::write(&path, &output.stdout).map_err(|e| e.to_string())?;
            let last = String::from_utf8_lossy(&output.stdout)
                .lines()
                .last()
                .unwrap_or("")
                .to_string();
            eprintln!("{} rep {rep}: {last}", w.name());
            all_ok &= output.status.success();
        }
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

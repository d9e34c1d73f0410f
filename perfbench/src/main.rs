//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, drives the system
//! through its public API on one thread, checks every output, and prints
//! two JSON lines: a report (host, build, seed, notes, metrics) and, last,
//! the result object. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` is a separate run that measures the per-layer metrics. See
//! `perfbench/README.md`.

mod openloop;
mod report;
mod serve;
mod sim;
mod speed;
mod stats;

use std::process::{Command, ExitCode};

use report::{metrics_object, number, quote, result_line, Metrics, Outcome, RunError};

/// Seed used when `--seed` is not given; the simulator workloads pin
/// their outcome digests for it.
pub const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 4] = [
    "serve-contended",
    "serve-durable-churn",
    "sim-elasticflow",
    "sim-mega-edf",
];

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_dps", "decisions/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("slo_attainment", "ratio"),
    ("recover_s", "s"),
    ("events_per_s", "events/s"),
];

/// Per-layer metrics, printed by every `--trace 1` run. A layer a
/// workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace_overhead", "ratio"),
    ("failed_ratio", "ratio"),
    ("trace.generate_ms", "ms"),
    ("serve.proto.parse_ns", "ns"),
    ("serve.proto.render_ns", "ns"),
    ("serve.daemon.dup_guard_ns", "ns"),
    ("persist.wal_append_ns", "ns"),
    ("persist.wal_syncs", "count"),
    ("persist.wal_bytes", "bytes"),
    ("serve.gateway.decide_ns", "ns"),
    ("serve.gateway.submit_ns.admit", "ns"),
    ("serve.gateway.submit_ns.decline", "ns"),
    ("serve.gateway.submit_ns.best_effort", "ns"),
    ("serve.gateway.submits.admit", "count"),
    ("serve.gateway.submits.decline", "count"),
    ("serve.gateway.submits.best_effort", "count"),
    ("serve.gateway.withdraw_ns", "ns"),
    ("serve.gateway.withdraws", "count"),
    ("core.online.advance_ns", "ns"),
    ("core.online.admit_ns", "ns"),
    ("core.online.decline_ns", "ns"),
    ("core.online.advances", "count"),
    ("core.online.retired", "count"),
    ("core.online.active_jobs_mean", "jobs"),
    ("serve.store.journal_ns", "ns"),
    ("serve.store.snapshot_ms", "ms"),
    ("serve.store.snapshots", "count"),
    ("serve.store.snapshot_bytes", "bytes"),
    ("serve.metrics.record_ns", "ns"),
    ("serve.unattributed_ns", "ns"),
    ("persist.recover_wal_ms", "ms"),
    ("serve.store.snapshot_load_ms", "ms"),
    ("serve.gateway.rebuild_ms", "ms"),
    ("serve.recover.guard_ms", "ms"),
    ("serve.recover.replay_ms", "ms"),
    ("serve.recover.records_scanned", "count"),
    ("serve.recover.records_replayed", "count"),
    ("loadgen.late_p99_us", "us"),
    ("serve.daemon.batch_mean", "requests"),
    ("serve.daemon.backlog_max", "requests"),
    ("sim.admission_us", "us"),
    ("sim.planning_us", "us"),
    ("sim.placement_us", "us"),
    ("sim.engine_us", "us"),
    ("sim.events", "count"),
    ("sim.arrivals", "count"),
    ("sched.decisions.admit", "count"),
    ("sched.decisions.decline", "count"),
    ("sched.decisions.resize", "count"),
    ("sched.decisions.preempt", "count"),
    ("sched.decisions.migrate", "count"),
    ("sched.decisions.pause", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Instances a run's input may hold; the generator seeds of different
/// run seeds never overlap.
pub const MAX_INSTANCES: usize = 64;

/// Generator seed of a run's `k`-th input instance.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    assert!(k < MAX_INSTANCES, "instance {k} out of range");
    seed.wrapping_mul(MAX_INSTANCES as u64)
        .wrapping_add(k as u64)
}

/// Repeats `f` until `budget_s` has passed, at least `min` and at most
/// `max` times.
pub fn repeat<T>(
    min: usize,
    max: usize,
    budget_s: f64,
    mut f: impl FnMut(usize) -> Result<T, RunError>,
) -> Result<Vec<T>, RunError> {
    let t0 = std::time::Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && t0.elapsed().as_secs_f64() < budget_s) {
        out.push(f(out.len())?);
    }
    Ok(out)
}

/// One line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"profile\": {}, \"git_commit\": {}}}",
        quote(&command_line("rustc", &["-V"])),
        quote(profile),
        quote(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

/// Picks the listed metrics out of `measured`, in list order. A listed
/// metric the run did not measure reads 0 when `absent_is_zero`, and is
/// an error otherwise.
fn select(
    measured: &Metrics,
    list: &[(&str, &'static str)],
    absent_is_zero: bool,
) -> Result<Vec<(String, f64, &'static str)>, RunError> {
    let mut out = Vec::new();
    for &(name, unit) in list {
        let found = measured.values.iter().find(|(n, _, _)| n == name);
        let value = match found {
            Some((_, v, u)) if *u == unit && v.is_finite() => *v,
            Some((_, v, u)) => {
                return Err(RunError::check(format!(
                    "metric {name} measured as {v} {u}, expected unit {unit}"
                )))
            }
            None if absent_is_zero => 0.0,
            None => return Err(RunError::check(format!("metric {name} was not measured"))),
        };
        out.push((name.to_owned(), value, unit));
    }
    Ok(out)
}

fn run(args: &Args) -> Result<Outcome, RunError> {
    let state_root = std::env::current_dir()
        .map_err(RunError::io)?
        .join(".bench_state");
    let work = state_root.join(format!("{}-{}", args.workload, std::process::id()));
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let serve = |w: &serve::ServeWorkload| {
        if trace {
            serve::run_traced(w, seed, seconds, &work)
        } else {
            serve::run_untraced(w, seed, seconds, &work)
        }
    };
    let sim = |w: sim::SimWorkload| {
        if trace {
            sim::run_traced(w, seed, seconds)
        } else {
            sim::run_untraced(w, seed, seconds)
        }
    };
    let result = match args.workload.as_str() {
        "serve-contended" => serve(&serve::CONTENDED),
        "serve-durable-churn" => serve(&serve::DURABLE_CHURN),
        "sim-elasticflow" => sim(sim::SimWorkload::ElasticFlow),
        _ => sim(sim::SimWorkload::MegaEdf),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&state_root);
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let list = if args.trace {
        PER_LAYER
    } else {
        &END_TO_END[..]
    };
    let outcome = run(&args).and_then(|o| {
        let selected = select(&o.metrics, list, args.trace)?;
        Ok((o, selected))
    });
    match outcome {
        Ok((o, selected)) => {
            let measured = &o.metrics;
            let notes: Vec<String> = measured
                .notes
                .iter()
                .map(|(k, v)| format!("{}: {}", quote(k), number(*v)))
                .collect();
            let samples: Vec<String> = measured
                .samples
                .iter()
                .map(|(k, v)| {
                    let v: Vec<String> = v.iter().map(|x| number(*x)).collect();
                    format!("{}: [{}]", quote(k), v.join(", "))
                })
                .collect();
            println!(
                "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
                 \"notes\": {{{}}}, \"all_metrics\": {}, \"samples\": {{{}}}}}",
                quote(&args.workload),
                args.seed,
                number(args.seconds),
                u8::from(args.trace),
                host_json(),
                notes.join(", "),
                metrics_object(&measured.values),
                samples.join(", "),
            );
            println!("{}", result_line(true, o.attempted, o.failed, &selected));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{}", result_line(false, 1, 1, &[]));
            ExitCode::from(1)
        }
    }
}

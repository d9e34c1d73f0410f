//! The serve workloads: the `elasticflow-serve` daemon answering a
//! generated request stream in-process, on one thread.
//!
//! Every pass over the stream runs in a fresh state directory and must
//! leave the same WAL and journal bytes as every other pass of the run —
//! closed loop, open loop, traced shadow, and recovery.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use elasticflow_cluster::ClusterSpec;
use elasticflow_core::{FillScratch, OnlineAdmission, PlanningJob};
use elasticflow_perfmodel::{DnnModel, Interconnect, ScalingCurve};
use elasticflow_persist::PERSIST_VERSION;
use elasticflow_sched::{DecisionRecord, DeclineReason};
use elasticflow_serve::metrics::{
    self, ACTIVE_GUARANTEED, BATCH_SIZE, BOOKED_FRACTION, BOOKED_HORIZON_SLOTS, DECISIONS_TOTAL,
    DECLINES_TOTAL,
};
use elasticflow_serve::proto::render_submit_into;
use elasticflow_serve::store::render_journal_entry_into;
use elasticflow_serve::{
    gateway_registry, loadgen_stream, parse_request, render_request_into, render_response, Daemon,
    DaemonConfig, FsyncPolicy, Gateway, GatewayConfig, GatewayDir, GatewaySnapshot, GatewayStats,
    LoadgenConfig, Request, Response, Resumption,
};
use elasticflow_telemetry::{MonotonicClock, DECISION_LATENCY};
use elasticflow_trace::{JobId, Rng};

use crate::report::{Metrics, Outcome, RunError};
use crate::speed::{Gauge, Pass, Raw, Timed};
use crate::stats::{median, tail_quantile};
use crate::{openloop, repeat};

/// Requests per batch, in both the closed and the open loop.
const MAX_BATCH: usize = 64;
/// A reply later than this after its due time misses the SLO.
const SLO_NS: u64 = 1_000_000;
/// Recent deadline submissions a seeded withdraw may target.
const WITHDRAW_WINDOW: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Independent streams per untraced run.
const STREAMS: usize = 6;
/// Closed-loop passes and recoveries in each round of an untraced run.
const CLOSED_PER_ROUND: usize = 2;
const RECOVERIES_PER_ROUND: usize = 4;

/// One serve workload's traffic mix and daemon settings.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    /// Mean seconds between generated arrivals.
    pub mean_interarrival: f64,
    /// Share of requests that withdraw a recent submission.
    pub withdraw_fraction: f64,
    /// WAL durability policy.
    pub fsync: FsyncPolicy,
    /// Open-loop request rate, requests per second.
    pub open_rate: f64,
    /// Daemon snapshot cadence, submissions.
    pub snapshot_every: u64,
    /// Requests in the stream: a quarter snapshot interval past a
    /// snapshot, so that recovery loads a snapshot and replays a suffix.
    pub stream_len: usize,
    /// Consecutive open-loop requests per latency window; the latency
    /// quantiles are the medians of the per-window quantiles.
    pub latency_window: usize,
}

/// `serve-contended`: the default loadgen stream; most deadline jobs are
/// declined, so it prices the decline path and the codecs.
pub const CONTENDED: ServeWorkload = ServeWorkload {
    mean_interarrival: 2.0,
    withdraw_fraction: 0.0,
    fsync: FsyncPolicy::Never,
    open_rate: 6_000.0,
    snapshot_every: 10_000,
    stream_len: 12_500,
    latency_window: 2_500,
};

/// `serve-durable-churn`: a lighter stream where about half the deadline
/// jobs are admitted, with withdrawals and a synced WAL.
pub const DURABLE_CHURN: ServeWorkload = ServeWorkload {
    mean_interarrival: 20.0,
    withdraw_fraction: 0.05,
    fsync: FsyncPolicy::Interval(1_000),
    open_rate: 2_000.0,
    snapshot_every: 4_000,
    stream_len: 5_000,
    latency_window: 1_000,
};

impl ServeWorkload {
    fn daemon_config(&self) -> DaemonConfig {
        DaemonConfig {
            gateway: GatewayConfig::default(),
            snapshot_every: self.snapshot_every,
            fsync: self.fsync,
        }
    }
}

/// The generated input of one run: requests and their wire lines.
struct Stream {
    requests: Vec<Request>,
    lines: Vec<String>,
}

impl Stream {
    fn submits(&self) -> u64 {
        self.requests
            .iter()
            .filter(|r| matches!(r, Request::Submit { .. }))
            .count() as u64
    }
}

/// Generates `n` requests: the loadgen stream for `seed`, with seeded
/// withdrawals of recent deadline submissions interleaved.
fn build_stream(w: &ServeWorkload, seed: u64, n: usize) -> Stream {
    let cfg = LoadgenConfig {
        arrivals: n,
        mean_interarrival: w.mean_interarrival,
        seed,
        ..LoadgenConfig::default()
    };
    let mut submissions = loadgen_stream(&cfg).into_iter();
    let mut rng = Rng::new(seed ^ 0x5749_5448_4452_4157);
    let mut recent: Vec<u64> = Vec::new();
    let mut now = 0.0;
    let mut requests = Vec::with_capacity(n);
    while requests.len() < n {
        if !recent.is_empty() && rng.uniform() < w.withdraw_fraction {
            let job = recent.swap_remove(rng.uniform_usize(recent.len()));
            requests.push(Request::Withdraw {
                job,
                at_seconds: now,
            });
            continue;
        }
        let Some(request) = submissions.next() else {
            break;
        };
        if let Request::Submit { job } = &request {
            now = job.arrival_seconds;
            if job.deadline_seconds.is_some() {
                recent.push(job.id);
                if recent.len() > WITHDRAW_WINDOW {
                    recent.remove(0);
                }
            }
        }
        requests.push(request);
    }
    let lines = requests
        .iter()
        .map(|r| {
            let mut line = String::new();
            render_request_into(r, &mut line);
            line
        })
        .collect();
    Stream { requests, lines }
}

/// Outcome tallies of one pass over the stream.
#[derive(Debug, Default)]
struct Tally {
    requests: u64,
    errors: u64,
    lost: u64,
}

/// The WAL and journal a pass left behind.
#[derive(Debug)]
struct Logs {
    wal: Vec<u8>,
    journal: Vec<u8>,
}

fn read_logs(dir: &Path) -> Result<Logs, RunError> {
    let gdir = GatewayDir::open(dir).map_err(RunError::io)?;
    Ok(Logs {
        wal: std::fs::read(gdir.wal_path()).map_err(RunError::io)?,
        journal: std::fs::read(gdir.journal_path()).map_err(RunError::io)?,
    })
}

fn open_fresh(dir: &Path, cfg: DaemonConfig) -> Result<Daemon, RunError> {
    let _ = std::fs::remove_dir_all(dir);
    let (daemon, resumption) = Daemon::open(
        dir,
        cfg,
        Box::new(MonotonicClock::new()),
        gateway_registry(),
    )
    .map_err(RunError::io)?;
    if resumption != Resumption::Fresh {
        return Err(RunError::check("fresh state directory was not fresh"));
    }
    Ok(daemon)
}

/// Reusable buffers for answering batches the way a connection does:
/// parse each line, decide the batch, render each reply.
#[derive(Default)]
struct Answerer {
    requests: Vec<Request>,
    responses: Vec<Response>,
    tally: Tally,
}

impl Answerer {
    fn answer(&mut self, daemon: &mut Daemon, lines: &[String]) {
        self.requests.clear();
        for line in lines {
            match parse_request(line) {
                Ok(Some(request)) => self.requests.push(request),
                Ok(None) | Err(_) => self.tally.errors += 1,
            }
        }
        self.responses.clear();
        daemon.handle_batch(&self.requests, &mut self.responses);
        for response in &self.responses {
            std::hint::black_box(render_response(response));
            if matches!(response, Response::Error { .. }) {
                self.tally.errors += 1;
            }
        }
        self.tally.requests += lines.len() as u64;
        self.tally.lost += self.requests.len().saturating_sub(self.responses.len()) as u64;
    }
}

/// One closed-loop pass: returns the timed pass, the tally, and the live
/// stats. With a gauge, the pass is cut into segments at readings of it;
/// without one, it runs uninterrupted and its scaled time is its raw time.
fn closed_loop(
    stream: &Stream,
    dir: &Path,
    cfg: DaemonConfig,
    gauge: Option<&mut Gauge>,
) -> Result<(Timed, Tally, GatewayStats), RunError> {
    let mut daemon = open_fresh(dir, cfg)?;
    let mut answerer = Answerer::default();
    let timed = match gauge {
        Some(gauge) => {
            let mut pass = Pass::begin(gauge);
            for chunk in stream.lines.chunks(MAX_BATCH) {
                answerer.answer(&mut daemon, chunk);
                pass.checkpoint(Instant::now());
            }
            let pass = pass.finish();
            Timed {
                raw: pass.raw,
                scaled: pass.scaled,
            }
        }
        None => {
            let t0 = Instant::now();
            for chunk in stream.lines.chunks(MAX_BATCH) {
                answerer.answer(&mut daemon, chunk);
            }
            let raw = t0.elapsed().as_secs_f64();
            Timed { raw, scaled: raw }
        }
    };
    Ok((timed, answerer.tally, daemon.stats()))
}

/// The windows of one open-loop pass, each with its speed factor.
type Windows = Vec<(openloop::OpenLoopRun, f64)>;

/// One open-loop pass at the workload's rate, in windows of
/// [`ServeWorkload::latency_window`] requests. Between windows the client
/// pauses while the gauge takes a reading, and the next window's schedule
/// starts after it; the daemon keeps its state across windows. The rate
/// is per second of the nominal host: on a host running at factor `f` of
/// nominal speed a window's requests are spaced `1 / (rate * f)` apart, so
/// the daemon is as busy as it would be on the nominal host and its
/// queueing scales with the host's speed like everything else. Returns
/// each window's run with the factor of the readings that bracket it.
fn open_loop(
    w: &ServeWorkload,
    stream: &Stream,
    dir: &Path,
    gauge: &mut Gauge,
) -> Result<(Windows, Tally, GatewayStats), RunError> {
    let mut daemon = open_fresh(dir, w.daemon_config())?;
    let mut answerer = Answerer::default();
    let clock = Instant::now();
    let mut now = || clock.elapsed().as_nanos() as u64;
    let mut windows = Vec::new();
    gauge.refresh();
    for start in (0..stream.lines.len()).step_by(w.latency_window) {
        let lines = &stream.lines[start..(start + w.latency_window).min(stream.lines.len())];
        let interval_ns = (1e9 / (w.open_rate * gauge.current())) as u64;
        let run = openloop::run(
            lines.len(),
            interval_ns,
            MAX_BATCH,
            &mut now,
            &mut |range| answerer.answer(&mut daemon, &lines[range]),
        );
        windows.push((run, gauge.factor()));
    }
    Ok((windows, answerer.tally, daemon.stats()))
}

/// Re-opens the state directory a pass left behind and checks that
/// recovery loaded a snapshot, replayed a suffix, and reproduced the
/// live counters.
fn recover(dir: &Path, cfg: DaemonConfig, live: GatewayStats) -> Result<f64, RunError> {
    let t0 = Instant::now();
    let (daemon, resumption) = Daemon::open(
        dir,
        cfg,
        Box::new(MonotonicClock::new()),
        gateway_registry(),
    )
    .map_err(RunError::io)?;
    let secs = t0.elapsed().as_secs_f64();
    match resumption {
        Resumption::Resumed {
            snapshot: Some(_),
            replayed,
        } if replayed > 0 => {}
        other => {
            return Err(RunError::check(format!(
                "recovery must load a snapshot and replay a suffix, got {other:?}"
            )))
        }
    }
    if daemon.stats() != live {
        return Err(RunError::check(format!(
            "recovered stats {:?} differ from live stats {live:?}",
            daemon.stats()
        )));
    }
    Ok(secs)
}

fn check_stats(stats: &GatewayStats, submits: u64) -> Result<(), RunError> {
    if stats.submissions != submits
        || stats.admitted + stats.declined + stats.best_effort != stats.submissions
    {
        return Err(RunError::check(format!(
            "decision counts do not add up to {submits} submissions: {stats:?}"
        )));
    }
    Ok(())
}

fn check_logs(reference: &Logs, dir: &Path, pass: &str) -> Result<(), RunError> {
    let logs = read_logs(dir)?;
    if logs.wal != reference.wal {
        return Err(RunError::check(format!("{pass}: WAL bytes differ")));
    }
    if logs.journal != reference.journal {
        return Err(RunError::check(format!("{pass}: journal bytes differ")));
    }
    Ok(())
}

/// End-to-end run (`--trace 0`).
///
/// The run's input is [`STREAMS`] independent streams. The run repeats
/// rounds over them; a round takes one stream through closed-loop
/// passes, an open-loop pass, and recoveries of the state that pass
/// left. Every metric is the median over all its passes (latency: over
/// all its open-loop windows): the samples span the whole run, a burst of
/// interference on a shared host moves a few of them rather than the
/// result, and no single stream's quirks set it. Every timing is scaled
/// to the nominal host speed ([`crate::speed`]).
pub fn run_untraced(
    w: &ServeWorkload,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Outcome, RunError> {
    let cfg = w.daemon_config();
    let n = w.stream_len;

    // Set-up: stream generation plus daemon construction. Every timing
    // is taken raw and scaled to the nominal host speed by the reference
    // readings that bracket it.
    let mut gauge = Gauge::new();
    let mut raw = Raw::default();
    let mut setups = Vec::new();
    let mut streams = Vec::new();
    for rep in 0..SETUPS {
        let t0 = Instant::now();
        streams = (0..STREAMS)
            .map(|k| build_stream(w, crate::sub_seed(seed, k), n))
            .collect();
        let _daemon = open_fresh(&work.join(format!("setup-{rep}")), cfg)?;
        let secs = t0.elapsed().as_secs_f64();
        raw.setup.push(secs);
        setups.push(secs * gauge.factor());
    }
    let mut attempted = 0;
    let mut failed = 0;
    // The first closed-loop pass over each stream sets the logs every
    // later pass over it must reproduce.
    let mut references: Vec<Option<Logs>> = (0..STREAMS).map(|_| None).collect();
    let mut closed = Vec::new();
    let mut latency = Vec::new();
    let mut slo = Vec::new();
    let mut recoveries = Vec::new();

    let rounds = repeat(3, 200, seconds * 0.85, |round| {
        let k = round % STREAMS;
        let stream = &streams[k];

        // Closed loop: a fresh daemon per pass.
        for pass in 0..CLOSED_PER_ROUND {
            let dir = work.join(format!("closed-{round}-{pass}"));
            let (timed, tally, stats) = closed_loop(stream, &dir, cfg, Some(&mut gauge))?;
            check_stats(&stats, stream.submits())?;
            match &references[k] {
                None => references[k] = Some(read_logs(&dir)?),
                Some(r) => check_logs(r, &dir, "closed loop")?,
            }
            let _ = std::fs::remove_dir_all(&dir);
            attempted += tally.requests;
            failed += tally.errors + tally.lost;
            raw.throughput.push(stream.submits() as f64 / timed.raw);
            let wall = timed.scaled;
            closed.push([stream.submits() as f64 / wall, n as f64 / wall]);
        }
        let reference = references[k].as_ref().expect("a closed-loop pass ran");

        // Open loop: the latency quantiles, taken per window of
        // consecutive requests, and the share of requests answered within
        // the SLO; an error or a lost request counts as a miss. A stall of
        // the host spoils the windows it falls in, not the whole pass.
        let dir = work.join(format!("open-{k}"));
        let (windows, tally, live) = open_loop(w, stream, &dir, &mut gauge)?;
        check_stats(&live, stream.submits())?;
        check_logs(reference, &dir, "open loop")?;
        attempted += tally.requests;
        failed += tally.errors + tally.lost;
        let in_time = windows
            .iter()
            .flat_map(|(run, f)| run.latency_ns.iter().map(move |&l| l as f64 * f))
            .filter(|&l| l <= SLO_NS as f64)
            .count() as u64;
        slo.push(in_time.saturating_sub(tally.errors + tally.lost) as f64 / n as f64);
        for (run, f) in windows {
            let mut sorted = run.latency_ns;
            sorted.sort_unstable();
            let q = |p| tail_quantile(&sorted, p).ok_or_else(|| RunError::check("too few samples"));
            let (p50, p99) = (q(0.5)? as f64 / 1e3, q(0.99)? as f64 / 1e3);
            raw.p50.push(p50);
            raw.p99.push(p99);
            latency.push([p50 * f, p99 * f]);
        }

        // Recovery of the state directory the open-loop pass left.
        for _ in 0..RECOVERIES_PER_ROUND {
            let secs = recover(&dir, cfg, live)?;
            raw.recover.push(secs);
            recoveries.push(secs * gauge.factor());
            check_logs(reference, &dir, "recovery")?;
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    })?;

    let mut m = Metrics::new();
    m.put_median("setup_s", setups, "s");
    let closed_column = |i: usize| closed.iter().map(|c| c[i]).collect();
    m.put_median("throughput_dps", closed_column(0), "decisions/s");
    m.put_median("events_per_s", closed_column(1), "events/s");
    m.put_median(
        "latency_p50_us",
        latency.iter().map(|l| l[0]).collect(),
        "us",
    );
    m.put_median(
        "latency_p99_us",
        latency.iter().map(|l| l[1]).collect(),
        "us",
    );
    m.put_median("slo_attainment", slo, "ratio");
    m.note("streams", STREAMS as f64);
    m.note("requests_per_stream", n as f64);
    m.note("rounds", rounds.len() as f64);
    m.note("closed_loop_passes", closed.len() as f64);
    m.note("open_loop_passes", rounds.len() as f64);
    m.note("latency_windows", latency.len() as f64);
    m.note("latency_samples_per_window", w.latency_window as f64);
    m.note("recoveries", recoveries.len() as f64);
    m.note("open_rate_per_s", w.open_rate);
    m.put_median("recover_s", recoveries, "s");
    raw.note(&mut m, &gauge);
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
    })
}

/// Stage accumulators of the traced shadow pipeline, in nanoseconds.
#[derive(Debug, Default)]
struct Stages {
    parse: u64,
    guard: u64,
    wal: u64,
    decide: u64,
    journal: u64,
    metrics: u64,
    snapshot: u64,
    render: u64,
    admit: (u64, u64),
    decline: (u64, u64),
    best_effort: (u64, u64),
    withdraw: (u64, u64),
    wal_syncs: u64,
    wal_unsynced: u64,
    snapshots: u64,
    snapshot_bytes: u64,
}

fn span(acc: &mut u64, t0: Instant) -> Instant {
    let t1 = Instant::now();
    *acc += (t1 - t0).as_nanos() as u64;
    t1
}

/// The daemon's pipeline rebuilt from public calls, with a span around
/// each stage. Same order, same files, same bytes as [`Daemon`].
struct Shadow {
    cfg: DaemonConfig,
    dir: GatewayDir,
    wal: elasticflow_persist::RecordLog,
    journal: std::fs::File,
    journal_entries: u64,
    gateway: Gateway,
    seen: BTreeSet<u64>,
    registry: elasticflow_serve::SharedRegistry,
    stages: Stages,
    decisions: Vec<DecisionRecord>,
    wal_buf: String,
    wal_offsets: Vec<usize>,
    journal_buf: String,
}

impl Shadow {
    fn new(dir: &Path, cfg: DaemonConfig) -> Result<Self, RunError> {
        let _ = std::fs::remove_dir_all(dir);
        let gdir = GatewayDir::open(dir).map_err(RunError::io)?;
        let (mut wal, journal) = gdir.create_genesis().map_err(RunError::io)?;
        wal.set_fsync_policy(cfg.fsync);
        Ok(Shadow {
            cfg,
            dir: gdir,
            wal,
            journal,
            journal_entries: 0,
            gateway: Gateway::new(cfg.gateway),
            seen: BTreeSet::new(),
            registry: gateway_registry(),
            stages: Stages::default(),
            decisions: Vec::new(),
            wal_buf: String::new(),
            wal_offsets: Vec::new(),
            journal_buf: String::new(),
        })
    }

    fn batch(&mut self, lines: &[String], tally: &mut Tally) -> Result<(), RunError> {
        let t = Instant::now();
        let mut requests = Vec::with_capacity(lines.len());
        for line in lines {
            match parse_request(line) {
                Ok(Some(r)) => requests.push(r),
                Ok(None) | Err(_) => tally.errors += 1,
            }
        }
        let t = span(&mut self.stages.parse, t);
        metrics::lock(&self.registry).observe(BATCH_SIZE, &[], requests.len() as f64);
        span(&mut self.stages.metrics, t);

        let mut responses = Vec::with_capacity(requests.len());
        let mut i = 0;
        while i < requests.len() {
            if let Request::Withdraw { job, at_seconds } = requests[i] {
                responses.push(self.withdraw(&requests[i], job, at_seconds)?);
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < requests.len() && matches!(requests[j], Request::Submit { .. }) {
                j += 1;
            }
            self.submit_run(&requests[i..j], &mut responses)?;
            i = j;
        }

        let t = Instant::now();
        for response in &responses {
            std::hint::black_box(render_response(response));
            if matches!(response, Response::Error { .. }) {
                tally.errors += 1;
            }
        }
        span(&mut self.stages.render, t);
        tally.requests += lines.len() as u64;
        tally.lost += requests.len().saturating_sub(responses.len()) as u64;
        Ok(())
    }

    fn withdraw(&mut self, request: &Request, job: u64, at: f64) -> Result<Response, RunError> {
        let t = Instant::now();
        self.wal_buf.clear();
        render_request_into(request, &mut self.wal_buf);
        self.wal
            .append_batch([self.wal_buf.as_bytes()])
            .map_err(RunError::io)?;
        self.count_syncs(1);
        let t = span(&mut self.stages.wal, t);
        let lapsed = self.gateway.withdraw(job, at);
        let t1 = Instant::now();
        let ns = (t1 - t).as_nanos() as u64;
        self.stages.decide += ns;
        self.stages.withdraw.0 += ns;
        self.stages.withdraw.1 += 1;
        self.publish_gauges();
        span(&mut self.stages.metrics, t1);
        Ok(Response::Withdrawn { job, lapsed })
    }

    fn submit_run(&mut self, run: &[Request], out: &mut Vec<Response>) -> Result<(), RunError> {
        fn sub(r: &Request) -> &elasticflow_serve::JobSubmission {
            match r {
                Request::Submit { job } => job,
                _ => unreachable!("runs hold submissions only"),
            }
        }
        let run_start = Instant::now();
        let mut accepted = Vec::with_capacity(run.len());
        for (i, r) in run.iter().enumerate() {
            if self.seen.insert(sub(r).id) {
                accepted.push(i);
            }
        }
        let mut t = span(&mut self.stages.guard, run_start);

        if !accepted.is_empty() {
            self.wal_buf.clear();
            self.wal_offsets.clear();
            self.wal_offsets.push(0);
            for &i in &accepted {
                render_submit_into(sub(&run[i]), &mut self.wal_buf);
                self.wal_offsets.push(self.wal_buf.len());
            }
            let bytes = self.wal_buf.as_bytes();
            let payloads = self.wal_offsets.windows(2).map(|w| &bytes[w[0]..w[1]]);
            self.wal.append_batch(payloads).map_err(RunError::io)?;
            self.count_syncs(accepted.len() as u64);
            t = span(&mut self.stages.wal, t);
        }
        let base_seq = self.wal.records() - accepted.len() as u64;

        let mut decisions = Vec::with_capacity(accepted.len());
        let mut latencies = Vec::with_capacity(accepted.len());
        for &i in &accepted {
            let job = sub(&run[i]);
            let decision = self.gateway.submit(job);
            let t1 = Instant::now();
            let ns = (t1 - t).as_nanos() as u64;
            self.stages.decide += ns;
            let split = match (&decision, job.deadline_seconds) {
                (DecisionRecord::Admit { .. }, None) => &mut self.stages.best_effort,
                (DecisionRecord::Admit { .. }, Some(_)) => &mut self.stages.admit,
                _ => &mut self.stages.decline,
            };
            split.0 += ns;
            split.1 += 1;
            latencies.push((t1 - run_start).as_nanos() as u64);
            decisions.push(decision);
            t = t1;
        }

        self.journal_buf.clear();
        for (k, &i) in accepted.iter().enumerate() {
            render_journal_entry_into(
                sub(&run[i]).arrival_seconds,
                &decisions[k],
                &mut self.journal_buf,
            );
            self.journal_buf.push('\n');
        }
        self.journal
            .write_all(self.journal_buf.as_bytes())
            .map_err(RunError::io)?;
        self.journal_entries += accepted.len() as u64;
        let t = span(&mut self.stages.journal, t);

        self.record_run(&decisions, &latencies);
        let t = span(&mut self.stages.metrics, t);

        // Snapshot when the run crossed a cadence boundary (0 disables).
        let after = self.gateway.stats().submissions;
        let before = after - accepted.len() as u64;
        let every = self.cfg.snapshot_every;
        if before.checked_div(every) != after.checked_div(every) {
            self.snapshot()?;
            span(&mut self.stages.snapshot, t);
        }

        let mut k = 0;
        for (i, r) in run.iter().enumerate() {
            let job = sub(r);
            if k < accepted.len() && accepted[k] == i {
                let decision = decisions[k];
                k += 1;
                out.push(Response::Decision {
                    job: job.id,
                    seq: base_seq + k as u64,
                    admitted: matches!(decision, DecisionRecord::Admit { .. }),
                    decision,
                });
            } else {
                out.push(Response::Error {
                    message: format!("job id {} was already submitted", job.id),
                });
            }
        }
        self.decisions.extend_from_slice(&decisions);
        Ok(())
    }

    /// Counts the fsyncs the WAL's policy issues for an append of
    /// `records` records.
    fn count_syncs(&mut self, records: u64) {
        let st = &mut self.stages;
        match self.cfg.fsync {
            FsyncPolicy::Never => {}
            FsyncPolicy::PerRecord => st.wal_syncs += records,
            FsyncPolicy::PerBatch => st.wal_syncs += 1,
            FsyncPolicy::Interval(n) => {
                st.wal_unsynced += records;
                if n > 0 && st.wal_unsynced >= n {
                    st.wal_syncs += 1;
                    st.wal_unsynced = 0;
                }
            }
        }
    }

    fn record_run(&mut self, decisions: &[DecisionRecord], latencies: &[u64]) {
        if decisions.is_empty() {
            return;
        }
        let mut admits = 0u64;
        let mut declines = [0u64; 3];
        for decision in decisions {
            match decision {
                DecisionRecord::Admit { .. } => admits += 1,
                DecisionRecord::Decline { reason, .. } => match reason {
                    DeclineReason::CandidateInfeasible { .. } => declines[0] += 1,
                    DeclineReason::WouldDisplace { .. } => declines[1] += 1,
                    DeclineReason::Unexplained => declines[2] += 1,
                },
                DecisionRecord::Resize { .. }
                | DecisionRecord::Preempt { .. }
                | DecisionRecord::Migrate { .. }
                | DecisionRecord::Pause { .. } => {}
            }
        }
        let mut registry = metrics::lock(&self.registry);
        if admits > 0 {
            registry.inc(DECISIONS_TOTAL, &[("kind", "admit")], admits as f64);
        }
        let declined: u64 = declines.iter().sum();
        if declined > 0 {
            registry.inc(DECISIONS_TOTAL, &[("kind", "decline")], declined as f64);
        }
        for (count, label) in
            declines
                .iter()
                .zip(["candidate_infeasible", "would_displace", "unexplained"])
        {
            if *count > 0 {
                registry.inc(DECLINES_TOTAL, &[("reason", label)], *count as f64);
            }
        }
        for &nanos in latencies {
            registry.observe(DECISION_LATENCY, &[], nanos as f64 / 1e9);
        }
        drop(registry);
        self.publish_gauges();
    }

    fn publish_gauges(&mut self) {
        let active = self.gateway.active_guaranteed() as f64;
        let booked = self.gateway.booked_fraction(BOOKED_HORIZON_SLOTS);
        let mut registry = metrics::lock(&self.registry);
        registry.set_gauge(ACTIVE_GUARANTEED, &[], active);
        registry.set_gauge(BOOKED_FRACTION, &[], booked);
    }

    fn snapshot(&mut self) -> Result<(), RunError> {
        let (origin_slot, jobs) = self.gateway.snapshot_jobs();
        let snap = GatewaySnapshot {
            version: PERSIST_VERSION,
            wal_records: self.wal.records(),
            journal_entries: self.journal_entries,
            config: self.cfg.gateway,
            origin_slot,
            stats: self.gateway.stats(),
            jobs,
        };
        let seq = self.dir.write_next_snapshot(&snap).map_err(RunError::io)?;
        self.stages.snapshots += 1;
        self.stages.snapshot_bytes += std::fs::metadata(self.dir.snapshot_path(seq))
            .map_err(RunError::io)?
            .len();
        Ok(())
    }
}

/// Counters of the second-level pass that drives `OnlineAdmission`
/// directly.
#[derive(Debug, Default)]
struct CoreStages {
    advance: (u64, u64),
    admit: (u64, u64),
    decline: (u64, u64),
    advances: u64,
    retired: u64,
    active_sum: u64,
}

/// Replays the stream's decisions one level down: the gateway's clock
/// advance and Algorithm 1 admission called on `OnlineAdmission`
/// directly. Returns the decision of every submission, in order.
fn core_level(requests: &[Request], cfg: GatewayConfig) -> (Vec<DecisionRecord>, CoreStages) {
    let spec = ClusterSpec::with_servers(cfg.servers, cfg.gpus_per_server);
    let net = Interconnect::from_spec(&spec);
    let total = cfg.total_gpus();
    let mut curves: BTreeMap<(DnnModel, u32), ScalingCurve> = BTreeMap::new();
    let mut online = OnlineAdmission::new(total, cfg.slot_seconds);
    let mut scratch = FillScratch::new();
    let mut s = CoreStages::default();
    let mut decisions = Vec::new();

    let advance = |online: &mut OnlineAdmission, s: &mut CoreStages, seconds: f64| {
        let slot = online.slot_of(seconds);
        if slot > online.origin_slot() {
            s.advances += 1;
        }
        let t = Instant::now();
        let report = online.advance_to(slot);
        s.advance.0 += t.elapsed().as_nanos() as u64;
        s.advance.1 += 1;
        s.retired += (report.completed.len() + report.expired.len()) as u64;
    };

    for request in requests {
        match request {
            Request::Submit { job } => {
                advance(&mut online, &mut s, job.arrival_seconds);
                let id = JobId::new(job.id);
                let Some(deadline) = job.deadline_seconds.filter(|d| d.is_finite()) else {
                    decisions.push(DecisionRecord::Admit { job: id });
                    continue;
                };
                let curve = curves
                    .entry((job.model, job.global_batch))
                    .or_insert_with(|| {
                        ScalingCurve::build_with_max(job.model, job.global_batch, &net, total)
                    })
                    .clone();
                let candidate = PlanningJob {
                    id,
                    curve,
                    remaining_iterations: job.iterations,
                    deadline_slot: 0,
                };
                let deadline_slot = online.slot_of(deadline);
                s.active_sum += online.len() as u64;
                let t = Instant::now();
                let result = online.submit_with(candidate, deadline_slot, &mut scratch);
                let ns = t.elapsed().as_nanos() as u64;
                decisions.push(match result {
                    Ok(()) => {
                        s.admit.0 += ns;
                        s.admit.1 += 1;
                        DecisionRecord::Admit { job: id }
                    }
                    Err(denial) => {
                        s.decline.0 += ns;
                        s.decline.1 += 1;
                        let reason = if denial.blocking_job == id {
                            DeclineReason::CandidateInfeasible {
                                shortfall: denial.shortfall,
                            }
                        } else {
                            DeclineReason::WouldDisplace {
                                blocking_job: denial.blocking_job,
                                shortfall: denial.shortfall,
                            }
                        };
                        DecisionRecord::Decline { job: id, reason }
                    }
                });
            }
            Request::Withdraw { job, at_seconds } => {
                advance(&mut online, &mut s, *at_seconds);
                online.withdraw_with(JobId::new(*job), &mut scratch);
            }
            Request::Stats {} | Request::Shutdown {} => {}
        }
    }
    (decisions, s)
}

/// Stage times of a recovery rebuilt from public calls on a copy of a
/// state directory.
#[derive(Debug, Default)]
struct RecoveryStages {
    recover_wal: f64,
    snapshot_load: f64,
    rebuild: f64,
    guard: f64,
    replay: f64,
    scanned: u64,
    replayed: u64,
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), RunError> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(RunError::io)?;
    for entry in std::fs::read_dir(from).map_err(RunError::io)? {
        let entry = entry.map_err(RunError::io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(RunError::io)?;
    }
    Ok(())
}

fn traced_recovery(
    dir: &Path,
    cfg: DaemonConfig,
    live: GatewayStats,
) -> Result<RecoveryStages, RunError> {
    let mut r = RecoveryStages::default();
    let gdir = GatewayDir::open(dir).map_err(RunError::io)?;
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let payloads = gdir.recover_wal().map_err(RunError::io)?;
    r.recover_wal = ms(t);
    r.scanned = payloads.len() as u64;

    let t = Instant::now();
    let (_, snap, _) = gdir
        .latest_valid_snapshot()
        .map_err(RunError::io)?
        .ok_or_else(|| RunError::check("traced recovery found no snapshot"))?;
    r.snapshot_load = ms(t);

    let t = Instant::now();
    let mut gateway = Gateway::from_snapshot(cfg.gateway, snap.origin_slot, &snap.jobs, snap.stats);
    r.rebuild = ms(t);

    let t = Instant::now();
    let covered = snap.wal_records as usize;
    let mut seen = BTreeSet::new();
    for line in &payloads[..covered] {
        if let Ok(Some(Request::Submit { job })) = parse_request(line) {
            seen.insert(job.id);
        }
    }
    r.guard = ms(t);

    let t = Instant::now();
    let mut journal = gdir
        .rewind_journal(snap.journal_entries)
        .map_err(RunError::io)?;
    let _wal = gdir
        .reopen_wal(payloads.len() as u64)
        .map_err(RunError::io)?;
    let mut buf = String::new();
    for line in &payloads[covered..] {
        match parse_request(line) {
            Ok(Some(Request::Submit { job })) => {
                seen.insert(job.id);
                let decision = gateway.submit(&job);
                buf.clear();
                render_journal_entry_into(job.arrival_seconds, &decision, &mut buf);
                buf.push('\n');
                journal.write_all(buf.as_bytes()).map_err(RunError::io)?;
            }
            Ok(Some(Request::Withdraw { job, at_seconds })) => {
                gateway.withdraw(job, at_seconds);
            }
            other => {
                return Err(RunError::check(format!(
                    "unexpected WAL record on replay: {other:?}"
                )))
            }
        }
        r.replayed += 1;
    }
    r.replay = ms(t);
    if gateway.stats() != live {
        return Err(RunError::check("traced recovery stats differ from live"));
    }
    Ok(r)
}

/// Traced run (`--trace 1`): per-layer metrics.
pub fn run_traced(
    w: &ServeWorkload,
    seed: u64,
    seconds: f64,
    work: &Path,
) -> Result<Outcome, RunError> {
    let cfg = w.daemon_config();
    let n = w.stream_len;
    let t = Instant::now();
    let stream = build_stream(w, crate::sub_seed(seed, 0), n);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let submits = stream.submits();

    // Untraced daemon passes alternate with shadow passes, so that drift
    // on a shared host hits both alike; the stage split comes from the
    // median shadow pass.
    let mut reference = None;
    let mut daemon_walls = Vec::new();
    let mut shadows = Vec::new();
    let mut shadow_decisions: Option<Vec<DecisionRecord>> = None;
    let mut attempted = 0;
    let mut failed = 0;
    repeat(3, 100, seconds * 0.5, |rep| {
        let daemon_dir = work.join(format!("daemon-{rep}"));
        let (timed, tally, live) = closed_loop(&stream, &daemon_dir, cfg, None)?;
        check_stats(&live, submits)?;
        match &reference {
            None => reference = Some(read_logs(&daemon_dir)?),
            Some(r) => check_logs(r, &daemon_dir, "closed loop")?,
        }
        let _ = std::fs::remove_dir_all(&daemon_dir);
        daemon_walls.push(timed.raw);
        attempted += tally.requests;
        failed += tally.errors + tally.lost;

        let shadow_dir = work.join(format!("shadow-{rep}"));
        let mut shadow = Shadow::new(&shadow_dir, cfg)?;
        let mut tally = Tally::default();
        let t0 = Instant::now();
        for chunk in stream.lines.chunks(MAX_BATCH) {
            shadow.batch(chunk, &mut tally)?;
        }
        let wall = t0.elapsed().as_secs_f64();
        drop(shadow.wal);
        if let Some(r) = &reference {
            check_logs(r, &shadow_dir, "traced shadow")?;
        }
        if shadow.gateway.stats() != live {
            return Err(RunError::check("shadow stats differ from the daemon's"));
        }
        let _ = std::fs::remove_dir_all(&shadow_dir);
        attempted += tally.requests;
        failed += tally.errors + tally.lost;
        match &shadow_decisions {
            None => shadow_decisions = Some(shadow.decisions),
            Some(d) if *d != shadow.decisions => {
                return Err(RunError::check("shadow decisions differ between passes"))
            }
            Some(_) => {}
        }
        shadows.push((wall, shadow.stages));
        Ok(())
    })?;
    let reference = reference.expect("a daemon pass ran");
    let shadow_decisions = shadow_decisions.expect("a shadow pass ran");
    let shadow_walls: Vec<f64> = shadows.iter().map(|s| s.0).collect();
    let trace_overhead = median(&shadow_walls).expect("ran") / median(&daemon_walls).expect("ran");
    shadows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (shadow_wall, st) = shadows.swap_remove(shadows.len() / 2);

    // Second level: the same decisions straight from the core.
    let (core_decisions, core) = core_level(&stream.requests, cfg.gateway);
    if core_decisions != shadow_decisions {
        return Err(RunError::check(
            "OnlineAdmission decisions differ from Gateway::submit",
        ));
    }

    // Open loop for the queueing counters, then a staged recovery of a
    // copy of its state directory.
    let open_dir = work.join("open");
    let (windows, open_tally, open_live) = open_loop(w, &stream, &open_dir, &mut Gauge::new())?;
    let mut run = openloop::OpenLoopRun::default();
    for (window, _) in windows {
        run.late_ns.extend(window.late_ns);
        run.batches += window.batches;
        run.backlog_max = run.backlog_max.max(window.backlog_max);
    }
    check_logs(&reference, &open_dir, "open loop")?;
    attempted += open_tally.requests;
    failed += open_tally.errors + open_tally.lost;
    let copy = work.join("recovery");
    copy_dir(&open_dir, &copy)?;
    let rec = traced_recovery(&copy, cfg, open_live)?;
    check_logs(&reference, &copy, "traced recovery")?;
    let _ = std::fs::remove_dir_all(&open_dir);
    let _ = std::fs::remove_dir_all(&copy);

    let reqs = n as f64;
    let per_req = |ns: u64| ns as f64 / reqs;
    let mean = |(ns, count): (u64, u64)| {
        if count == 0 {
            0.0
        } else {
            ns as f64 / count as f64
        }
    };
    let stage_sum = st.parse
        + st.guard
        + st.wal
        + st.decide
        + st.journal
        + st.metrics
        + st.snapshot
        + st.render;
    let wall_ns = shadow_wall * 1e9;
    let mut late = run.late_ns;
    late.sort_unstable();

    let mut m = Metrics::new();
    m.put("trace_overhead", trace_overhead, "ratio");
    m.put("trace.generate_ms", generate_ms, "ms");
    m.put("serve.proto.parse_ns", per_req(st.parse), "ns");
    m.put("serve.proto.render_ns", per_req(st.render), "ns");
    m.put("serve.daemon.dup_guard_ns", per_req(st.guard), "ns");
    m.put("persist.wal_append_ns", per_req(st.wal), "ns");
    m.put("persist.wal_syncs", st.wal_syncs as f64, "count");
    m.put("persist.wal_bytes", reference.wal.len() as f64, "bytes");
    m.put("serve.gateway.decide_ns", per_req(st.decide), "ns");
    m.put("serve.gateway.submit_ns.admit", mean(st.admit), "ns");
    m.put("serve.gateway.submit_ns.decline", mean(st.decline), "ns");
    m.put(
        "serve.gateway.submit_ns.best_effort",
        mean(st.best_effort),
        "ns",
    );
    m.put("serve.gateway.submits.admit", st.admit.1 as f64, "count");
    m.put(
        "serve.gateway.submits.decline",
        st.decline.1 as f64,
        "count",
    );
    m.put(
        "serve.gateway.submits.best_effort",
        st.best_effort.1 as f64,
        "count",
    );
    m.put("serve.gateway.withdraw_ns", mean(st.withdraw), "ns");
    m.put("serve.gateway.withdraws", st.withdraw.1 as f64, "count");
    m.put("core.online.advance_ns", mean(core.advance), "ns");
    m.put("core.online.admit_ns", mean(core.admit), "ns");
    m.put("core.online.decline_ns", mean(core.decline), "ns");
    m.put("core.online.advances", core.advances as f64, "count");
    m.put("core.online.retired", core.retired as f64, "count");
    let deadline_submits = (core.admit.1 + core.decline.1).max(1);
    m.put(
        "core.online.active_jobs_mean",
        core.active_sum as f64 / deadline_submits as f64,
        "jobs",
    );
    m.put("serve.store.journal_ns", per_req(st.journal), "ns");
    m.put(
        "serve.store.snapshot_ms",
        mean((st.snapshot, st.snapshots)) / 1e6,
        "ms",
    );
    m.put("serve.store.snapshots", st.snapshots as f64, "count");
    m.put(
        "serve.store.snapshot_bytes",
        mean((st.snapshot_bytes, st.snapshots)),
        "bytes",
    );
    m.put("serve.metrics.record_ns", per_req(st.metrics), "ns");
    m.put(
        "serve.unattributed_ns",
        (wall_ns - stage_sum as f64).max(0.0) / reqs,
        "ns",
    );
    m.put("persist.recover_wal_ms", rec.recover_wal, "ms");
    m.put("serve.store.snapshot_load_ms", rec.snapshot_load, "ms");
    m.put("serve.gateway.rebuild_ms", rec.rebuild, "ms");
    m.put("serve.recover.guard_ms", rec.guard, "ms");
    m.put("serve.recover.replay_ms", rec.replay, "ms");
    m.put("serve.recover.records_scanned", rec.scanned as f64, "count");
    m.put(
        "serve.recover.records_replayed",
        rec.replayed as f64,
        "count",
    );
    m.put(
        "loadgen.late_p99_us",
        tail_quantile(&late, 0.99).unwrap_or(0) as f64 / 1e3,
        "us",
    );
    m.put(
        "serve.daemon.batch_mean",
        n as f64 / run.batches.max(1) as f64,
        "requests",
    );
    m.put(
        "serve.daemon.backlog_max",
        run.backlog_max as f64,
        "requests",
    );
    m.put("failed_ratio", failed as f64 / attempted as f64, "ratio");
    m.note("requests", reqs);
    m.note("late_samples", late.len() as f64);
    m.note("shadow_passes", shadow_walls.len() as f64);
    m.note("shadow_wall_s", shadow_wall);
    m.note("daemon_wall_s", median(&daemon_walls).expect("ran"));
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
    })
}

//! The simulator workloads: one trace replayed by `Simulation` on the
//! calling thread, without a worker pool.

use std::time::Instant;

use elasticflow_bench::mega::{mega_trace, outcome_digest, MegaConfig};
use elasticflow_cluster::ClusterSpec;
use elasticflow_core::ElasticFlowScheduler;
use elasticflow_perfmodel::Interconnect;
use elasticflow_sched::{DecisionRecord, EdfScheduler, Scheduler};
use elasticflow_sim::{
    PhaseEdge, RunDirective, SchedPhase, SimConfig, SimContext, SimController, SimObserver,
    SimReport, SimSnapshot, Simulation,
};
use elasticflow_telemetry::{Clock, MonotonicClock};
use elasticflow_trace::{Trace, TraceConfig};

use crate::report::{Metrics, Outcome, RunError};
use crate::speed::{Gauge, Pass, Raw};
use crate::stats::{median, tail_quantile};

/// Jobs in the `sim-elasticflow` trace: the production preset's load
/// shape, lengthened so that one simulation lasts seconds.
const ELASTICFLOW_JOBS: usize = 500;
/// Arrivals in the `sim-mega-edf` trace.
const MEGA_ARRIVALS: usize = 250_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Outcome digests of each input instance for [`crate::DEFAULT_SEED`];
/// any change to a decision anywhere in the stack moves them.
const PINNED_ELASTICFLOW: [u64; 40] = [
    7_075_482_451_735_353_861,
    15_999_327_700_133_039_361,
    5_957_538_567_829_134_445,
    7_136_821_130_133_906_748,
    10_772_917_967_315_707_403,
    9_925_677_084_803_486_411,
    7_065_589_419_583_898_218,
    2_371_025_083_386_264_159,
    14_520_109_497_224_653_739,
    7_441_783_088_257_128_600,
    2_387_630_602_223_978_955,
    3_748_018_171_778_360_527,
    7_317_991_388_327_169_764,
    2_306_386_201_894_401_939,
    16_463_656_733_837_387_333,
    9_503_063_744_289_312_763,
    17_772_324_795_911_763_721,
    14_450_167_217_253_128_395,
    10_711_101_356_851_744_982,
    16_571_197_955_316_693_383,
    10_018_437_228_672_878_328,
    4_502_766_064_308_818_227,
    14_249_233_240_547_256_223,
    5_571_343_433_909_201_408,
    3_862_317_617_226_553_534,
    7_295_263_618_126_136_948,
    17_866_595_060_627_133_207,
    10_905_467_020_360_154_014,
    16_947_649_613_112_108_514,
    9_907_262_683_353_081_366,
    11_428_135_240_500_978_367,
    17_281_983_067_542_517_894,
    6_925_994_584_429_755_690,
    3_260_601_976_045_432_460,
    17_771_572_432_381_365_344,
    5_173_091_507_354_518_285,
    17_243_133_246_326_865_538,
    12_327_912_387_929_047_143,
    11_217_196_979_118_317_356,
    18_290_581_834_806_810_727,
];
const PINNED_MEGA: [u64; 1] = [2_570_378_304_143_564_914];

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// `TraceConfig::production(5, seed)` on 256 GPUs under ElasticFlow.
    ElasticFlow,
    /// `mega_trace` on 1,024 GPUs under EDF.
    MegaEdf,
}

impl SimWorkload {
    fn generate(self, seed: u64) -> (ClusterSpec, Trace) {
        match self {
            SimWorkload::ElasticFlow => {
                let cfg = TraceConfig::production(5, seed).with_num_jobs(ELASTICFLOW_JOBS);
                let spec = ClusterSpec::with_servers(cfg.suggested_servers, 8);
                let trace = cfg.generate(&Interconnect::from_spec(&spec));
                (spec, trace)
            }
            SimWorkload::MegaEdf => {
                let cfg = MegaConfig {
                    arrivals: MEGA_ARRIVALS,
                    seed,
                    ..MegaConfig::smoke()
                };
                let spec = ClusterSpec::with_servers(cfg.servers, cfg.gpus_per_server);
                (spec, mega_trace(&cfg))
            }
        }
    }

    /// Independent traces an untraced run of `seconds` simulates. The
    /// cost of simulating one production trace varies about 3x between
    /// traces, so a run covers a fixed number of them, each once, whatever
    /// the host's speed: 0.8 per second of the run. The mega trace is long
    /// enough that one instance already averages over its seed; it repeats
    /// for as long as the time allows.
    fn instances(self, seconds: f64) -> usize {
        match self {
            SimWorkload::ElasticFlow => {
                ((seconds * 0.8).round() as usize).clamp(2, PINNED_ELASTICFLOW.len())
            }
            SimWorkload::MegaEdf => 1,
        }
    }

    fn pinned(self) -> &'static [u64] {
        match self {
            SimWorkload::ElasticFlow => &PINNED_ELASTICFLOW,
            SimWorkload::MegaEdf => &PINNED_MEGA,
        }
    }

    fn scheduler(self) -> Box<dyn Scheduler> {
        match self {
            SimWorkload::ElasticFlow => Box::new(ElasticFlowScheduler::new()),
            SimWorkload::MegaEdf => Box::new(EdfScheduler::new()),
        }
    }
}

/// Times every event-loop round of a simulation, cutting the run into
/// segments at gauge readings between rounds.
struct RoundClock<'g> {
    pass: Pass<'g>,
    round_start: Instant,
    /// Per round: wall nanoseconds, and the segment it ran in.
    rounds: Vec<(u64, usize)>,
}

impl<'g> RoundClock<'g> {
    fn begin(gauge: &'g mut Gauge) -> Self {
        let pass = Pass::begin(gauge);
        RoundClock {
            pass,
            round_start: Instant::now(),
            rounds: Vec::with_capacity(1024),
        }
    }
}

impl SimObserver for RoundClock<'_> {
    fn on_tick(&mut self, _now: f64, _ctx: &SimContext<'_>) {
        let end = Instant::now();
        let ns = (end - self.round_start).as_nanos() as u64;
        self.rounds.push((ns, self.pass.segment()));
        self.round_start = self.pass.checkpoint(end).unwrap_or(end);
    }
}

/// Times the engine's scheduling phases with a monotonic clock and
/// counts decisions by kind.
#[derive(Debug, Default)]
struct PhaseTimer {
    clock: MonotonicClock,
    open: [u64; 3],
    total_ns: [u64; 3],
    decisions: [u64; 6],
    ticks: u64,
}

fn phase_index(phase: SchedPhase) -> usize {
    match phase {
        SchedPhase::Admission => 0,
        SchedPhase::Planning => 1,
        SchedPhase::Placement => 2,
    }
}

impl SimObserver for PhaseTimer {
    fn on_phase(&mut self, _now: f64, phase: SchedPhase, edge: PhaseEdge, _ctx: &SimContext<'_>) {
        let i = phase_index(phase);
        let t = self.clock.now_nanos();
        match edge {
            PhaseEdge::Begin => self.open[i] = t,
            PhaseEdge::End => self.total_ns[i] += t.saturating_sub(self.open[i]),
        }
    }

    fn on_decision(&mut self, _now: f64, decision: &DecisionRecord, _ctx: &SimContext<'_>) {
        let i = match decision {
            DecisionRecord::Admit { .. } => 0,
            DecisionRecord::Decline { .. } => 1,
            DecisionRecord::Resize { .. } => 2,
            DecisionRecord::Preempt { .. } => 3,
            DecisionRecord::Migrate { .. } => 4,
            DecisionRecord::Pause { .. } => 5,
        };
        self.decisions[i] += 1;
    }

    fn on_tick(&mut self, _now: f64, _ctx: &SimContext<'_>) {
        self.ticks += 1;
    }
}

/// Captures a snapshot at the first round boundary at or past a given
/// simulated time and stops there.
struct CutAt {
    seconds: f64,
    snapshot: Option<SimSnapshot>,
}

impl SimController for CutAt {
    fn directive(&mut self, now: f64, _round: u64) -> RunDirective {
        if now >= self.seconds {
            RunDirective::CheckpointThenStop
        } else {
            RunDirective::Continue
        }
    }

    fn on_snapshot(&mut self, snapshot: SimSnapshot) {
        self.snapshot = Some(snapshot);
    }
}

/// Checks `report` against the first digest seen for instance `k` and,
/// for the default seed, against the pinned digest.
fn check_digest(
    w: SimWorkload,
    seed: u64,
    k: usize,
    report: &SimReport,
    first: &mut [Option<u64>],
    pass: &str,
) -> Result<(), RunError> {
    let digest = outcome_digest(report);
    match first[k] {
        None => first[k] = Some(digest),
        Some(d) if d != digest => {
            return Err(RunError::check(format!(
                "{pass}: outcome digest {digest} of instance {k} differs from {d}"
            )))
        }
        Some(_) => {}
    }
    let pinned = w.pinned()[k];
    if seed == crate::DEFAULT_SEED && digest != pinned {
        return Err(RunError::check(format!(
            "{pass}: outcome digest {digest} of instance {k} differs from the pinned {pinned}"
        )));
    }
    Ok(())
}

/// End-to-end run (`--trace 0`).
///
/// The run's input is [`SimWorkload::instances`] independent traces,
/// simulated in order, each once (the single mega trace repeats for as
/// long as the time allows). Each simulation runs in two halves: the
/// first stops at the round boundary halfway through the trace's arrivals
/// and captures a snapshot there; the second resumes from that snapshot
/// and runs to the end. The resume up to the end of its first round is
/// one recovery (`recover_s`); the rest of both halves is the simulation,
/// with the snapshot capture and that first resumed round left out.
/// Throughput and the p99 latency are per simulation and reported as the
/// interquartile mean over the simulations, so that the few traces that
/// cost several times the rest, and own most of the pooled tail, do not
/// set the result; the p50 latency is the median of every round of the
/// run; `recover_s` is the median recovery. Every resumed outcome must match the pinned digest
/// (seed 1) and, for trace 0, an uninterrupted run.
pub fn run_untraced(w: SimWorkload, seed: u64, seconds: f64) -> Result<Outcome, RunError> {
    let instances = w.instances(seconds);
    // Every timing is taken raw and scaled to the nominal host speed by
    // the reference readings that bracket it.
    let mut gauge = Gauge::new();
    let mut raw = Raw::default();
    let mut setups = Vec::new();
    let mut sims = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        sims = (0..instances)
            .map(|k| {
                let (spec, trace) = w.generate(crate::sub_seed(seed, k));
                (Simulation::new(spec, SimConfig::default()), trace)
            })
            .collect();
        let secs = t0.elapsed().as_secs_f64();
        raw.setup.push(secs);
        setups.push(secs * gauge.factor());
    }

    let mut digests = vec![None; instances];
    let mut dsr = vec![0.0; instances];
    let mut arrivals = 0;
    let mut latency_samples = Vec::new();
    let mut decision_rates = Vec::new();
    let mut event_rates = Vec::new();
    let mut all_rounds: Vec<u64> = Vec::new();
    let mut p99s = Vec::new();
    let mut recoveries = Vec::new();
    let (min_rounds, max_rounds, budget_s) = match w {
        SimWorkload::ElasticFlow => (instances, instances, 0.0),
        SimWorkload::MegaEdf => (2, 1_000, seconds * 0.85),
    };
    let rounds = crate::repeat(min_rounds, max_rounds, budget_s, |round| {
        let k = round % instances;
        let (sim, trace) = &sims[k];
        let last_arrival = trace
            .jobs()
            .iter()
            .map(|j| j.submit_time)
            .fold(0.0, f64::max);

        // First half, up to the cut; the pass ends at the cut's round.
        let mut cut = CutAt {
            seconds: last_arrival / 2.0,
            snapshot: None,
        };
        let mut scheduler = w.scheduler();
        gauge.refresh();
        let mut clock = RoundClock::begin(&mut gauge);
        sim.run_controlled(trace, scheduler.as_mut(), &mut [&mut clock], &mut cut);
        let mut rounds = clock.rounds;
        let end = clock.round_start;
        let first = clock.pass.finish_at(end);
        let (first_raw, first_scaled, first_factors) = (first.raw, first.scaled, first.factors);
        let snapshot = cut
            .snapshot
            .ok_or_else(|| RunError::check("the mid-run cut produced no snapshot"))?;
        let mut scaled_ns: Vec<u64> = rounds
            .iter()
            .map(|&(ns, seg)| (ns as f64 * first_factors[seg]) as u64)
            .collect();

        // Second half, resumed from the snapshot; its first round is the
        // recovery.
        let mut scheduler = w.scheduler();
        gauge.refresh();
        let mut clock = RoundClock::begin(&mut gauge);
        let report = sim
            .resume_observed(trace, scheduler.as_mut(), &mut [&mut clock], &snapshot)
            .map_err(RunError::io)?;
        let second_rounds = clock.rounds;
        let second = clock.pass.finish();
        check_digest(w, seed, k, &report, &mut digests, "resumed simulation")?;
        let (recovery_ns, recovery_seg) = *second_rounds
            .first()
            .ok_or_else(|| RunError::check("the resumed run had no round"))?;
        let recovery_raw = recovery_ns as f64 / 1e9;
        let recovery = recovery_raw * second.factors[recovery_seg];
        raw.recover.push(recovery_raw);
        recoveries.push(recovery);
        rounds.extend_from_slice(&second_rounds[1..]);
        scaled_ns.extend(
            second_rounds[1..]
                .iter()
                .map(|&(ns, seg)| (ns as f64 * second.factors[seg]) as u64),
        );

        let raw_secs = first_raw + second.raw - recovery_raw;
        let secs = first_scaled + second.scaled - recovery;
        dsr[k] = report.deadline_satisfactory_ratio();
        arrivals += trace.jobs().len();
        raw.throughput.push(trace.jobs().len() as f64 / raw_secs);
        decision_rates.push(trace.jobs().len() as f64 / secs);
        event_rates.push(report.timeline().len() as f64 / secs);
        let mut raw_ns: Vec<u64> = rounds.iter().map(|r| r.0).collect();
        raw_ns.sort_unstable();
        scaled_ns.sort_unstable();
        latency_samples.push(scaled_ns.len() as f64);
        let q = |sorted: &[u64], p| {
            tail_quantile(sorted, p)
                .map(|ns| ns as f64 / 1e3)
                .ok_or_else(|| RunError::check("too few rounds"))
        };
        raw.p50.push(q(&raw_ns, 0.5)?);
        raw.p99.push(q(&raw_ns, 0.99)?);
        p99s.push(q(&scaled_ns, 0.99)?);
        all_rounds.extend_from_slice(&scaled_ns);
        Ok(())
    })?
    .len();

    // An uninterrupted run of trace 0 must reproduce the resumed outcome.
    let (sim, trace) = &sims[0];
    let mut scheduler = w.scheduler();
    let report = sim.run(trace, scheduler.as_mut());
    check_digest(
        w,
        seed,
        0,
        &report,
        &mut digests,
        "uninterrupted simulation",
    )?;

    let mut m = Metrics::new();
    m.put_median("setup_s", setups, "s");
    m.put_interquartile_mean("throughput_dps", decision_rates, "decisions/s");
    m.put_interquartile_mean("events_per_s", event_rates, "events/s");
    all_rounds.sort_unstable();
    let p50 = tail_quantile(&all_rounds, 0.5).ok_or_else(|| RunError::check("too few rounds"))?;
    m.put("latency_p50_us", p50 as f64 / 1e3, "us");
    m.note("latency_p50_samples", all_rounds.len() as f64);
    m.put_interquartile_mean("latency_p99_us", p99s, "us");
    m.put(
        "slo_attainment",
        dsr.iter().sum::<f64>() / instances as f64,
        "ratio",
    );
    m.note("traces", instances as f64);
    m.note("simulations", rounds as f64);
    m.note(
        "latency_samples_per_simulation",
        median(&latency_samples).expect("a simulation ran"),
    );
    m.note("arrivals_per_trace", sims[0].1.jobs().len() as f64);
    m.note("recoveries", recoveries.len() as f64);
    m.put_median("recover_s", recoveries, "s");
    raw.note(&mut m, &gauge);
    Ok(Outcome {
        metrics: m,
        attempted: arrivals as u64,
        failed: 0,
    })
}

/// Traced run (`--trace 1`).
pub fn run_traced(w: SimWorkload, seed: u64, seconds: f64) -> Result<Outcome, RunError> {
    let mut generate_ms = Vec::new();
    let mut built = None;
    for _ in 0..2 {
        let t0 = Instant::now();
        let generated = w.generate(crate::sub_seed(seed, 0));
        generate_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        built = Some(generated);
    }
    let (spec, trace) = built.expect("generated");
    let sim = Simulation::new(spec, SimConfig::default());
    let arrivals = trace.jobs().len() as f64;

    let mut digest = vec![None];
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut timers = Vec::new();
    let mut events = 0.0;
    // Alternate untraced and traced runs so drift hits both alike.
    crate::repeat(2, 100, seconds * 0.8, |_| {
        let mut scheduler = w.scheduler();
        let t0 = Instant::now();
        let report = sim.run(&trace, scheduler.as_mut());
        untraced.push(t0.elapsed().as_secs_f64());
        check_digest(w, seed, 0, &report, &mut digest, "untraced simulation")?;

        let mut scheduler = w.scheduler();
        let mut timer = PhaseTimer::default();
        let t0 = Instant::now();
        let report = sim.run_observed(&trace, scheduler.as_mut(), &mut [&mut timer]);
        let wall = t0.elapsed().as_secs_f64();
        check_digest(w, seed, 0, &report, &mut digest, "traced simulation")?;
        events = report.timeline().len() as f64;
        if timer.ticks as f64 != events {
            return Err(RunError::check("round count differs from the timeline"));
        }
        traced.push(wall);
        timers.push((wall, timer));
        Ok(())
    })?;
    // Attribute from the median traced run.
    timers.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (wall, timer) = &timers[timers.len() / 2];
    let [admission, planning, placement] = timer.total_ns.map(|ns| ns as f64 / 1e3);
    let engine = (wall * 1e6 - admission - planning - placement).max(0.0);

    let mut m = Metrics::new();
    m.put(
        "trace_overhead",
        median(&traced).expect("ran") / median(&untraced).expect("ran"),
        "ratio",
    );
    m.put(
        "trace.generate_ms",
        median(&generate_ms).expect("ran"),
        "ms",
    );
    m.put("sim.admission_us", admission / arrivals, "us");
    m.put("sim.planning_us", planning / events, "us");
    m.put("sim.placement_us", placement / events, "us");
    m.put("sim.engine_us", engine / events, "us");
    m.put("sim.events", events, "count");
    m.put("sim.arrivals", arrivals, "count");
    for (name, count) in ["admit", "decline", "resize", "preempt", "migrate", "pause"]
        .iter()
        .zip(timer.decisions)
    {
        m.put(&format!("sched.decisions.{name}"), count as f64, "count");
    }
    m.put("failed_ratio", 0.0, "ratio");
    m.note("traced_runs", traced.len() as f64);
    m.note("traced_wall_s", *wall);
    Ok(Outcome {
        metrics: m,
        attempted: (2 * traced.len()) as u64 * arrivals as u64,
        failed: 0,
    })
}

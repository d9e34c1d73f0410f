//! Host-speed normalisation of timings.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by up
//! to about 1.5x for tens of milliseconds to minutes at a time, without
//! descheduling the benchmark (its CPU time tracks its wall time): the
//! cores simply run slower while other tenants are busy. A median over one
//! run cannot remove a slowdown that lasts the whole run. So the benchmark
//! times a fixed reference computation, plain `std` code that never calls
//! the system under test, between stretches of timed work, and expresses
//! every end-to-end timing at a nominal host speed:
//!
//! ```text
//! normalised time = measured time * NOMINAL_S / reference time
//! ```
//!
//! where the reference time is the mean of the two readings that bracket
//! the stretch. Long passes are cut into segments of about [`PERIOD`],
//! with a reading between segments and the reading's own time left out of
//! the pass. A change to the program moves the measured time and leaves
//! the reference alone, so it shows in full; a slowdown of the host moves
//! both alike and cancels. The raw medians travel in the report line.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::report::Metrics;
use crate::stats::median;

/// Reference time of a host of nominal speed, seconds: about what one
/// reading typically took on the machine the bounds were set on.
pub const NOMINAL_S: f64 = 0.005;

/// Longest stretch of timed work between two readings inside a pass.
pub const PERIOD: Duration = Duration::from_millis(100);

/// The reference work: ordered-map updates, a number codec and a float
/// sort, the kinds of work the benchmarked passes do.
fn piece(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    for _ in 0..24_000 {
        *map.entry(next() % 10_000).or_insert(0) += 1;
    }
    let mut line = String::with_capacity(64);
    let mut acc = 0u64;
    for _ in 0..2_400 {
        line.clear();
        let id = next();
        let value = (id % 1_000_000) as f64 / 7.0;
        let _ = write!(line, "{{\"job\": {id}, \"at_seconds\": {value}}}");
        let start = line.rfind(": ").map_or(0, |i| i + 2);
        let parsed: f64 = line[start..line.len() - 1].parse().unwrap_or(0.0);
        acc = acc.wrapping_add(parsed.to_bits());
    }
    let mut floats: Vec<f64> = (0..24_000)
        .map(|_| (next() % 1_000_000) as f64 * 1.5)
        .collect();
    floats.sort_by(f64::total_cmp);
    acc ^ map.len() as u64 ^ floats[floats.len() / 2].to_bits()
}

/// Seconds one run of the reference work takes now.
fn reading() -> f64 {
    let t = Instant::now();
    black_box(piece(black_box(0x5EED)));
    t.elapsed().as_secs_f64()
}

/// Reference readings taken between stretches of timed work.
#[derive(Debug)]
pub struct Gauge {
    last: f64,
    factors: Vec<f64>,
}

impl Gauge {
    /// Takes the first reading.
    pub fn new() -> Self {
        Gauge {
            last: reading(),
            factors: Vec::new(),
        }
    }

    /// Factor of the latest reading alone: the best estimate of the host's
    /// speed for work about to start.
    pub fn current(&self) -> f64 {
        NOMINAL_S / self.last
    }

    /// Takes a reading to bracket the timed work that follows, after
    /// untimed work since the previous one.
    pub fn refresh(&mut self) {
        self.last = reading();
    }

    /// Takes a reading and returns the factor that scales a time measured
    /// since the previous reading to the nominal host speed.
    pub fn factor(&mut self) -> f64 {
        let now = reading();
        let factor = NOMINAL_S / ((self.last + now) / 2.0);
        self.last = now;
        self.factors.push(factor);
        factor
    }

    /// Every factor handed out, in order.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }
}

/// Measured and scaled seconds of one stretch of timed work.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub raw: f64,
    pub scaled: f64,
}

/// A timed pass cut into segments at gauge readings. The gauge's last
/// reading must directly precede [`Pass::begin`].
#[derive(Debug)]
pub struct Pass<'g> {
    gauge: &'g mut Gauge,
    segment_start: Instant,
    /// Factor of every closed segment, in order.
    pub factors: Vec<f64>,
    /// Measured seconds, readings left out.
    pub raw: f64,
    /// Seconds at the nominal host speed.
    pub scaled: f64,
}

impl<'g> Pass<'g> {
    pub fn begin(gauge: &'g mut Gauge) -> Self {
        Pass {
            gauge,
            segment_start: Instant::now(),
            factors: Vec::new(),
            raw: 0.0,
            scaled: 0.0,
        }
    }

    /// Index of the segment now running.
    pub fn segment(&self) -> usize {
        self.factors.len()
    }

    /// Called between units of work with the current time: once the
    /// segment has run for [`PERIOD`], closes it at `now`, takes a reading
    /// and starts the next segment. Returns the new segment's start.
    pub fn checkpoint(&mut self, now: Instant) -> Option<Instant> {
        if now - self.segment_start < PERIOD {
            return None;
        }
        self.close(now);
        Some(self.segment_start)
    }

    fn close(&mut self, end: Instant) {
        let secs = (end - self.segment_start).as_secs_f64();
        let factor = self.gauge.factor();
        self.raw += secs;
        self.scaled += secs * factor;
        self.factors.push(factor);
        self.segment_start = Instant::now();
    }

    /// Closes the last segment now.
    pub fn finish(self) -> Self {
        self.finish_at(Instant::now())
    }

    /// Closes the last segment at `end`, leaving out whatever ran since.
    pub fn finish_at(mut self, end: Instant) -> Self {
        self.close(end);
        self
    }
}

/// Raw (unscaled) samples of the end-to-end timings, reported as notes
/// beside the scaled metrics.
#[derive(Debug, Default)]
pub struct Raw {
    pub setup: Vec<f64>,
    pub throughput: Vec<f64>,
    pub p50: Vec<f64>,
    pub p99: Vec<f64>,
    pub recover: Vec<f64>,
}

impl Raw {
    /// Notes the raw medians and the median speed factor.
    pub fn note(&self, m: &mut Metrics, gauge: &Gauge) {
        for (name, samples) in [
            ("raw.setup_s", &self.setup),
            ("raw.throughput_dps", &self.throughput),
            ("raw.latency_p50_us", &self.p50),
            ("raw.latency_p99_us", &self.p99),
            ("raw.recover_s", &self.recover),
        ] {
            if let Some(v) = median(samples) {
                m.note(name, v);
            }
        }
        if let Some(f) = median(gauge.factors()) {
            m.note("speed_factor_median", f);
        }
        m.note("speed_readings", gauge.factors().len() as f64 + 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(piece(7), piece(7));
        assert_ne!(piece(7), piece(8));
    }

    #[test]
    fn factor_brackets_the_interval() {
        let mut gauge = Gauge::new();
        let f = gauge.factor();
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(gauge.factors(), &[f]);
    }

    #[test]
    fn pass_leaves_readings_out() {
        let mut gauge = Gauge::new();
        let mut pass = Pass::begin(&mut gauge);
        let t = Instant::now();
        while t.elapsed() < PERIOD * 2 {
            if pass.checkpoint(Instant::now()).is_some() {
                assert_eq!(pass.segment(), pass.factors.len());
            }
        }
        let pass = pass.finish();
        let total = t.elapsed().as_secs_f64();
        let segments = pass.factors.len();
        assert!(segments >= 2);
        // The readings' own time is not in the pass.
        assert!(pass.raw < total && pass.raw > total / 2.0);
        drop(pass);
        assert_eq!(gauge.factors().len(), segments);
    }
}

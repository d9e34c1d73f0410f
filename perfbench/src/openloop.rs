//! Single-threaded open-loop driver.
//!
//! Request `i` becomes due at `start + i * interval`. The driver never
//! sleeps: while nothing is due it spin-waits on the clock, then hands the
//! service every request already due (at most `max_batch`) as one batch.
//! Each request's latency runs from its due time to the end of the batch
//! that answered it, so time spent queued behind a slow batch counts
//! against every request that became due meanwhile.

use std::ops::Range;

/// What one open-loop run observed.
#[derive(Debug, Default)]
pub struct OpenLoopRun {
    /// Per request, nanoseconds from due time to answered.
    pub latency_ns: Vec<u64>,
    /// Per batch that started after an idle wait, nanoseconds by which
    /// the spin-wait overshot the due time: the generator's own lateness.
    pub late_ns: Vec<u64>,
    /// Batches served.
    pub batches: u64,
    /// Most requests that were due but left waiting when a batch was cut.
    pub backlog_max: u64,
}

/// Drives `n` requests due every `interval_ns` through `serve`, which
/// answers the requests in the given index range. `now` reads the clock
/// in nanoseconds.
pub fn run(
    n: usize,
    interval_ns: u64,
    max_batch: usize,
    now: &mut dyn FnMut() -> u64,
    serve: &mut dyn FnMut(Range<usize>),
) -> OpenLoopRun {
    let max_batch = max_batch.max(1);
    let mut out = OpenLoopRun {
        latency_ns: Vec::with_capacity(n),
        ..OpenLoopRun::default()
    };
    let start = now();
    let due = |i: usize| start + i as u64 * interval_ns;
    let mut i = 0;
    while i < n {
        let mut t = now();
        if t < due(i) {
            while t < due(i) {
                t = now();
            }
            out.late_ns.push(t - due(i));
        }
        let mut j = i + 1;
        while j < n && j - i < max_batch && due(j) <= t {
            j += 1;
        }
        let mut waiting = j;
        while waiting < n && due(waiting) <= t {
            waiting += 1;
        }
        out.backlog_max = out.backlog_max.max((waiting - j) as u64);
        serve(i..j);
        let done = now();
        out.latency_ns
            .extend((i..j).map(|k| done.saturating_sub(due(k))));
        out.batches += 1;
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A fake clock: every read advances it by 1 µs, and the service
    /// advances it by the time each batch takes.
    fn drive(n: usize, stall_at: Option<usize>) -> OpenLoopRun {
        let clock = Cell::new(0u64);
        let mut now = || {
            clock.set(clock.get() + 1_000);
            clock.get()
        };
        let clock_ref = &clock;
        let mut serve = |range: Range<usize>| {
            let cost = if stall_at.is_some_and(|s| range.contains(&s)) {
                2_000_000 // 2 ms stall
            } else {
                20_000 * range.len() as u64 // 20 µs per request
            };
            clock_ref.set(clock_ref.get() + cost);
        };
        run(n, 100_000, 64, &mut now, &mut serve)
    }

    #[test]
    fn stall_raises_latency_of_requests_queued_behind_it() {
        let calm = drive(60, None);
        let stalled = drive(60, Some(10));
        assert_eq!(calm.latency_ns.len(), 60);
        assert_eq!(stalled.latency_ns.len(), 60);
        // Before the stall the two runs agree.
        assert_eq!(calm.latency_ns[..10], stalled.latency_ns[..10]);
        // Requests 11..=29 became due during the 2 ms stall (one every
        // 100 µs): each waited for it, and the first waited longest.
        for k in 11..30 {
            assert!(
                stalled.latency_ns[k] > calm.latency_ns[k] + 50_000,
                "request {k}: {} vs {}",
                stalled.latency_ns[k],
                calm.latency_ns[k]
            );
        }
        assert!(stalled.latency_ns[11] > 1_800_000);
        assert!(stalled.backlog_max == 0, "the backlog fits one batch");
        assert!(calm.latency_ns.iter().all(|&l| l < 100_000));
        // The queued requests were served as one batch after the stall.
        assert!(stalled.batches < calm.batches);
    }

    #[test]
    fn idle_waits_record_generator_lateness() {
        let calm = drive(20, None);
        // Every batch but the first started after a spin-wait, and each
        // overshot its due time by less than one clock step.
        assert_eq!(calm.late_ns.len(), 19);
        assert!(calm.late_ns.iter().all(|&l| l < 1_000));
    }
}

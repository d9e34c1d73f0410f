//! Slot-based planning primitives shared by Algorithms 1 and 2.
//!
//! ElasticFlow's formulation (§4.1, conditions (2)–(3)) discretizes time
//! into slots and reasons about per-slot GPU allocations `x_i(t)`. In the
//! running system "slot 0" is the remainder of the current scheduling
//! interval and later slots have the full interval length.

use elasticflow_perfmodel::ScalingCurve;
use elasticflow_trace::JobId;
use serde::{Deserialize, Serialize};

/// The shared work-completion tolerance of the planning stack, in
/// iterations.
///
/// Progressive filling accumulates per-slot iteration counts in floating
/// point, so a job whose work is an exact multiple of its per-slot
/// throughput can land a few ulps short of `remaining_iterations` purely
/// from discretization drift (summing `rate * duration` slot by slot is
/// not associative). Every "has this job finished its work?" comparison
/// therefore allows this absolute slack: `done + WORK_EPSILON >=
/// remaining`. The value must be a single shared constant — if the
/// planner, the trimmer, the runtime auditor, and the theory oracles
/// drift to different epsilons, they start disagreeing about which plans
/// are feasible (enforced by lint rule EF-L005).
pub const WORK_EPSILON: f64 = 1e-9; // elasticflow-lint: allow(EF-L005): canonical definition site of the shared epsilon

/// Slack with which a slot's work counts as finishing the job in the
/// finish-time oracle [`PlanningJob::finish_seconds`] and in its one-pass
/// twin `PlanningJob::profile_cost`, which must agree bit for bit.
const FINISH_TOLERANCE: f64 = 1e-12;

/// The discrete slot grid anchored at "now".
///
/// # Example
///
/// ```
/// use elasticflow_core::SlotGrid;
///
/// // 100 s remain in the current slot; later slots are 300 s.
/// let grid = SlotGrid::new(100.0, 300.0);
/// assert_eq!(grid.duration(0), 100.0);
/// assert_eq!(grid.duration(3), 300.0);
/// // A deadline 500 s away covers slot 0 (100 s) plus one full slot.
/// assert_eq!(grid.slots_before(500.0), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotGrid {
    first: f64,
    rest: f64,
}

impl SlotGrid {
    /// Creates a grid whose slot 0 lasts `first` seconds and whose
    /// subsequent slots last `rest` seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < first <= rest` and both are finite.
    pub fn new(first: f64, rest: f64) -> Self {
        assert!(
            first.is_finite() && rest.is_finite() && first > 0.0 && first <= rest,
            "need 0 < first ({first}) <= rest ({rest})"
        );
        SlotGrid { first, rest }
    }

    /// A grid of uniform slots.
    pub fn uniform(slot_seconds: f64) -> Self {
        SlotGrid::new(slot_seconds, slot_seconds)
    }

    /// Duration of slot `t`, seconds.
    pub fn duration(&self, t: usize) -> f64 {
        if t == 0 {
            self.first
        } else {
            self.rest
        }
    }

    /// Number of *complete* slots that fit before a deadline `window`
    /// seconds from now — the conservative horizon used by admission
    /// control (a partial final slot is not counted, so guarantees are
    /// never optimistic).
    pub fn slots_before(&self, window: f64) -> usize {
        if !window.is_finite() {
            return usize::MAX;
        }
        if window < self.first {
            return 0;
        }
        elasticflow_cluster::num::slots_floor((window - self.first) / self.rest)
            .map_or(usize::MAX, |n| n.saturating_add(1))
    }

    /// The regular slot length.
    pub fn rest_seconds(&self) -> f64 {
        self.rest
    }
}

/// What the planner needs to know about one job.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanningJob {
    /// Job id.
    pub id: JobId,
    /// Profiled scaling curve.
    pub curve: ScalingCurve,
    /// Iterations left to run.
    pub remaining_iterations: f64,
    /// Number of complete slots available before the deadline
    /// (`usize::MAX` for best-effort jobs).
    pub deadline_slot: usize,
}

impl PlanningJob {
    /// Iterations completed in slot `t` when running `gpus` workers.
    pub fn iters_in_slot(&self, gpus: u32, grid: &SlotGrid, t: usize) -> f64 {
        self.curve.iters_per_sec(gpus).unwrap_or(0.0) * grid.duration(t)
    }

    /// Exact (fractional) time at which the job finishes its remaining
    /// work under `profile`, seconds from now — the `finish_time`
    /// Algorithm 2 compares (line 10). `None` if the profile never
    /// completes the job.
    pub fn finish_seconds(&self, profile: &AllocationProfile, grid: &SlotGrid) -> Option<f64> {
        let mut remaining = self.remaining_iterations;
        let mut elapsed = 0.0;
        for (t, &g) in profile.as_slice().iter().enumerate() {
            let rate = self.curve.iters_per_sec(g).unwrap_or(0.0);
            let d = grid.duration(t);
            if rate * d + FINISH_TOLERANCE >= remaining {
                return Some(elapsed + if rate > 0.0 { remaining / rate } else { 0.0 });
            }
            remaining -= rate * d;
            elapsed += d;
        }
        None
    }

    /// A profile's cost: its [`PlanningJob::finish_seconds`] and its
    /// [`AllocationProfile::gpu_seconds`], bit for bit, from one walk.
    ///
    /// The walk visits the profile's constant-grant runs (slot 0, whose
    /// duration may differ, is a run of its own) and hoists the rate
    /// lookup and the per-slot products `rate * d` and `g * d` out of each
    /// run. Every addition and subtraction of the two oracles still happens
    /// once per slot, in slot order, so the results are identical.
    pub(crate) fn profile_cost(
        &self,
        profile: &AllocationProfile,
        grid: &SlotGrid,
    ) -> (Option<f64>, f64) {
        let slots = profile.as_slice();
        let mut finish = None;
        let mut remaining = self.remaining_iterations;
        let mut elapsed = 0.0;
        // Seeded with the identity std's float `Sum` folds from, so even an
        // empty profile matches `gpu_seconds` bit for bit.
        let mut gpu_seconds: f64 = std::iter::empty::<f64>().sum();
        let mut t = 0;
        while t < slots.len() {
            let g = slots[t];
            let end = if t == 0 {
                1
            } else {
                slots[t..]
                    .iter()
                    .position(|&n| n != g)
                    .map_or(slots.len(), |i| t + i)
            };
            let d = grid.duration(t);
            let rate = self.curve.iters_per_sec(g).unwrap_or(0.0);
            let work = rate * d;
            let cost = g as f64 * d;
            for _ in t..end {
                if finish.is_none() {
                    if work + FINISH_TOLERANCE >= remaining {
                        finish = Some(elapsed + if rate > 0.0 { remaining / rate } else { 0.0 });
                    } else {
                        remaining -= work;
                        elapsed += d;
                    }
                }
                gpu_seconds += cost;
            }
            t = end;
        }
        (finish, gpu_seconds)
    }
}

/// A per-slot GPU allocation for one job: the paper's `x_i(t)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocationProfile {
    gpus: Vec<u32>,
}

impl AllocationProfile {
    /// Wraps a per-slot vector (index = slot).
    pub fn new(gpus: Vec<u32>) -> Self {
        AllocationProfile { gpus }
    }

    /// GPUs in slot `t` (0 beyond the profile's horizon).
    pub fn gpus(&self, t: usize) -> u32 {
        self.gpus.get(t).copied().unwrap_or(0)
    }

    /// The profile's horizon (number of slots with entries).
    pub fn len(&self) -> usize {
        self.gpus.len()
    }

    /// `true` when the profile allocates nothing.
    pub fn is_empty(&self) -> bool {
        self.gpus.iter().all(|&g| g == 0)
    }

    /// Total GPU-time of the profile in GPU-slots weighted by slot
    /// durations (the quantity Algorithm 2 minimizes).
    pub fn gpu_seconds(&self, grid: &SlotGrid) -> f64 {
        self.gpus
            .iter()
            .enumerate()
            .map(|(t, &g)| g as f64 * grid.duration(t))
            .sum()
    }

    /// Index of the last slot with a non-zero allocation, if any — a proxy
    /// for the job's finish slot under this profile.
    pub fn last_active_slot(&self) -> Option<usize> {
        self.gpus.iter().rposition(|&g| g > 0)
    }

    /// The raw per-slot vector.
    pub fn as_slice(&self) -> &[u32] {
        &self.gpus
    }

    /// Unwraps the per-slot vector, giving the buffer back to the caller
    /// (planners recycle it through their fill scratch instead of
    /// allocating a fresh vector per profile).
    pub fn into_gpus(self) -> Vec<u32> {
        self.gpus
    }
}

/// Committed GPUs per slot across all already-planned jobs: the
/// `sum_{k < i} x_k(t)` term of Algorithm 1, line 15.
///
/// Views are read from the committed vector on demand, so a mutation
/// costs only the slots it touches.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReservationLedger {
    committed: Vec<u32>,
}

impl ReservationLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        ReservationLedger::default()
    }

    /// GPUs already committed in slot `t`.
    pub fn committed(&self, t: usize) -> u32 {
        self.committed.get(t).copied().unwrap_or(0)
    }

    /// GPUs still free in slot `t` on a cluster of `total` GPUs.
    pub fn free(&self, t: usize, total: u32) -> u32 {
        total.saturating_sub(self.committed(t))
    }

    /// Adds a profile's reservations.
    pub fn commit(&mut self, profile: &AllocationProfile) {
        if self.committed.len() < profile.len() {
            self.committed.resize(profile.len(), 0);
        }
        for (c, &g) in self.committed.iter_mut().zip(profile.as_slice()) {
            *c += g;
        }
    }

    /// Removes a previously committed profile.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the profile was never committed.
    pub fn uncommit(&mut self, profile: &AllocationProfile) {
        debug_assert!(
            profile
                .as_slice()
                .iter()
                .enumerate()
                .all(|(t, &g)| self.committed(t) >= g),
            "uncommit of a profile that was never committed"
        );
        // Slots past the ledger's end hold nothing to remove; `zip` stops
        // at the shorter slice.
        for (c, &g) in self.committed.iter_mut().zip(profile.as_slice()) {
            *c -= g;
        }
        // Keep the representation canonical (no trailing zero slots) so
        // two ledgers holding the same reservations compare equal no
        // matter which commit/uncommit sequence produced them.
        while self.committed.last() == Some(&0) {
            self.committed.pop();
        }
    }

    /// First slot index from which nothing is committed (every slot at or
    /// beyond it is fully free). Lets planners switch to an analytic fast
    /// path instead of walking empty slots one by one. Scans back from the
    /// end, so it costs O(1) plus the number of trailing zero slots.
    pub fn horizon(&self) -> usize {
        self.committed
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1)
    }

    /// Exclusive end of the maximal run of slots whose committed value
    /// equals `committed(t)`, starting at or before `t`. Past the ledger's
    /// end every slot is committed 0 forever, so the run is unbounded
    /// (`usize::MAX`). Scans forward from `t`, so it costs O(run length);
    /// slot walks use it to handle whole constant-commitment regions at
    /// once.
    pub fn run_end(&self, t: usize) -> usize {
        let Some(&c) = self.committed.get(t) else {
            return usize::MAX;
        };
        self.committed[t + 1..]
            .iter()
            .position(|&n| n != c)
            .map_or(self.committed.len(), |i| t + 1 + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_before_boundaries() {
        let grid = SlotGrid::new(100.0, 300.0);
        assert_eq!(grid.slots_before(99.0), 0);
        assert_eq!(grid.slots_before(100.0), 1);
        assert_eq!(grid.slots_before(399.0), 1);
        assert_eq!(grid.slots_before(400.0), 2);
        assert_eq!(grid.slots_before(f64::INFINITY), usize::MAX);
    }

    #[test]
    fn uniform_grid() {
        let grid = SlotGrid::uniform(60.0);
        assert_eq!(grid.duration(0), 60.0);
        assert_eq!(grid.duration(5), 60.0);
        assert_eq!(grid.slots_before(180.0), 3);
    }

    #[test]
    #[should_panic(expected = "need 0 < first")]
    fn grid_rejects_first_longer_than_rest() {
        let _ = SlotGrid::new(400.0, 300.0);
    }

    #[test]
    fn profile_accounting() {
        let grid = SlotGrid::uniform(10.0);
        let p = AllocationProfile::new(vec![1, 0, 4]);
        assert_eq!(p.gpus(0), 1);
        assert_eq!(p.gpus(1), 0);
        assert_eq!(p.gpus(2), 4);
        assert_eq!(p.gpus(99), 0);
        assert_eq!(p.gpu_seconds(&grid), 50.0);
        assert_eq!(p.last_active_slot(), Some(2));
        assert!(!p.is_empty());
        assert!(AllocationProfile::new(vec![0, 0]).is_empty());
    }

    fn planning_job(remaining_iterations: f64) -> PlanningJob {
        use elasticflow_perfmodel::{CurvePoint, DnnModel};
        let point = |gpus, iters_per_sec| CurvePoint {
            gpus,
            iters_per_sec,
        };
        PlanningJob {
            id: JobId::new(0),
            curve: ScalingCurve::from_points(
                DnnModel::ResNet50,
                64,
                vec![point(1, 0.7), point(2, 1.3), point(4, 1.9)],
            ),
            remaining_iterations,
            deadline_slot: usize::MAX,
        }
    }

    /// `profile_cost` against the two oracles it replaces, bitwise.
    fn assert_cost_matches_oracles(job: &PlanningJob, slots: &[u32], grid: &SlotGrid) {
        let profile = AllocationProfile::new(slots.to_vec());
        let (finish, gpu_seconds) = job.profile_cost(&profile, grid);
        let bits = |f: Option<f64>| f.map(f64::to_bits);
        assert_eq!(
            bits(finish),
            bits(job.finish_seconds(&profile, grid)),
            "finish of {slots:?}"
        );
        assert_eq!(
            gpu_seconds.to_bits(),
            profile.gpu_seconds(grid).to_bits(),
            "GPU-seconds of {slots:?}"
        );
    }

    #[test]
    fn profile_cost_matches_finish_and_gpu_seconds_bitwise() {
        let uniform = SlotGrid::uniform(1.1);
        let anchored = SlotGrid::new(0.37, 1.1);
        let cases: &[(f64, &[u32])] = &[
            // Empty profile: never finishes positive work, costs nothing.
            (1.0, &[]),
            (0.0, &[]),
            // Leading zero slots.
            (2.5, &[0, 0, 0, 2, 2, 2, 4]),
            // Trailing zero slots after the finish.
            (1.0, &[1, 1, 0, 0, 0]),
            // Finishes mid-slot inside a long run.
            (5.3, &[1, 2, 2, 2, 2, 2, 2, 1]),
            // Never finishes.
            (100.0, &[4, 4, 2, 2, 1, 0, 1]),
            // Finishes in slot 0.
            (0.1, &[2, 2]),
        ];
        for &(work, slots) in cases {
            for grid in [&uniform, &anchored] {
                assert_cost_matches_oracles(&planning_job(work), slots, grid);
            }
        }
    }

    #[test]
    fn profile_cost_matches_when_the_tolerance_fires_early() {
        // Three slots of 1 iteration leave 5e-13 undone, inside the finish
        // tolerance: the job finishes in slot 2 although slots 3 and 4 are
        // still booked and still count toward GPU-seconds.
        let grid = SlotGrid::uniform(1.0);
        let mut job = planning_job(3.0 + 5e-13);
        job.curve = ScalingCurve::from_points(
            elasticflow_perfmodel::DnnModel::ResNet50,
            64,
            vec![elasticflow_perfmodel::CurvePoint {
                gpus: 1,
                iters_per_sec: 1.0,
            }],
        );
        let three_slots = AllocationProfile::new(vec![1; 3]);
        assert!(job.finish_seconds(&three_slots, &grid).is_some());
        assert_cost_matches_oracles(&job, &[1; 5], &grid);
    }

    #[test]
    fn ledger_commit_uncommit() {
        let mut ledger = ReservationLedger::new();
        let a = AllocationProfile::new(vec![2, 2, 0]);
        let b = AllocationProfile::new(vec![1, 4, 4, 4]);
        ledger.commit(&a);
        ledger.commit(&b);
        assert_eq!(ledger.committed(0), 3);
        assert_eq!(ledger.committed(1), 6);
        assert_eq!(ledger.committed(3), 4);
        assert_eq!(ledger.free(1, 8), 2);
        ledger.uncommit(&a);
        assert_eq!(ledger.committed(0), 1);
        assert_eq!(ledger.committed(1), 4);
    }

    #[test]
    fn free_saturates_at_zero() {
        let mut ledger = ReservationLedger::new();
        ledger.commit(&AllocationProfile::new(vec![16]));
        assert_eq!(ledger.free(0, 8), 0);
    }

    #[test]
    fn horizon_tracks_mutations() {
        let mut ledger = ReservationLedger::new();
        assert_eq!(ledger.horizon(), 0);
        let a = AllocationProfile::new(vec![2, 2, 0]);
        let b = AllocationProfile::new(vec![1, 4, 4, 4]);
        ledger.commit(&a);
        // A committed trailing zero slot is not part of the horizon.
        assert_eq!(ledger.horizon(), 2);
        ledger.commit(&b);
        assert_eq!(ledger.horizon(), 4);
        ledger.uncommit(&b);
        assert_eq!(ledger.horizon(), 2);
    }

    #[test]
    fn run_end_spans_constant_regions() {
        let mut ledger = ReservationLedger::new();
        ledger.commit(&AllocationProfile::new(vec![2, 2, 2, 5, 5, 0, 0, 1]));
        assert_eq!(ledger.run_end(0), 3);
        assert_eq!(ledger.run_end(1), 3);
        assert_eq!(ledger.run_end(2), 3);
        assert_eq!(ledger.run_end(3), 5);
        assert_eq!(ledger.run_end(5), 7);
        assert_eq!(ledger.run_end(7), 8);
        // Beyond the committed vector every slot is free forever.
        assert_eq!(ledger.run_end(8), usize::MAX);
        assert_eq!(ledger.run_end(1000), usize::MAX);
        // Runs follow mutations.
        ledger.commit(&AllocationProfile::new(vec![0, 0, 0, 0, 0, 2]));
        assert_eq!(ledger.committed(5), 2);
        assert_eq!(ledger.run_end(3), 5);
        assert_eq!(ledger.run_end(5), 6);
        assert_eq!(ledger.run_end(6), 7);
    }

    #[test]
    fn ledger_serializes_as_its_committed_vector() {
        let mut ledger = ReservationLedger::new();
        ledger.commit(&AllocationProfile::new(vec![1, 2]));
        let json = serde_json::to_string(&ledger).unwrap();
        assert_eq!(json, r#"{"committed":[1,2]}"#);
        let back: ReservationLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ledger);
        assert_eq!(ledger.clone(), ledger);
    }
}

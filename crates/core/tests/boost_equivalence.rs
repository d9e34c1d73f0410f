//! Differential property test for the Algorithm 2 boost loop.
//!
//! The heap-driven [`ResourceAllocator::boost`] replaced a linear
//! marginal-return rescan, and it carries each profile's cost instead of
//! re-walking profiles. The linear scan lives on here as
//! [`boost_reference`], written against the public API and pricing every
//! candidate the plain way (`finish_seconds` and `gpu_seconds` on both
//! profiles), so this test holds the two against each other on random
//! instances. They must agree on *everything* — the GPUs spent, every
//! resulting profile, and the committed ledger — because the replan
//! path's output feeds the golden replay digests, where any divergence is
//! an observable behavior change.

use std::collections::BTreeMap;

use elasticflow_core::{
    progressive_filling, progressive_filling_with, AllocationProfile, FillScratch, PlanningJob,
    ReservationLedger, ResourceAllocator, SlotGrid, WORK_EPSILON,
};
use elasticflow_perfmodel::{CurvePoint, DnnModel, ScalingCurve};
use elasticflow_trace::JobId;
use proptest::prelude::*;

/// One pending boost of the reference scan.
struct Boost {
    priority: f64,
    id: JobId,
    extra: u32,
    profile: AllocationProfile,
    version: u64,
}

/// The linear-scan oracle for [`ResourceAllocator::boost`] on a cluster of
/// `total_gpus`: every round rescans all pending boosts for the best one
/// (restorations toward incumbent sizes first, then highest marginal
/// return, smallest id as the final tiebreak).
#[allow(clippy::too_many_arguments)]
fn boost_reference(
    total_gpus: u32,
    jobs: &[PlanningJob],
    grid: &SlotGrid,
    profiles: &mut BTreeMap<JobId, AllocationProfile>,
    ledger: &mut ReservationLedger,
    budget: u32,
    incumbents: &BTreeMap<JobId, u32>,
) -> u32 {
    let jobs_by_id: BTreeMap<JobId, &PlanningJob> = jobs.iter().map(|j| (j.id, j)).collect();
    let mut free0 = budget;
    let mut version = 0u64;
    let mut scratch = FillScratch::new();
    let mut candidate = |job: &PlanningJob,
                         current: &AllocationProfile,
                         ledger: &mut ReservationLedger,
                         free0: u32,
                         version: u64| {
        let cur0 = current.gpus(0);
        let next0 = if cur0 == 0 { 1 } else { cur0 * 2 };
        if next0 > job.curve.clamp_useful(total_gpus) {
            return None;
        }
        let extra = next0 - cur0;
        if extra > free0 {
            return None;
        }
        ledger.uncommit(current);
        let fresh =
            progressive_filling_with(job, ledger, grid, total_gpus, Some(next0), &mut scratch);
        ledger.commit(current);
        let fresh = fresh?;
        let finishes_earlier = match (
            job.finish_seconds(&fresh, grid),
            job.finish_seconds(current, grid),
        ) {
            (Some(a), Some(b)) => a + WORK_EPSILON < b,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !finishes_earlier {
            return None;
        }
        let saved = current.gpu_seconds(grid) - fresh.gpu_seconds(grid);
        Some(Boost {
            priority: saved / extra as f64,
            id: job.id,
            extra,
            profile: fresh,
            version,
        })
    };
    let restoring = |b: &Boost| b.profile.gpus(0) <= incumbents.get(&b.id).copied().unwrap_or(0);
    let mut queue: Vec<Boost> = profiles
        .iter()
        .filter_map(|(id, profile)| candidate(jobs_by_id[id], profile, ledger, free0, version))
        .collect();
    while free0 > 0 {
        let Some(best_idx) = queue
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                restoring(a)
                    .cmp(&restoring(b))
                    .then(a.priority.total_cmp(&b.priority))
                    .then(b.id.cmp(&a.id))
            })
            .map(|(i, _)| i)
        else {
            break;
        };
        let boost = queue.swap_remove(best_idx);
        let job = jobs_by_id[&boost.id];
        if boost.version < version {
            // Stale: recompute against the current ledger and re-queue.
            let current = &profiles[&boost.id];
            queue.extend(candidate(job, current, ledger, free0, version));
            continue;
        }
        if boost.extra > free0 {
            continue; // cannot ever fit again: free0 only shrinks
        }
        let old = profiles
            .insert(boost.id, boost.profile.clone())
            .expect("boosted job has a profile");
        ledger.uncommit(&old);
        ledger.commit(&boost.profile);
        free0 -= boost.extra;
        version += 1;
        queue.extend(candidate(job, &profiles[&boost.id], ledger, free0, version));
    }
    budget - free0
}

/// A random concave power-of-two curve up to 8 GPUs.
fn concave_curve() -> impl Strategy<Value = ScalingCurve> {
    (0.5f64..2.0, 0.3f64..0.95, 0.3f64..0.95, 0.2f64..0.9).prop_map(|(t1, d1, d2, d3)| {
        let g2 = t1 + t1 * d1;
        let g4 = g2 + 2.0 * t1 * d1 * d2;
        let g8 = g4 + 4.0 * t1 * d1 * d2 * d3;
        ScalingCurve::from_points(
            DnnModel::ResNet50,
            64,
            vec![
                CurvePoint {
                    gpus: 1,
                    iters_per_sec: t1,
                },
                CurvePoint {
                    gpus: 2,
                    iters_per_sec: g2,
                },
                CurvePoint {
                    gpus: 4,
                    iters_per_sec: g4,
                },
                CurvePoint {
                    gpus: 8,
                    iters_per_sec: g8,
                },
            ],
        )
    })
}

/// Random jobs — curve, work in one-GPU seconds, deadline slot — plus a
/// per-job incumbent GPU count (0 = no incumbent), the incumbents being
/// what steers the heap's restoring-first ordering. Short jobs keep
/// profiles to a few slots; long ones reach a few hundred slots, where
/// profiles span several constant-grant runs, fills finish on the
/// analytic fast path, and final slots get trimmed.
#[allow(clippy::type_complexity)]
fn instance() -> impl Strategy<Value = Vec<(ScalingCurve, f64, usize, u32)>> {
    let job = prop_oneof![
        (concave_curve(), 0.2f64..6.0, 1usize..6, 0u32..5),
        // Work of 0.2–3 one-GPU seconds per slot of horizon: from a
        // trickle to several GPUs' worth, so fills contend for capacity.
        (concave_curve(), 0.2f64..3.0, 1usize..300, 0u32..5).prop_map(
            |(curve, per_slot, deadline_slot, incumbent)| {
                (
                    curve,
                    per_slot * deadline_slot as f64,
                    deadline_slot,
                    incumbent,
                )
            }
        ),
    ];
    prop::collection::vec(job, 1..9)
}

/// Uniform unit slots, or a fractional first slot (`first < rest`) as the
/// simulator's grids anchored mid-interval have.
fn grid() -> impl Strategy<Value = SlotGrid> {
    prop_oneof![
        Just(SlotGrid::uniform(1.0)),
        (0.05f64..1.0, 0.5f64..4.0).prop_map(|(frac, rest)| SlotGrid::new(frac * rest, rest)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On random job/curve/grid/incumbent/budget sets, the heap-driven
    /// boost and the linear reference walk the same trajectory.
    #[test]
    fn heap_boost_matches_linear_reference(
        specs in instance(),
        grid in grid(),
        big_cluster in any::<bool>(),
        budget_pick in 0u32..17,
    ) {
        // A 16-GPU cluster leaves room to boost several jobs to the
        // curves' 8-GPU top, so boosts of one job interleave with others'.
        let total = if big_cluster { 16u32 } else { 8 };
        let alloc = ResourceAllocator::new(total);

        let mut jobs = Vec::new();
        let mut incumbents = BTreeMap::new();
        for (i, (curve, work_scale, deadline_slot, incumbent)) in specs.into_iter().enumerate() {
            let id = JobId::new(i as u64);
            let work = work_scale
                * curve
                    .iters_per_sec(1)
                    .expect("1 GPU is always on the curve");
            if incumbent > 0 {
                incumbents.insert(id, incumbent);
            }
            jobs.push(PlanningJob {
                id,
                curve,
                remaining_iterations: work,
                deadline_slot,
            });
        }

        // Rebuild Algorithm 2's phase 1 (minimum satisfactory shares) so
        // the boost loops start from a realistic mid-pipeline state.
        let mut profiles = BTreeMap::new();
        let mut ledger = ReservationLedger::new();
        for job in &jobs {
            if let Some(p) = progressive_filling(job, &ledger, &grid, total, None) {
                ledger.commit(&p);
                profiles.insert(job.id, p);
            }
        }
        let used: u32 = profiles.values().map(|p| p.gpus(0)).sum();
        let free0 = total.saturating_sub(used);
        // Budgets from 0 up to the full leftover, including starved ones.
        let budget = if free0 == 0 { 0 } else { budget_pick % (free0 + 1) };

        let mut p_heap = profiles.clone();
        let mut l_heap = ledger.clone();
        let spent_heap = alloc.boost(&jobs, &grid, &mut p_heap, &mut l_heap, budget, &incumbents);

        let mut p_ref = profiles;
        let mut l_ref = ledger;
        let spent_ref =
            boost_reference(total, &jobs, &grid, &mut p_ref, &mut l_ref, budget, &incumbents);

        prop_assert_eq!(spent_heap, spent_ref, "GPUs spent diverge");
        prop_assert_eq!(&p_heap, &p_ref, "resulting profiles diverge");
        prop_assert_eq!(&l_heap, &l_ref, "committed ledgers diverge");
        prop_assert!(spent_heap <= budget, "boost overspent its budget");
    }
}

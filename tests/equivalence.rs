//! One equivalence harness for every host-side run option.
//!
//! A run is a point in the space of axes defined in `support`: model
//! axes decide the canonical report, variant axes must leave it
//! unchanged. The per-axis suites sweep one variant axis at a time, so
//! they never run a pair such as chaos × mesh backend or profiling ×
//! empty fault plan. Crossing every axis would take thousands of runs;
//! instead a greedy generator adds points until every pair of values of
//! any two axes has run together at least once, and each point is
//! checked against its model's canonical report. A new axis in
//! `support::AXES` is covered here with no change to this file.

mod support;

use support::{at, check_against_canonical, Point, AXES, FAULT, PLAN};

/// One value of one axis, as `(axis, label)`.
type Slot = (usize, &'static str);

/// Whether two axis values may share a point: a chaos chip has a plan,
/// so how an *empty* plan is written applies to healthy points only.
fn allowed(x: Slot, y: Slot) -> bool {
    let chaos_with_empty_plan = |f, p| f == (FAULT, "chaos") && p == (PLAN, "FaultPlan::none()");
    !(chaos_with_empty_plan(x, y) || chaos_with_empty_plan(y, x))
}

/// A deterministic pairwise-covering point set. Each new point starts
/// from the first uncovered pair and gives every other axis the allowed
/// value that covers the most still-uncovered pairs (ties to the earlier
/// value), so every point covers at least one new pair and the loop ends
/// once no pair is left.
fn pairwise() -> Vec<Point> {
    let slots: Vec<Slot> = AXES
        .iter()
        .enumerate()
        .flat_map(|(a, (_, labels))| labels.iter().map(move |&v| (a, v)))
        .collect();
    // Pairs in slot order, so "first uncovered" does not depend on labels.
    let mut uncovered: Vec<(Slot, Slot)> = slots
        .iter()
        .flat_map(|&x| slots.iter().map(move |&y| (x, y)))
        .filter(|&(x, y)| x.0 < y.0 && allowed(x, y))
        .collect();
    let mut points = Vec::new();
    while let Some(&(x, y)) = uncovered.first() {
        let mut chosen = vec![x, y];
        for (c, (_, labels)) in AXES.iter().enumerate() {
            if chosen.iter().any(|&(a, _)| a == c) {
                continue;
            }
            let gain = |v| {
                let z = (c, v);
                chosen
                    .iter()
                    .filter(|&&d| uncovered.contains(&(d.min(z), d.max(z))))
                    .count()
            };
            let v = labels
                .iter()
                .copied()
                .filter(|&v| chosen.iter().all(|&d| allowed(d, (c, v))))
                .rev()
                .max_by_key(|&v| gain(v))
                .expect("value 0 is always allowed");
            chosen.push((c, v));
        }
        uncovered.retain(|(x, y)| !(chosen.contains(x) && chosen.contains(y)));
        points.push(at(&chosen));
    }
    points
}

#[test]
fn every_pair_of_axis_values_reproduces_the_canonical_report() {
    check_against_canonical(pairwise());
}

//! Minimal self-contained wall-clock timing harness for the
//! `harness = false` bench targets — no external benchmarking crate, so it
//! works in fully offline builds.

use std::time::{Duration, Instant};

/// Times `f` and prints `name`, the iteration count and ns/iter.
///
/// Warms up for ~50 ms to estimate per-iteration cost, then sizes the
/// measured run to roughly 200 ms. Coarse compared to a statistical
/// harness, but stable enough to spot order-of-magnitude regressions.
pub fn bench(name: &str, mut f: impl FnMut()) {
    let budget = Duration::from_millis(200);
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < Duration::from_millis(50) && warm_iters < 1_000_000 {
        f();
        warm_iters += 1;
    }
    let per_iter_ns = warm_start.elapsed().as_nanos().max(1) / u128::from(warm_iters.max(1));
    let iters = (budget.as_nanos() / per_iter_ns).clamp(1, 10_000_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let ns = start.elapsed().as_nanos() / u128::from(iters);
    println!("{name:<36} {iters:>9} iters  {ns:>12} ns/iter");
}

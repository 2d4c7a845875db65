//! The cycle-skipping contract: event-horizon fast-forwarding is a pure
//! wall-clock optimisation. For every HTC benchmark, at one and four
//! workers, a run with skipping on reproduces the skip-off canonical
//! report bit for bit — and on these memory-bound workloads the skipper
//! must actually engage, with stepped + skipped shard-cycles tiling the
//! run (checked on every point by `support`).

mod support;

use smarco::workloads::Benchmark;
use support::{at, check_against_canonical, LOAD, SKIP, WORKERS};

#[test]
fn skip_on_and_off_are_bit_identical_on_all_benchmarks() {
    check_against_canonical(Benchmark::ALL.iter().flat_map(|bench| {
        ["1", "4"].map(|workers| at(&[(LOAD, bench.name()), (WORKERS, workers), (SKIP, "on")]))
    }));
}

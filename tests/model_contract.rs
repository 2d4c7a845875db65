//! The horizon contract checker is observation-only: `SmarcoSystem`
//! installs the config-derived `HorizonContract` on its PDES engine by
//! default, so every debug-build run cross-checks each boundary envelope
//! against the floors the static verifier reasons about (`SL0421`), and a
//! checked run's report is bit-identical to an unchecked one on every HTC
//! benchmark.

mod support;

use smarco::workloads::Benchmark;
use support::{at, check_against_canonical, CHECKER, LOAD, WORKERS};

#[test]
fn checked_runs_are_bit_identical_to_unchecked_on_all_benchmarks() {
    // The canonical run keeps the checker on; a panic there is a broken
    // horizon promise. The same chip with the checker removed, at one
    // and four workers, must not differ in a single bit.
    check_against_canonical(Benchmark::ALL.iter().flat_map(|bench| {
        ["1", "4"].map(|workers| at(&[(LOAD, bench.name()), (WORKERS, workers), (CHECKER, "off")]))
    }));
}

//! The sharded chip's determinism contract: running `SmarcoSystem` with
//! any number of PDES worker threads produces a bit-identical
//! [`SmarcoReport`] to the sequential run — on every HTC benchmark, under
//! a chaos plan, and with the observability layer on or off. Shard
//! interactions travel as `(timestamp, sender, sequence)`-ordered
//! boundary messages, so host thread interleaving can never leak into
//! simulated state.
//!
//! [`SmarcoReport`]: smarco::core::report::SmarcoReport

mod support;

use smarco::workloads::Benchmark;
use support::{at, check_against_canonical, FAULT, LOAD, OBS, WORKERS};

#[test]
fn every_worker_count_matches_sequential_on_all_benchmarks() {
    // 16 workers exceeds the tiny chip's 5 shards — the engine clamps,
    // exercising the workers >= shards path too.
    check_against_canonical(Benchmark::ALL.iter().flat_map(|bench| {
        ["2", "4", "16"].map(|workers| at(&[(LOAD, bench.name()), (WORKERS, workers)]))
    }));
}

#[test]
fn oversubscribed_and_odd_worker_counts_match_under_chaos() {
    // The exchange path must hold up when worker groups split the shards
    // unevenly (3), when workers exceed the shard count (16), and when
    // they exceed the *host's* parallelism outright (2x the CPU count),
    // where the adaptive barrier falls back to yield-on-every-check. The
    // degradation section is part of `SmarcoReport`'s equality, and the
    // chaos canonical must show retries and a quarantined core, so fault
    // damage and recovery are bit-identical too.
    check_against_canonical(
        ["3", "16", "2x host CPUs"]
            .map(|workers| at(&[(LOAD, "WordCount"), (FAULT, "chaos"), (WORKERS, workers)])),
    );
}

#[test]
fn parallel_observed_run_matches_sequential_unobserved() {
    // The observed parallel run must also capture real observations: a
    // non-empty trace and at least one closed metrics window.
    check_against_canonical([at(&[(LOAD, "TeraSort"), (WORKERS, "4"), (OBS, "full")])]);
}

//! The backend determinism contract: every pluggable NoC backend runs
//! every HTC benchmark to completion and produces a bit-identical
//! [`SmarcoReport`] regardless of PDES worker count or whether
//! event-horizon cycle skipping is enabled. The interconnect model may
//! differ *across* backends — that is the point of the sweep — but
//! within one backend the report is a pure function of the config and
//! the seeds.
//!
//! [`SmarcoReport`]: smarco::core::report::SmarcoReport

mod support;

use smarco::workloads::Benchmark;
use support::{at, check_against_canonical, AXES, BACKEND, LOAD, SKIP, WORKERS};

#[test]
fn every_backend_is_bit_identical_across_workers_and_skip() {
    let variants = [("1", "on"), ("4", "off"), ("4", "on")];
    check_against_canonical(AXES[BACKEND].1.iter().flat_map(|&backend| {
        Benchmark::ALL.iter().flat_map(move |bench| {
            variants.map(|(workers, skip)| {
                at(&[
                    (LOAD, bench.name()),
                    (BACKEND, backend),
                    (WORKERS, workers),
                    (SKIP, skip),
                ])
            })
        })
    }));
}

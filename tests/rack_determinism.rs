//! Rack-scale determinism: a cluster run is a pure function of its
//! configuration. The full [`ClusterReport`] — latency histogram, SLO
//! counters, and every chip's report — is bit-identical across PDES
//! worker counts {1, 4} × cycle_skip {off, on}, healthy or with a chaos
//! plan on one chip. (That traffic is a pure function of its seed is
//! checked by the `cluster::traffic` unit tests.)

use smarco::core::cluster::{BalancePolicy, Cluster, ClusterReport, FabricConfig, TrafficProfile};
use smarco::core::config::SmarcoConfig;
use smarco::core::fault::FaultPlan;

const MAX_CYCLES: u64 = 10_000_000;

/// A 4-chip laxity-aware rack serving 80 Poisson requests, healthy or
/// with chaos on chip 0, drained to completion.
fn rack(workers: usize, cycle_skip: bool, chaos: bool) -> ClusterReport {
    let chip = SmarcoConfig::tiny();
    let mut builder = Cluster::builder()
        .chips(4)
        .chip(chip.clone())
        .fabric(FabricConfig::datacenter())
        .traffic(TrafficProfile::poisson(97, 2.0).slo(5_000).requests(80))
        .policy(BalancePolicy::LaxityAware)
        .workers(workers)
        .cycle_skip(cycle_skip);
    if chaos {
        builder = builder.fault_plan(0, FaultPlan::chaos(13, &chip));
    }
    let mut cluster = builder.build().expect("valid cluster");
    let report = cluster.run(MAX_CYCLES);
    assert!(
        cluster.is_done(),
        "rack did not drain at workers={workers} skip={cycle_skip} chaos={chaos}"
    );
    report
}

/// Every `(workers, skip)` row, the canonical `(1, off)` included as a
/// rerun, reproduces the canonical rack report.
fn rows_reproduce_the_canonical_report(chaos: bool) -> ClusterReport {
    let expected = rack(1, false, chaos);
    assert_eq!(expected.offered, 80);
    for workers in [1, 4] {
        for cycle_skip in [false, true] {
            assert_eq!(
                rack(workers, cycle_skip, chaos),
                expected,
                "rack report differs at workers={workers} skip={cycle_skip} chaos={chaos}"
            );
        }
    }
    expected
}

#[test]
fn healthy_cluster_reports_are_bit_identical_across_workers_and_skip() {
    let report = rows_reproduce_the_canonical_report(false);
    assert_eq!(report.completed, 80, "healthy rack dropped requests");
}

#[test]
fn chaos_cluster_reports_are_bit_identical_across_workers_and_skip() {
    rows_reproduce_the_canonical_report(true);
}

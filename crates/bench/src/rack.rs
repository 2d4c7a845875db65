//! Rack-scale serving sweep: balancing policies × offered-load points
//! over a multi-chip [`Cluster`], written to [`BENCH_FILE`].
//!
//! Each cell builds a fresh cluster of tiny chips behind the datacenter
//! fabric, offers an open-loop Poisson stream at a target utilization
//! (the arrival rate is derived from the size distribution's mean and
//! the cluster's aggregate issue width, so `1.0` means offered work
//! equals capacity), runs it to completion, and records the end-to-end
//! latency tail (p50/p99/p99.9) plus the SLO miss rate. The JSON file
//! follows the other bench writers: the sweep's fields, then one entry
//! per cell.
//!
//! Every field is simulated and bit-deterministic, so a rerun
//! reproduces the file byte for byte.

use std::fmt;
use std::path::{Path, PathBuf};

use smarco_core::cluster::{
    BalancePolicy, Cluster, ClusterReport, FabricConfig, SizeDistribution, TrafficProfile,
};
use smarco_core::config::SmarcoConfig;
use smarco_core::fault::FaultPlan;
use smarco_sim::Cycle;

use crate::Scale;

/// Default output filename, written to the working directory.
pub const BENCH_FILE: &str = "BENCH_rack.json";

/// Simulated-cycle ceiling; the finite request stream drains far
/// earlier on every sane cell.
const MAX_CYCLES: Cycle = 50_000_000;

/// End-to-end SLO every cell scores against, in cycles: roughly ten
/// times the tiny chip's median service latency, so the miss column
/// stays clean at low load and comes alive past saturation.
pub const SLO: Cycle = 5_000;

/// Simulated stream length per cell, in cycles. The request count is
/// derived from this (`rate × duration`), so every cell serves the same
/// interval and the overload points accumulate enough backlog for the
/// queueing delay — `duration × (utilization − 1)` at the tail — to
/// cross [`SLO`].
pub fn stream_cycles(scale: Scale) -> Cycle {
    scale.scaled(40_000, 160_000)
}

/// Seed for every cell's traffic stream: identical arrivals and sizes
/// across policies, so columns differ only by routing.
const TRAFFIC_SEED: u64 = 97;

/// The offered-load points of the sweep, as fractions of the cluster's
/// aggregate issue width. The last point exceeds 1.0 on purpose: an
/// open-loop stream past saturation is where the policies separate and
/// the SLO miss column comes alive (lint SL0461 warns on exactly this
/// shape when it is unintentional).
pub fn utilizations(scale: Scale) -> &'static [f64] {
    match scale {
        Scale::Quick => &[0.2, 0.6, 1.2],
        Scale::Paper => &[0.2, 0.4, 0.6, 0.8, 1.0, 1.2],
    }
}

/// The arrival rate (requests per 1000 cycles) that offers
/// `utilization` of a `chips`-chip cluster's aggregate width.
pub fn rate_for(utilization: f64, chips: usize, chip: &SmarcoConfig) -> f64 {
    let width = (chip.noc.cores() * chip.tcg.pairs) as f64;
    utilization * chips as f64 * width * 1000.0 / SizeDistribution::serving().mean_work()
}

/// One (policy, load point) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RackEntry {
    /// Balancing policy name (`round_robin`, `shortest_queue`, ...).
    pub policy: &'static str,
    /// Target fraction of aggregate cluster capacity.
    pub utilization: f64,
    /// Offered arrival rate in requests per 1000 cycles.
    pub per_kcycle: f64,
    /// Requests the frontend generated and routed.
    pub offered: u64,
    /// Requests whose completion reached the frontend.
    pub completed: u64,
    /// Completions later than `arrival + slo`.
    pub slo_misses: u64,
    /// `slo_misses / completed` (0 when nothing completed).
    pub slo_miss_rate: f64,
    /// Median end-to-end latency in cycles.
    pub p50: f64,
    /// 99th-percentile end-to-end latency in cycles.
    pub p99: f64,
    /// 99.9th-percentile end-to-end latency in cycles.
    pub p999: f64,
    /// Simulated cycles to drain the cell.
    pub cycles: Cycle,
}

impl RackEntry {
    fn to_json(&self) -> String {
        format!(
            "{{\"policy\":\"{}\",\"utilization\":{:.2},\"per_kcycle\":{:.4},\
             \"offered\":{},\"completed\":{},\"slo_misses\":{},\
             \"slo_miss_rate\":{:.6},\"p50\":{:.1},\"p99\":{:.1},\
             \"p999\":{:.1},\"cycles\":{}}}",
            self.policy,
            self.utilization,
            self.per_kcycle,
            self.offered,
            self.completed,
            self.slo_misses,
            self.slo_miss_rate,
            self.p50,
            self.p99,
            self.p999,
            self.cycles,
        )
    }
}

/// The full sweep destined for [`BENCH_FILE`].
#[derive(Debug, Clone, PartialEq)]
pub struct RackReport {
    /// PDES workers driving each cell's chip shards.
    pub workers: usize,
    /// Experiment scale of the sweep.
    pub scale: Scale,
    /// Chips in the cluster every cell ran on.
    pub chips: usize,
    /// End-to-end SLO the miss columns score against, in cycles.
    pub slo: Cycle,
    /// Chaos seed injected into chip 0, when the sweep ran degraded.
    pub faults: Option<u64>,
    /// Entries in run order (policy-major, then load point).
    pub entries: Vec<RackEntry>,
}

impl RackReport {
    /// Serialises the report as a JSON object, sweep fields first
    /// (hand-rolled: the workspace is dependency-free). The rack's chips
    /// always skip cycles.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self.entries.iter().map(RackEntry::to_json).collect();
        let faults = self
            .faults
            .map_or_else(|| "null".to_string(), |s| s.to_string());
        format!(
            "{{{},\n \"chips\":{},\"slo\":{},\"faults\":{},\n \
             \"entries\":[\n  {}\n]}}\n",
            crate::sweep_fields(&[self.workers], true, self.scale),
            self.chips,
            self.slo,
            faults,
            body.join(",\n  ")
        )
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Writes the report to [`BENCH_FILE`] in the working directory and
    /// returns the path.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written.
    pub fn write_default(&self) -> std::io::Result<PathBuf> {
        let path = PathBuf::from(BENCH_FILE);
        self.write(&path)?;
        Ok(path)
    }
}

impl fmt::Display for RackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}-chip rack, SLO {} cycles{}:",
            self.chips,
            self.slo,
            match self.faults {
                Some(seed) => format!(", chaos seed {seed} on chip 0"),
                None => String::new(),
            }
        )?;
        writeln!(
            f,
            "{:<16} {:>5} {:>9} {:>7} {:>8} {:>8} {:>8} {:>9}",
            "policy", "util", "offered", "missed", "p50", "p99", "p99.9", "cycles"
        )?;
        for e in &self.entries {
            writeln!(
                f,
                "{:<16} {:>5.2} {:>9} {:>6.1}% {:>8.0} {:>8.0} {:>8.0} {:>9}",
                e.policy,
                e.utilization,
                e.offered,
                e.slo_miss_rate * 100.0,
                e.p50,
                e.p99,
                e.p999,
                e.cycles,
            )?;
        }
        Ok(())
    }
}

/// One cell: a fresh cluster of `chips` tiny chips serving the shared
/// traffic stream at `utilization` under `policy`, run to completion.
fn run_cell(
    policy: BalancePolicy,
    utilization: f64,
    chips: usize,
    workers: usize,
    stream: Cycle,
    faults: Option<u64>,
) -> (f64, ClusterReport) {
    let cfg = SmarcoConfig::tiny();
    let per_kcycle = rate_for(utilization, chips, &cfg);
    let requests = ((per_kcycle * stream as f64 / 1000.0).round() as u64).max(1);
    let traffic = TrafficProfile::poisson(TRAFFIC_SEED, per_kcycle)
        .slo(SLO)
        .requests(requests);
    let mut builder = Cluster::builder()
        .chips(chips)
        .chip(cfg.clone())
        .fabric(FabricConfig::datacenter())
        .traffic(traffic)
        .policy(policy)
        .workers(workers);
    if let Some(seed) = faults {
        builder = builder.fault_plan(0, FaultPlan::chaos(seed, &cfg));
    }
    let mut cluster = crate::harness::or_exit(builder.build());
    let report = cluster.run(MAX_CYCLES);
    if !cluster.is_done() {
        eprintln!(
            "smarco-bench: {}-chip rack failed to drain {} at utilization {:.2}",
            chips,
            policy.name(),
            utilization,
        );
        std::process::exit(3);
    }
    (per_kcycle, report)
}

/// Runs the policies × load-points matrix on a `chips`-chip cluster.
/// Every cell sees the identical arrival/size stream (same seed), so
/// rows differ only by routing and load.
pub fn sweep(scale: Scale, chips: usize, workers: usize, faults: Option<u64>) -> RackReport {
    let stream = stream_cycles(scale);
    let mut report = RackReport {
        workers,
        scale,
        chips,
        slo: SLO,
        faults,
        entries: Vec::new(),
    };
    for policy in BalancePolicy::ALL {
        for &utilization in utilizations(scale) {
            let (per_kcycle, r) = run_cell(policy, utilization, chips, workers, stream, faults);
            report.entries.push(RackEntry {
                policy: policy.name(),
                utilization,
                per_kcycle,
                offered: r.offered,
                completed: r.completed,
                slo_misses: r.slo_misses,
                slo_miss_rate: r.slo_miss_rate(),
                p50: r.latency.p50(),
                p99: r.latency.p99(),
                p999: r.latency.p999(),
                cycles: r.cycles,
            });
        }
    }
    report
}

/// CI smoke: a 2-chip rack serving a short stream must drain with a
/// non-empty latency histogram.
///
/// # Errors
///
/// Returns a message describing the liveness violation — an undrained
/// request or an empty histogram means the cluster plumbing broke.
pub fn smoke() -> Result<ClusterReport, String> {
    let traffic = TrafficProfile::poisson(TRAFFIC_SEED, 4.0)
        .slo(SLO)
        .requests(40);
    let mut cluster = crate::harness::or_exit(
        Cluster::builder()
            .chips(2)
            .chip(SmarcoConfig::tiny())
            .traffic(traffic)
            .build(),
    );
    let report = cluster.run(MAX_CYCLES);
    if report.completed != report.offered || report.offered == 0 {
        return Err(format!(
            "rack smoke: {} of {} requests completed",
            report.completed, report.offered
        ));
    }
    if report.latency.count() == 0 {
        return Err("rack smoke: latency histogram is empty".to_string());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_points_bracket_saturation() {
        for scale in [Scale::Quick, Scale::Paper] {
            let u = utilizations(scale);
            assert!(u.len() >= 3);
            assert!(u.first().unwrap() < &1.0);
            assert!(u.last().unwrap() > &1.0, "sweep must cross saturation");
        }
    }

    #[test]
    fn rate_converts_utilization_to_arrivals() {
        let cfg = SmarcoConfig::tiny();
        // rate × mean size == utilization × chips × width × 1000.
        let rate = rate_for(0.5, 4, &cfg);
        let width = (cfg.noc.cores() * cfg.tcg.pairs) as f64;
        let offered = rate * SizeDistribution::serving().mean_work();
        assert!((offered - 0.5 * 4.0 * width * 1000.0).abs() < 1e-6);
    }

    #[test]
    fn json_shape_matches_the_other_bench_files() {
        let r = RackReport {
            workers: 4,
            scale: Scale::Quick,
            chips: 4,
            slo: SLO,
            faults: Some(42),
            entries: vec![RackEntry {
                policy: "laxity_aware",
                utilization: 0.6,
                per_kcycle: 241.5,
                offered: 150,
                completed: 150,
                slo_misses: 3,
                slo_miss_rate: 0.02,
                p50: 120.0,
                p99: 900.0,
                p999: 1800.0,
                cycles: 40_000,
            }],
        };
        let j = r.to_json();
        assert!(
            j.starts_with("{\"worker_sweep\":[4],\"cycle_skip\":true,\"scale\":\"quick\",\n"),
            "{j}"
        );
        assert!(j.contains("\"chips\":4,\"slo\":5000,\"faults\":42"), "{j}");
        assert!(j.contains("\"policy\":\"laxity_aware\""), "{j}");
        assert!(j.contains("\"slo_miss_rate\":0.020000"), "{j}");
        assert!(j.contains("\"p999\":1800.0"), "{j}");
        let healthy = RackReport { faults: None, ..r };
        assert!(healthy.to_json().contains("\"faults\":null"));
    }

    #[test]
    fn smoke_drains_and_fills_the_histogram() {
        let report = smoke().expect("smoke cluster must drain");
        assert_eq!(report.completed, 40);
        assert!(report.latency.p50() > 0.0);
    }
}

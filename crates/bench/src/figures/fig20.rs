//! Fig. 20: MACT vs the conventional structure.
//!
//! Four metrics per benchmark, MACT (16-cycle threshold) relative to no
//! collection: execution speedup, memory-request latency, NoC bandwidth
//! utilization, and memory-request count. Small-granularity benchmarks
//! (KMP, RNC) speed up most; K-means — large accesses, little to merge —
//! pays the collection delay for nothing and lands at or below 1×.

use smarco_core::config::SmarcoConfig;
use smarco_core::report::SmarcoReport;
use smarco_workloads::Benchmark;

use crate::harness::smarco_team_system;
use crate::paper::Claim;
use crate::Scale;

/// One benchmark's MACT-vs-conventional ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MactRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// Execution speedup (conventional cycles / MACT cycles).
    pub speedup: f64,
    /// Memory-request latency ratio (MACT / conventional).
    pub latency_ratio: f64,
    /// NoC bandwidth-utilization ratio (MACT / conventional).
    pub bandwidth_ratio: f64,
    /// DRAM request-count ratio (MACT / conventional).
    pub request_ratio: f64,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig20 {
    /// One row per benchmark.
    pub rows: Vec<MactRow>,
}

fn run_one(bench: Benchmark, cfg: &SmarcoConfig, ops: u64) -> SmarcoReport {
    let mut sys = smarco_team_system(bench, cfg, ops, 4);
    sys.run(500_000_000)
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig20 {
    let base = match scale {
        Scale::Quick => crate::harness::pressure_matched_tiny(),
        Scale::Paper => SmarcoConfig::smarco(),
    };
    let ops = scale.scaled(600, 4_000);
    let mut rows = Vec::new();
    for bench in Benchmark::ALL {
        let with = run_one(bench, &base, ops);
        let mut cfg = base.clone();
        cfg.mact = None;
        let without = run_one(bench, &cfg, ops);
        let noc_util = |r: &SmarcoReport| (r.main_ring_utilization + r.subring_utilization) / 2.0;
        rows.push(MactRow {
            bench,
            speedup: without.cycles as f64 / with.cycles as f64,
            latency_ratio: with.mem_latency.mean() / without.mem_latency.mean().max(1e-9),
            bandwidth_ratio: noc_util(&with) / noc_util(&without).max(1e-9),
            request_ratio: with.dram_requests as f64 / without.dram_requests.max(1) as f64,
        });
    }
    Fig20 { rows }
}

fn speedup(f: &Fig20, bench: Benchmark) -> Result<f64, String> {
    let row = f.rows.iter().find(|r| r.bench == bench);
    row.map(|r| r.speedup).ok_or(format!("no {bench} row"))
}

/// The paper's claims about Fig. 20.
pub const CLAIMS: &[Claim<Fig20>] = &[
    Claim::new(
        "The MACT cuts every benchmark's memory requests, speeds up at least four of \
         six, and helps K-means (large accesses, little to merge) least.",
        |f| {
            for r in &f.rows {
                let (b, ratio) = (r.bench, r.request_ratio);
                ensure!(ratio < 1.0, "{b} requests {ratio:.3}");
            }
            let wins = f.rows.iter().filter(|r| r.speedup > 1.0).count();
            ensure!(wins >= 4, "only {wins} of 6 speed up");
            let kmeans = speedup(f, Benchmark::KMeans)?;
            let better = f.rows.iter().filter(|r| r.speedup > kmeans).count();
            ensure!(better >= 4, "only {better} beat K-means");
            Ok(())
        },
    ),
    Claim::new("K-means lands below 1x: it only pays the wait.", |f| {
        let kmeans = speedup(f, Benchmark::KMeans)?;
        ensure!(kmeans < 1.0, "K-means {kmeans:.3}x");
        Ok(())
    })
    .deviates("our configs keep even K-means past DRAM saturation, where any merging wins"),
    Claim::new("KMP and RNC, the finest-grained, speed up most.", |f| {
        let (kmp, rnc) = (speedup(f, Benchmark::Kmp)?, speedup(f, Benchmark::Rnc)?);
        let above = f.rows.iter().filter(|r| r.speedup > kmp.min(rnc)).count();
        ensure!(above <= 1, "KMP {kmp:.3}x, RNC {rnc:.3}x, {above} faster");
        Ok(())
    })
    .deviates(
        "KMP's gain is read-side merging, which needs cross-core synchrony the model \
         reproduces only partially",
    ),
];

impl std::fmt::Display for Fig20 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig. 20: MACT vs conventional structure (ratios)")?;
        writeln!(
            f,
            "  {:<12} {:>8} {:>10} {:>10} {:>10}",
            "bench", "speedup", "latency", "noc_util", "requests"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<12} {:>8.3} {:>10.3} {:>10.3} {:>10.3}",
                r.bench.name(),
                r.speedup,
                r.latency_ratio,
                r.bandwidth_ratio,
                r.request_ratio
            )?;
        }
        Ok(())
    }
}

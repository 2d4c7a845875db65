//! Fig. 22: SmarCo vs Xeon — performance and energy efficiency.
//!
//! Each benchmark runs the same total instruction count on both machines:
//! on SmarCo as a MapReduce job across the chip, on the Xeon model as one
//! software thread per hardware context. Speedup is wall-clock time ratio
//! (cycles ÷ clock); energy efficiency is throughput-per-watt ratio from
//! the activity-based power models. The paper reports 4.86–18.57×
//! speedup (avg 10.11×) and 3.34–12.77× efficiency (avg 6.95×).

use smarco_baseline::XeonConfig;
use smarco_core::config::SmarcoConfig;
use smarco_power::{efficiency_ratio, run_energy, TechNode};
use smarco_workloads::Benchmark;

use crate::harness::{smarco_mapreduce, xeon_system};
use crate::paper::Claim;
use crate::Scale;

/// One benchmark's comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// Wall-clock speedup (Xeon time / SmarCo time at equal work).
    pub speedup: f64,
    /// Energy-efficiency ratio (SmarCo perf/W over Xeon perf/W).
    pub energy_efficiency: f64,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig22 {
    /// One row per benchmark.
    pub rows: Vec<CompareRow>,
}

impl Fig22 {
    /// Geometric-mean-free average speedup, as the paper reports.
    pub fn avg_speedup(&self) -> f64 {
        self.rows.iter().map(|r| r.speedup).sum::<f64>() / self.rows.len() as f64
    }

    /// Average energy-efficiency improvement.
    pub fn avg_efficiency(&self) -> f64 {
        self.rows.iter().map(|r| r.energy_efficiency).sum::<f64>() / self.rows.len() as f64
    }
}

/// Runs one benchmark's comparison at the given configs and node.
pub fn compare_one(
    bench: Benchmark,
    scfg: &SmarcoConfig,
    xcfg: &XeonConfig,
    node: TechNode,
    map_ops: u64,
    reduce_ops: u64,
) -> CompareRow {
    let run = smarco_mapreduce(bench, scfg, map_ops, reduce_ops, scfg.tcg.resident_threads);
    let smarco_seconds = run.total_cycles() as f64 / (scfg.freq_ghz * 1e9);
    let total_work = run.report.instructions;
    // Xeon: one software thread per context, equal total work.
    let threads = xcfg.contexts();
    let ops = (total_work / threads as u64).max(1);
    let mut xeon = xeon_system(bench, xcfg, threads, ops);
    let xr = xeon.run(u64::MAX / 2);
    let xeon_seconds = xr.cycles as f64 / (xcfg.freq_ghz * 1e9);
    // Normalize to per-instruction time in case rounding skewed totals.
    let s_time_pi = smarco_seconds / run.report.instructions as f64;
    let x_time_pi = xeon_seconds / xr.instructions as f64;
    let speedup = x_time_pi / s_time_pi;
    let se = run_energy(&run.report, scfg, node);
    let xe = smarco_power::energy::xeon_run_energy(&xr, xcfg);
    CompareRow {
        bench,
        speedup,
        energy_efficiency: efficiency_ratio(&se, &xe),
    }
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig22 {
    run_with(scale, 1)
}

/// [`run`] with the SmarCo side simulated by `workers` PDES threads
/// (`--parallel N`). Results are bit-identical to the sequential run.
pub fn run_with(scale: Scale, workers: usize) -> Fig22 {
    let (mut scfg, xcfg, map_ops, reduce_ops) = match scale {
        Scale::Quick => (SmarcoConfig::tiny(), XeonConfig::small(), 1_500, 500),
        Scale::Paper => (
            SmarcoConfig::smarco(),
            XeonConfig::e7_8890v4(),
            4_000,
            1_500,
        ),
    };
    scfg.workers = workers.max(1);
    let rows = Benchmark::ALL
        .iter()
        .map(|&b| compare_one(b, &scfg, &xcfg, TechNode::n32(), map_ops, reduce_ops))
        .collect();
    Fig22 { rows }
}

/// The paper's claim about Fig. 22. Quick scale is a 16-core chip against
/// a 4-core Xeon (a 2.7× peak ratio), so the averages must exceed what raw
/// resources explain.
pub const CLAIMS: &[Claim<Fig22>] = &[Claim::new(
    "SmarCo wins on at least five of six benchmarks, averaging over 1.5x in both \
     speed and energy efficiency (paper: 10.11x and 6.95x).",
    |f| {
        let winning = f.rows.iter().filter(|r| r.speedup > 1.0).count();
        ensure!(f.rows.len() == 6 && winning >= 5, "{winning} of 6 win");
        let (speed, ee) = (f.avg_speedup(), f.avg_efficiency());
        ensure!(speed > 1.5 && ee > 1.5, "averages {speed:.2}x and {ee:.2}x");
        Ok(())
    },
)];

impl std::fmt::Display for Fig22 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig. 22: SmarCo over Xeon (equal work)")?;
        writeln!(f, "  {:<12} {:>9} {:>12}", "bench", "speedup", "energy-eff")?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<12} {:>8.2}x {:>11.2}x",
                r.bench.name(),
                r.speedup,
                r.energy_efficiency
            )?;
        }
        writeln!(
            f,
            "  {:<12} {:>8.2}x {:>11.2}x   (paper: 10.11x / 6.95x)",
            "average",
            self.avg_speedup(),
            self.avg_efficiency()
        )
    }
}

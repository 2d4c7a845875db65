//! Fig. 26: the taped-out 40 nm prototype's energy efficiency over the
//! Xeon.
//!
//! The prototype supports 256 threads (32 cores here) at a lower clock on
//! the older node; efficiency gains land at 2.05–6.84× (avg 3.85×) —
//! roughly half the full chip's, with the same per-benchmark ordering.

use smarco_baseline::XeonConfig;
use smarco_core::config::SmarcoConfig;
use smarco_power::TechNode;
use smarco_workloads::Benchmark;

use crate::figures::fig22::{compare_one, CompareRow, Fig22};
use crate::paper::Claim;
use crate::Scale;

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig26 {
    /// One row per benchmark (the `speedup` field is informational; the
    /// paper's Fig. 26 reports efficiency).
    pub rows: Vec<CompareRow>,
}

impl Fig26 {
    /// Average energy-efficiency improvement.
    pub fn avg_efficiency(&self) -> f64 {
        self.rows.iter().map(|r| r.energy_efficiency).sum::<f64>() / self.rows.len() as f64
    }
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig26 {
    let scfg = SmarcoConfig::prototype_40nm();
    let (xcfg, map_ops, reduce_ops) = match scale {
        Scale::Quick => (XeonConfig::small(), 1_500, 500),
        Scale::Paper => (XeonConfig::e7_8890v4(), 4_000, 1_500),
    };
    let rows = Benchmark::ALL
        .iter()
        .map(|&b| compare_one(b, &scfg, &xcfg, TechNode::n40(), map_ops, reduce_ops))
        .collect();
    Fig26 { rows }
}

/// The paper's claims about Fig. 26, judged with the full design's
/// Fig. 22 run at the same scale.
pub const CLAIMS: &[Claim<(Fig26, Fig22)>] = &[
    Claim::new("The prototype beats the Xeon's efficiency.", |(f26, _)| {
        let ee = f26.avg_efficiency();
        ensure!(ee > 1.0, "average {ee:.2}x");
        Ok(())
    }),
    Claim::new(
        "The 40 nm prototype gains less than the 32 nm design (paper: 3.85x vs 6.95x).",
        |(f26, f22): &(Fig26, Fig22)| {
            let (proto, full) = (f26.avg_efficiency(), f22.avg_efficiency());
            ensure!(proto < full, "prototype {proto:.2}x, full {full:.2}x");
            Ok(())
        },
    )
    .deviates_at_paper(
        "the equal-work method hands the Xeon a smaller job whose fixed threading costs \
         amortize poorly, and classical node scaling under-penalizes 40 nm",
    ),
];

impl std::fmt::Display for Fig26 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig. 26: 40 nm prototype energy efficiency over Xeon")?;
        for r in &self.rows {
            writeln!(f, "  {:<12} {:>8.2}x", r.bench.name(), r.energy_efficiency)?;
        }
        writeln!(
            f,
            "  {:<12} {:>8.2}x   (paper: 3.85x avg)",
            "average",
            self.avg_efficiency()
        )
    }
}

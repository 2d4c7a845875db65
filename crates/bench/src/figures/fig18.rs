//! Fig. 18: high-density NoC throughput vs channel slice width.
//!
//! Slicing the ring links from 16-byte down to 2-byte self-governed
//! channels raises delivered packets/cycle for every HTC benchmark;
//! KMP and RNC (dominated by 1–2-byte packets) keep gaining all the way
//! to 2 bytes, while K-means (few tiny packets) flattens below 8 bytes.

use smarco_noc::link::LinkConfig;
use smarco_noc::traffic::{Pattern, Testbench, TrafficConfig};
use smarco_noc::NocConfig;
use smarco_workloads::Benchmark;

use crate::harness::size_mix_of;
use crate::paper::Claim;
use crate::Scale;

/// Slice widths swept, in bytes (paper's 16 → 2).
pub const SLICES: [u32; 4] = [16, 8, 4, 2];

/// One benchmark's throughput curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// `(slice_bytes, packets/cycle)` per swept width.
    pub by_slice: Vec<(u32, f64)>,
}

impl ThroughputRow {
    /// Throughput at a slice width.
    pub fn at(&self, slice: u32) -> f64 {
        self.by_slice
            .iter()
            .find(|&&(s, _)| s == slice)
            .map(|&(_, t)| t)
            .unwrap_or(0.0)
    }

    /// Improvement of `slice` over the 16-byte baseline.
    pub fn improvement(&self, slice: u32) -> f64 {
        let base = self.at(16);
        if base == 0.0 {
            0.0
        } else {
            self.at(slice) / base
        }
    }
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig18 {
    /// One row per benchmark.
    pub rows: Vec<ThroughputRow>,
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig18 {
    let (noc, cycles, drain) = match scale {
        Scale::Quick => (NocConfig::tiny(), 3_000u64, 6_000u64),
        Scale::Paper => (NocConfig::smarco(), 10_000, 20_000),
    };
    let mut rows = Vec::new();
    for bench in Benchmark::ALL {
        let mut by_slice = Vec::new();
        for &slice in &SLICES {
            let mut cfg = noc;
            cfg.main_link = LinkConfig::main_ring().sliced(slice);
            cfg.sub_link =
                LinkConfig::sub_ring().sliced(slice.min(LinkConfig::sub_ring().max_capacity()));
            let traffic = TrafficConfig {
                rate: 4.0, // saturating injection: measure network capacity
                pattern: Pattern::ToMemory,
                sizes: size_mix_of(bench),
            };
            let report = Testbench::new(cfg, traffic, 18).run(cycles, drain);
            by_slice.push((slice, report.throughput));
        }
        rows.push(ThroughputRow { bench, by_slice });
    }
    Fig18 { rows }
}

/// The paper's claim about Fig. 18 (§4.2.2).
pub const CLAIMS: &[Claim<Fig18>] = &[Claim::new(
    "Every benchmark gains over 5% from 16 B to 2 B slices and finer never hurts; \
     KMP and RNC gain over 1.5x K-means', which is flat from 4 B to 2 B.",
    |f| {
        for r in &f.rows {
            let (at4, at2) = (r.improvement(4), r.improvement(2));
            ensure!(at2 > 1.05, "{} gains {at2:.2}x", r.bench);
            ensure!(at4 <= at2 * 1.02, "{}: {at4:.2}x at 4 B", r.bench);
        }
        let row = |b| f.rows.iter().find(|r| r.bench == b).ok_or("no row");
        let kmeans = row(Benchmark::KMeans)?;
        for b in [Benchmark::Kmp, Benchmark::Rnc] {
            let (gain, base) = (row(b)?.improvement(2), kmeans.improvement(2));
            ensure!(gain > base * 1.5, "{b} {gain:.2}x vs K-means {base:.2}x");
        }
        let tail = kmeans.at(2) / kmeans.at(4);
        ensure!(tail < 1.05, "K-means 4 B -> 2 B gain {tail:.3}");
        Ok(())
    },
)];

impl std::fmt::Display for Fig18 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig. 18: throughput (pkts/cycle) and improvement over 16 B slices"
        )?;
        writeln!(
            f,
            "  {:<12} {:>8} {:>8} {:>8} {:>8}  impr@2B",
            "bench", "16B", "8B", "4B", "2B"
        )?;
        for r in &self.rows {
            write!(f, "  {:<12}", r.bench.name())?;
            for &s in &SLICES {
                write!(f, " {:>8.3}", r.at(s))?;
            }
            writeln!(f, "  {:>6.2}x", r.improvement(2))?;
        }
        Ok(())
    }
}

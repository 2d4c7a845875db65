//! Fig. 1: HTC kernels stress a conventional processor.
//!
//! (a) idle ratio of issue resources and (b) instruction-starvation ratio
//! grow with the per-context thread count; (c)/(d) the cache hierarchy
//! misses badly and its effective access latency balloons.
//!
//! Mechanisms (all emergent from the model): every software thread carries
//! its own instruction segment, so oversubscription thrashes the L1I
//! (starvation rises); every thread's hot data region is ~1 MB, so the
//! aggregate working set outgrows L2 immediately and the LLC as threads
//! multiply (misses and idle rise); thread creation is cheap here to keep
//! the focus on pipeline/cache pressure (Fig. 23 covers creation costs).

use smarco_baseline::{ConventionalSystem, XeonConfig};
use smarco_isa::mix::{AddressModel, OpMix, SyntheticStream};
use smarco_sim::rng::SimRng;
use smarco_workloads::Benchmark;

use crate::paper::Claim;
use crate::Scale;

/// One point of the thread sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// Software threads per hardware context.
    pub threads_per_context: usize,
    /// Fraction of issue slots idle (Fig. 1a).
    pub idle_ratio: f64,
    /// Fraction of context-cycles starved for instructions (Fig. 1b).
    pub starvation_ratio: f64,
}

/// Cache behaviour of one benchmark (Figs. 1c/1d).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// Miss ratios per level: [L1, L2, LLC].
    pub miss_ratio: [f64; 3],
    /// Effective average access latency per level in cycles: [L1, L2, LLC]
    /// (hit time plus miss-ratio-weighted lower-level latency).
    pub avg_latency: [f64; 3],
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig01 {
    /// Thread-sweep rows (Figs. 1a/1b).
    pub pressure: Vec<PressureRow>,
    /// Cache rows at the ×4 oversubscription point (Figs. 1c/1d).
    pub cache: Vec<CacheRow>,
}

/// The three kernels the paper plots.
pub const KERNELS: [Benchmark; 3] = [Benchmark::Kmp, Benchmark::WordCount, Benchmark::KMeans];

fn htc_on_xeon(bench: Benchmark, cfg: &XeonConfig, threads: usize, ops: u64) -> ConventionalSystem {
    let mut sys = ConventionalSystem::new(*cfg);
    let p = bench.profile();
    for i in 0..threads {
        let base = 0x10_0000 + i as u64 * (4 << 20);
        let mix = OpMix {
            mem_frac: p.mem_frac,
            load_frac: 1.0 - p.store_frac,
            branch_frac: p.branch_frac,
            branch_miss: p.branch_miss,
            realtime_frac: 0.0,
            granularity: bench.granularity(),
            // A ~1 MB per-thread hot region inside a 4 MB slice: far
            // beyond L1/L2; the LLC holds it only while few threads run.
            addresses: AddressModel {
                base,
                working_set: 4 << 20,
                seq_frac: 0.4,
                hot_frac: 0.8,
                hot_bytes: 1 << 20,
            },
        };
        let stream = SyntheticStream::new(mix, ops, SimRng::new(100 + i as u64))
            // Per-thread code segment: oversubscription thrashes the L1I.
            .with_segment(0x4000_0000 + i as u64 * (64 << 10), p.segment_len);
        sys.spawn(Box::new(stream));
    }
    sys
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig01 {
    let mut cfg = match scale {
        Scale::Quick => XeonConfig::small(),
        Scale::Paper => XeonConfig::e7_8890v4(),
    };
    // Isolate pipeline/cache pressure from thread-creation costs, and
    // time-slice aggressively: HTC service threads are long-lived, so a
    // returning thread finds its cache state evicted by the other threads
    // that ran meanwhile — the pollution that grows with oversubscription.
    cfg.spawn_cost = 1;
    cfg.quantum = 5_000;
    cfg.switch_cost = 500;
    let ops = scale.scaled(10_000, 30_000);
    let sweeps = [1usize, 2, 4, 8, 16];
    let mut pressure = Vec::new();
    let mut cache = Vec::new();
    for bench in KERNELS {
        for &t in &sweeps {
            let threads = t * cfg.contexts();
            let mut sys = htc_on_xeon(bench, &cfg, threads, ops);
            let r = sys.run(2_000_000_000);
            pressure.push(PressureRow {
                bench,
                threads_per_context: t,
                idle_ratio: r.idle_ratio(),
                starvation_ratio: r.starvation_ratio(),
            });
            if t == 4 {
                let miss = [1.0 - r.l1d.ratio(), 1.0 - r.l2.ratio(), 1.0 - r.llc.ratio()];
                let llc_eff = 40.0 + miss[2] * r.dram_latency.max(120.0);
                let l2_eff = 12.0 + miss[1] * llc_eff;
                let l1_eff = 4.0 + miss[0] * l2_eff;
                cache.push(CacheRow {
                    bench,
                    miss_ratio: miss,
                    avg_latency: [l1_eff, l2_eff, llc_eff],
                });
            }
        }
    }
    Fig01 { pressure, cache }
}

/// The first and last sweep rows of one kernel.
fn ends(f: &Fig01, bench: Benchmark) -> Result<(PressureRow, PressureRow), String> {
    let mut rows = f.pressure.iter().filter(|r| r.bench == bench);
    let first = *rows.next().ok_or("no sweep rows")?;
    Ok((first, *rows.next_back().unwrap_or(&first)))
}

/// The paper's claims about Fig. 1.
pub const CLAIMS: &[Claim<Fig01>] = &[
    Claim::new(
        "Starvation grows 1.5x from x1 to x16 threads per context and issue slots \
         stay over 60% idle (Figs. 1a/1b); L1, L2 and LLC miss over 30%, 50% and 30%, \
         and the effective L1 latency exceeds 10 cycles (Figs. 1c/1d).",
        |f| {
            for bench in KERNELS {
                let (first, last) = ends(f, bench)?;
                let (s0, s1) = (first.starvation_ratio, last.starvation_ratio);
                ensure!(s1 > s0 * 1.5, "{bench}: starvation {s0:.3} -> {s1:.3}");
            }
            for r in &f.pressure {
                ensure!(r.idle_ratio > 0.6, "{} idle {:.3}", r.bench, r.idle_ratio);
            }
            for c in &f.cache {
                let [l1, l2, llc] = c.miss_ratio;
                let misses = l1 > 0.3 && l2 > 0.5 && llc > 0.3;
                ensure!(misses, "{} misses {:.3?}", c.bench, c.miss_ratio);
                ensure!(c.avg_latency[0] > 10.0, "{} L1 latency", c.bench);
            }
            Ok(())
        },
    ),
    Claim::new("Idle rises with threads per context (Fig. 1a).", |f| {
        for bench in KERNELS {
            let (first, last) = ends(f, bench)?;
            let (i0, i1) = (first.idle_ratio, last.idle_ratio);
            ensure!(i1 > i0, "{bench}: idle {i0:.3} -> {i1:.3}");
        }
        Ok(())
    })
    .deviates_at_quick("the model saturates on memory before oversubscription adds idle"),
];

impl std::fmt::Display for Fig01 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig. 1a/1b: idle & instruction-starvation ratio vs threads/context"
        )?;
        for r in &self.pressure {
            writeln!(
                f,
                "  {:<10} x{:<3} idle={:.3} starve={:.3}",
                r.bench.name(),
                r.threads_per_context,
                r.idle_ratio,
                r.starvation_ratio
            )?;
        }
        writeln!(
            f,
            "Fig. 1c/1d: cache miss ratio and effective latency (at x4 threads)"
        )?;
        for r in &self.cache {
            writeln!(
                f,
                "  {:<10} miss L1={:.3} L2={:.3} LLC={:.3}  lat L1={:.1} L2={:.1} LLC={:.1}",
                r.bench.name(),
                r.miss_ratio[0],
                r.miss_ratio[1],
                r.miss_ratio[2],
                r.avg_latency[0],
                r.avg_latency[1],
                r.avg_latency[2]
            )?;
        }
        Ok(())
    }
}

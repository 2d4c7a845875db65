//! Fig. 19: MACT time-threshold sweep.
//!
//! A line waits at most `threshold` cycles before being packed off to
//! memory. Too short (4–8) and little merging happens; too long (32–64)
//! and request latency grows. 16 cycles is the best point for most
//! benchmarks — the value every other experiment uses.

use smarco_core::config::SmarcoConfig;
use smarco_mem::mact::MactConfig;
use smarco_sim::Cycle;
use smarco_workloads::Benchmark;

use crate::harness::smarco_team_system;
use crate::paper::Claim;
use crate::Scale;

/// Thresholds swept (cycles).
pub const THRESHOLDS: [Cycle; 5] = [4, 8, 16, 32, 64];

/// One benchmark's speedup curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// `(threshold, run cycles)` per swept value.
    pub cycles: Vec<(Cycle, u64)>,
}

impl ThresholdRow {
    /// Speedup at `threshold`, normalized to the 8-cycle run (as the
    /// paper normalizes).
    pub fn speedup_norm8(&self, threshold: Cycle) -> f64 {
        let at = |t: Cycle| {
            self.cycles
                .iter()
                .find(|&&(x, _)| x == t)
                .map(|&(_, c)| c as f64)
                .unwrap_or(0.0)
        };
        let base = at(8);
        let v = at(threshold);
        if v == 0.0 {
            0.0
        } else {
            base / v
        }
    }
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig19 {
    /// One row per benchmark.
    pub rows: Vec<ThresholdRow>,
}

impl Fig19 {
    /// The threshold with the best mean speedup across benchmarks.
    pub fn best_threshold(&self) -> Cycle {
        THRESHOLDS
            .iter()
            .copied()
            .max_by(|&a, &b| {
                let ma: f64 = self.rows.iter().map(|r| r.speedup_norm8(a)).sum::<f64>();
                let mb: f64 = self.rows.iter().map(|r| r.speedup_norm8(b)).sum::<f64>();
                ma.partial_cmp(&mb).expect("finite speedups")
            })
            .expect("non-empty sweep")
    }
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig19 {
    let base_cfg = match scale {
        Scale::Quick => crate::harness::pressure_matched_tiny(),
        Scale::Paper => SmarcoConfig::smarco(),
    };
    let ops = scale.scaled(600, 4_000);
    let mut rows = Vec::new();
    for bench in Benchmark::ALL {
        let mut cycles = Vec::new();
        for &t in &THRESHOLDS {
            let mut cfg = base_cfg.clone();
            cfg.mact = Some(MactConfig {
                threshold: t,
                ..cfg.mact.unwrap_or_default()
            });
            let mut sys = smarco_team_system(bench, &cfg, ops, 4);
            let r = sys.run(500_000_000);
            cycles.push((t, r.cycles));
        }
        rows.push(ThresholdRow { bench, cycles });
    }
    Fig19 { rows }
}

/// Why Fig. 19's claims deviate at paper scale.
const FULL_CHIP: &str = "on the full chip the mean speedup is highest at 64 cycles, the \
                         longest threshold swept; the cause is not attributed yet";

/// The paper's claims about Fig. 19.
pub const CLAIMS: &[Claim<Fig19>] = &[
    Claim::new(
        "4 cycles is too short (16 does as well, within 2%, everywhere), the best \
         threshold is interior, and at least two benchmarks decline again at 64.",
        |f: &Fig19| {
            for r in &f.rows {
                let (b, s4, s16) = (r.bench, r.speedup_norm8(4), r.speedup_norm8(16));
                ensure!(s16 >= s4 * 0.98, "{b}: {s16:.3} at 16 vs {s4:.3} at 4");
            }
            let best = f.best_threshold();
            ensure!(best >= 8, "best threshold {best}");
            let rows = f.rows.iter();
            let declining = rows.filter(|r| r.speedup_norm8(64) < r.speedup_norm8(best));
            let declining = declining.count();
            ensure!(declining >= 2, "only {declining} benchmarks decline at 64");
            Ok(())
        },
    )
    .deviates_at_paper(FULL_CHIP),
    Claim::new("Speedup peaks at a 16-cycle threshold.", |f: &Fig19| {
        let best = f.best_threshold();
        ensure!(best == 16, "best threshold {best} cycles");
        Ok(())
    })
    .deviates_at_quick(
        "our write-dominated benchmarks peak at 32: their gains come from non-blocking \
         emit runs that tolerate longer collection",
    )
    .deviates_at_paper(FULL_CHIP),
];

impl std::fmt::Display for Fig19 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig. 19: speedup vs MACT time threshold (normalized to 8 cycles)"
        )?;
        writeln!(
            f,
            "  {:<12} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "bench", "4", "8", "16", "32", "64"
        )?;
        for r in &self.rows {
            write!(f, "  {:<12}", r.bench.name())?;
            for &t in &THRESHOLDS {
                write!(f, " {:>7.3}", r.speedup_norm8(t))?;
            }
            writeln!(f)?;
        }
        writeln!(f, "  best threshold: {} cycles", self.best_threshold())
    }
}

//! Fig. 23: scalability of KMP with thread count.
//!
//! Fixed total work split across N threads. The Xeon model's throughput
//! peaks near its hardware context count (creation and scheduling overhead
//! then eat the gains) while SmarCo starts far below — one simple in-order
//! thread is slow — but keeps rising with its 8-per-core hardware threads
//! and crosses the Xeon curve.

use smarco_baseline::XeonConfig;
use smarco_core::config::SmarcoConfig;
use smarco_sim::rng::SimRng;
use smarco_workloads::{Benchmark, HtcStream};

use crate::harness::xeon_system;
use crate::paper::Claim;
use crate::Scale;

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleRow {
    /// Thread count.
    pub threads: usize,
    /// Xeon throughput in instructions/second (0 when not run at this
    /// point).
    pub xeon_ips: f64,
    /// SmarCo throughput in instructions/second.
    pub smarco_ips: f64,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig23 {
    /// Sweep rows in thread order.
    pub rows: Vec<ScaleRow>,
    /// The Xeon model's hardware contexts (8 quick, 48 paper).
    pub xeon_contexts: usize,
}

impl Fig23 {
    /// Thread count where the Xeon curve peaks.
    pub fn xeon_peak_threads(&self) -> usize {
        self.rows
            .iter()
            .max_by(|a, b| a.xeon_ips.partial_cmp(&b.xeon_ips).expect("finite"))
            .map(|r| r.threads)
            .unwrap_or(0)
    }

    /// First thread count where SmarCo overtakes the Xeon.
    pub fn crossover_threads(&self) -> Option<usize> {
        self.rows
            .iter()
            .find(|r| r.smarco_ips > r.xeon_ips && r.xeon_ips > 0.0)
            .map(|r| r.threads)
    }
}

/// Shrinks the chip to the smallest sub-ring count that holds `threads`
/// (power of two, ≤ the requested chip). Idle cores change nothing about
/// a run's simulated outcome but cost host time, and memory channels are
/// scaled with the sub-rings so per-core resources stay the chip's.
fn sized_for(cfg: &SmarcoConfig, threads: usize) -> SmarcoConfig {
    let per_subring = cfg.noc.cores_per_subring * cfg.tcg.resident_threads;
    let needed = threads.div_ceil(per_subring).next_power_of_two();
    let subrings = needed.clamp(1, cfg.noc.subrings);
    let mut out = cfg.clone();
    out.noc.subrings = subrings;
    out.noc.mem_ctrls = cfg.noc.mem_ctrls.min(subrings);
    out.dram.channels = out.noc.mem_ctrls;
    if let Some(d) = out.direct.as_mut() {
        d.subrings = subrings;
    }
    out
}

fn smarco_ips(cfg: &SmarcoConfig, threads: usize, total_work: u64) -> f64 {
    let cfg = &sized_for(cfg, threads);
    let mut sys = crate::harness::build_system(cfg);
    let ops = (total_work / threads as u64).max(1);
    let bench = Benchmark::Kmp;
    let tpc = cfg.tcg.resident_threads;
    for t in 0..threads {
        let core = (t / tpc) % cfg.noc.cores();
        let sr = core / cfg.noc.cores_per_subring;
        let p = bench.thread_params(
            0x100_0000 + sr as u64 * (64 << 20),
            16 << 20,
            0x8000_0000 + sr as u64 * (1 << 20),
            (t % (cfg.noc.cores_per_subring * tpc)) as u64,
            (cfg.noc.cores_per_subring * tpc) as u64,
            ops,
        );
        crate::harness::or_exit(sys.attach(
            core,
            Box::new(HtcStream::new(p, SimRng::new(500 + t as u64))),
        ));
    }
    let r = sys.run(u64::MAX / 2);
    r.instructions as f64 / r.seconds(cfg.freq_ghz)
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig23 {
    run_with(scale, 1)
}

/// [`run`] with the SmarCo side simulated by `workers` PDES threads
/// (`--parallel N`). Results are bit-identical to the sequential run.
pub fn run_with(scale: Scale, workers: usize) -> Fig23 {
    let (mut scfg, xcfg, sweep, total_work): (_, _, &[usize], u64) = match scale {
        Scale::Quick => (
            SmarcoConfig::tiny(),
            XeonConfig::small(),
            &[1, 2, 4, 8, 16, 32, 64, 128],
            200_000,
        ),
        Scale::Paper => (
            SmarcoConfig::smarco(),
            XeonConfig::e7_8890v4(),
            &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048],
            2_000_000,
        ),
    };
    scfg.workers = workers.max(1);
    let mut rows = Vec::new();
    for &threads in sweep {
        let ops = (total_work / threads as u64).max(1);
        let mut xeon = xeon_system(Benchmark::Kmp, &xcfg, threads, ops);
        let xr = xeon.run(u64::MAX / 2);
        let xeon_ips = xr.instructions as f64 / (xr.cycles as f64 / (xcfg.freq_ghz * 1e9));
        rows.push(ScaleRow {
            threads,
            xeon_ips,
            smarco_ips: smarco_ips(&scfg, threads, total_work),
        });
    }
    Fig23 {
        rows,
        xeon_contexts: xcfg.contexts(),
    }
}

/// The paper's claims about Fig. 23: the Xeon peaks around 32–64 threads
/// (48 contexts) and declines; SmarCo starts far lower, crosses past 64
/// threads and keeps rising.
pub const CLAIMS: &[Claim<Fig23>] = &[
    Claim::new(
        "The Xeon peaks between half and four times its context count and loses 30% \
         by the end; SmarCo starts below it, crosses past half the Xeon's peak thread \
         count and ends over 2x above.",
        |f| {
            let (peak, contexts) = (f.xeon_peak_threads(), f.xeon_contexts);
            let near = (contexts / 2..=contexts * 4).contains(&peak);
            ensure!(near, "Xeon peak at {peak} threads with {contexts} contexts");
            let (first, last) = (&f.rows[0], &f.rows[f.rows.len() - 1]);
            let top = f.rows.iter().map(|r| r.xeon_ips).fold(0.0, f64::max);
            ensure!(last.xeon_ips < top * 0.7, "Xeon ends {:.2e}", last.xeon_ips);
            ensure!(first.smarco_ips < first.xeon_ips, "SmarCo starts above");
            let cross = f.crossover_threads().ok_or("SmarCo never crosses")?;
            ensure!(cross > peak / 2, "crossover at {cross}");
            ensure!(last.smarco_ips > last.xeon_ips * 2.0, "ends under 2x");
            Ok(())
        },
    ),
    Claim::new("SmarCo crosses within 4x the Xeon's peak.", |f: &Fig23| {
        let peak = f.xeon_peak_threads();
        let cross = f.crossover_threads().ok_or("SmarCo never crosses")?;
        ensure!(cross <= peak * 4, "peak at {peak}, crossover at {cross}");
        Ok(())
    })
    .deviates_at_paper("our Xeon model's memory parallelism tolerates oversubscription better"),
];

impl std::fmt::Display for Fig23 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig. 23: KMP throughput vs thread count (instructions/second)"
        )?;
        writeln!(f, "  {:>8} {:>14} {:>14}", "threads", "xeon", "smarco")?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>8} {:>14.3e} {:>14.3e}",
                r.threads, r.xeon_ips, r.smarco_ips
            )?;
        }
        writeln!(f, "  xeon peak at {} threads", self.xeon_peak_threads())?;
        match self.crossover_threads() {
            Some(t) => writeln!(f, "  smarco crosses above at {t} threads"),
            None => writeln!(f, "  no crossover observed in this sweep"),
        }
    }
}

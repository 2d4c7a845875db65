//! Fig. 17: per-core IPC vs resident thread count (1–8).
//!
//! IPC grows near-linearly to 4 threads (each new thread claims its own
//! pair slot), then sub-linearly from 5 to 8 (new threads arrive as
//! friends, adding only latency hiding); Search benefits least because it
//! has the fewest memory instructions to hide.

use smarco_workloads::Benchmark;

use crate::harness::tcg_ipc;
use crate::paper::Claim;
use crate::Scale;

/// One benchmark's IPC curve.
#[derive(Debug, Clone, PartialEq)]
pub struct IpcRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// IPC at 1..=8 resident threads.
    pub ipc: [f64; 8],
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig17 {
    /// One row per benchmark.
    pub rows: Vec<IpcRow>,
}

/// Memory latency the single-core harness models (ring + DRAM round
/// trip).
pub const MEM_LATENCY: u64 = 80;

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig17 {
    let window = scale.scaled(20_000, 200_000);
    let mut rows = Vec::new();
    for bench in Benchmark::ALL {
        let mut ipc = [0.0; 8];
        for (i, slot) in ipc.iter_mut().enumerate() {
            *slot = tcg_ipc(bench, i + 1, window, MEM_LATENCY);
        }
        rows.push(IpcRow { bench, ipc });
    }
    Fig17 { rows }
}

/// The paper's claims about Fig. 17.
pub const CLAIMS: &[Claim<Fig17>] = &[
    Claim::new(
        "IPC grows over 3x from 1 to 4 threads, then more slowly to 8 as friends \
         only hide latency, and never exceeds the 4-wide issue.",
        |f| {
            for r in &f.rows {
                let (one, four, eight) = (r.ipc[0], r.ipc[3], r.ipc[7]);
                ensure!(four > one * 3.0, "{}: {:?}", r.bench, r.ipc);
                ensure!(eight - four < four - one, "{}: {:?}", r.bench, r.ipc);
                ensure!(r.ipc.iter().all(|&v| v <= 4.0), "{}: {:?}", r.bench, r.ipc);
            }
            Ok(())
        },
    ),
    Claim::new("Search gains least from 4 to 8 threads.", |f: &Fig17| {
        let gain = |r: &&IpcRow| r.ipc[7] - r.ipc[3];
        let least = f.rows.iter().min_by(|a, b| gain(a).total_cmp(&gain(b)));
        let least = least.ok_or("no rows")?.bench;
        ensure!(least == Benchmark::Search, "{least} gains least");
        Ok(())
    })
    .deviates("KMP is flattest in our model, already near the 4-wide ceiling at 4 threads"),
];

impl std::fmt::Display for Fig17 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig. 17: core IPC vs resident threads")?;
        writeln!(
            f,
            "  {:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "bench", "1", "2", "3", "4", "5", "6", "7", "8"
        )?;
        for r in &self.rows {
            write!(f, "  {:<12}", r.bench.name())?;
            for v in r.ipc {
                write!(f, " {v:>6.2}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

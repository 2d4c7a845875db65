//! Fig. 2: a CDN node on a conventional processor.
//!
//! As connections approach the 10 Gbps NIC limit (~400 streams at
//! 25 Mbps), CPU utilization stays under ~10 % while branch misses exceed
//! 10 % and the L1 miss ratio reaches ~40 % — the machine is simultaneously
//! under-utilized and cache-hostile.

use smarco_baseline::{ConventionalSystem, XeonConfig};
use smarco_sim::rng::SimRng;
use smarco_workloads::cdn::CdnConfig;
use smarco_workloads::HtcStream;

use crate::paper::Claim;
use crate::Scale;

/// One point of the client sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdnRow {
    /// Concurrent client connections.
    pub clients: usize,
    /// Fraction of total issue capacity used over the service window.
    pub cpu_utilization: f64,
    /// Branch misprediction ratio.
    pub branch_miss: f64,
    /// L1 data miss ratio.
    pub l1_miss: f64,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig02 {
    /// Sweep rows.
    pub rows: Vec<CdnRow>,
    /// The NIC-imposed client cap.
    pub max_clients: usize,
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig02 {
    let cdn = CdnConfig::paper();
    let cfg = match scale {
        Scale::Quick => XeonConfig::small(),
        Scale::Paper => XeonConfig::e7_8890v4(),
    };
    // Service window in seconds of simulated machine time.
    let window_s = match scale {
        Scale::Quick => 0.0002,
        Scale::Paper => 0.002,
    };
    let window_cycles = (window_s * cfg.freq_ghz * 1e9) as u64;
    let sweep = [50usize, 100, 200, 300, 400];
    let mut rows = Vec::new();
    for &clients in &sweep {
        let mut sys = ConventionalSystem::new(cfg);
        for c in 0..clients {
            let params = cdn.connection_params(c, window_s);
            sys.spawn(Box::new(HtcStream::new(params, SimRng::new(77 + c as u64))));
        }
        let r = sys.run(window_cycles * 4);
        // Utilization over the service *window*: the NIC fixes how much
        // work exists per window, however fast the CPU finishes it.
        let capacity = (cfg.cores * cfg.issue_width) as f64 * window_cycles as f64;
        rows.push(CdnRow {
            clients,
            cpu_utilization: (r.issue_used as f64 / capacity).min(1.0),
            branch_miss: 1.0 - r.branches.ratio(),
            l1_miss: 1.0 - r.l1d.ratio(),
        });
    }
    Fig02 {
        rows,
        max_clients: cdn.max_clients(),
    }
}

/// The paper's claims about Fig. 2.
pub const CLAIMS: &[Claim<Fig02>] = &[Claim::new(
    "At the 400-client NIC cap the CPU is under 10% busy, yet branches miss over \
     10% and the L1 over 15% (paper: about 40%); utilization grows up to the cap.",
    |f| {
        ensure!(f.max_clients == 400, "cap at {} clients", f.max_clients);
        let r = f.rows.iter().find(|r| r.clients == 400).ok_or("no row")?;
        ensure!(r.cpu_utilization < 0.10, "util {:.3}", r.cpu_utilization);
        ensure!(r.branch_miss > 0.10, "branch miss {:.3}", r.branch_miss);
        ensure!(r.l1_miss > 0.15, "L1 miss {:.3}", r.l1_miss);
        for w in f.rows.windows(2) {
            let (u0, u1) = (w[0].cpu_utilization, w[1].cpu_utilization);
            ensure!(u1 >= u0, "utilization {u0:.3} -> {u1:.3}");
        }
        Ok(())
    },
)];

impl std::fmt::Display for Fig02 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig. 2: CDN on a conventional CPU (NIC cap = {} clients)",
            self.max_clients
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  clients={:<4} cpu_util={:.3} branch_miss={:.3} l1_miss={:.3}",
                r.clients, r.cpu_utilization, r.branch_miss, r.l1_miss
            )?;
        }
        Ok(())
    }
}

//! Fig. 8: memory-access granularity — HTC apps (left) vs conventional
//! SPLASH2-like apps (right).
//!
//! Rendered both from the calibrated mixes and empirically, by sampling
//! the actual generators (verifying the streams honour the calibration).

use smarco_isa::mix::GRANULARITY_SIZES;
use smarco_isa::InstructionStream;
use smarco_sim::rng::SimRng;
use smarco_sim::stats::Histogram;
use smarco_workloads::splash::SplashApp;
use smarco_workloads::{Benchmark, HtcStream};

use crate::paper::Claim;
use crate::Scale;

/// One application's granularity distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct GranRow {
    /// Application name.
    pub name: &'static str,
    /// HTC (left panel) or conventional (right panel).
    pub htc: bool,
    /// Fraction of accesses per size in [`GRANULARITY_SIZES`] order,
    /// sampled empirically from the generator.
    pub fractions: [f64; 7],
    /// Mean access size in bytes.
    pub mean_bytes: f64,
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig08 {
    /// All rows, HTC first.
    pub rows: Vec<GranRow>,
}

fn sample_htc(bench: Benchmark, samples: u64) -> [f64; 7] {
    let p = bench.thread_params(0x100_0000, 1 << 22, 0x8000_0000, 0, 1, samples);
    let mut s = HtcStream::new(p, SimRng::new(8));
    let mut h = Histogram::new();
    while let Some(i) = s.next_instr() {
        if let Some(m) = i.op.mem_ref() {
            h.record(u64::from(m.bytes));
        }
    }
    fractions_of(&h)
}

fn fractions_of(h: &Histogram) -> [f64; 7] {
    let mut out = [0.0; 7];
    for (i, &s) in GRANULARITY_SIZES.iter().enumerate() {
        // Access sizes are exact powers of two, so each size owns its
        // power-of-two bucket and the bucket-exact fraction is precise.
        out[i] = h.fraction_in_bucket_of(u64::from(s));
    }
    out
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig08 {
    let samples = scale.scaled(30_000, 300_000);
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        rows.push(GranRow {
            name: b.name(),
            htc: true,
            fractions: sample_htc(b, samples),
            mean_bytes: b.granularity().mean_bytes(),
        });
    }
    for app in SplashApp::ALL {
        // Conventional apps: report the calibrated mix directly (they run
        // through SyntheticStream whose sampling tests live in smarco-isa).
        let g = app.granularity();
        let total: f64 = g.weights().iter().sum();
        let mut fr = [0.0; 7];
        for (i, &w) in g.weights().iter().enumerate() {
            fr[i] = w / total;
        }
        rows.push(GranRow {
            name: app.name(),
            htc: false,
            fractions: fr,
            mean_bytes: g.mean_bytes(),
        });
    }
    Fig08 { rows }
}

/// The paper's claim about Fig. 8.
pub const CLAIMS: &[Claim<Fig08>] = &[Claim::new(
    "Every HTC app's mean access is smaller than every conventional app's \
     (each sampled distribution sums to 1).",
    |f| {
        let (mut htc, mut conv) = (0.0f64, f64::INFINITY);
        for r in &f.rows {
            let sum: f64 = r.fractions.iter().sum();
            ensure!((sum - 1.0).abs() < 0.05, "{} sums to {sum:.3}", r.name);
            if r.htc {
                htc = htc.max(r.mean_bytes);
            } else {
                conv = conv.min(r.mean_bytes);
            }
        }
        ensure!(htc < conv, "HTC up to {htc:.1} B, others from {conv:.1} B");
        Ok(())
    },
)];

impl std::fmt::Display for Fig08 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig. 8: access-granularity distribution (fractions per size)"
        )?;
        writeln!(
            f,
            "  {:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}  mean",
            "app", "1B", "2B", "4B", "8B", "16B", "32B", "64B"
        )?;
        for r in &self.rows {
            write!(f, "  {:<12}", r.name)?;
            for v in r.fractions {
                write!(f, " {v:>6.3}")?;
            }
            writeln!(
                f,
                "  {:>5.1}B {}",
                r.mean_bytes,
                if r.htc { "(HTC)" } else { "(conv)" }
            )?;
        }
        Ok(())
    }
}

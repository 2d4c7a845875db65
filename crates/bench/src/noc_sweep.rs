//! Machine-readable NoC-backend sweep records.
//!
//! The `noc_sweep` binary runs every pluggable interconnect backend
//! (`ring`, `mesh`) across all six HTC benchmarks and writes the
//! resulting latency/utilization matrix to [`BENCH_FILE`] in the working
//! directory. The file gives the repo a trajectory for the backend
//! comparison the same way `BENCH_cycle_skip.json` tracks the skipper.

use std::path::{Path, PathBuf};
use std::time::Instant;

use smarco_core::chip::SmarcoSystem;
use smarco_core::config::SmarcoConfig;
use smarco_noc::NocBackendKind;
use smarco_sim::rng::SimRng;
use smarco_workloads::{Benchmark, HtcStream};

use crate::host::HostInfo;
use crate::Scale;

/// Default output filename, written to the working directory.
pub const BENCH_FILE: &str = "BENCH_noc.json";

/// Hardware threads loaded per core for the sweep chips.
const THREADS_PER_CORE: usize = 2;
/// Simulated-cycle ceiling; a drained chip stops well before it.
const MAX_CYCLES: u64 = 10_000_000;

/// The backend contenders the sweep compares.
pub fn contenders() -> [NocBackendKind; 2] {
    [NocBackendKind::Ring, NocBackendKind::Mesh]
}

/// One (backend, benchmark) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct NocSweepEntry {
    /// Backend name (`ring`, `mesh`).
    pub backend: &'static str,
    /// HTC benchmark name.
    pub bench: &'static str,
    /// Simulated cycles to drain the chip.
    pub cycles: u64,
    /// Instructions per cycle over the run.
    pub ipc: f64,
    /// Mean memory-request round-trip latency in cycles.
    pub mem_latency: f64,
    /// Main-ring payload utilization over offered capacity.
    pub main_ring_utilization: f64,
    /// Sub-ring payload utilization over offered capacity.
    pub subring_utilization: f64,
    /// Host wall-clock seconds for the run.
    pub wall_seconds: f64,
}

impl NocSweepEntry {
    fn to_json(&self) -> String {
        format!(
            "{{\"backend\":\"{}\",\"bench\":\"{}\",\"cycles\":{},\
             \"ipc\":{:.6},\"mem_latency\":{:.4},\
             \"main_ring_utilization\":{:.6},\"subring_utilization\":{:.6},\
             \"wall_seconds\":{:.6}}}",
            self.backend,
            self.bench,
            self.cycles,
            self.ipc,
            self.mem_latency,
            self.main_ring_utilization,
            self.subring_utilization,
            self.wall_seconds,
        )
    }
}

/// The full sweep destined for [`BENCH_FILE`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NocSweepReport {
    /// Host context of the sweep.
    pub host: HostInfo,
    /// Entries in run order (backend-major, then benchmark).
    pub entries: Vec<NocSweepEntry>,
}

impl NocSweepReport {
    /// Serialises the report as a JSON object with the host block first
    /// (hand-rolled: the workspace is dependency-free).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self.entries.iter().map(NocSweepEntry::to_json).collect();
        format!(
            "{{\"host\":{},\n \"entries\":[\n  {}\n]}}\n",
            self.host.to_json(),
            body.join(",\n  ")
        )
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Writes the report to [`BENCH_FILE`] in the working directory and
    /// returns the path.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written.
    pub fn write_default(&self) -> std::io::Result<PathBuf> {
        let path = PathBuf::from(BENCH_FILE);
        self.write(&path)?;
        Ok(path)
    }
}

/// A small chip on `backend` loaded with one benchmark's threads.
fn loaded(backend: NocBackendKind, bench: Benchmark, instrs: u64) -> SmarcoSystem {
    let mut cfg = SmarcoConfig::tiny();
    cfg.noc = cfg.noc.with_backend(backend);
    let mut sys = crate::harness::build_system(&cfg);
    let teams = sys.cores_len() * THREADS_PER_CORE;
    let mut seed = 11u64;
    for core in 0..sys.cores_len() {
        for t in 0..THREADS_PER_CORE {
            let lane = (core * THREADS_PER_CORE + t) as u64;
            let p =
                bench.thread_params(0x100_0000, 1 << 22, 0x8000_0000, lane, teams as u64, instrs);
            sys.attach(core, Box::new(HtcStream::new(p, SimRng::new(seed))))
                .expect("vacant slot");
            seed += 1;
        }
    }
    sys
}

/// Runs the full backends × benchmarks matrix.
///
/// A run that fails to drain within the cycle ceiling is a broken
/// backend contract; the sweep is a batch job, so it reports the failing
/// cell on stderr and exits non-zero rather than recording a lie.
pub fn sweep(scale: Scale) -> NocSweepReport {
    sweep_backend(scale, None)
}

/// Like [`sweep`], restricted to the backend named `only` (`--backend`
/// on the binary); `None` sweeps every contender. An unknown name
/// produces an empty report — the binary treats that as an error.
pub fn sweep_backend(scale: Scale, only: Option<&str>) -> NocSweepReport {
    let instrs = scale.scaled(300, 3_000);
    let mut report = NocSweepReport {
        host: HostInfo::capture(&[1], true, scale),
        entries: Vec::new(),
    };
    for backend in contenders() {
        if only.is_some_and(|o| o != backend.name()) {
            continue;
        }
        for bench in Benchmark::ALL {
            let mut sys = loaded(backend, bench, instrs);
            let start = Instant::now();
            let r = sys.run(MAX_CYCLES);
            if !sys.is_done() {
                eprintln!(
                    "smarco-bench: {} backend failed to drain {}",
                    backend.name(),
                    bench.name(),
                );
                std::process::exit(3);
            }
            report.entries.push(NocSweepEntry {
                backend: backend.name(),
                bench: bench.name(),
                cycles: r.cycles,
                ipc: r.ipc(),
                mem_latency: r.mem_latency.mean(),
                main_ring_utilization: r.main_ring_utilization,
                subring_utilization: r.subring_utilization,
                wall_seconds: start.elapsed().as_secs_f64(),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> NocSweepEntry {
        NocSweepEntry {
            backend: "mesh",
            bench: "wordcount",
            cycles: 1_000,
            ipc: 0.5,
            mem_latency: 42.25,
            main_ring_utilization: 0.125,
            subring_utilization: 0.25,
            wall_seconds: 0.5,
        }
    }

    #[test]
    fn json_shape_matches_the_other_bench_files() {
        let r = NocSweepReport {
            host: HostInfo::capture(&[1], true, Scale::Quick),
            entries: vec![entry()],
        };
        let j = r.to_json();
        assert!(j.starts_with("{\"host\":{"), "{j}");
        assert!(j.contains("\"entries\":["), "{j}");
        assert!(j.contains("\"backend\":\"mesh\""), "{j}");
        assert!(j.contains("\"bench\":\"wordcount\""), "{j}");
        assert!(j.contains("\"mem_latency\":42.2500"), "{j}");
    }

    #[test]
    fn the_contenders_cover_every_backend_name() {
        let names: Vec<_> = contenders().iter().map(NocBackendKind::name).collect();
        assert_eq!(names, ["ring", "mesh"]);
    }

    #[test]
    fn backend_filter_prunes_the_matrix() {
        // An unknown name matches no contender: zero cells run.
        let r = sweep_backend(Scale::Quick, Some("token-ring"));
        assert!(r.entries.is_empty());
    }

    #[test]
    fn one_cell_of_the_matrix_runs_and_measures() {
        let mut sys = loaded(NocBackendKind::Mesh, Benchmark::WordCount, 50);
        let r = sys.run(MAX_CYCLES);
        assert!(sys.is_done(), "mesh wordcount cell drained");
        assert!(r.instructions > 0);
    }
}

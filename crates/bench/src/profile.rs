//! `profile` bench: host-side self-profile of the PDES engine itself.
//!
//! Sweeps the six HTC benchmarks across PDES worker counts with
//! [`smarco_sim::prof`] enabled and writes one machine-readable record per
//! run to [`BENCH_FILE`], the record of the parallel-speedup work. Each
//! record embeds the full [`ProfileReport`] (per-shard/per-worker phase
//! buckets, window telemetry, barrier-arrival spread), so the file answers
//! *where the simulator's wall-clock goes*: on a 2-cycle-lookahead chip
//! the `barrier_wait` bucket is what makes the 4-worker wordcount run
//! slower than the sequential one.
//!
//! Every profiled run is asserted bit-identical to an unprofiled
//! sequential baseline of the same job — the sweep doubles as the
//! result-neutrality contract at full-job scale.
//!
//! The module also hosts the CI perf-regression gate: a min-of-N
//! unprofiled sequential wordcount measurement compared against a
//! committed baseline (`scripts/perf_baseline.json`).

use std::path::{Path, PathBuf};
use std::time::Instant;

use smarco_core::config::SmarcoConfig;
use smarco_sim::prof::{HostPhase, ProfConfig, ProfileReport};
use smarco_workloads::Benchmark;

use crate::harness::smarco_mapreduce;
use crate::host::HostInfo;
use crate::Scale;

/// Default output filename, written to the working directory.
pub const BENCH_FILE: &str = "BENCH_parallel.json";

/// Wall-clock slack the perf gate tolerates over its committed baseline.
pub const GATE_TOLERANCE: f64 = 1.10;

/// Wall-clock slack the 4-worker gate tolerates — wider than the
/// sequential gate because multi-threaded timing shares the host
/// scheduler with everything else running on it.
pub const GATE_TOLERANCE_W4: f64 = 1.25;

/// One profiled run's record.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelEntry {
    /// Benchmark that ran.
    pub label: String,
    /// PDES worker threads driving the shards.
    pub workers: usize,
    /// Host wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Wall-clock of this benchmark's workers=1 run divided by this
    /// run's — >1 means parallelism actually paid off (the ROADMAP
    /// target is >=2 at 4 workers). Exactly 1 for workers=1 entries; 0
    /// when the sweep had no workers=1 run to compare against.
    pub speedup_vs_workers1: f64,
    /// Simulated cycles of the run.
    pub simulated_cycles: u64,
    /// The engine's self-profile for the run.
    pub profile: ProfileReport,
}

impl ParallelEntry {
    /// Fraction of measured host time spent waiting at the window barrier.
    pub fn barrier_share(&self) -> f64 {
        let total = self.profile.total_ns();
        if total == 0 {
            0.0
        } else {
            self.profile.phases().get(HostPhase::Barrier) as f64 / total as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"label\":\"{}\",\"workers\":{},\"wall_seconds\":{:.6},\
             \"speedup_vs_workers1\":{:.3},\
             \"simulated_cycles\":{},\"barrier_share\":{:.6},\"profile\":{}}}",
            self.label,
            self.workers,
            self.wall_seconds,
            self.speedup_vs_workers1,
            self.simulated_cycles,
            self.barrier_share(),
            self.profile.to_json()
        )
    }
}

/// The sweep's records, destined for [`BENCH_FILE`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelReport {
    /// Host context of the sweep.
    pub host: HostInfo,
    /// One record per benchmark × worker count, in run order.
    pub entries: Vec<ParallelEntry>,
}

impl ParallelReport {
    /// Serialises the report (hand-rolled: the workspace is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self.entries.iter().map(ParallelEntry::to_json).collect();
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

    /// The entry for `(label, workers)`, if swept.
    pub fn entry(&self, label: &str, workers: usize) -> Option<&ParallelEntry> {
        self.entries
            .iter()
            .find(|e| e.label == label && e.workers == workers)
    }
}

/// The sweep's workload knobs per scale.
fn workload(scale: Scale) -> (SmarcoConfig, u64, u64) {
    match scale {
        Scale::Quick => (SmarcoConfig::tiny(), 1_500, 500),
        Scale::Paper => (SmarcoConfig::smarco(), 4_000, 1_500),
    }
}

/// Runs every HTC benchmark once per entry of `worker_counts` with
/// profiling enabled.
///
/// # Panics
///
/// Panics if any profiled run's [`smarco_core::SmarcoReport`] differs from
/// the benchmark's unprofiled sequential baseline (profiling must be
/// result-neutral and worker counts bit-identical), or if a profiled run
/// comes back without a profile.
pub fn run(scale: Scale, worker_counts: &[usize]) -> ParallelReport {
    let (cfg, map_ops, reduce_ops) = workload(scale);
    let tpc = cfg.tcg.resident_threads;
    let mut entries = Vec::new();
    for bench in Benchmark::ALL {
        // Unprofiled sequential baseline: the reference report every
        // profiled run must reproduce bit-for-bit.
        let mut base_cfg = cfg.clone();
        base_cfg.workers = 1;
        let baseline = smarco_mapreduce(bench, &base_cfg, map_ops, reduce_ops, tpc);
        assert!(
            baseline.profile.is_none(),
            "unprofiled baseline produced a profile"
        );
        for &workers in worker_counts {
            let mut wcfg = cfg.clone();
            wcfg.workers = workers;
            wcfg.prof = ProfConfig::on();
            let start = Instant::now();
            let run = smarco_mapreduce(bench, &wcfg, map_ops, reduce_ops, tpc);
            let wall_seconds = start.elapsed().as_secs_f64();
            assert_eq!(
                run.report,
                baseline.report,
                "{} with {workers} profiled workers diverged from the \
                 unprofiled sequential baseline",
                bench.name()
            );
            let simulated_cycles = run.total_cycles();
            let profile = run.profile.expect("profiled run must carry a profile");
            entries.push(ParallelEntry {
                label: bench.name().to_string(),
                workers,
                wall_seconds,
                speedup_vs_workers1: 0.0, // filled in below, post-sweep
                simulated_cycles,
                profile,
            });
        }
    }
    // Post-hoc speedups: each entry against its benchmark's workers=1
    // run from the same (profiled) sweep, so the comparison is
    // apples-to-apples.
    let w1: Vec<(String, f64)> = entries
        .iter()
        .filter(|e| e.workers == 1)
        .map(|e| (e.label.clone(), e.wall_seconds))
        .collect();
    for e in &mut entries {
        if let Some((_, base)) = w1.iter().find(|(label, _)| *label == e.label) {
            if e.wall_seconds > 0.0 {
                e.speedup_vs_workers1 = base / e.wall_seconds;
            }
        }
    }
    ParallelReport {
        host: HostInfo::capture(worker_counts, cfg.cycle_skip, scale),
        entries,
    }
}

impl std::fmt::Display for ParallelReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "profile: host-side phase accounting of the PDES engine \
             ({} host CPUs, sweep {:?})",
            self.host.cpus, self.host.worker_sweep
        )?;
        writeln!(
            f,
            "  {:>10} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "bench", "workers", "seconds", "step%", "skip%", "route%", "barr%", "spread"
        )?;
        for e in &self.entries {
            let p = e.profile.phases();
            let total = e.profile.total_ns().max(1) as f64;
            let pct = |ph: HostPhase| p.get(ph) as f64 / total * 100.0;
            writeln!(
                f,
                "  {:>10} {:>7} {:>9.3} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.0}ns",
                e.label,
                e.workers,
                e.wall_seconds,
                pct(HostPhase::Step),
                pct(HostPhase::Skip),
                pct(HostPhase::Route),
                pct(HostPhase::Barrier),
                e.profile.telemetry.spread.p99(),
            )?;
        }
        // One-line speedup table: the ROADMAP target (>=2x at 4 workers)
        // should be readable at a glance, not reverse-engineered from
        // wall-clock columns.
        let cells: Vec<String> = self
            .entries
            .iter()
            .filter(|e| e.workers != 1 && e.speedup_vs_workers1 > 0.0)
            .map(|e| format!("{} {}w={:.2}x", e.label, e.workers, e.speedup_vs_workers1))
            .collect();
        if !cells.is_empty() {
            writeln!(f, "speedup vs workers=1: {}", cells.join(" | "))?;
        }
        Ok(())
    }
}

// ---- CI perf-regression gate ----

/// Measures the gate workload at a given worker count: an unprofiled
/// quick-scale wordcount job, min-of-`runs` wall-clock seconds (the
/// minimum is the least noisy location statistic for wall-clock on a
/// shared host).
pub fn gate_measure_at(runs: usize, workers: usize) -> f64 {
    let (mut cfg, map_ops, reduce_ops) = workload(Scale::Quick);
    cfg.workers = workers.max(1);
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        let _ = smarco_mapreduce(
            Benchmark::WordCount,
            &cfg,
            map_ops,
            reduce_ops,
            cfg.tcg.resident_threads,
        );
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The sequential gate workload: [`gate_measure_at`] with one worker.
pub fn gate_measure(runs: usize) -> f64 {
    gate_measure_at(runs, 1)
}

/// Renders a gate baseline file. `wall_seconds_workers4` is recorded
/// when the writing host measured the 4-worker leg (hosts with >= 4
/// CPUs); smaller hosts omit it and the 4-worker gate auto-skips.
pub fn gate_baseline_json(
    wall_seconds: f64,
    wall_seconds_workers4: Option<f64>,
    host: &HostInfo,
) -> String {
    let w4 = wall_seconds_workers4
        .map(|s| format!("\"wall_seconds_workers4\":{s:.6},"))
        .unwrap_or_default();
    format!(
        "{{\"gate\":\"wordcount quick workers=1 min-of-3\",\
         \"wall_seconds\":{wall_seconds:.6},{w4}\"host\":{}}}\n",
        host.to_json()
    )
}

/// Extracts the float after `key` (hand-rolled parse: the workspace is
/// dependency-free). Returns `None` when absent or malformed.
fn json_f64_after(json: &str, key: &str) -> Option<f64> {
    let at = json.find(key)? + key.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `wall_seconds` from a gate baseline file. Returns `None` on
/// malformed input.
pub fn gate_baseline_seconds(json: &str) -> Option<f64> {
    json_f64_after(json, "\"wall_seconds\":")
}

/// Extracts the optional 4-worker leg from a gate baseline file.
pub fn gate_baseline_workers4(json: &str) -> Option<f64> {
    json_f64_after(json, "\"wall_seconds_workers4\":")
}

/// Extracts the writing host's CPU count from a gate baseline file.
pub fn gate_baseline_cpus(json: &str) -> Option<usize> {
    let at = json.find("\"cpus\":")? + "\"cpus\":".len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarco_sim::prof::Telemetry;

    fn report(barrier_ns: u64, busy_ns: u64) -> ProfileReport {
        let w = smarco_sim::prof::WorkerProfile {
            busy_ns,
            barrier_ns,
            ..Default::default()
        };
        ProfileReport {
            sample_every: 1,
            shards: Vec::new(),
            shard_names: Vec::new(),
            workers: vec![w],
            telemetry: Telemetry::default(),
            slices: Vec::new(),
            dropped_slices: 0,
            obs_ns: 0,
        }
    }

    #[test]
    fn entry_json_embeds_profile_share_and_speedup() {
        let e = ParallelEntry {
            label: "wordcount".into(),
            workers: 4,
            wall_seconds: 0.25,
            speedup_vs_workers1: 0.5,
            simulated_cycles: 1000,
            profile: report(750, 1000),
        };
        assert!((e.barrier_share() - 0.75).abs() < 1e-12);
        let r = ParallelReport {
            host: HostInfo::capture(&[4], true, Scale::Quick),
            entries: vec![e],
        };
        let j = r.to_json();
        assert!(j.starts_with("{\"host\":{"), "{j}");
        assert!(j.contains("\"barrier_share\":0.750000"), "{j}");
        assert!(j.contains("\"speedup_vs_workers1\":0.500"), "{j}");
        assert!(j.contains("\"phases\":{"), "{j}");
        assert!(j.contains("\"barrier_wait\":750"), "{j}");
        let text = r.to_string();
        assert!(
            text.contains("speedup vs workers=1: wordcount 4w=0.50x"),
            "{text}"
        );
    }

    #[test]
    fn baseline_roundtrips() {
        let h = HostInfo::capture(&[1], true, Scale::Quick);
        let j = gate_baseline_json(0.123456, None, &h);
        let s = gate_baseline_seconds(&j).expect("parse");
        assert!((s - 0.123456).abs() < 1e-9, "{s}");
        assert_eq!(gate_baseline_workers4(&j), None, "no 4-worker leg: {j}");
        assert_eq!(gate_baseline_cpus(&j), Some(h.cpus), "{j}");
        assert_eq!(gate_baseline_seconds("{}"), None);
        assert_eq!(gate_baseline_seconds("{\"wall_seconds\":oops}"), None);
    }

    #[test]
    fn baseline_with_4worker_leg_roundtrips() {
        let h = HostInfo::capture(&[1, 4], true, Scale::Quick);
        let j = gate_baseline_json(0.04, Some(0.02), &h);
        let s4 = gate_baseline_workers4(&j).expect("parse w4");
        assert!((s4 - 0.02).abs() < 1e-9, "{s4}");
        // The plain key must still parse to the sequential leg, not the
        // 4-worker one.
        let s1 = gate_baseline_seconds(&j).expect("parse w1");
        assert!((s1 - 0.04).abs() < 1e-9, "{s1}");
    }
}

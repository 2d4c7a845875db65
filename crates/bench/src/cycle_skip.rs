//! `scale` bench: the sharded simulator across PDES worker counts, and
//! the cycle-skip study.
//!
//! Runs Fig. 22's SmarCo workload (a MapReduce job over the whole chip)
//! once per PDES worker count. Every run must reproduce the first run's
//! [`smarco_core::SmarcoReport`] and its stepped and skipped shard-cycles
//! — the sweep asserts both, so this bench is a determinism check at
//! full-chip scale.
//!
//! A second study measures event-horizon cycle skipping on the
//! memory-intensive benchmark (TeraSort: the highest load fraction of the
//! HTC suite combined with a store-heavy mix, so its threads spend most
//! cycles stalled on DRAM): the same job runs with skipping off and on,
//! and the two reports must be bit-identical.
//!
//! The `scale` binary writes one [`SkipEntry`] per run to [`BENCH_FILE`]
//! (its one writer): simulated cycles, and how much of the shard-cycle
//! grid the skipper fast-forwarded instead of stepping. Every field is
//! simulated, so a rerun reproduces the file byte for byte.

use std::fmt;
use std::path::Path;

use smarco_core::config::SmarcoConfig;
use smarco_workloads::Benchmark;

use crate::harness::smarco_mapreduce;
use crate::Scale;

/// Default output filename, written to the working directory.
pub const BENCH_FILE: &str = "BENCH_cycle_skip.json";

/// One chip run's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SkipEntry {
    /// What ran (benchmark / study name).
    pub label: String,
    /// PDES worker threads driving the shards.
    pub workers: usize,
    /// Whether event-horizon cycle skipping was enabled.
    pub cycle_skip: bool,
    /// Simulated cycles of the run.
    pub simulated_cycles: u64,
    /// Shard-cycles stepped one by one.
    pub stepped_cycles: u64,
    /// Shard-cycles fast-forwarded past via event horizons.
    pub skipped_cycles: u64,
}

impl SkipEntry {
    /// Fraction of shard-cycles skipped rather than stepped.
    pub fn skip_ratio(&self) -> f64 {
        let total = self.stepped_cycles + self.skipped_cycles;
        if total == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / total as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"label\":\"{}\",\"workers\":{},\"cycle_skip\":{},\
             \"simulated_cycles\":{},\
             \"stepped_cycles\":{},\"skipped_cycles\":{},\
             \"skip_ratio\":{:.6}}}",
            self.label,
            self.workers,
            self.cycle_skip,
            self.simulated_cycles,
            self.stepped_cycles,
            self.skipped_cycles,
            self.skip_ratio()
        )
    }
}

/// The sweep's runs, destined for [`BENCH_FILE`].
#[derive(Debug, Clone, PartialEq)]
pub struct SkipReport {
    /// PDES worker counts the sweep ran.
    pub worker_sweep: Vec<usize>,
    /// Whether the sweep's chips skipped cycles (the study's skip-off
    /// run says so in its own entry).
    pub cycle_skip: bool,
    /// Experiment scale of the sweep.
    pub scale: Scale,
    /// Entries in run order: the worker sweep, then the study's skip-off
    /// and skip-on runs.
    pub entries: Vec<SkipEntry>,
}

impl SkipReport {
    /// Serialises the report as a JSON object, sweep fields first
    /// (hand-rolled: the workspace is dependency-free).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self.entries.iter().map(SkipEntry::to_json).collect();
        format!(
            "{{{},\n \"entries\":[\n  {}\n]}}\n",
            crate::sweep_fields(&self.worker_sweep, self.cycle_skip, self.scale),
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

    /// The skip study's (off, on) pair.
    fn skip_study(&self) -> Option<(&SkipEntry, &SkipEntry)> {
        let off = self.entries.iter().find(|e| !e.cycle_skip)?;
        let on = self
            .entries
            .iter()
            .find(|e| e.cycle_skip && e.label == off.label && e.workers == off.workers)?;
        Some((off, on))
    }
}

/// Runs one MapReduce job and records it as a [`SkipEntry`].
fn recorded(
    label: &str,
    bench: Benchmark,
    cfg: &SmarcoConfig,
    map_ops: u64,
    reduce_ops: u64,
) -> (smarco_runtime::MapReduceRun, SkipEntry) {
    let run = smarco_mapreduce(bench, cfg, map_ops, reduce_ops, cfg.tcg.resident_threads);
    let entry = SkipEntry {
        label: label.to_string(),
        workers: cfg.workers,
        cycle_skip: cfg.cycle_skip,
        simulated_cycles: run.total_cycles(),
        stepped_cycles: run.stepped_cycles,
        skipped_cycles: run.skipped_cycles,
    };
    (run, entry)
}

/// Runs Fig. 22's workload once per entry of `worker_counts`, then the
/// TeraSort cycle-skip study.
///
/// # Panics
///
/// Panics if any run of the worker sweep differs from the first in its
/// report or in its stepped and skipped shard-cycles, if the skip-off
/// run of the study differs from the skip-on run, or if the skipper never
/// engages on the memory-intensive study (a zero skip ratio there means
/// the event horizons are dead) — the determinism and liveness contracts
/// are what this bench checks.
pub fn run(scale: Scale, worker_counts: &[usize]) -> SkipReport {
    let (cfg, map_ops, reduce_ops) = match scale {
        Scale::Quick => (SmarcoConfig::tiny(), 1_500, 500),
        Scale::Paper => (SmarcoConfig::smarco(), 4_000, 1_500),
    };
    let mut report = SkipReport {
        worker_sweep: worker_counts.to_vec(),
        cycle_skip: cfg.cycle_skip,
        scale,
        entries: Vec::new(),
    };
    let mut first = None;
    for &workers in worker_counts {
        let mut wcfg = cfg.clone();
        wcfg.workers = workers;
        let (run, entry) = recorded(
            "wordcount",
            Benchmark::WordCount,
            &wcfg,
            map_ops,
            reduce_ops,
        );
        let pin = (run.report, entry.stepped_cycles, entry.skipped_cycles);
        match &first {
            None => first = Some(pin),
            Some(seq) => assert_eq!(
                &pin, seq,
                "run with {workers} workers diverged from the first \
                 (report, stepped and skipped shard-cycles)"
            ),
        }
        report.entries.push(entry);
    }

    // Cycle-skip study: the memory-intensive benchmark, skipping off vs on
    // at the same worker count.
    let study = Benchmark::TeraSort;
    let mut off_cfg = cfg.clone();
    off_cfg.cycle_skip = false;
    let (off_run, off_entry) = recorded("terasort", study, &off_cfg, map_ops, reduce_ops);
    let (on_run, on_entry) = recorded("terasort", study, &cfg, map_ops, reduce_ops);
    assert_eq!(
        on_run.report, off_run.report,
        "cycle skipping changed the study's report"
    );
    assert!(
        on_entry.skip_ratio() > 0.0,
        "skipper never engaged on the memory-intensive study"
    );
    report.entries.push(off_entry);
    report.entries.push(on_entry);
    report
}

impl fmt::Display for SkipReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scale: Fig. 22's workload vs PDES workers (bit-identical reports), \
             then the cycle-skip study"
        )?;
        writeln!(
            f,
            "  {:>10} {:>7} {:>5} {:>9} {:>9} {:>9} {:>6}",
            "run", "workers", "skip", "cycles", "stepped", "skipped", "ratio"
        )?;
        for e in &self.entries {
            writeln!(
                f,
                "  {:>10} {:>7} {:>5} {:>9} {:>9} {:>9} {:>6.3}",
                e.label,
                e.workers,
                if e.cycle_skip { "on" } else { "off" },
                e.simulated_cycles,
                e.stepped_cycles,
                e.skipped_cycles,
                e.skip_ratio()
            )?;
        }
        if let Some((off, on)) = self.skip_study() {
            let stepped_cut = 1.0 - on.stepped_cycles as f64 / off.stepped_cycles.max(1) as f64;
            writeln!(
                f,
                "cycle skipping on {} ({} workers): {:.0}% fewer stepped cycles, \
                 skip ratio {:.2}",
                off.label,
                off.workers,
                stepped_cut * 100.0,
                on.skip_ratio()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> SkipEntry {
        SkipEntry {
            label: "terasort".into(),
            workers: 1,
            cycle_skip: true,
            simulated_cycles: 1000,
            stepped_cycles: 600,
            skipped_cycles: 2400,
        }
    }

    #[test]
    fn ratio_and_json_shape() {
        let e = entry();
        assert!((e.skip_ratio() - 0.8).abs() < 1e-12);
        let r = SkipReport {
            worker_sweep: vec![1],
            cycle_skip: true,
            scale: Scale::Quick,
            entries: vec![e],
        };
        let j = r.to_json();
        assert!(
            j.starts_with(
                "{\"worker_sweep\":[1],\"cycle_skip\":true,\"scale\":\"quick\",\n \"entries\":["
            ),
            "{j}"
        );
        assert!(j.contains("\"label\":\"terasort\""), "{j}");
        assert!(j.contains("\"skip_ratio\":0.800000"), "{j}");
        assert!(j.contains("\"skipped_cycles\":2400"), "{j}");
    }

    #[test]
    fn empty_run_has_zero_ratio() {
        let mut e = entry();
        e.stepped_cycles = 0;
        e.skipped_cycles = 0;
        assert_eq!(e.skip_ratio(), 0.0);
    }
}

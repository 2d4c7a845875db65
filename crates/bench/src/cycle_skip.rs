//! Machine-readable cycle-skip performance records.
//!
//! The `scale` bench appends one [`SkipEntry`] per chip run and writes
//! the set to [`BENCH_FILE`] in the working directory (its one writer),
//! giving the repo a perf trajectory to track across changes: wall-clock
//! seconds, simulated cycles, and how much of the shard-cycle grid the
//! event-horizon skipper fast-forwarded instead of stepping.

use std::path::Path;

use crate::host::HostInfo;

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
    /// Host wall-clock seconds for the run.
    pub wall_seconds: f64,
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
             \"wall_seconds\":{:.6},\"simulated_cycles\":{},\
             \"stepped_cycles\":{},\"skipped_cycles\":{},\
             \"skip_ratio\":{:.6}}}",
            self.label,
            self.workers,
            self.cycle_skip,
            self.wall_seconds,
            self.simulated_cycles,
            self.stepped_cycles,
            self.skipped_cycles,
            self.skip_ratio()
        )
    }
}

/// A set of runs destined for [`BENCH_FILE`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SkipReport {
    /// Host context of the sweep — without it the wall-clock columns are
    /// uninterpretable across machines.
    pub host: HostInfo,
    /// Entries in run order.
    pub entries: Vec<SkipEntry>,
}

impl SkipReport {
    /// Serialises the report as a JSON object with the host block first
    /// (hand-rolled: the workspace is dependency-free).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self.entries.iter().map(SkipEntry::to_json).collect();
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> SkipEntry {
        SkipEntry {
            label: "terasort".into(),
            workers: 1,
            cycle_skip: true,
            wall_seconds: 1.25,
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
            host: HostInfo::capture(&[1], true, crate::Scale::Quick),
            entries: vec![e],
        };
        let j = r.to_json();
        assert!(j.starts_with("{\"host\":{"), "{j}");
        assert!(j.contains("\"entries\":["), "{j}");
        assert!(j.contains("\"cpus\":"), "{j}");
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

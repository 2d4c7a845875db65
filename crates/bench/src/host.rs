//! Host-machine context shared by the machine-readable bench writers.
//!
//! Wall-clock numbers are meaningless without knowing what they ran on:
//! a 4-worker sweep on a 2-CPU host *should* lose to the sequential run.
//! Both `BENCH_cycle_skip.json` and `BENCH_parallel.json` embed one
//! [`HostInfo`] block so the perf trajectory stays interpretable across
//! machines.

/// The host context of a bench run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// Logical CPUs available to the process.
    pub cpus: usize,
    /// PDES worker counts the run swept.
    pub worker_sweep: Vec<usize>,
    /// Whether event-horizon cycle skipping was enabled for the sweep.
    pub cycle_skip: bool,
    /// Experiment scale the run used (`"quick"` or `"paper"`).
    pub scale: String,
}

impl HostInfo {
    /// Captures the current host with the given sweep metadata.
    pub fn capture(worker_sweep: &[usize], cycle_skip: bool, scale: crate::Scale) -> Self {
        Self {
            cpus: std::thread::available_parallelism().map_or(1, usize::from),
            worker_sweep: worker_sweep.to_vec(),
            cycle_skip,
            scale: scale.name().to_string(),
        }
    }

    /// Whether this host can genuinely run `workers` PDES workers in
    /// parallel. Below this, a multi-worker measurement exercises the
    /// oversubscribed barrier path and measures overhead, not speedup —
    /// the perf gate's 4-worker leg auto-skips on such hosts.
    pub fn can_exercise(&self, workers: usize) -> bool {
        self.cpus >= workers
    }

    /// Serialises the block as a JSON object (hand-rolled: the workspace
    /// is dependency-free).
    pub fn to_json(&self) -> String {
        let sweep: Vec<String> = self.worker_sweep.iter().map(usize::to_string).collect();
        format!(
            "{{\"cpus\":{},\"worker_sweep\":[{}],\"cycle_skip\":{},\"scale\":\"{}\"}}",
            self.cpus,
            sweep.join(","),
            self.cycle_skip,
            self.scale
        )
    }
}

impl Default for HostInfo {
    /// Captures the current host with no sweep metadata yet.
    fn default() -> Self {
        Self::capture(&[], true, crate::Scale::Quick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_sweep_and_cpus() {
        let h = HostInfo::capture(&[1, 2, 4], true, crate::Scale::Quick);
        assert!(h.cpus >= 1);
        let j = h.to_json();
        assert!(j.contains("\"worker_sweep\":[1,2,4]"), "{j}");
        assert!(j.contains("\"cycle_skip\":true"), "{j}");
        assert!(j.contains("\"scale\":\"quick\""), "{j}");
        assert!(j.contains(&format!("\"cpus\":{}", h.cpus)), "{j}");
    }

    #[test]
    fn default_still_detects_cpus() {
        assert!(HostInfo::default().cpus >= 1);
        assert!(HostInfo::default().worker_sweep.is_empty());
    }

    #[test]
    fn can_exercise_compares_against_detected_cpus() {
        let h = HostInfo::default();
        assert!(h.can_exercise(1), "every host has at least one CPU");
        assert!(h.can_exercise(h.cpus));
        assert!(!h.can_exercise(h.cpus + 1));
    }
}

//! Cluster-wide run statistics: the frontend's latency view plus every
//! chip's [`SmarcoReport`], aggregated.
//!
//! The report derives `PartialEq` end-to-end — latency histogram, SLO
//! counters, and per-chip reports — so "bit-identical across workers ×
//! cycle-skip × chaos" is a single `assert_eq!` in `tests/equivalence.rs`.

use smarco_sim::stats::Percentiles;
use smarco_sim::Cycle;

use crate::report::SmarcoReport;

/// Statistics of one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Cluster cycle the report was taken at.
    pub cycles: Cycle,
    /// Requests the frontend generated and routed.
    pub offered: u64,
    /// Requests whose completion reached the frontend.
    pub completed: u64,
    /// Completions that arrived after `arrival + slo`.
    pub slo_misses: u64,
    /// End-to-end latency (arrival → reply at the frontend), in cycles.
    pub latency: Percentiles,
    /// Per-chip reports, in chip-index order.
    pub chips: Vec<SmarcoReport>,
}

impl ClusterReport {
    /// Fraction of completed requests that missed the SLO (0 when
    /// nothing completed).
    pub fn slo_miss_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.slo_misses as f64 / self.completed as f64
        }
    }

    /// Instructions retired across every chip.
    pub fn instructions(&self) -> u64 {
        self.chips.iter().map(|c| c.instructions).sum()
    }

    /// Whether every chip's degradation counters are clean (no faults
    /// observed, nothing quarantined).
    pub fn is_clean(&self) -> bool {
        self.chips.iter().all(|c| c.degradation.is_clean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_handles_the_empty_run() {
        let r = ClusterReport {
            cycles: 0,
            offered: 0,
            completed: 0,
            slo_misses: 0,
            latency: Percentiles::new(),
            chips: Vec::new(),
        };
        assert_eq!(r.slo_miss_rate(), 0.0);
        assert_eq!(r.instructions(), 0);
        assert!(r.is_clean());
    }

    #[test]
    fn miss_rate_is_a_fraction_of_completions() {
        let mut r = ClusterReport {
            cycles: 100,
            offered: 10,
            completed: 8,
            slo_misses: 2,
            latency: Percentiles::new(),
            chips: Vec::new(),
        };
        assert!((r.slo_miss_rate() - 0.25).abs() < 1e-12);
        r.slo_misses = 0;
        assert_eq!(r.slo_miss_rate(), 0.0);
    }
}

//! Core and chip configurations.

use crate::fault::FaultPlan;
use smarco_mem::cache::CacheConfig;
use smarco_mem::dram::DramConfig;
use smarco_mem::mact::MactConfig;
use smarco_noc::direct::DirectPathConfig;
use smarco_noc::NocConfig;
use smarco_sim::obs::ObsConfig;
use smarco_sim::Cycle;

pub use smarco_sim::prof::ProfConfig;

/// Thread Core Group parameters (§3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcgConfig {
    /// Resident threads per core (8): must be at most `2 × pairs`.
    pub resident_threads: usize,
    /// Thread pairs = concurrently running threads (4). The issue width
    /// equals the pair count: each running thread owns a dispatcher/ALU/AGU
    /// slice (Fig. 5), so the core issues up to one instruction per pair
    /// per cycle — a 4-wide in-order superscalar.
    pub pairs: usize,
    /// Front-end refill penalty of the 8-stage pipeline on a branch
    /// mispredict.
    pub pipeline_depth: Cycle,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Cycles an SPM hit occupies a thread (predictable, faster than
    /// cache).
    pub spm_latency: Cycle,
    /// Cycles a D-cache hit occupies a thread.
    pub cache_hit_latency: Cycle,
    /// Fixed I-cache miss penalty (front-end refill from the next level).
    pub icache_miss_penalty: Cycle,
    /// Enable the in-pair friend-switch mechanism. When off, a blocked
    /// thread simply stalls its pair (coarse-grained ablation).
    pub in_pair: bool,
    /// Enable shared-instruction-segment SPM prefetch (§3.1.2).
    pub shared_iseg: bool,
}

impl TcgConfig {
    /// The paper's TCG: 8 resident threads in 4 pairs, 4-wide issue,
    /// 8-stage pipeline, 16 KB L1s.
    pub fn smarco() -> Self {
        Self {
            resident_threads: 8,
            pairs: 4,
            pipeline_depth: 8,
            l1i: CacheConfig::smarco_l1(),
            l1d: CacheConfig::smarco_l1(),
            spm_latency: 1,
            cache_hit_latency: 2,
            icache_miss_penalty: 24,
            in_pair: true,
            shared_iseg: true,
        }
    }

    /// Same core with `n` resident threads (Fig. 17's sweep). Threads 1–4
    /// occupy their own pairs; 5–8 arrive as friends.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `2 × pairs`.
    pub fn with_threads(mut self, n: usize) -> Self {
        assert!(
            n > 0 && n <= 2 * self.pairs,
            "thread count {n} out of range"
        );
        self.resident_threads = n;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero pairs/threads or more threads than `2 × pairs`.
    pub fn validate(&self) {
        if let Err(reason) = self.check() {
            panic!("{reason}");
        }
    }

    /// Non-panicking validation, used by the chip builder.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found, as a human-readable string.
    pub fn check(&self) -> Result<(), String> {
        if self.pairs == 0 {
            return Err("need at least one pair".into());
        }
        if self.resident_threads == 0 || self.resident_threads > 2 * self.pairs {
            return Err("resident threads must be 1..=2*pairs".into());
        }
        if self.spm_latency == 0 || self.cache_hit_latency == 0 {
            return Err("latencies must be positive".into());
        }
        if self.pipeline_depth == 0 {
            return Err("pipeline depth must be positive".into());
        }
        Ok(())
    }
}

/// Whole-chip configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SmarcoConfig {
    /// Topology (rings, cores, controllers).
    pub noc: NocConfig,
    /// Per-core TCG parameters.
    pub tcg: TcgConfig,
    /// MACT per sub-ring; `None` disables collection (the Fig. 20
    /// "conventional structure" baseline).
    pub mact: Option<MactConfig>,
    /// DDR controller model.
    pub dram: DramConfig,
    /// Direct datapath; `None` routes real-time requests over the rings.
    pub direct: Option<DirectPathConfig>,
    /// Core clock in GHz (1.5 for SmarCo) — used only when converting
    /// cycles to wall-clock/energy.
    pub freq_ghz: f64,
    /// Observability layer (tracing + windowed metrics). Default-off:
    /// results are bit-identical to an uninstrumented run.
    pub obs: ObsConfig,
    /// Host-side self-profiling of the PDES engine (per-shard wall-clock
    /// phase buckets and window telemetry). Default-off and, like `obs`,
    /// result-neutral: a profiled run's report is bit-identical to an
    /// unprofiled one.
    pub prof: ProfConfig,
    /// Host threads driving the chip's shards on the PDES engine. `1`
    /// (the default) simulates in-process; any value yields bit-identical
    /// results.
    pub workers: usize,
    /// Event-horizon cycle skipping: quiescent shards fast-forward past
    /// idle stretches instead of stepping them cycle by cycle. Results are
    /// bit-identical either way (the off switch exists for debugging and
    /// for `tests/equivalence.rs`, whose canonical runs keep it off).
    pub cycle_skip: bool,
    /// Fault-injection plan; `None` (and the zero plan) model a healthy
    /// chip. Usually set through
    /// [`SmarcoSystemBuilder::fault_plan`](crate::chip::SmarcoSystemBuilder::fault_plan).
    pub fault: Option<FaultPlan>,
}

impl SmarcoConfig {
    /// The full 256-core chip as taped out in Table 2.
    pub fn smarco() -> Self {
        Self {
            noc: NocConfig::smarco(),
            tcg: TcgConfig::smarco(),
            mact: Some(MactConfig::default()),
            dram: DramConfig::smarco(),
            direct: Some(DirectPathConfig::smarco()),
            freq_ghz: 1.5,
            obs: ObsConfig::off(),
            prof: ProfConfig::off(),
            workers: 1,
            cycle_skip: true,
            fault: None,
        }
    }

    /// A small chip for fast tests: 4 sub-rings × 4 cores.
    pub fn tiny() -> Self {
        let noc = NocConfig::tiny();
        Self {
            noc,
            tcg: TcgConfig::smarco(),
            mact: Some(MactConfig::default()),
            dram: DramConfig {
                channels: noc.mem_ctrls,
                ..DramConfig::smarco()
            },
            direct: Some(DirectPathConfig {
                subrings: noc.subrings,
                ..DirectPathConfig::smarco()
            }),
            freq_ghz: 1.5,
            obs: ObsConfig::off(),
            prof: ProfConfig::off(),
            workers: 1,
            cycle_skip: true,
            fault: None,
        }
    }

    /// The 40 nm prototype (§4.4): 256 threads = 32 cores in 4 sub-rings,
    /// lower clock.
    pub fn prototype_40nm() -> Self {
        let noc = NocConfig {
            subrings: 4,
            cores_per_subring: 8,
            mem_ctrls: 2,
            ..NocConfig::smarco()
        };
        Self {
            noc,
            tcg: TcgConfig::smarco(),
            mact: Some(MactConfig::default()),
            dram: DramConfig {
                channels: 2,
                ..DramConfig::smarco()
            },
            direct: Some(DirectPathConfig {
                subrings: 4,
                ..DirectPathConfig::smarco()
            }),
            freq_ghz: 1.0,
            obs: ObsConfig::off(),
            prof: ProfConfig::off(),
            workers: 1,
            cycle_skip: true,
            fault: None,
        }
    }

    /// Total hardware thread capacity.
    pub fn total_threads(&self) -> usize {
        self.noc.cores() * self.tcg.resident_threads
    }

    /// Validates every sub-config.
    ///
    /// # Panics
    ///
    /// Panics if any component configuration is inconsistent.
    pub fn validate(&self) {
        if let Err(reason) = self.check() {
            panic!("{reason}");
        }
    }

    /// Non-panicking whole-chip validation: every component config plus
    /// the cross-component invariants and (when present) the fault plan's
    /// geometry. [`SmarcoSystemBuilder::build`](crate::chip::SmarcoSystemBuilder::build)
    /// runs this before constructing any hardware.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found, as a human-readable string.
    pub fn check(&self) -> Result<(), String> {
        self.noc.check()?;
        self.tcg.check()?;
        if self.freq_ghz <= 0.0 {
            return Err("frequency must be positive".into());
        }
        if self.workers == 0 {
            return Err("need at least one worker".into());
        }
        if self.prof.enabled && self.prof.sample_every == 0 {
            return Err("profiling sample_every must be positive".into());
        }
        if self.dram.channels != self.noc.mem_ctrls {
            return Err("DRAM channels must match NoC memory controllers".into());
        }
        if let Some(d) = &self.direct {
            if d.subrings != self.noc.subrings {
                return Err("direct spokes must match sub-rings".into());
            }
        }
        if let Some(plan) = &self.fault {
            plan.check_geometry(self.noc.cores(), self.dram.channels, self.noc.subrings)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smarco_matches_table2() {
        let c = SmarcoConfig::smarco();
        c.validate();
        assert_eq!(c.noc.cores(), 256);
        assert_eq!(c.total_threads(), 2048);
        assert_eq!(c.tcg.pairs, 4);
        assert_eq!(c.freq_ghz, 1.5);
    }

    #[test]
    fn prototype_has_256_threads() {
        let c = SmarcoConfig::prototype_40nm();
        c.validate();
        assert_eq!(c.total_threads(), 256);
    }

    #[test]
    fn thread_sweep_configs() {
        for n in 1..=8 {
            let c = TcgConfig::smarco().with_threads(n);
            c.validate();
            assert_eq!(c.resident_threads, n);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_many_threads_rejected() {
        let _ = TcgConfig::smarco().with_threads(9);
    }

    #[test]
    #[should_panic(expected = "channels must match")]
    fn mismatched_dram_rejected() {
        let mut c = SmarcoConfig::tiny();
        c.dram.channels = 9;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "sample_every must be positive")]
    fn zero_profiling_stride_rejected() {
        let mut c = SmarcoConfig::tiny();
        c.prof = ProfConfig::on();
        c.prof.sample_every = 0;
        c.validate();
    }

    #[test]
    fn disabled_profiling_stride_is_ignored() {
        let mut c = SmarcoConfig::tiny();
        c.prof.sample_every = 0; // irrelevant while disabled
        c.validate();
    }
}

//! The full SmarCo chip: cores + hierarchical ring + MACT + direct
//! datapath + DDR (Fig. 4), assembled from PDES shards.
//!
//! Request life cycle (read): a thread's load misses → the core emits a
//! word-granularity request → it rides the sub-ring to the junction →
//! the junction's **MACT** collects it (or it bypasses if real-time /
//! collection is off) → the packed 64-byte batch rides the main ring to
//! its DDR controller → DRAM serves one burst → the batch *reply* rides
//! the main ring back to the junction → per-request replies fan out over
//! the sub-ring → [`crate::tcg::TcgCore::complete`] unblocks the thread,
//! which resumes per the in-pair state machine. Real-time reads can take
//! the star-shaped direct datapath both ways instead (§3.5.2).
//!
//! Internally the chip is a [`ParallelEngine`] over one
//! [`SubShard`] per sub-ring plus one [`HubShard`] (main ring + DDR +
//! main scheduler), exchanging timestamped boundary messages with the
//! junction latency as lookahead. [`SmarcoSystem::run`] drives them with
//! `config.workers` host threads; results are bit-identical for every
//! worker count.

use std::path::PathBuf;

use smarco_mem::map::AddressSpace;
use smarco_sched::Task;
use smarco_sim::obs::{EventTrace, MetricsRecorder, TraceConfig};
use smarco_sim::parallel::ParallelEngine;
use smarco_sim::prof::{ProfConfig, ProfileReport};
use smarco_sim::stats::{MeanTracker, StatsReport};
use smarco_sim::Cycle;

use crate::config::SmarcoConfig;
use crate::error::SmarcoError;
use crate::fault::FaultPlan;
use crate::report::SmarcoReport;
use crate::shard::{ChipMsg, ChipShard, HubShard, SubShard};
use crate::tcg::{CoreFull, TcgCore};

pub use crate::shard::{ChipPayload, UncoreReq};

/// Cycles between completion checks in [`SmarcoSystem::run`]. The check
/// grid is fixed — independent of the observability configuration and the
/// worker count — so every variant of a run stops at the same cycle.
const CHUNK: Cycle = 2048;

/// The assembled chip.
///
/// # Examples
///
/// ```
/// use smarco_core::chip::SmarcoSystem;
/// use smarco_core::config::SmarcoConfig;
/// use smarco_isa::mix::compute_only;
///
/// let mut sys = SmarcoSystem::builder()
///     .config(SmarcoConfig::tiny())
///     .build()?;
/// sys.attach(0, Box::new(compute_only(100)))?;
/// let report = sys.run(100_000);
/// assert_eq!(report.instructions, 101); // 100 computes + Exit
/// # Ok::<(), smarco_core::error::SmarcoError>(())
/// ```
pub struct SmarcoSystem {
    config: SmarcoConfig,
    space: AddressSpace,
    engine: ParallelEngine<ChipShard>,
    /// Host threads driving the shards (from `config.workers`).
    workers: usize,
    next_task: u64,
    /// Chip-wide event trace (ring buffer); shards drain into it at every
    /// synchronization point.
    trace: Option<EventTrace>,
    /// Windowed time-series metrics.
    metrics: Option<MetricsRecorder>,
    /// Where to write the Chrome-trace JSON at end of run.
    trace_path: Option<PathBuf>,
    /// Where to write the per-window CSV at end of run.
    metrics_path: Option<PathBuf>,
    /// Where to write the host-profile JSON at end of run.
    profile_path: Option<PathBuf>,
    /// Host nanoseconds the facade spent draining/flushing observability,
    /// accounted only while self-profiling is enabled (the profiler's
    /// `obs_flush` bucket).
    obs_ns: u64,
}

impl std::fmt::Debug for SmarcoSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmarcoSystem")
            .field("cores", &self.cores_len())
            .field("now", &self.engine.now())
            .field("workers", &self.workers)
            .finish()
    }
}

/// Fluent constructor for [`SmarcoSystem`]: pick a configuration, layer
/// run options on top, and [`build`](Self::build) validates everything at
/// once instead of panicking mid-assembly.
///
/// ```
/// use smarco_core::chip::SmarcoSystem;
/// use smarco_core::config::SmarcoConfig;
/// use smarco_core::fault::FaultPlan;
///
/// let cfg = SmarcoConfig::tiny();
/// let sys = SmarcoSystem::builder()
///     .config(cfg.clone())
///     .fault_plan(FaultPlan::chaos(42, &cfg))
///     .workers(4)
///     .build()?;
/// assert_eq!(sys.cores_len(), 16);
/// # Ok::<(), smarco_core::error::SmarcoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SmarcoSystemBuilder {
    config: SmarcoConfig,
    fault: Option<FaultPlan>,
    workers: Option<usize>,
    trace_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    profile_path: Option<PathBuf>,
}

impl Default for SmarcoSystemBuilder {
    /// The paper chip ([`SmarcoConfig::smarco`]) with no overrides.
    fn default() -> Self {
        Self {
            config: SmarcoConfig::smarco(),
            fault: None,
            workers: None,
            trace_path: None,
            metrics_path: None,
            profile_path: None,
        }
    }
}

impl SmarcoSystemBuilder {
    /// Uses `config` as the base chip configuration.
    #[must_use]
    pub fn config(mut self, config: SmarcoConfig) -> Self {
        self.config = config;
        self
    }

    /// Injects `plan`'s faults into the run (overrides any plan already
    /// in the configuration).
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Drives the shards with `workers` host threads (overrides the
    /// configuration's worker count). Results are bit-identical for every
    /// value.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Writes the Chrome `trace_event` JSON to `path` at end of run
    /// (enables tracing with defaults if the configuration left it off).
    #[must_use]
    pub fn trace_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Writes the per-window metrics CSV to `path` at end of run (enables
    /// sampling with a 10 000-cycle window if the configuration left it
    /// off).
    #[must_use]
    pub fn metrics_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.metrics_path = Some(path.into());
        self
    }

    /// Writes the host-profile JSON to `path` at end of run, plus a
    /// folded-stack file and a Chrome trace of host phases next to it
    /// (enables self-profiling with defaults if the configuration left it
    /// off). Profiling never changes simulation results.
    #[must_use]
    pub fn profile_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.profile_path = Some(path.into());
        self
    }

    /// Validates the merged configuration and assembles the chip.
    ///
    /// # Errors
    ///
    /// [`SmarcoError::InvalidConfig`] when the configuration (including
    /// the fault plan's geometry) is inconsistent.
    pub fn build(self) -> Result<SmarcoSystem, SmarcoError> {
        let mut config = self.config;
        if let Some(plan) = self.fault {
            config.fault = Some(plan);
        }
        if let Some(w) = self.workers {
            config.workers = w;
        }
        if let Err(reason) = config.check() {
            return Err(SmarcoError::InvalidConfig { reason });
        }
        let mut sys = SmarcoSystem::assemble(config);
        if let Some(path) = self.trace_path {
            sys.trace_to(path);
        }
        if let Some(path) = self.metrics_path {
            sys.metrics_to(path);
        }
        if let Some(path) = self.profile_path {
            sys.profile_to(path);
        }
        Ok(sys)
    }
}

impl SmarcoSystem {
    /// Starts a [`SmarcoSystemBuilder`] (defaulting to the paper chip).
    pub fn builder() -> SmarcoSystemBuilder {
        SmarcoSystemBuilder::default()
    }

    /// Assembles the shards and engine from an already-validated
    /// configuration.
    fn assemble(config: SmarcoConfig) -> Self {
        let space = AddressSpace::new(config.noc.cores(), config.dram.channels);
        let mut shards: Vec<ChipShard> = (0..config.noc.subrings)
            .map(|sr| ChipShard::Sub(Box::new(SubShard::new(sr, &config, space))))
            .collect();
        shards.push(ChipShard::Hub(Box::new(HubShard::new(&config))));
        let mut engine = ParallelEngine::new(shards, config.noc.boundary_latency());
        engine.set_skip_enabled(config.cycle_skip);
        if config.prof.enabled {
            engine.enable_profiling(config.prof);
        }
        let mut sys = Self {
            engine,
            workers: config.workers.max(1),
            space,
            config,
            next_task: 0,
            trace: None,
            metrics: None,
            trace_path: None,
            metrics_path: None,
            profile_path: None,
            obs_ns: 0,
        };
        sys.set_contract_checking(true);
        if let Some(tc) = sys.config.obs.trace {
            sys.enable_tracing(tc);
        }
        if let Some(w) = sys.config.obs.sample_window {
            sys.sample_every(w);
        }
        sys
    }

    fn subs(&self) -> impl Iterator<Item = &SubShard> {
        self.engine.shards().iter().filter_map(ChipShard::as_sub)
    }

    fn sub(&self, sr: usize) -> &SubShard {
        self.engine.shards()[sr].as_sub().expect("sub-ring shard")
    }

    fn sub_mut(&mut self, sr: usize) -> &mut SubShard {
        self.engine.shards_mut()[sr]
            .as_sub_mut()
            .expect("sub-ring shard")
    }

    fn hub(&self) -> &HubShard {
        self.engine
            .shards()
            .last()
            .and_then(ChipShard::as_hub)
            .expect("hub shard")
    }

    fn hub_mut(&mut self) -> &mut HubShard {
        self.engine
            .shards_mut()
            .last_mut()
            .and_then(ChipShard::as_hub_mut)
            .expect("hub shard")
    }

    /// Turns event tracing on across every component. Idempotent beyond
    /// resetting the ring buffer to `cfg.capacity`.
    pub fn enable_tracing(&mut self, cfg: TraceConfig) {
        for shard in self.engine.shards_mut() {
            match shard {
                ChipShard::Sub(s) => s.enable_trace(cfg),
                ChipShard::Hub(h) => h.enable_trace(),
            }
        }
        self.trace = Some(EventTrace::new(cfg.capacity));
        self.config.obs.trace = Some(cfg);
    }

    /// Enables tracing (with defaults, if off) and writes the Chrome
    /// `trace_event` JSON to `path` when the run finishes — load the file
    /// in Perfetto / `chrome://tracing`.
    pub fn trace_to(&mut self, path: impl Into<PathBuf>) {
        if self.trace.is_none() {
            self.enable_tracing(TraceConfig::default());
        }
        self.trace_path = Some(path.into());
    }

    /// Enables windowed metrics sampling every `window` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn sample_every(&mut self, window: Cycle) {
        self.metrics = Some(MetricsRecorder::new(window));
        self.config.obs.sample_window = Some(window);
        for shard in self.engine.shards_mut() {
            if let Some(s) = shard.as_sub_mut() {
                s.collect_latency();
            }
        }
    }

    /// Writes the per-window metrics CSV to `path` when the run finishes
    /// (enables sampling with a 10 000-cycle window if it was off).
    pub fn metrics_to(&mut self, path: impl Into<PathBuf>) {
        if self.metrics.is_none() {
            self.sample_every(10_000);
        }
        self.metrics_path = Some(path.into());
    }

    /// Enables host-side self-profiling (every window sampled unless the
    /// configuration says otherwise). Read-only with respect to the
    /// simulation: results stay bit-identical. Resets any profile
    /// accumulated so far.
    pub fn enable_profiling(&mut self, cfg: ProfConfig) {
        self.engine.enable_profiling(cfg);
        self.config.prof = cfg;
        self.obs_ns = 0;
    }

    /// Enables self-profiling (with defaults, if off) and writes the
    /// host-profile JSON to `path` when the run finishes, plus a
    /// folded-stack file (`.folded`) and a Chrome trace of host phases
    /// (`.trace.json`) alongside it.
    pub fn profile_to(&mut self, path: impl Into<PathBuf>) {
        if !self.config.prof.enabled {
            self.enable_profiling(ProfConfig::on());
        }
        self.profile_path = Some(path.into());
    }

    /// Enables or disables the horizon-contract cross-checker (default:
    /// on). The checker is observation-only — debug builds assert every
    /// boundary envelope against `crate::contract::horizon_contract`,
    /// release builds never evaluate it — so reports are bit-identical
    /// either way; off exists for A/B-verifying exactly that.
    pub fn set_contract_checking(&mut self, enabled: bool) {
        if enabled {
            // The static lint (code SL0421) evaluates the same derived
            // contract, so a clean lint verdict and a quiet debug run
            // certify the same predicate.
            self.engine.set_contract(
                crate::contract::horizon_contract(&self.config),
                ChipMsg::contract_class,
            );
        } else {
            self.engine.clear_contract();
        }
    }

    /// Snapshot of the host-side profile with chip shard names
    /// (`sub-ring{i}` / `hub`) and the facade's observability time filled
    /// in, when profiling is enabled.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.engine.profile().map(|p| {
            let mut r = p.report();
            r.obs_ns = self.obs_ns;
            r.shard_names = self.engine.shards().iter().map(ChipShard::label).collect();
            r
        })
    }

    /// Writes the profile exports next to `path` (JSON at `path` itself,
    /// folded stacks at `.folded`, host Chrome trace at `.trace.json`).
    /// No-op when profiling is disabled.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the export files.
    pub fn write_profile(&self, path: &std::path::Path) -> std::io::Result<()> {
        let Some(report) = self.profile_report() else {
            return Ok(());
        };
        Self::ensure_parent(path)?;
        report.write_json(path)?;
        report.write_folded(path.with_extension("folded"))?;
        report.write_chrome_json(path.with_extension("trace.json"))?;
        Ok(())
    }

    /// The chip-wide event trace, when tracing is enabled.
    pub fn trace(&self) -> Option<&EventTrace> {
        self.trace.as_ref()
    }

    /// The windowed metrics recorder, when sampling is enabled.
    pub fn metrics(&self) -> Option<&MetricsRecorder> {
        self.metrics.as_ref()
    }

    /// Chip configuration.
    pub fn config(&self) -> &SmarcoConfig {
        &self.config
    }

    /// Shard-cycles executed with per-cycle `step` calls so far.
    pub fn stepped_cycles(&self) -> u64 {
        self.engine.stepped_cycles()
    }

    /// Shard-cycles fast-forwarded by event-horizon skipping so far.
    pub fn skipped_cycles(&self) -> u64 {
        self.engine.skipped_cycles()
    }

    /// Fraction of shard-cycles skipped: `skipped / (stepped + skipped)`.
    pub fn skip_ratio(&self) -> f64 {
        self.engine.skip_ratio()
    }

    /// The unified address space.
    pub fn address_space(&self) -> AddressSpace {
        self.space
    }

    fn core_location(&self, id: usize) -> (usize, usize) {
        let cps = self.config.noc.cores_per_subring;
        (id / cps, id % cps)
    }

    /// Immutable view of core `id`.
    pub fn core(&self, id: usize) -> &TcgCore {
        let (sr, local) = self.core_location(id);
        &self.sub(sr).cores()[local]
    }

    /// Mutable view of core `id` (e.g. to pre-stage SPM data).
    pub fn core_mut(&mut self, id: usize) -> &mut TcgCore {
        let (sr, local) = self.core_location(id);
        &mut self.sub_mut(sr).cores_mut()[local]
    }

    /// Number of cores.
    pub fn cores_len(&self) -> usize {
        self.config.noc.cores()
    }

    /// Per-sub-ring MACT statistics.
    pub fn mact_stats(&self) -> Vec<&smarco_mem::mact::MactStats> {
        self.subs().map(|s| s.mact().stats()).collect()
    }

    /// Submits a task with a deadline to the hardware dispatcher (§3.7):
    /// the main scheduler picks the least-loaded sub-ring, whose
    /// laxity-aware chain table binds it to a TCG thread slot as one
    /// frees up. Returns the task id; exits appear in
    /// [`task_exits`](Self::task_exits).
    pub fn submit_task(
        &mut self,
        stream: Box<dyn smarco_isa::InstructionStream + Send>,
        deadline: Cycle,
        work_estimate: Cycle,
        priority: smarco_sched::TaskPriority,
    ) -> u64 {
        let id = self.next_task;
        self.next_task += 1;
        let now = self.engine.now();
        let mut task = Task::new(id, now, deadline, work_estimate.max(1));
        if priority == smarco_sched::TaskPriority::High {
            task = task.with_high_priority();
        }
        let sr = self.hub_mut().assign(&task);
        self.sub_mut(sr).enqueue_task(task, stream, now);
        id
    }

    /// Exit records of hardware-dispatched tasks.
    pub fn task_exits(&self) -> &[crate::dispatch::TaskExit] {
        self.hub().exits()
    }

    /// Attaches a thread stream to a specific core.
    ///
    /// # Errors
    ///
    /// [`SmarcoError::NoSuchCore`] when `core` is outside the chip,
    /// [`SmarcoError::CoreFull`] when it has no vacant slot (a dead,
    /// quarantined core is never vacant). The stream is dropped on
    /// failure; use [`try_attach`](Self::try_attach) to recover it.
    pub fn attach(
        &mut self,
        core: usize,
        stream: Box<dyn smarco_isa::InstructionStream + Send>,
    ) -> Result<usize, SmarcoError> {
        if core >= self.cores_len() {
            return Err(SmarcoError::NoSuchCore {
                core,
                cores: self.cores_len(),
            });
        }
        self.try_attach(core, stream)
            .map_err(|_| SmarcoError::CoreFull { core })
    }

    /// Attaches a thread stream to a specific core, handing the stream
    /// back inside the error when the core is full — for callers that
    /// probe several cores with one stream.
    ///
    /// # Errors
    ///
    /// Returns [`CoreFull`] (carrying the stream) when the core has no
    /// vacant slot.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the chip.
    pub fn try_attach(
        &mut self,
        core: usize,
        stream: Box<dyn smarco_isa::InstructionStream + Send>,
    ) -> Result<usize, CoreFull> {
        let (sr, local) = self.core_location(core);
        self.sub_mut(sr).attach(local, stream)
    }

    /// Attaches a stream to the first core with a vacant slot.
    ///
    /// # Errors
    ///
    /// [`SmarcoError::NoVacancy`] when the whole chip is saturated,
    /// naming the sub-rings that were probed and full.
    pub fn attach_anywhere(
        &mut self,
        stream: Box<dyn smarco_isa::InstructionStream + Send>,
    ) -> Result<(usize, usize), SmarcoError> {
        let mut stream = stream;
        for c in 0..self.cores_len() {
            match self.try_attach(c, stream) {
                Ok(t) => return Ok((c, t)),
                Err(e) => stream = e.into_stream(),
            }
        }
        Err(SmarcoError::NoVacancy {
            tried: (0..self.config.noc.subrings).collect(),
        })
    }

    /// Moves every shard's staged observations into the facade: trace
    /// events (in shard order) and latency samples (into the metrics
    /// recorder). Strictly read-only with respect to the simulation.
    ///
    /// Runs on every [`advance_until`](Self::advance_until) step, which a
    /// rack's chip node takes at least once per fabric window, so a disabled
    /// `ObsConfig` must exit on the first test — no shard walk, no
    /// staging allocation.
    fn sync_obs(&mut self) {
        if self.trace.is_none() && self.metrics.is_none() {
            return;
        }
        // Time the drain into the profiler's obs bucket — after the
        // early-out, so disabled observability still reads no clocks.
        let t0 = self.engine.profile().map(|_| std::time::Instant::now());
        if let Some(trace) = self.trace.as_mut() {
            for shard in self.engine.shards_mut() {
                match shard {
                    ChipShard::Sub(s) => s.drain_trace(trace),
                    ChipShard::Hub(h) => h.drain_trace(trace),
                }
            }
        }
        if self.metrics.is_some() {
            let mut samples = Vec::new();
            for shard in self.engine.shards_mut() {
                if let Some(s) = shard.as_sub_mut() {
                    samples.append(&mut s.take_lat_samples());
                }
            }
            if let Some(rec) = self.metrics.as_mut() {
                for v in samples {
                    rec.record_latency(v);
                }
            }
        }
        if let Some(t0) = t0 {
            self.add_obs_ns(t0);
        }
    }

    /// Adds the time elapsed since `t0` to the profiler's obs bucket.
    fn add_obs_ns(&mut self, t0: std::time::Instant) {
        self.obs_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    /// Cumulative chip counters for windowed-metrics diffing.
    fn cumulative_counters(&self, now: Cycle) -> StatsReport {
        let mut s = StatsReport::new();
        s.set("cycles", now as f64);
        let mut instructions = 0u64;
        let mut idle_pairs = 0u64;
        let cps = self.config.noc.cores_per_subring;
        for (sr, sub) in self.subs().enumerate() {
            for (local, c) in sub.cores().iter().enumerate() {
                let cs = c.stats();
                instructions += cs.instructions;
                idle_pairs += cs.idle_pair_cycles;
                let i = sr * cps + local;
                s.set(&format!("core{i:02}_instructions"), cs.instructions as f64);
            }
        }
        s.set("instructions", instructions as f64);
        s.set("idle_pair_cycles", idle_pairs as f64);
        s.set(
            "requests",
            self.subs().map(SubShard::requests).sum::<u64>() as f64,
        );
        s.set("dram_requests", self.hub().dram_requests() as f64);
        s.set("dram_bytes", self.hub().dram().bytes_served() as f64);
        s.set("dram_busy_cycles", self.hub().dram().busy_cycles() as f64);
        s.set(
            "mact_collected",
            self.subs()
                .map(|sh| sh.mact().stats().collected.get())
                .sum::<u64>() as f64,
        );
        s.set(
            "mact_batches",
            self.subs()
                .map(|sh| sh.mact().stats().batches.get())
                .sum::<u64>() as f64,
        );
        let (mp, mo) = self.hub().payload_offered_bytes();
        let mut sp = 0u64;
        let mut so = 0u64;
        for sub in self.subs() {
            let (p, o) = sub.payload_offered_bytes();
            sp += p;
            so += o;
        }
        s.set("main_ring_payload_bytes", mp as f64);
        s.set("main_ring_offered_bytes", mo as f64);
        s.set("subring_payload_bytes", sp as f64);
        s.set("subring_offered_bytes", so as f64);
        s
    }

    /// Instantaneous gauges copied into the closing window as-is.
    fn gauges(&self) -> StatsReport {
        let mut g = StatsReport::new();
        g.set(
            "sched_queue_depth",
            self.subs()
                .map(|sh| sh.dispatcher().queued() as u64)
                .sum::<u64>() as f64,
        );
        g.set(
            "sched_in_flight",
            self.subs()
                .map(|sh| sh.dispatcher().in_flight() as u64)
                .sum::<u64>() as f64,
        );
        g.set(
            "mact_open_lines",
            self.subs()
                .map(|sh| sh.mact().open_lines() as u64)
                .sum::<u64>() as f64,
        );
        g.set(
            "outstanding_requests",
            self.subs().map(|sh| sh.outstanding() as u64).sum::<u64>() as f64,
        );
        g
    }

    /// Closes the metrics window ending at `now` and adds derived rates.
    fn close_metrics_window(&mut self, now: Cycle) {
        let t0 = self.engine.profile().map(|_| std::time::Instant::now());
        self.close_metrics_window_inner(now);
        if let Some(t0) = t0 {
            self.add_obs_ns(t0);
        }
    }

    fn close_metrics_window_inner(&mut self, now: Cycle) {
        let cumulative = self.cumulative_counters(now);
        let gauges = self.gauges();
        let pairs = self.config.tcg.pairs as f64;
        let ncores = self.cores_len() as f64;
        let channels = self.config.dram.channels as f64;
        let Some(rec) = self.metrics.as_mut() else {
            return;
        };
        let w = rec.close_window(now, &cumulative, &gauges);
        let dc = w.get("cycles").unwrap_or(0.0);
        if dc > 0.0 {
            let di = w.get("instructions").unwrap_or(0.0);
            w.set("ipc", di / dc);
            for i in 0..ncores as usize {
                let key = format!("core{i:02}_instructions");
                if let Some(ci) = w.get(&key) {
                    w.set(&format!("core{i:02}_ipc"), ci / dc);
                }
            }
            let idle = w.get("idle_pair_cycles").unwrap_or(0.0);
            w.set("idle_ratio", idle / (dc * pairs * ncores));
            w.set(
                "dram_bandwidth_bpc",
                w.get("dram_bytes").unwrap_or(0.0) / dc,
            );
            w.set(
                "dram_utilization",
                w.get("dram_busy_cycles").unwrap_or(0.0) / (dc * channels),
            );
            let batches = w.get("mact_batches").unwrap_or(0.0);
            w.set("mact_batch_rate", batches / dc);
        }
        let so = w.get("subring_offered_bytes").unwrap_or(0.0);
        if so > 0.0 {
            w.set(
                "subring_utilization",
                w.get("subring_payload_bytes").unwrap_or(0.0) / so,
            );
        }
        let mo = w.get("main_ring_offered_bytes").unwrap_or(0.0);
        if mo > 0.0 {
            w.set(
                "main_ring_utilization",
                w.get("main_ring_payload_bytes").unwrap_or(0.0) / mo,
            );
        }
    }

    /// Closes any open partial window and writes the configured trace /
    /// metrics exports.
    ///
    /// Called automatically at the end of [`run`](Self::run); call
    /// directly when driving the chip with
    /// [`advance_until`](Self::advance_until).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the export files.
    pub fn flush_observations(&mut self) -> std::io::Result<()> {
        self.sync_obs();
        if self.metrics.is_some() {
            self.close_metrics_window(self.engine.now());
        }
        let t0 = self.engine.profile().map(|_| std::time::Instant::now());
        if let (Some(trace), Some(path)) = (self.trace.as_ref(), self.trace_path.as_ref()) {
            Self::ensure_parent(path)?;
            trace.write_chrome_json(path)?;
        }
        if let (Some(rec), Some(path)) = (self.metrics.as_ref(), self.metrics_path.as_ref()) {
            Self::ensure_parent(path)?;
            rec.write_csv(path)?;
        }
        if let Some(t0) = t0 {
            self.add_obs_ns(t0);
        }
        Ok(())
    }

    fn ensure_parent(path: &std::path::Path) -> std::io::Result<()> {
        match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
            _ => Ok(()),
        }
    }

    /// Whether the chip has fully drained: all threads done, no packets,
    /// batches, DRAM bursts, boundary messages or undispatched tasks in
    /// flight.
    pub fn is_done(&self) -> bool {
        self.engine.pending_messages() == 0 && self.engine.shards().iter().all(ChipShard::is_idle)
    }

    /// The chip's current cycle.
    pub fn now(&self) -> Cycle {
        self.engine.now()
    }

    /// Advances the chip to exactly cycle `stop` whether or not it is
    /// idle — unlike [`run`](Self::run), which stops early once the chip
    /// drains. This is the chip-as-shard facade: an outer simulation
    /// (e.g. [`crate::cluster::Cluster`]) embeds the chip as one PDES
    /// shard and drives its clock window by window, submitting tasks at
    /// boundary-message timestamps in between. No-op when `stop` is not
    /// ahead of [`now`](Self::now).
    ///
    /// The advance pauses at metric-window boundaries so windows close
    /// exactly on their nominal edge. Thanks to absolute message
    /// timestamps, the pause schedule never changes the simulation's
    /// state evolution. After each engine run every sub-ring settles its
    /// sleeping cores ([`SubShard::settle_cores`]), so reports, metric
    /// windows and [`core`](Self::core) read settled statistics.
    pub fn advance_until(&mut self, stop: Cycle) {
        while self.engine.now() < stop {
            let now = self.engine.now();
            let mut to = stop;
            if let Some(rec) = self.metrics.as_ref() {
                let b = rec.next_boundary();
                if b > now {
                    to = to.min(b);
                }
            }
            self.engine.run_windowed(to - now, self.workers);
            let reached = self.engine.now();
            for shard in self.engine.shards_mut() {
                if let Some(s) = shard.as_sub_mut() {
                    s.settle_cores(reached);
                }
            }
            self.sync_obs();
            while self.metrics.as_ref().is_some_and(|r| r.due(reached)) {
                self.close_metrics_window(reached);
            }
        }
    }

    /// Runs until every thread exits and the uncore drains, or `max`
    /// cycles elapse; returns the report. Completion is checked on a
    /// fixed cycle grid so the stopping point is identical for every
    /// worker count and observability configuration.
    pub fn run(&mut self, max: Cycle) -> SmarcoReport {
        while self.engine.now() < max && !self.is_done() {
            let stop = (((self.engine.now() / CHUNK) + 1) * CHUNK).min(max);
            self.advance_until(stop);
        }
        if self.config.obs.enabled() {
            self.flush_observations()
                .expect("write observation exports");
        }
        if let Some(path) = self.profile_path.clone() {
            self.write_profile(&path).expect("write profile exports");
        }
        self.report()
    }

    /// Builds the statistics report at the current cycle.
    pub fn report(&self) -> SmarcoReport {
        let now = self.engine.now();
        let mut instructions = 0;
        let mut idle = 0.0;
        let mut ifetch_miss = 0.0;
        let (mut l1d_hits, mut l1d_total) = (0u64, 0u64);
        let mut mem_latency = MeanTracker::new();
        let mut sub_util = 0.0;
        for sub in self.subs() {
            for c in sub.cores() {
                let s = c.stats();
                instructions += s.instructions;
                idle += s.idle_ratio(c.config().pairs);
                ifetch_miss += 1.0 - s.ifetch.ratio();
                let cs = c.l1d_stats();
                l1d_hits += cs.accesses.hits();
                l1d_total += cs.accesses.total();
            }
            mem_latency.merge(sub.mem_latency());
            sub_util += sub.payload_utilization();
        }
        let mut degradation = self.hub().degradation(now);
        for sub in self.subs() {
            degradation.absorb(&sub.degradation());
        }
        let n = self.cores_len() as f64;
        SmarcoReport {
            cycles: now,
            instructions,
            requests: self.subs().map(SubShard::requests).sum(),
            dram_requests: self.hub().dram_requests(),
            mem_latency,
            dram_utilization: self.hub().dram().utilization(now.max(1)),
            main_ring_utilization: self.hub().payload_utilization(),
            subring_utilization: sub_util / self.config.noc.subrings as f64,
            mact_collected: self.subs().map(|s| s.mact().stats().collected.get()).sum(),
            mact_batches: self.subs().map(|s| s.mact().stats().batches.get()).sum(),
            idle_ratio: idle / n,
            ifetch_miss_ratio: ifetch_miss / n,
            l1d_miss_ratio: if l1d_total == 0 {
                0.0
            } else {
                1.0 - l1d_hits as f64 / l1d_total as f64
            },
            degradation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarco_isa::mix::{AddressModel, GranularityMix, OpMix, SyntheticStream};
    use smarco_isa::{Op, ProgramBuilder};
    use smarco_sim::rng::SimRng;

    fn build(cfg: SmarcoConfig) -> SmarcoSystem {
        SmarcoSystem::builder().config(cfg).build().unwrap()
    }

    fn htc_mix(base: u64) -> OpMix {
        OpMix {
            mem_frac: 0.35,
            load_frac: 0.7,
            branch_frac: 0.1,
            branch_miss: 0.03,
            realtime_frac: 0.0,
            granularity: GranularityMix::new([0.3, 0.3, 0.2, 0.15, 0.05, 0.0, 0.0]),
            addresses: AddressModel::random(base, 1 << 22),
        }
    }

    fn loaded_tiny(threads_per_core: usize, instrs: u64) -> SmarcoSystem {
        let mut sys = build(SmarcoConfig::tiny());
        let mut seed = 1;
        for c in 0..sys.cores_len() {
            for _ in 0..threads_per_core {
                let mix = htc_mix(0x100_0000 + c as u64 * (1 << 22));
                sys.attach(
                    c,
                    Box::new(SyntheticStream::new(mix, instrs, SimRng::new(seed))),
                )
                .unwrap();
                seed += 1;
            }
        }
        sys
    }

    #[test]
    fn chip_runs_to_completion() {
        let mut sys = loaded_tiny(4, 300);
        let report = sys.run(2_000_000);
        assert!(sys.is_done(), "chip drained");
        assert_eq!(report.instructions, 16 * 4 * 301);
        assert!(report.ipc() > 0.0);
        assert!(report.requests > 0);
        assert!(report.mem_latency.mean() > 0.0);
    }

    /// Loads every core with threads that cooperatively scan a per-sub-ring
    /// region in an interleaved pattern — the access shape of MapReduce
    /// slice processing, where the MACT's cross-core merging shines.
    fn loaded_interleaved(mut sys: SmarcoSystem, loads_per_thread: u64) -> SmarcoSystem {
        use smarco_isa::stream::FnStream;
        let cps = sys.config().noc.cores_per_subring;
        let tpc = 4usize; // threads per core, one per pair
        let total = cps * tpc; // threads per sub-ring
        for c in 0..sys.cores_len() {
            let sr = c / cps;
            let base = 0x100_0000 + sr as u64 * (1 << 22);
            for t in 0..tpc {
                let j = (c % cps) * tpc + t;
                let mut i = 0u64;
                let stream = FnStream::new(move || {
                    if i == loads_per_thread {
                        None
                    } else {
                        let addr = base + (i * total as u64 + j as u64) * 2;
                        i += 1;
                        Some(Op::load(addr, 2))
                    }
                })
                .with_segment(0x1000, 256);
                sys.attach(c, Box::new(stream)).unwrap();
            }
        }
        sys
    }

    #[test]
    fn mact_reduces_dram_requests() {
        let mut with = loaded_interleaved(build(SmarcoConfig::tiny()), 300);
        let r_with = with.run(4_000_000);
        let mut cfg = SmarcoConfig::tiny();
        cfg.mact = None;
        let mut without = loaded_interleaved(build(cfg), 300);
        let r_without = without.run(4_000_000);
        assert!(r_with.mact_batches > 0);
        assert!(
            r_with.dram_requests < r_without.dram_requests / 2,
            "MACT {} vs conventional {}",
            r_with.dram_requests,
            r_without.dram_requests
        );
        assert!(
            r_with.request_reduction() > 2.0,
            "reduction {}",
            r_with.request_reduction()
        );
    }

    #[test]
    fn spm_resident_workload_stays_local() {
        let mut sys = build(SmarcoConfig::tiny());
        let space = sys.address_space();
        for c in 0..sys.cores_len() {
            sys.core_mut(c).spm_mut().make_resident(0, 8192);
            let base = space.spm_base(c);
            let prog = ProgramBuilder::at(0x1000)
                .op(Op::load(base, 8))
                .op(Op::compute())
                .op(Op::store(base + 8, 8))
                .repeat(200)
                .build();
            sys.attach(c, Box::new(prog.into_stream())).unwrap();
        }
        let report = sys.run(1_000_000);
        assert_eq!(report.requests, 0, "all traffic stayed in SPM");
        assert!(report.ipc() > 0.0);
    }

    #[test]
    fn realtime_requests_use_direct_path_and_bypass_mact() {
        let mut sys = build(SmarcoConfig::tiny());
        let mut mix = htc_mix(0x100_0000);
        mix.realtime_frac = 1.0;
        mix.load_frac = 1.0;
        sys.attach(0, Box::new(SyntheticStream::new(mix, 300, SimRng::new(3))))
            .unwrap();
        let report = sys.run(2_000_000);
        assert!(sys.is_done());
        assert_eq!(report.mact_collected, 0, "realtime traffic skips MACT");
        assert!(report.requests > 0);
    }

    #[test]
    fn realtime_without_direct_path_rides_the_rings() {
        let mut cfg = SmarcoConfig::tiny();
        cfg.direct = None;
        let mut sys = build(cfg);
        let mut mix = htc_mix(0x100_0000);
        mix.realtime_frac = 1.0;
        mix.load_frac = 1.0;
        sys.attach(0, Box::new(SyntheticStream::new(mix, 200, SimRng::new(9))))
            .unwrap();
        let report = sys.run(2_000_000);
        assert!(sys.is_done());
        assert_eq!(report.mact_collected, 0, "realtime still skips the MACT");
        assert!(report.requests > 0);
    }

    #[test]
    fn remote_spm_round_trip() {
        let mut sys = build(SmarcoConfig::tiny());
        let space = sys.address_space();
        let remote = space.spm_base(5);
        let prog = ProgramBuilder::at(0)
            .op(Op::load(remote + 64, 8))
            .op(Op::store(remote + 128, 8))
            .repeat(10)
            .build();
        sys.attach(0, Box::new(prog.into_stream())).unwrap();
        let report = sys.run(2_000_000);
        assert!(sys.is_done());
        assert_eq!(report.requests, 20);
    }

    #[test]
    fn hardware_dispatcher_runs_tasks_to_their_deadlines() {
        use smarco_sched::TaskPriority;
        let mut sys = build(SmarcoConfig::tiny());
        // 256 tasks on a 128-slot chip: the dispatcher must queue, place
        // and recycle slots. Work ≈ 500 compute ops each.
        for i in 0..256u64 {
            let id = sys.submit_task(
                Box::new(smarco_isa::mix::compute_only(500)),
                2_000_000,
                600,
                if i % 8 == 0 {
                    TaskPriority::High
                } else {
                    TaskPriority::Normal
                },
            );
            assert_eq!(id, i);
        }
        let report = sys.run(10_000_000);
        assert!(sys.is_done(), "all tasks dispatched and exited");
        assert_eq!(sys.task_exits().len(), 256);
        assert!(sys
            .task_exits()
            .iter()
            .all(super::super::dispatch::TaskExit::met_deadline));
        assert_eq!(report.instructions, 256 * 501);
        // Exits are spread over time (slots were recycled, not all
        // parallel).
        let first = sys.task_exits().iter().map(|e| e.exit).min().unwrap();
        let last = sys.task_exits().iter().map(|e| e.exit).max().unwrap();
        assert!(last > first);
    }

    #[test]
    fn dispatcher_spreads_tasks_across_subrings() {
        use smarco_sched::TaskPriority;
        let mut sys = build(SmarcoConfig::tiny());
        for _ in 0..32 {
            sys.submit_task(
                Box::new(smarco_isa::mix::compute_only(200)),
                1_000_000,
                250,
                TaskPriority::Normal,
            );
        }
        // Let dispatch happen, then check live threads exist on several
        // sub-rings.
        sys.advance_until(64);
        let cps = sys.config().noc.cores_per_subring;
        let busy_subrings = (0..sys.config().noc.subrings)
            .filter(|&sr| (sr * cps..(sr + 1) * cps).any(|c| sys.core(c).live_threads() > 0))
            .count();
        assert!(busy_subrings >= 3, "only {busy_subrings} sub-rings busy");
        let _ = sys.run(10_000_000);
    }

    #[test]
    fn spm_to_spm_dma_travels_the_rings() {
        let mut sys = build(SmarcoConfig::tiny());
        let space = sys.address_space();
        // Core 5 (another sub-ring) owns the source data; core 0 pulls
        // 4 KB into its own SPM, syncs, then reads it locally.
        let src = space.spm_base(5) + 1024;
        let dst = space.spm_base(0);
        let prog = ProgramBuilder::at(0x1000)
            .op(Op::Dma {
                src,
                dst,
                bytes: 4096,
            })
            .op(Op::Sync)
            .op(Op::load(dst + 512, 8))
            .op(Op::load(dst + 2048, 8))
            .build();
        sys.attach(0, Box::new(prog.into_stream())).unwrap();
        let report = sys.run(1_000_000);
        assert!(sys.is_done());
        // The pull is NoC traffic, not a blocking memory request; the
        // post-Sync loads hit the freshly resident SPM.
        assert_eq!(report.requests, 1, "one DMA pull command");
        assert_eq!(sys.core(0).stats().block_events, 0);
        assert!(sys.core(0).spm().is_resident(0, 4096));
    }

    #[test]
    fn contract_checking_toggles_the_derived_contract() {
        let cfg = SmarcoConfig::tiny();
        let derived = crate::contract::horizon_contract(&cfg);
        let mut sys = build(cfg);
        assert_eq!(sys.engine.contract(), Some(&derived));
        sys.set_contract_checking(false);
        assert_eq!(sys.engine.contract(), None);
        sys.set_contract_checking(true);
        assert_eq!(sys.engine.contract(), Some(&derived));
    }

    #[test]
    fn attach_anywhere_fills_cores_in_order() {
        let mut sys = build(SmarcoConfig::tiny());
        for i in 0..(16 * 8) {
            let (c, _t) = sys
                .attach_anywhere(Box::new(smarco_isa::mix::compute_only(10)))
                .unwrap();
            assert_eq!(c, i / 8);
        }
        assert!(sys
            .attach_anywhere(Box::new(smarco_isa::mix::compute_only(10)))
            .is_err());
    }

    #[test]
    fn more_threads_raise_chip_throughput() {
        let r1 = loaded_tiny(1, 400).run(4_000_000);
        let r8 = loaded_tiny(8, 400).run(4_000_000);
        let ipc1 = r1.ipc();
        let ipc8 = r8.ipc();
        assert!(
            ipc8 > ipc1 * 2.0,
            "8-thread ipc {ipc8:.2} vs 1-thread {ipc1:.2}"
        );
    }
}

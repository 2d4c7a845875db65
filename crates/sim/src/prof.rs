//! Host-side self-profiling of the PDES engine itself.
//!
//! [`crate::obs`] measures the *simulated chip* (IPC, ring utilization,
//! memory latency); this module measures the *simulator*: where the host's
//! wall-clock goes while [`crate::parallel::ParallelEngine::run_windowed`]
//! drives the shards. It exists because the multi-worker pathologies the
//! ROADMAP's parallel-speedup item tracks (4 workers slower than 1 at a
//! 2-cycle lookahead) can only be attacked measurement-first.
//!
//! Accounting model:
//!
//! * **Phase buckets** ([`HostPhase`]) partition every worker's busy time:
//!   component stepping, cycle-skip bookkeeping, envelope routing, window
//!   barrier wait, observability flushing, and an `other` remainder
//!   computed as `busy − named` so the buckets always sum *exactly* to
//!   the measured total.
//! * **Barrier wait is accounted to the waiter.** A worker that reaches
//!   the window barrier early spends its own host cycles spinning; that
//!   cost belongs to the thread that paid it, not to the straggler that
//!   caused it. The serial routing section the last arriver runs is
//!   subtracted from its wait and charged to the route phase instead.
//! * **Window telemetry** — occupancy (how many shards actually stepped),
//!   skip ratios, envelope counts/bytes per boundary, and barrier-arrival
//!   spread (first vs last arriver).
//!
//! Determinism: profiling is read-only with respect to the simulation.
//! Every `Instant` read feeds only these host-side accumulators — never a
//! model decision — so a profiled run produces a bit-identical report to
//! an unprofiled one (enforced by `tests/equivalence.rs`). Disabled
//! profiling costs one branch per site and reads no clocks at all.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::obs::ChromeTrace;
use crate::stats::{Histogram, Percentiles};

/// Where a slice of host wall-clock went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPhase {
    /// Running `Shard::run_window` (component stepping) plus draining the
    /// window's staged envelopes into the shard's inbox.
    Step,
    /// Cycle-skip bookkeeping: `Shard::skip_window` fast-forwards and the
    /// horizon checks that prove a window event-free.
    Skip,
    /// Envelope routing/exchange at window boundaries (the serial section
    /// the barrier's last arriver runs, boundary bookkeeping included).
    Route,
    /// Spin/yield wait at the window barrier, net of any serial section
    /// the waiter itself ran.
    Barrier,
    /// Draining and flushing the observability layer (facade-side).
    Obs,
    /// Everything unnamed: loop control, horizon publication, profiling
    /// overhead. Computed as `busy − named`, never measured directly.
    Other,
}

/// Number of [`HostPhase`] variants.
pub const PHASES: usize = 6;

impl HostPhase {
    /// Every phase, in display order.
    pub const ALL: [HostPhase; PHASES] = [
        HostPhase::Step,
        HostPhase::Skip,
        HostPhase::Route,
        HostPhase::Barrier,
        HostPhase::Obs,
        HostPhase::Other,
    ];

    /// Stable snake_case name used in every export.
    pub fn name(self) -> &'static str {
        match self {
            HostPhase::Step => "step",
            HostPhase::Skip => "skip",
            HostPhase::Route => "route",
            HostPhase::Barrier => "barrier_wait",
            HostPhase::Obs => "obs_flush",
            HostPhase::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            HostPhase::Step => 0,
            HostPhase::Skip => 1,
            HostPhase::Route => 2,
            HostPhase::Barrier => 3,
            HostPhase::Obs => 4,
            HostPhase::Other => 5,
        }
    }
}

impl fmt::Display for HostPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Nanoseconds per [`HostPhase`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    ns: [u64; PHASES],
}

impl PhaseNanos {
    /// All-zero buckets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `ns` to `phase`'s bucket.
    pub fn add(&mut self, phase: HostPhase, ns: u64) {
        self.ns[phase.index()] += ns;
    }

    /// Nanoseconds accumulated in `phase`.
    pub fn get(&self, phase: HostPhase) -> u64 {
        self.ns[phase.index()]
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &PhaseNanos) {
        for (a, b) in self.ns.iter_mut().zip(other.ns.iter()) {
            *a += b;
        }
    }
}

/// Self-profiling configuration, carried inside the chip config.
///
/// Default is fully off: the engine allocates nothing, reads no clocks,
/// and every instrumentation site reduces to one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfConfig {
    /// Master switch.
    pub enabled: bool,
    /// Record the per-window telemetry (occupancy, envelope and spread
    /// histograms, timeline slices) on every `sample_every`-th window.
    /// Phase totals accumulate on every window regardless. Must be ≥ 1.
    pub sample_every: u64,
    /// Ring capacity for host timeline slices (Chrome-trace export keeps
    /// the most recent `slice_capacity`, counting what it dropped).
    pub slice_capacity: usize,
}

impl ProfConfig {
    /// Sampling strides above this leave the window histograms with so
    /// few samples they are statistically meaningless on any realistic
    /// run; `smarco-lint` flags such configurations (SL0416).
    pub const DEGENERATE_SAMPLE_EVERY: u64 = 4096;

    /// Fully disabled (the default).
    pub fn off() -> Self {
        Self {
            enabled: false,
            sample_every: 1,
            slice_capacity: 1 << 14,
        }
    }

    /// Enabled with every window sampled and the default slice capacity.
    pub fn on() -> Self {
        Self {
            enabled: true,
            ..Self::off()
        }
    }
}

impl Default for ProfConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// One shard's wall-clock account.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardProfile {
    /// Nanoseconds spent stepping this shard through windows.
    pub step_ns: u64,
    /// Nanoseconds spent fast-forwarding this shard past windows.
    pub skip_ns: u64,
    /// Windows this shard was stepped through.
    pub windows_stepped: u64,
    /// Windows this shard skipped (within-window fast-forwards only;
    /// whole-run clock jumps are counted as [`Telemetry::jumps`]).
    pub windows_skipped: u64,
}

impl ShardProfile {
    /// Total nanoseconds attributed to this shard.
    pub fn busy_ns(&self) -> u64 {
        self.step_ns + self.skip_ns
    }

    fn merge(&mut self, other: &ShardProfile) {
        self.step_ns += other.step_ns;
        self.skip_ns += other.skip_ns;
        self.windows_stepped += other.windows_stepped;
        self.windows_skipped += other.windows_skipped;
    }
}

/// One worker thread's wall-clock account. The named buckets are measured
/// as disjoint sub-intervals of the busy interval (monotonic clock), so
/// `other_ns` — the remainder — makes the buckets sum to `busy_ns`
/// exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Total nanoseconds this worker spent inside the window loop.
    pub busy_ns: u64,
    /// Nanoseconds stepping its shards.
    pub step_ns: u64,
    /// Nanoseconds fast-forwarding its shards.
    pub skip_ns: u64,
    /// Nanoseconds waiting at the window barrier (net of serial work).
    pub barrier_ns: u64,
    /// Nanoseconds routing envelopes (the serial section).
    pub route_ns: u64,
    /// Window boundaries this worker processed.
    pub windows: u64,
}

impl WorkerProfile {
    /// Sum of the measured (named) buckets.
    pub fn named_ns(&self) -> u64 {
        self.step_ns + self.skip_ns + self.barrier_ns + self.route_ns
    }

    /// Unattributed remainder: `busy − named` (saturating; the named
    /// buckets are sub-intervals of busy, so this only saturates if the
    /// host clock misbehaves).
    pub fn other_ns(&self) -> u64 {
        self.busy_ns.saturating_sub(self.named_ns())
    }

    fn merge(&mut self, other: &WorkerProfile) {
        self.busy_ns += other.busy_ns;
        self.step_ns += other.step_ns;
        self.skip_ns += other.skip_ns;
        self.barrier_ns += other.barrier_ns;
        self.route_ns += other.route_ns;
        self.windows += other.windows;
    }
}

/// Host-side timeline track a slice belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostTrack {
    /// Work attributed to a shard (stepping, skipping).
    Shard(usize),
    /// Work attributed to a worker thread (barrier, routing).
    Worker(usize),
}

/// One host wall-clock slice, for the Chrome-trace timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostSlice {
    /// Which track the slice renders on.
    pub track: HostTrack,
    /// Which phase the time went to.
    pub phase: HostPhase,
    /// Nanoseconds since the profile epoch.
    pub start_ns: u64,
    /// Slice length in nanoseconds.
    pub dur_ns: u64,
}

/// Per-worker scratch one lane group accumulates lock-free and the
/// engine merges after the group's loop ends. All counters are plain
/// integers, so the merge is order-independent.
#[derive(Debug)]
pub struct WorkerScratch {
    /// Worker (group) index.
    pub worker: usize,
    /// The worker's own account.
    pub prof: WorkerProfile,
    /// Per-shard accounts, indexed by global shard index (only this
    /// worker's lanes are non-zero).
    pub shards: Vec<ShardProfile>,
    /// Timeline slices recorded on sampled windows.
    pub slices: Vec<HostSlice>,
}

impl WorkerScratch {
    /// Empty scratch for worker `worker` over an `n`-shard engine.
    pub fn new(worker: usize, n: usize) -> Self {
        Self {
            worker,
            prof: WorkerProfile::default(),
            shards: vec![ShardProfile::default(); n],
            slices: Vec::new(),
        }
    }
}

/// Window-boundary telemetry accumulated by the serial (routing) section.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Window boundaries processed.
    pub windows: u64,
    /// Boundaries on which the histograms sampled.
    pub sampled_windows: u64,
    /// Whole-run fast-forwards (clock jumps past empty windows).
    pub jumps: u64,
    /// `occupancy[k]` = sampled windows in which exactly `k` shards
    /// stepped (the rest skipped). Doubles as the skip-ratio histogram:
    /// a window's skip ratio is `(shards − k) / shards`.
    pub occupancy: Vec<u64>,
    /// Routed envelopes per sampled window boundary.
    pub envelopes: Histogram,
    /// Envelopes routed across all windows (not just sampled ones).
    pub envelopes_total: u64,
    /// Bytes of envelope traffic across all windows
    /// (`count × size_of::<Envelope<Msg>>`).
    pub envelope_bytes: u64,
    /// Barrier-arrival spread per sampled window: nanoseconds between the
    /// first and last worker reaching the barrier (two or more workers
    /// only).
    pub spread: Percentiles,
}

impl Telemetry {
    /// Records one sampled window's occupancy (`stepped` of `shards`
    /// shards ran) and routed envelope count.
    pub fn record_sampled(&mut self, stepped: usize, shards: usize, routed: u64) {
        self.sampled_windows += 1;
        if self.occupancy.len() <= shards {
            self.occupancy.resize(shards + 1, 0);
        }
        self.occupancy[stepped.min(shards)] += 1;
        self.envelopes.record(routed);
    }

    fn merge(&mut self, other: &Telemetry) {
        self.windows += other.windows;
        self.sampled_windows += other.sampled_windows;
        self.jumps += other.jumps;
        if self.occupancy.len() < other.occupancy.len() {
            self.occupancy.resize(other.occupancy.len(), 0);
        }
        for (a, b) in self.occupancy.iter_mut().zip(other.occupancy.iter()) {
            *a += b;
        }
        self.envelopes.merge(&other.envelopes);
        self.envelopes_total += other.envelopes_total;
        self.envelope_bytes += other.envelope_bytes;
        self.spread.merge(&other.spread);
    }
}

/// The engine-resident profile: accumulates across every `run_windowed`
/// call until snapshotted with [`report`](Self::report).
#[derive(Debug)]
pub struct EngineProfile {
    config: ProfConfig,
    epoch: Instant,
    shards: Vec<ShardProfile>,
    workers: Vec<WorkerProfile>,
    telemetry: Telemetry,
    slices: Vec<HostSlice>,
    slice_head: usize,
    dropped_slices: u64,
}

impl EngineProfile {
    /// Fresh profile over an `n`-shard engine; the epoch (time zero of
    /// every slice timestamp) is now.
    pub fn new(config: ProfConfig, n: usize) -> Self {
        Self {
            config,
            epoch: Instant::now(),
            shards: vec![ShardProfile::default(); n],
            workers: Vec::new(),
            telemetry: Telemetry::default(),
            slices: Vec::new(),
            slice_head: 0,
            dropped_slices: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> ProfConfig {
        self.config
    }

    /// The profile's time zero (slice timestamps are relative to this).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Window-boundary telemetry recorded so far.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Worker `w`'s account, growing the table as needed.
    pub fn worker_mut(&mut self, w: usize) -> &mut WorkerProfile {
        if self.workers.len() <= w {
            self.workers.resize(w + 1, WorkerProfile::default());
        }
        &mut self.workers[w]
    }

    /// Appends a timeline slice, evicting the oldest past capacity and
    /// counting every slice evicted or, at zero capacity, not kept.
    pub fn push_slice(&mut self, slice: HostSlice) {
        let capacity = self.config.slice_capacity;
        if self.slices.len() < capacity {
            self.slices.push(slice);
            return;
        }
        if capacity > 0 {
            self.slices[self.slice_head] = slice;
            self.slice_head = (self.slice_head + 1) % capacity;
        }
        self.dropped_slices += 1;
    }

    /// Folds one worker's scratch into the profile. Integer sums only, so
    /// merge order never changes the result.
    pub fn merge_scratch(&mut self, scratch: WorkerScratch) {
        self.worker_mut(scratch.worker).merge(&scratch.prof);
        for (mine, theirs) in self.shards.iter_mut().zip(scratch.shards.iter()) {
            mine.merge(theirs);
        }
        for s in scratch.slices {
            self.push_slice(s);
        }
    }

    /// Folds a serial section's telemetry into the profile.
    pub fn merge_telemetry(&mut self, t: &Telemetry) {
        self.telemetry.merge(t);
    }

    /// Snapshots the profile into an exportable report. `obs_ns` starts
    /// at zero — the facade that owns the observability layer fills it.
    pub fn report(&self) -> ProfileReport {
        let mut slices: Vec<HostSlice> = {
            let (tail, head) = self.slices.split_at(self.slice_head);
            head.iter().chain(tail.iter()).copied().collect()
        };
        slices.sort_by_key(|s| s.start_ns);
        ProfileReport {
            sample_every: self.config.sample_every,
            shards: self.shards.clone(),
            shard_names: (0..self.shards.len())
                .map(|i| format!("shard{i}"))
                .collect(),
            workers: self.workers.clone(),
            telemetry: self.telemetry.clone(),
            slices,
            dropped_slices: self.dropped_slices,
            obs_ns: 0,
        }
    }
}

/// Snapshot of a run's host-side profile: per-shard and per-worker phase
/// buckets, window telemetry, and the sampled host timeline. Renders as
/// text ([`fmt::Display`]), hand-rolled JSON ([`to_json`](Self::to_json)),
/// folded stacks for `flamegraph.pl` ([`to_folded`](Self::to_folded)),
/// and Chrome `trace_event` JSON ([`to_chrome_json`](Self::to_chrome_json))
/// loadable in Perfetto next to the simulated-chip trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Telemetry sampling stride the run used.
    pub sample_every: u64,
    /// Per-shard accounts, shard-ordered.
    pub shards: Vec<ShardProfile>,
    /// Display name per shard (defaults to `shard{i}`; the chip facade
    /// substitutes `sub-ring{i}` / `hub`).
    pub shard_names: Vec<String>,
    /// Per-worker accounts (index = worker group).
    pub workers: Vec<WorkerProfile>,
    /// Window-boundary telemetry.
    pub telemetry: Telemetry,
    /// Sampled host timeline, start-ordered.
    pub slices: Vec<HostSlice>,
    /// Slices evicted by the ring buffer.
    pub dropped_slices: u64,
    /// Nanoseconds the facade spent draining/flushing observability.
    pub obs_ns: u64,
}

impl ProfileReport {
    /// Aggregated phase buckets: every worker's named buckets plus their
    /// `other` remainders, plus the facade's obs time. By construction
    /// `phases().total() == total_ns()` exactly.
    pub fn phases(&self) -> PhaseNanos {
        let mut p = PhaseNanos::new();
        for w in &self.workers {
            p.add(HostPhase::Step, w.step_ns);
            p.add(HostPhase::Skip, w.skip_ns);
            p.add(HostPhase::Route, w.route_ns);
            p.add(HostPhase::Barrier, w.barrier_ns);
            p.add(HostPhase::Other, w.other_ns());
        }
        p.add(HostPhase::Obs, self.obs_ns);
        p
    }

    /// Total measured host nanoseconds: every worker's busy time plus the
    /// facade's obs time. (Busy time is summed across workers, so with
    /// `w` workers this can exceed wall-clock by up to `w×`.)
    pub fn total_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum::<u64>() + self.obs_ns
    }

    /// Skip-ratio histogram in deciles: `decile[d]` = sampled windows
    /// whose skip ratio rounded to `d/10`. Derived from the occupancy
    /// counts.
    pub fn skip_decile(&self) -> [u64; 11] {
        let mut out = [0u64; 11];
        let shards = self.shards.len().max(1);
        for (stepped, &n) in self.telemetry.occupancy.iter().enumerate() {
            let skipped = shards.saturating_sub(stepped);
            let d = (skipped * 10 + shards / 2) / shards;
            out[d.min(10)] += n;
        }
        out
    }

    /// Display name for shard `i`.
    fn shard_name(&self, i: usize) -> &str {
        self.shard_names.get(i).map_or("shard", String::as_str)
    }

    /// Hand-rolled JSON rendering (the workspace is dependency-free).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(2048);
        let p = self.phases();
        let _ = write!(
            out,
            "{{\"sample_every\":{},\"total_ns\":{},\"obs_ns\":{},\
             \"windows\":{},\"sampled_windows\":{},\"jumps\":{}",
            self.sample_every,
            self.total_ns(),
            self.obs_ns,
            self.telemetry.windows,
            self.telemetry.sampled_windows,
            self.telemetry.jumps,
        );
        out.push_str(",\"phases\":{");
        for (i, ph) in HostPhase::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", ph.name(), p.get(*ph));
        }
        out.push_str("},\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"worker\":{i},\"busy_ns\":{},\"step_ns\":{},\"skip_ns\":{},\
                 \"barrier_ns\":{},\"route_ns\":{},\"other_ns\":{},\"windows\":{}}}",
                w.busy_ns,
                w.step_ns,
                w.skip_ns,
                w.barrier_ns,
                w.route_ns,
                w.other_ns(),
                w.windows,
            );
        }
        out.push_str("],\"shards\":[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{i},\"name\":\"{}\",\"step_ns\":{},\"skip_ns\":{},\
                 \"windows_stepped\":{},\"windows_skipped\":{}}}",
                self.shard_name(i),
                s.step_ns,
                s.skip_ns,
                s.windows_stepped,
                s.windows_skipped,
            );
        }
        out.push_str("],\"occupancy\":[");
        for (i, n) in self.telemetry.occupancy.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{n}");
        }
        out.push_str("],\"skip_decile\":[");
        for (i, n) in self.skip_decile().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{n}");
        }
        let _ = write!(
            out,
            "],\"envelopes\":{{\"total\":{},\"bytes\":{},\"per_window_mean\":{:.3}}}",
            self.telemetry.envelopes_total,
            self.telemetry.envelope_bytes,
            self.telemetry.envelopes.mean(),
        );
        let sp = &self.telemetry.spread;
        let _ = write!(
            out,
            ",\"barrier_spread_ns\":{{\"samples\":{},\"p50\":{:.0},\"p90\":{:.0},\
             \"p99\":{:.0},\"p999\":{:.0},\"max\":{:.0}}},\"dropped_slices\":{}}}",
            sp.count(),
            sp.p50(),
            sp.p90(),
            sp.p99(),
            sp.p999(),
            sp.max(),
            self.dropped_slices,
        );
        out
    }

    /// Folded-stack rendering (`frame;frame count` lines, counts in
    /// nanoseconds) — pipe through `flamegraph.pl` for a host-time
    /// flamegraph of the run.
    pub fn to_folded(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, s) in self.shards.iter().enumerate() {
            let name = self.shard_name(i);
            if s.step_ns > 0 {
                let _ = writeln!(out, "smarco-sim;{name};step {}", s.step_ns);
            }
            if s.skip_ns > 0 {
                let _ = writeln!(out, "smarco-sim;{name};skip {}", s.skip_ns);
            }
        }
        for (i, w) in self.workers.iter().enumerate() {
            if w.barrier_ns > 0 {
                let _ = writeln!(out, "smarco-sim;worker{i};barrier_wait {}", w.barrier_ns);
            }
            if w.route_ns > 0 {
                let _ = writeln!(out, "smarco-sim;worker{i};route {}", w.route_ns);
            }
            let other = w.other_ns();
            if other > 0 {
                let _ = writeln!(out, "smarco-sim;worker{i};other {other}");
            }
        }
        if self.obs_ns > 0 {
            let _ = writeln!(out, "smarco-sim;obs_flush {}", self.obs_ns);
        }
        out
    }

    /// Chrome `trace_event` JSON of the sampled host timeline: shard
    /// tracks under a `host-shards` process, worker tracks under
    /// `host-workers`. Timestamps are microseconds of host time since the
    /// profile epoch, so the file loads in Perfetto alongside the
    /// simulated-chip trace (whose "µs" are simulated cycles).
    pub fn to_chrome_json(&self) -> String {
        use std::fmt::Write as _;
        // Distinct pids from the simulated-chip trace's 1..=6.
        const SHARD_PID: u64 = 100;
        const WORKER_PID: u64 = 101;
        let mut trace = ChromeTrace::new(64 * self.slices.len() + 512);
        for i in 0..self.shards.len() {
            let name = format!("{} (host)", self.shard_name(i));
            trace.track(SHARD_PID, "host-shards", i as u64, &name);
        }
        for i in 0..self.workers.len() {
            trace.track(WORKER_PID, "host-workers", i as u64, &format!("worker{i}"));
        }
        for s in &self.slices {
            let (pid, tid) = match s.track {
                HostTrack::Shard(i) => (SHARD_PID, i as u64),
                HostTrack::Worker(i) => (WORKER_PID, i as u64),
            };
            let _ = write!(
                trace.event(),
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"host\",\"pid\":{pid},\
                 \"tid\":{tid},\"ts\":{},\"dur\":{}}}",
                s.phase.name(),
                s.start_ns / 1_000,
                (s.dur_ns / 1_000).max(1),
            );
        }
        trace.finish("dropped_slices", self.dropped_slices)
    }

    /// Writes [`to_json`](Self::to_json) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_json())
    }

    /// Writes [`to_folded`](Self::to_folded) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written.
    pub fn write_folded(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_folded())
    }

    /// Writes [`to_chrome_json`](Self::to_chrome_json) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be written.
    pub fn write_chrome_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_chrome_json())
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.phases();
        let total = self.total_ns().max(1);
        writeln!(
            f,
            "host profile: {:.3}s busy across {} worker(s), {} windows \
             ({} sampled, {} jumps)",
            self.total_ns() as f64 / 1e9,
            self.workers.len(),
            self.telemetry.windows,
            self.telemetry.sampled_windows,
            self.telemetry.jumps,
        )?;
        for ph in HostPhase::ALL {
            let ns = p.get(ph);
            writeln!(
                f,
                "  {:<12} {:>10.3}s  {:>5.1}%",
                ph.name(),
                ns as f64 / 1e9,
                ns as f64 * 100.0 / total as f64,
            )?;
        }
        for (i, s) in self.shards.iter().enumerate() {
            writeln!(
                f,
                "  {:<12} step {:>8.3}s ({} windows), skip {:>8.3}s ({} windows)",
                self.shard_name(i),
                s.step_ns as f64 / 1e9,
                s.windows_stepped,
                s.skip_ns as f64 / 1e9,
                s.windows_skipped,
            )?;
        }
        if self.telemetry.spread.count() > 0 {
            writeln!(
                f,
                "  barrier spread p50/p99/p99.9: {:.0}/{:.0}/{:.0} ns",
                self.telemetry.spread.p50(),
                self.telemetry.spread.p99(),
                self.telemetry.spread.p999(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ProfileReport {
        let mut prof = EngineProfile::new(ProfConfig::on(), 2);
        let mut s0 = WorkerScratch::new(0, 2);
        s0.prof = WorkerProfile {
            busy_ns: 1_000,
            step_ns: 500,
            skip_ns: 100,
            barrier_ns: 200,
            route_ns: 100,
            windows: 4,
        };
        s0.shards[0] = ShardProfile {
            step_ns: 500,
            skip_ns: 100,
            windows_stepped: 3,
            windows_skipped: 1,
        };
        s0.slices.push(HostSlice {
            track: HostTrack::Shard(0),
            phase: HostPhase::Step,
            start_ns: 10,
            dur_ns: 500,
        });
        prof.merge_scratch(s0);
        let mut t = Telemetry {
            windows: 4,
            ..Default::default()
        };
        t.record_sampled(2, 2, 3);
        t.record_sampled(0, 2, 0);
        t.envelopes_total = 3;
        t.envelope_bytes = 96;
        t.spread.record(150.0);
        prof.merge_telemetry(&t);
        let mut r = prof.report();
        r.obs_ns = 50;
        r
    }

    #[test]
    fn phase_buckets_sum_to_total_exactly() {
        let r = sample_report();
        assert_eq!(r.phases().total(), r.total_ns());
        assert_eq!(r.total_ns(), 1_050);
        let w = &r.workers[0];
        assert_eq!(w.other_ns(), 100); // 1000 - (500+100+200+100)
        assert_eq!(w.named_ns() + w.other_ns(), w.busy_ns);
    }

    #[test]
    fn occupancy_doubles_as_skip_histogram() {
        let r = sample_report();
        assert_eq!(r.telemetry.occupancy, vec![1, 0, 1]);
        let d = r.skip_decile();
        assert_eq!(d[0], 1); // fully occupied window: 0% skipped
        assert_eq!(d[10], 1); // fully skipped window
        assert_eq!(r.telemetry.sampled_windows, 2);
    }

    #[test]
    fn json_is_balanced_and_carries_buckets() {
        let r = sample_report();
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"barrier_ns\":200"), "{j}");
        assert!(j.contains("\"obs_flush\":50"), "{j}");
        assert!(j.contains("\"envelopes\":{\"total\":3,\"bytes\":96"), "{j}");
    }

    #[test]
    fn folded_lines_end_in_counts() {
        let r = sample_report();
        let folded = r.to_folded();
        assert!(folded.contains("smarco-sim;shard0;step 500"), "{folded}");
        assert!(
            folded.contains("smarco-sim;worker0;barrier_wait 200"),
            "{folded}"
        );
        for line in folded.lines() {
            let count = line.rsplit(' ').next().unwrap();
            assert!(count.parse::<u64>().is_ok(), "bad folded line: {line}");
        }
    }

    #[test]
    fn chrome_json_shape_and_host_pids() {
        let r = sample_report();
        let j = r.to_chrome_json();
        assert!(j.starts_with("{\"traceEvents\":["), "{j}");
        assert!(j.contains("\"name\":\"host-shards\""), "{j}");
        assert!(j.contains("\"name\":\"host-workers\""), "{j}");
        assert!(j.contains("\"ph\":\"X\""), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn slice_ring_drops_oldest() {
        let pushed = |capacity: usize| {
            let mut cfg = ProfConfig::on();
            cfg.slice_capacity = capacity;
            let mut prof = EngineProfile::new(cfg, 1);
            for i in 0..5u64 {
                prof.push_slice(HostSlice {
                    track: HostTrack::Worker(0),
                    phase: HostPhase::Route,
                    start_ns: i,
                    dur_ns: 1,
                });
            }
            prof.report()
        };
        let r = pushed(2);
        assert_eq!(r.dropped_slices, 3);
        let starts: Vec<u64> = r.slices.iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![3, 4]);
        // Zero capacity keeps nothing and counts every slice it drops.
        let r = pushed(0);
        assert!(r.slices.is_empty());
        assert_eq!(r.dropped_slices, 5);
    }

    #[test]
    fn config_default_is_off_and_cheap() {
        let c = ProfConfig::default();
        assert!(!c.enabled);
        assert_eq!(c, ProfConfig::off());
        assert!(ProfConfig::on().enabled);
        assert!(ProfConfig::on().sample_every <= ProfConfig::DEGENERATE_SAMPLE_EVERY);
    }

    #[test]
    fn phase_nanos_arithmetic() {
        let mut a = PhaseNanos::new();
        a.add(HostPhase::Step, 10);
        a.add(HostPhase::Obs, 5);
        let mut b = PhaseNanos::new();
        b.add(HostPhase::Step, 1);
        a.merge(&b);
        assert_eq!(a.get(HostPhase::Step), 11);
        assert_eq!(a.total(), 16);
        assert_eq!(HostPhase::ALL.len(), PHASES);
    }
}

//! The Thread Core Group core (§3.1, Fig. 5).
//!
//! A TCG core is a 4-wide, 8-stage, in-order superscalar: four thread
//! *pairs*, each with a private dispatcher/ALU/AGU slice, share the
//! front-end — so the core issues up to one instruction per pair per
//! cycle. The LSQ steers each access by address (§3.5.1): SPM-window
//! addresses go to the scratchpad, others to the L1 D-cache. An SPM or
//! D-cache load miss blocks the thread and triggers the in-pair handoff;
//! store misses drain through a store buffer without blocking.
//!
//! Memory-request granularity: demand misses are issued at **access
//! granularity** (the word, not the line) — SmarCo's memory path is built
//! around small discrete requests that the MACT then merges into 64-byte
//! batches; dirty-line writebacks remain line-sized.

use smarco_isa::{InstructionStream, MemRef, Op};
use smarco_mem::cache::{Cache, CacheOutcome};
use smarco_mem::dma::{Dma, DmaConfig};
use smarco_mem::map::{AddressSpace, Region};
use smarco_mem::spm::Spm;
use smarco_sim::obs::{EventKind, TraceBuffer, TraceConfig, Track};
use smarco_sim::stats::{MeanTracker, Ratio};
use smarco_sim::Cycle;

use crate::config::TcgConfig;
use crate::thread::{PairScheduler, ThreadSlot, ThreadState};

/// Why a core asks the uncore for data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Blocking read that missed the D-cache (word granularity).
    CacheFill,
    /// Non-blocking dirty-line writeback (line granularity).
    Writeback,
    /// Non-blocking store that missed (word granularity, write-through).
    WriteThrough,
    /// Blocking read that missed the local SPM (word granularity; the
    /// reply makes the block resident).
    SpmFill,
    /// Blocking access to another core's SPM.
    RemoteSpm {
        /// Owning core.
        owner: usize,
    },
    /// Non-blocking SPM-to-SPM DMA pull from another core (§3.5.1); the
    /// data travels the rings and lands via [`TcgCore::dma_complete`].
    DmaPull {
        /// Core whose SPM holds the source data.
        owner: usize,
        /// Local SPM `(offset, bytes)` made resident on arrival.
        fill: Option<(u64, u64)>,
    },
}

/// Error returned by [`TcgCore::attach`] when every thread slot is live;
/// carries the rejected stream so the caller can retry elsewhere.
pub struct CoreFull(Box<dyn InstructionStream + Send>);

impl CoreFull {
    /// Recovers the rejected stream.
    pub fn into_stream(self) -> Box<dyn InstructionStream + Send> {
        self.0
    }
}

impl std::fmt::Debug for CoreFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CoreFull(..)")
    }
}

impl std::fmt::Display for CoreFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("every thread slot on the core is occupied")
    }
}

impl std::error::Error for CoreFull {}

/// A memory request leaving the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreRequest {
    /// Issuing thread slot.
    pub thread: usize,
    /// The architectural access.
    pub mem: MemRef,
    /// Bytes the uncore must move.
    pub span_bytes: u64,
    /// Write (true) or read (false).
    pub is_write: bool,
    /// Whether the thread blocks until [`TcgCore::complete`].
    pub blocking: bool,
    /// Which path produced it.
    pub kind: RequestKind,
}

/// Aggregated core statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreStats {
    /// Cycles ticked.
    pub cycles: u64,
    /// Instructions issued.
    pub instructions: u64,
    /// Pair-cycles with no runnable active thread (idle issue slots —
    /// Fig. 1a's "idle ratio" analogue).
    pub idle_pair_cycles: u64,
    /// Pair-cycles spent in stall windows (hit latencies, branch refill).
    pub stall_pair_cycles: u64,
    /// Instruction fetches by hit/miss (I-starvation, Fig. 1b analogue).
    pub ifetch: Ratio,
    /// Fetches served from the prefetched shared instruction segment.
    pub iseg_fetches: u64,
    /// Blocking miss events.
    pub block_events: u64,
    /// Cycles blocked threads waited for memory.
    pub block_latency: MeanTracker,
    /// Branches by predicted/mispredicted.
    pub branches: Ratio,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Fraction of pair-slots idle.
    pub fn idle_ratio(&self, pairs: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.idle_pair_cycles as f64 / (self.cycles * pairs as u64) as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct DmaJob {
    thread: usize,
    /// Local SPM range made resident on completion.
    fill: Option<(u64, u64)>,
    iseg: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IsegState {
    Absent,
    Prefetching,
    Resident,
}

/// Per-thread blocking bookkeeping: blocked-at cycle plus an optional
/// pending SPM fill `(addr, bytes)`.
type BlockInfo = (Cycle, Option<(u64, u64)>);

/// One TCG core.
///
/// # Examples
///
/// ```
/// use smarco_core::tcg::TcgCore;
/// use smarco_core::config::TcgConfig;
/// use smarco_mem::map::AddressSpace;
/// use smarco_isa::mix::compute_only;
///
/// let mut core = TcgCore::new(0, TcgConfig::smarco(), AddressSpace::new(4, 2));
/// core.attach(Box::new(compute_only(50)))?;
/// let mut out = Vec::new();
/// for now in 0..1_000 {
///     core.tick(now, &mut out);
/// }
/// assert!(core.is_done());
/// assert_eq!(core.stats().instructions, 51);
/// # Ok::<(), smarco_core::tcg::CoreFull>(())
/// ```
pub struct TcgCore {
    id: usize,
    config: TcgConfig,
    space: AddressSpace,
    l1i: Cache,
    /// L1 data cache (public for whole-chip statistics).
    l1d: Cache,
    spm: Spm,
    dma: Dma<DmaJob>,
    slots: Vec<ThreadSlot>,
    pairs: PairScheduler,
    /// Per-slot: cycle the blocking request was issued (latency stats) and
    /// the SPM range to fill on completion.
    block_info: Vec<Option<BlockInfo>>,
    iseg: Option<(u64, u64)>,
    iseg_state: IsegState,
    /// Thread slots that exited since the last [`take_retired`] call —
    /// the completion signal the chip's task dispatcher consumes.
    retired: Vec<usize>,
    /// Cleared by [`fail`](Self::fail): a dead core accepts no work,
    /// issues nothing, and reports no horizon. Its statistics freeze at
    /// the cycle of death.
    alive: bool,
    stats: CoreStats,
    /// Observability staging buffer; `None` (default) keeps every hook a
    /// single branch with no side effects.
    trace: Option<TraceBuffer>,
    /// Retires per `instr_retire` trace event.
    retire_sample: u64,
    /// Retires accumulated toward the next sampled event.
    retire_pending: u64,
}

impl std::fmt::Debug for TcgCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcgCore")
            .field("id", &self.id)
            .field("live_threads", &self.live_threads())
            .field("instructions", &self.stats.instructions)
            .finish()
    }
}

impl TcgCore {
    /// Creates core `id` in `space` with no threads attached.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `id` is outside `space`.
    pub fn new(id: usize, config: TcgConfig, space: AddressSpace) -> Self {
        config.validate();
        assert!(id < space.cores(), "core id {id} outside address space");
        let slots = (0..config.resident_threads)
            .map(|_| ThreadSlot::vacant())
            .collect();
        Self {
            id,
            config,
            space,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            spm: Spm::new(),
            dma: Dma::new(DmaConfig::default()),
            slots,
            pairs: PairScheduler::new(config.pairs, config.in_pair),
            block_info: vec![None; config.resident_threads],
            iseg: None,
            iseg_state: IsegState::Absent,
            retired: Vec::new(),
            alive: true,
            stats: CoreStats::default(),
            trace: None,
            retire_sample: 64,
            retire_pending: 0,
        }
    }

    /// Turns event tracing on for this core; the parent drains the buffer
    /// via [`trace_mut`](Self::trace_mut).
    pub fn enable_trace(&mut self, cfg: TraceConfig) {
        self.trace = Some(TraceBuffer::new(Track::Core(self.id)));
        self.retire_sample = cfg.retire_sample.max(1);
    }

    /// The core's trace staging buffer, if tracing is enabled.
    pub fn trace_mut(&mut self) -> Option<&mut TraceBuffer> {
        self.trace.as_mut()
    }

    /// Core id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Configuration.
    pub fn config(&self) -> TcgConfig {
        self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The core's scratchpad (e.g. for the runtime to stage data).
    pub fn spm_mut(&mut self) -> &mut Spm {
        &mut self.spm
    }

    /// The scratchpad, read-only.
    pub fn spm(&self) -> &Spm {
        &self.spm
    }

    /// D-cache statistics.
    pub fn l1d_stats(&self) -> smarco_mem::cache::CacheStats {
        self.l1d.stats()
    }

    /// Threads that are attached and not yet done.
    pub fn live_threads(&self) -> usize {
        self.slots.iter().filter(|s| s.is_live()).count()
    }

    /// Whether every attached thread has exited and no DMA is in flight.
    /// A dead core is always done: whatever it was running is gone.
    pub fn is_done(&self) -> bool {
        !self.alive || (self.live_threads() == 0 && !self.dma.is_busy())
    }

    /// Whether the core is still functional (not killed by fault
    /// injection).
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Kills the core (fault site `core::tcg`): every live thread's
    /// unfinished stream is ripped out and returned as `(slot, stream)`
    /// pairs for the dispatcher to re-run elsewhere, in-flight DMA is
    /// abandoned, and the core stops accepting work, issuing, and
    /// publishing horizons. Idempotent — a second kill returns nothing.
    pub fn fail(&mut self) -> Vec<(usize, Box<dyn InstructionStream + Send>)> {
        if !self.alive {
            return Vec::new();
        }
        self.alive = false;
        self.retired.clear();
        self.dma = Dma::new(DmaConfig::default());
        self.iseg = None;
        self.iseg_state = IsegState::Absent;
        let mut streams = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(stream) = slot.take_stream() {
                streams.push((i, stream));
            }
            self.block_info[i] = None;
        }
        streams
    }

    /// Attaches `stream` to the first vacant slot; returns the slot index.
    ///
    /// # Errors
    ///
    /// Returns [`CoreFull`] (which hands the stream back via
    /// [`CoreFull::into_stream`]) when every slot is occupied by a live
    /// thread.
    pub fn attach(&mut self, stream: Box<dyn InstructionStream + Send>) -> Result<usize, CoreFull> {
        if !self.alive {
            return Err(CoreFull(stream));
        }
        let Some(idx) = self.slots.iter().position(|s| !s.is_live()) else {
            return Err(CoreFull(stream));
        };
        self.slots[idx].attach(stream);
        // Re-arm the pair: if its issue slot is parked on a dead thread
        // (both threads exited, the newcomer reuses the non-active slot),
        // the pair would never issue again — `tick` and `next_event` only
        // look at the active thread. `on_unblock` hands the slot to the
        // newcomer, or parks it Ready behind a live, active friend.
        let p = self.pairs.pair_of(idx);
        let active = self.pairs.active_thread(p);
        if active != idx && (active >= self.slots.len() || !self.slots[active].is_live()) {
            self.pairs.on_unblock(idx, &mut self.slots);
        }
        self.maybe_prefetch_iseg();
        Ok(idx)
    }

    /// Starts the shared-instruction-segment prefetch when every live
    /// thread reports the same segment (§3.1.2).
    fn maybe_prefetch_iseg(&mut self) {
        if !self.config.shared_iseg || self.iseg_state != IsegState::Absent {
            return;
        }
        let mut seg = None;
        for s in self.slots.iter().filter(|s| s.is_live()) {
            match (seg, s.segment()) {
                (_, None) => return, // a thread without a segment: no sharing
                (None, Some(x)) => seg = Some(x),
                (Some(a), Some(b)) if a == b => {}
                _ => return, // differing segments
            }
        }
        let Some((base, bytes)) = seg else { return };
        // Segment must fit the SPM alongside data (use it as-is; the
        // runtime sizes segments conservatively).
        if bytes == 0 || bytes > Spm::data_bytes() / 4 {
            return;
        }
        self.iseg = Some((base, bytes));
        self.iseg_state = IsegState::Prefetching;
        self.dma.start(
            bytes,
            DmaJob {
                thread: usize::MAX,
                fill: None,
                iseg: true,
            },
        );
    }

    fn iseg_covers(&self, pc: u64) -> bool {
        self.iseg_state == IsegState::Resident
            && self
                .iseg
                .is_some_and(|(base, bytes)| (base..base + bytes).contains(&pc))
    }

    /// The compute run thread `t` issues back to back, one instruction per
    /// cycle with every fetch served by the resident shared segment, so
    /// [`skip`](Self::skip) can charge it without ticking. 0 unless the
    /// stream promises a run, the resident segment holds the stream's
    /// segment, and tracing is off (`InstrRetire` events carry their
    /// cycle, so a traced core issues cycle by cycle).
    fn issue_run(&self, t: usize) -> u64 {
        let run = self.slots[t].compute_run();
        if run == 0 || self.trace.is_some() || self.iseg_state != IsegState::Resident {
            return 0;
        }
        let covered = match (self.iseg, self.slots[t].segment()) {
            (Some((base, bytes)), Some((seg, len))) => base <= seg && seg + len <= base + bytes,
            _ => false,
        };
        if covered {
            run
        } else {
            0
        }
    }

    fn block(&mut self, thread: usize, now: Cycle, spm_fill: Option<(u64, u64)>) {
        self.slots[thread].state = ThreadState::Blocked;
        self.block_info[thread] = Some((now, spm_fill));
        self.stats.block_events += 1;
        let p = self.pairs.pair_of(thread);
        // Pre-switch snapshot only matters to the trace; keep the disabled
        // path free of the extra scheduler query.
        let before = self.trace.is_some().then(|| self.pairs.active_thread(p));
        let _ = self.pairs.on_block(p, &mut self.slots);
        if let (Some(tb), Some(before)) = (self.trace.as_mut(), before) {
            tb.emit(now, EventKind::ThreadBlock { thread });
            let after = self.pairs.active_thread(p);
            if after != before && after < self.slots.len() {
                tb.emit(
                    now,
                    EventKind::ThreadSwap {
                        pair: p,
                        from: before,
                        to: after,
                    },
                );
            }
        }
    }

    /// Completes a ring-travelled DMA transfer for `thread`: marks the
    /// destination range resident and releases a pending `Sync`.
    pub fn dma_complete(&mut self, thread: usize, fill: Option<(u64, u64)>) {
        if let Some((offset, bytes)) = fill {
            self.spm.make_resident(offset, bytes.max(1));
        }
        let slot = &mut self.slots[thread];
        slot.pending_dma = slot.pending_dma.saturating_sub(1);
        if slot.pending_dma == 0
            && slot.state == ThreadState::Blocked
            && self.block_info[thread].is_none()
        {
            self.pairs.on_unblock(thread, &mut self.slots);
        }
    }

    /// Delivers the reply to a blocking request issued by `thread`.
    ///
    /// # Panics
    ///
    /// Panics if the thread was not blocked on memory.
    pub fn complete(&mut self, thread: usize, now: Cycle) {
        let (since, fill) = self.block_info[thread]
            .take()
            .unwrap_or_else(|| panic!("thread {thread} was not blocked on memory"));
        self.stats
            .block_latency
            .record(now.saturating_sub(since) as f64);
        if let Some((offset, bytes)) = fill {
            self.spm.make_resident(offset, bytes);
        }
        self.pairs.on_unblock(thread, &mut self.slots);
    }

    fn retire_thread(&mut self, thread: usize) {
        self.slots[thread].state = ThreadState::Done;
        self.retired.push(thread);
        let p = self.pairs.pair_of(thread);
        let _ = self.pairs.on_block(p, &mut self.slots);
    }

    /// Drains the slots whose threads exited since the last call (the
    /// hardware scheduler's completion signal, §3.7).
    pub fn take_retired(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.retired)
    }

    /// Whether threads exited since the last [`take_retired`](Self::take_retired).
    pub fn has_retired(&self) -> bool {
        !self.retired.is_empty()
    }

    /// Whether the core has a vacant thread slot. A dead core never does:
    /// quarantine means the dispatcher stops binding work to it.
    pub fn has_vacancy(&self) -> bool {
        self.alive && self.slots.iter().any(|s| !s.is_live())
    }

    /// Event horizon: the earliest cycle at or after `now` at which the
    /// core can act — hand out retired slots, complete the DMA engine's
    /// head transfer, or issue from a runnable pair once its stall window
    /// ends and its compute run (see [`InstructionStream::compute_run`]) is
    /// through. `None` when every pair is parked and the DMA engine is
    /// idle: blocked threads wake only through
    /// [`complete`](Self::complete)/[`dma_complete`](Self::dma_complete),
    /// which the owning shard accounts for via its inbox and uncore
    /// horizons.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.alive {
            return None;
        }
        if !self.retired.is_empty() {
            // Retirees are collected by the dispatcher next tick.
            return Some(now);
        }
        // The tick that completes the head transfer; the ones before it
        // only count down, which `skip` charges.
        let mut horizon = self.dma.ticks_to_complete().map(|left| now + left - 1);
        for p in 0..self.pairs.pairs() {
            let t = self.pairs.active_thread(p);
            if t >= self.slots.len() {
                continue;
            }
            if self.slots[t].state == ThreadState::Runnable {
                let at = now.max(self.slots[t].stall_until) + self.issue_run(t);
                horizon = Some(horizon.map_or(at, |h| h.min(at)));
            }
        }
        horizon
    }

    /// Fast-forwards the core across `[from, to)`, a range in which
    /// [`next_event`](Self::next_event) proved no pair can do anything but
    /// wait or issue from its compute run, and no DMA transfer completes.
    /// Every cycle is charged exactly as [`tick`](Self::tick) would have
    /// charged it: one core cycle and one DMA countdown tick; for a pair in
    /// a compute run, a stall pair-cycle until its stall end and then one
    /// instruction per cycle, fetched from the shared segment; for other
    /// runnable-but-stalled pairs a stall pair-cycle, and an idle
    /// pair-cycle otherwise. O(1) per pair.
    ///
    /// Debug builds re-scan the real thread state — a `next_event`
    /// implementation reporting a too-late horizon panics here instead of
    /// silently corrupting statistics — and every build refuses to skip a
    /// DMA completion.
    pub fn skip(&mut self, from: Cycle, to: Cycle) {
        debug_assert!(from < to, "empty skip range");
        if !self.alive {
            return;
        }
        debug_assert!(
            self.retired.is_empty(),
            "cycle-skipped a core with retired threads to hand out"
        );
        let cycles = to - from;
        self.dma.skip(cycles);
        self.stats.cycles += cycles;
        for p in 0..self.pairs.pairs() {
            let t = self.pairs.active_thread(p);
            if t >= self.slots.len() {
                self.stats.idle_pair_cycles += cycles;
                continue;
            }
            if self.slots[t].state == ThreadState::Runnable {
                let issue_from = self.slots[t].stall_until.max(from);
                if issue_from < to {
                    // Only a compute run issues inside a skipped range.
                    let n = to - issue_from;
                    debug_assert!(
                        n <= self.issue_run(t),
                        "cycle-skipped past thread {t}'s stall end ({issue_from} < {to}) \
                         and compute run ({})",
                        self.issue_run(t)
                    );
                    self.stats.stall_pair_cycles += issue_from - from;
                    self.stats.instructions += n;
                    self.stats.iseg_fetches += n;
                    let slot = &mut self.slots[t];
                    slot.instructions += n;
                    slot.stall_until = to;
                    slot.skip_computes(n);
                    continue;
                }
                self.stats.stall_pair_cycles += cycles;
            } else {
                self.stats.idle_pair_cycles += cycles;
            }
        }
    }

    /// Advances one cycle, pushing outgoing memory requests into `out`.
    /// A dead core is inert: nothing issues and nothing is charged.
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<CoreRequest>) {
        if !self.alive {
            return;
        }
        self.stats.cycles += 1;
        // DMA completion: at most one per cycle. An iseg job has no fill
        // and no thread.
        if let Some(job) = self.dma.tick() {
            if job.iseg {
                self.iseg_state = IsegState::Resident;
            }
            if let Some((offset, bytes)) = job.fill {
                self.spm.make_resident(offset, bytes);
            }
            if job.thread != usize::MAX {
                if let Some(tb) = self.trace.as_mut() {
                    tb.emit(now, EventKind::DmaComplete { thread: job.thread });
                }
                let slot = &mut self.slots[job.thread];
                slot.pending_dma = slot.pending_dma.saturating_sub(1);
                if slot.pending_dma == 0
                    && slot.state == ThreadState::Blocked
                    && self.block_info[job.thread].is_none()
                {
                    // Blocked on Sync, not on memory.
                    self.pairs.on_unblock(job.thread, &mut self.slots);
                }
            }
        }
        // Issue one instruction per pair.
        for p in 0..self.pairs.pairs() {
            let t = self.pairs.active_thread(p);
            if t >= self.slots.len() {
                self.stats.idle_pair_cycles += 1;
                continue;
            }
            match self.slots[t].state {
                ThreadState::Runnable if self.slots[t].stall_until <= now => {
                    self.issue(t, p, now, out);
                }
                ThreadState::Runnable => self.stats.stall_pair_cycles += 1,
                _ => self.stats.idle_pair_cycles += 1,
            }
        }
    }

    fn issue(&mut self, t: usize, p: usize, now: Cycle, out: &mut Vec<CoreRequest>) {
        let Some(instr) = self.slots[t].next_instr() else {
            self.retire_thread(t);
            return;
        };
        // Instruction fetch.
        if self.iseg_covers(instr.pc) {
            self.stats.iseg_fetches += 1;
        } else {
            let hit = self.l1i.access(instr.pc, false).is_hit();
            self.stats.ifetch.record(hit);
            if !hit {
                self.slots[t].stall_until = now + self.config.icache_miss_penalty;
                if let Some(tb) = self.trace.as_mut() {
                    tb.emit(
                        now,
                        EventKind::CacheMiss {
                            addr: instr.pc,
                            ifetch: true,
                        },
                    );
                }
            }
        }
        self.stats.instructions += 1;
        self.slots[t].instructions += 1;
        if let Some(tb) = self.trace.as_mut() {
            self.retire_pending += 1;
            if self.retire_pending >= self.retire_sample {
                tb.emit(
                    now,
                    EventKind::InstrRetire {
                        count: self.retire_pending,
                    },
                );
                self.retire_pending = 0;
            }
        }
        let _ = p;
        match instr.op {
            Op::Compute { latency } => {
                self.slots[t].stall_until =
                    self.slots[t].stall_until.max(now + Cycle::from(latency));
            }
            Op::Branch { mispredicted } => {
                self.stats.branches.record(!mispredicted);
                let cost = if mispredicted {
                    self.config.pipeline_depth
                } else {
                    1
                };
                self.slots[t].stall_until = self.slots[t].stall_until.max(now + cost);
            }
            Op::Exit => self.retire_thread(t),
            Op::Sync => {
                if self.slots[t].pending_dma > 0 {
                    self.slots[t].state = ThreadState::Blocked;
                    let _ = self.pairs.on_block(self.pairs.pair_of(t), &mut self.slots);
                } else {
                    self.slots[t].stall_until = now + 1;
                }
            }
            Op::Dma { src, dst, bytes } => {
                let fill = match self.space.classify(dst) {
                    Region::Spm { core, offset } if core == self.id => {
                        Some((offset, u64::from(bytes).min(Spm::data_bytes() - offset)))
                    }
                    _ => None,
                };
                if let Some(tb) = self.trace.as_mut() {
                    tb.emit(
                        now,
                        EventKind::DmaStart {
                            bytes: u64::from(bytes),
                        },
                    );
                }
                self.slots[t].pending_dma += 1;
                self.slots[t].stall_until = now + 1;
                match self.space.classify(src) {
                    // SPM-to-SPM transfer from another core (§3.5.1): the
                    // data must actually cross the rings — the uncore
                    // fetches it and completes via `dma_complete`.
                    Region::Spm { core: owner, .. } | Region::SpmCtrl { core: owner, .. }
                        if owner != self.id =>
                    {
                        out.push(CoreRequest {
                            thread: t,
                            mem: MemRef::new(src, 64),
                            span_bytes: u64::from(bytes.max(1)),
                            is_write: false,
                            blocking: false,
                            kind: RequestKind::DmaPull { owner, fill },
                        });
                    }
                    // Local/DRAM source: the core's own engine streams it.
                    _ => {
                        self.dma.start(
                            u64::from(bytes.max(1)),
                            DmaJob {
                                thread: t,
                                fill,
                                iseg: false,
                            },
                        );
                    }
                }
            }
            Op::Load(m) => self.load(t, m, now, out),
            Op::Store(m) => self.store(t, m, now, out),
        }
    }

    fn load(&mut self, t: usize, m: MemRef, now: Cycle, out: &mut Vec<CoreRequest>) {
        match self.space.classify(m.addr) {
            Region::Spm { core, offset } if core == self.id => {
                if self.spm.access(offset, u64::from(m.bytes)) {
                    self.slots[t].stall_until = now + self.config.spm_latency;
                } else {
                    self.block(t, now, Some((offset, u64::from(m.bytes))));
                    out.push(CoreRequest {
                        thread: t,
                        mem: m,
                        span_bytes: u64::from(m.bytes),
                        is_write: false,
                        blocking: true,
                        kind: RequestKind::SpmFill,
                    });
                }
            }
            Region::Spm { core, .. } | Region::SpmCtrl { core, .. } if core != self.id => {
                self.block(t, now, None);
                out.push(CoreRequest {
                    thread: t,
                    mem: m,
                    span_bytes: u64::from(m.bytes),
                    is_write: false,
                    blocking: true,
                    kind: RequestKind::RemoteSpm { owner: core },
                });
            }
            Region::SpmCtrl { .. } => {
                // Local DMA control registers: plain register read.
                self.slots[t].stall_until = now + 1;
            }
            Region::Dram { .. } => match self.l1d.access(m.addr, false) {
                CacheOutcome::Hit => {
                    self.slots[t].stall_until = now + self.config.cache_hit_latency;
                }
                CacheOutcome::Miss { writeback_of } => {
                    if let Some(victim) = writeback_of {
                        out.push(self.writeback(victim));
                    }
                    if let Some(tb) = self.trace.as_mut() {
                        tb.emit(
                            now,
                            EventKind::CacheMiss {
                                addr: m.addr,
                                ifetch: false,
                            },
                        );
                    }
                    self.block(t, now, None);
                    out.push(CoreRequest {
                        thread: t,
                        mem: m,
                        span_bytes: u64::from(m.bytes),
                        is_write: false,
                        blocking: true,
                        kind: RequestKind::CacheFill,
                    });
                }
            },
            Region::Spm { .. } => unreachable!("guards cover all SPM cases"),
            Region::Unmapped => {
                panic!("core {}: load from unmapped address {:#x}", self.id, m.addr)
            }
        }
    }

    fn store(&mut self, t: usize, m: MemRef, now: Cycle, out: &mut Vec<CoreRequest>) {
        match self.space.classify(m.addr) {
            Region::Spm { core, offset } if core == self.id => {
                // SPM is explicitly managed local memory: a store defines
                // the bytes in place (write-allocate without fetch) and
                // nothing travels to DRAM until software DMAs it out.
                if !self.spm.access(offset, u64::from(m.bytes)) {
                    self.spm.make_resident(offset, u64::from(m.bytes));
                }
                self.slots[t].stall_until = now + self.config.spm_latency;
            }
            Region::Spm { core, .. } | Region::SpmCtrl { core, .. } if core != self.id => {
                self.block(t, now, None);
                out.push(CoreRequest {
                    thread: t,
                    mem: m,
                    span_bytes: u64::from(m.bytes),
                    is_write: true,
                    blocking: true,
                    kind: RequestKind::RemoteSpm { owner: core },
                });
            }
            Region::SpmCtrl { .. } => {
                self.slots[t].stall_until = now + 1;
            }
            Region::Dram { .. } => {
                // Streaming (non-allocating) store: HTC output is written
                // once and not re-read by this core, so a miss does not
                // claim a line — the small write drains downstream, where
                // the MACT merges neighbouring writes into one burst.
                let hit = self.l1d.write_no_allocate(m.addr);
                self.slots[t].stall_until = now + self.config.cache_hit_latency;
                if !hit {
                    out.push(CoreRequest {
                        thread: t,
                        mem: m,
                        span_bytes: u64::from(m.bytes),
                        is_write: true,
                        blocking: false,
                        kind: RequestKind::WriteThrough,
                    });
                }
            }
            Region::Spm { .. } => unreachable!("guards cover all SPM cases"),
            Region::Unmapped => {
                panic!("core {}: store to unmapped address {:#x}", self.id, m.addr)
            }
        }
    }

    fn writeback(&self, victim_line: u64) -> CoreRequest {
        CoreRequest {
            thread: usize::MAX,
            mem: MemRef::new(victim_line, 64),
            span_bytes: self.config.l1d.line_bytes,
            is_write: true,
            blocking: false,
            kind: RequestKind::Writeback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarco_isa::mix::{compute_only, AddressModel, GranularityMix, OpMix, SyntheticStream};
    use smarco_isa::stream::FnStream;
    use smarco_isa::{Op, ProgramBuilder};
    use smarco_sim::rng::SimRng;

    fn space() -> AddressSpace {
        AddressSpace::new(4, 2)
    }

    fn core() -> TcgCore {
        TcgCore::new(0, TcgConfig::smarco(), space())
    }

    /// Runs the core, auto-completing blocking requests after `mem_lat`
    /// cycles; returns elapsed cycles.
    fn run(core: &mut TcgCore, mem_lat: Cycle, max: Cycle) -> Cycle {
        let mut out = Vec::new();
        let mut pending: Vec<(Cycle, usize)> = Vec::new();
        for now in 0..max {
            if core.is_done() && pending.is_empty() {
                return now;
            }
            pending.retain(|&(due, t)| {
                if due <= now {
                    core.complete(t, now);
                    false
                } else {
                    true
                }
            });
            out.clear();
            core.tick(now, &mut out);
            for r in &out {
                if r.blocking {
                    pending.push((now + mem_lat, r.thread));
                }
            }
        }
        panic!("core did not finish in {max} cycles");
    }

    #[test]
    fn compute_only_thread_reaches_ipc_one_per_pair() {
        let mut c = core();
        c.attach(Box::new(compute_only(1000))).unwrap();
        run(&mut c, 10, 10_000);
        let ipc = c.stats().ipc();
        assert!(ipc > 0.9 && ipc <= 1.01, "single-thread ipc {ipc}");
    }

    #[test]
    fn attach_into_a_fully_drained_pair_rearms_issue() {
        let mut c = core();
        // Drain every pair completely: each ends with both threads Done
        // and the issue slot parked on the friend (the last to exit).
        for _ in 0..8 {
            c.attach(Box::new(compute_only(50))).unwrap();
        }
        run(&mut c, 10, 10_000);
        let _ = c.take_retired();
        // A new task reuses the primary slot of the parked pair. Before
        // attach re-armed the pair scheduler this thread was Runnable but
        // never active: no horizon, no issue, hung forever.
        c.attach(Box::new(compute_only(50))).unwrap();
        assert!(
            c.next_event(0).is_some(),
            "re-armed pair must publish a horizon"
        );
        run(&mut c, 10, 10_000);
        assert!(c.is_done());
    }

    #[test]
    fn four_threads_scale_ipc_linearly() {
        let mut c = core();
        for _ in 0..4 {
            c.attach(Box::new(compute_only(1000))).unwrap();
        }
        run(&mut c, 10, 10_000);
        let ipc = c.stats().ipc();
        assert!(ipc > 3.5, "4-thread ipc {ipc}");
    }

    #[test]
    fn spm_hits_are_fast_and_unblocking() {
        let mut c = core();
        let base = space().spm_base(0);
        c.spm_mut().make_resident(0, 4096);
        let prog = ProgramBuilder::at(0x1000)
            .op(Op::load(base + 64, 8))
            .op(Op::compute())
            .repeat(100)
            .build();
        c.attach(Box::new(prog.into_stream())).unwrap();
        run(&mut c, 10, 10_000);
        assert_eq!(c.stats().block_events, 0);
        assert_eq!(c.spm().stats().accesses.hits(), 100);
    }

    #[test]
    fn spm_miss_blocks_and_fill_makes_resident() {
        let mut c = core();
        let base = space().spm_base(0);
        let prog = ProgramBuilder::at(0x1000)
            .op(Op::load(base + 128, 8))
            .op(Op::load(base + 128, 8))
            .build();
        c.attach(Box::new(prog.into_stream())).unwrap();
        run(&mut c, 20, 10_000);
        assert_eq!(c.stats().block_events, 1, "second load hits after fill");
        assert!(c.stats().block_latency.mean() >= 20.0);
    }

    #[test]
    fn dram_load_miss_emits_word_granularity_request() {
        let mut c = core();
        let prog = ProgramBuilder::at(0x1000).op(Op::load(0x10_000, 2)).build();
        c.attach(Box::new(prog.into_stream())).unwrap();
        let mut out = Vec::new();
        c.tick(0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, RequestKind::CacheFill);
        assert_eq!(out[0].span_bytes, 2, "request at access granularity");
        assert!(out[0].blocking);
        c.complete(out[0].thread, 50);
        run(&mut c, 10, 1000);
    }

    #[test]
    fn store_miss_is_non_blocking_write_through() {
        let mut c = core();
        let prog = ProgramBuilder::at(0x1000)
            .op(Op::store(0x20_000, 4))
            .op(Op::compute())
            .build();
        c.attach(Box::new(prog.into_stream())).unwrap();
        let mut out = Vec::new();
        c.tick(0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, RequestKind::WriteThrough);
        assert!(!out[0].blocking);
        assert_eq!(c.stats().block_events, 0);
    }

    #[test]
    fn in_pair_switch_hides_memory_latency() {
        // Two memory-heavy threads: paired they should overlap blocking.
        let mix = OpMix {
            mem_frac: 0.5,
            load_frac: 1.0,
            branch_frac: 0.0,
            branch_miss: 0.0,
            realtime_frac: 0.0,
            granularity: GranularityMix::new([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
            addresses: AddressModel::random(0x100_000, 1 << 22), // cache-hostile
        };
        let run_pairless = {
            let mut c = TcgCore::new(
                0,
                TcgConfig {
                    in_pair: false,
                    ..TcgConfig::smarco()
                },
                space(),
            );
            c.attach(Box::new(SyntheticStream::new(
                mix.clone(),
                2000,
                SimRng::new(1),
            )))
            .unwrap();
            c.attach(Box::new(SyntheticStream::new(
                mix.clone(),
                2000,
                SimRng::new(2),
            )))
            .unwrap();
            c.attach(Box::new(SyntheticStream::new(
                mix.clone(),
                2000,
                SimRng::new(3),
            )))
            .unwrap();
            c.attach(Box::new(SyntheticStream::new(
                mix.clone(),
                2000,
                SimRng::new(4),
            )))
            .unwrap();
            // Friends (threads 5..8) share pairs with 1..4.
            c.attach(Box::new(SyntheticStream::new(
                mix.clone(),
                2000,
                SimRng::new(5),
            )))
            .unwrap();
            c.attach(Box::new(SyntheticStream::new(
                mix.clone(),
                2000,
                SimRng::new(6),
            )))
            .unwrap();
            c.attach(Box::new(SyntheticStream::new(
                mix.clone(),
                2000,
                SimRng::new(7),
            )))
            .unwrap();
            c.attach(Box::new(SyntheticStream::new(
                mix.clone(),
                2000,
                SimRng::new(8),
            )))
            .unwrap();
            run(&mut c, 100, 20_000_000);
            c.stats().ipc()
        };
        let run_paired = {
            let mut c = TcgCore::new(0, TcgConfig::smarco(), space());
            for seed in 1..=8 {
                c.attach(Box::new(SyntheticStream::new(
                    mix.clone(),
                    2000,
                    SimRng::new(seed),
                )))
                .unwrap();
            }
            run(&mut c, 100, 20_000_000);
            c.stats().ipc()
        };
        assert!(
            run_paired > run_pairless * 1.3,
            "in-pair ipc {run_paired:.3} vs coarse {run_pairless:.3}"
        );
    }

    #[test]
    fn shared_iseg_prefetch_eliminates_icache_misses() {
        // Streams with a shared large segment: without prefetch the 24 KB
        // segment thrashes the 16 KB I-cache.
        let seg_bytes = 24 << 10;
        let make = |seed| {
            let mix = OpMix {
                mem_frac: 0.0,
                load_frac: 0.5,
                branch_frac: 0.0,
                branch_miss: 0.0,
                realtime_frac: 0.0,
                granularity: GranularityMix::uniform(),
                addresses: AddressModel::random(0x100_000, 1 << 20),
            };
            Box::new(
                SyntheticStream::new(mix, 20_000, SimRng::new(seed))
                    .with_segment(0x40_000, seg_bytes),
            )
        };
        let miss_with = {
            let mut c = core();
            for s in 0..4 {
                c.attach(make(s)).unwrap();
            }
            run(&mut c, 30, 10_000_000);
            // After prefetch completes, fetches bypass the I-cache.
            assert!(c.stats().iseg_fetches > 0);
            c.stats().ifetch.total()
        };
        let miss_without = {
            let mut c = TcgCore::new(
                0,
                TcgConfig {
                    shared_iseg: false,
                    ..TcgConfig::smarco()
                },
                space(),
            );
            for s in 0..4 {
                c.attach(make(s)).unwrap();
            }
            run(&mut c, 30, 10_000_000);
            assert_eq!(c.stats().iseg_fetches, 0);
            c.stats().ifetch.hits() // just exercise the accessor
        };
        let _ = miss_without;
        // With prefetch, the bulk of fetches avoid the I-cache entirely.
        assert!(
            miss_with < 85_000,
            "I-cache fetch count with prefetch: {miss_with}"
        );
    }

    #[test]
    fn dma_and_sync_complete() {
        let mut c = core();
        let base = space().spm_base(0);
        let prog = ProgramBuilder::at(0x1000)
            .op(Op::Dma {
                src: 0x50_000,
                dst: base,
                bytes: 1024,
            })
            .op(Op::Sync)
            .op(Op::load(base + 512, 8)) // resident after DMA
            .build();
        c.attach(Box::new(prog.into_stream())).unwrap();
        run(&mut c, 10, 100_000);
        assert_eq!(c.stats().block_events, 0, "post-DMA load hits SPM");
    }

    #[test]
    fn mispredicted_branches_cost_pipeline_depth() {
        let mut fast = core();
        let prog = ProgramBuilder::at(0)
            .op(Op::Branch {
                mispredicted: false,
            })
            .repeat(500)
            .build();
        fast.attach(Box::new(prog.into_stream())).unwrap();
        let t_fast = run(&mut fast, 10, 100_000);
        let mut slow = core();
        let prog = ProgramBuilder::at(0)
            .op(Op::Branch { mispredicted: true })
            .repeat(500)
            .build();
        slow.attach(Box::new(prog.into_stream())).unwrap();
        let t_slow = run(&mut slow, 10, 100_000);
        assert!(
            t_slow > t_fast * 4,
            "mispredicts {t_slow} vs predicted {t_fast}"
        );
        assert!(slow.stats().branches.ratio() < 0.01);
    }

    #[test]
    fn attach_fails_when_full() {
        let mut c = core();
        for _ in 0..8 {
            c.attach(Box::new(compute_only(10))).unwrap();
        }
        assert!(c.attach(Box::new(compute_only(10))).is_err());
    }

    #[test]
    fn remote_spm_access_goes_to_owner() {
        let mut c = core();
        let remote_base = space().spm_base(2);
        let prog = ProgramBuilder::at(0)
            .op(Op::load(remote_base + 8, 8))
            .build();
        c.attach(Box::new(prog.into_stream())).unwrap();
        let mut out = Vec::new();
        c.tick(0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, RequestKind::RemoteSpm { owner: 2 });
        c.complete(out[0].thread, 40);
        run(&mut c, 10, 1000);
    }

    #[test]
    #[should_panic(expected = "unmapped address")]
    fn unmapped_access_panics() {
        let mut c = core();
        let prog = ProgramBuilder::at(0).op(Op::load(u64::MAX / 2, 4)).build();
        c.attach(Box::new(prog.into_stream())).unwrap();
        let mut out = Vec::new();
        c.tick(0, &mut out);
    }

    #[test]
    fn skip_matches_ticking_through_stall_windows() {
        let mk = || {
            let mut c = core();
            let prog = ProgramBuilder::at(0x1000)
                .op(Op::Compute { latency: 40 })
                .op(Op::compute())
                .op(Op::Compute { latency: 25 })
                .build();
            c.attach(Box::new(prog.into_stream())).unwrap();
            c
        };
        let mut ticked = mk();
        let mut skipped = mk();
        let mut out = Vec::new();
        for now in 0..200 {
            ticked.tick(now, &mut out);
        }
        assert!(out.is_empty(), "compute-only program emitted requests");
        // Drive the other core horizon-first: tick only when `next_event`
        // says the cycle matters, fast-forward otherwise.
        let mut now = 0;
        while now < 200 {
            match skipped.next_event(now) {
                Some(h) if h > now => {
                    skipped.skip(now, h.min(200));
                    now = h.min(200);
                }
                Some(_) => {
                    skipped.tick(now, &mut out);
                    now += 1;
                }
                None => {
                    skipped.skip(now, 200);
                    now = 200;
                }
            }
        }
        assert!(ticked.is_done() && skipped.is_done());
        assert_eq!(ticked.stats().cycles, skipped.stats().cycles);
        assert_eq!(ticked.stats().instructions, skipped.stats().instructions);
        assert_eq!(
            ticked.stats().stall_pair_cycles,
            skipped.stats().stall_pair_cycles
        );
        assert_eq!(
            ticked.stats().idle_pair_cycles,
            skipped.stats().idle_pair_cycles
        );
    }

    /// Streams to attach, each at its cycle, in cycle order.
    type Script = Vec<(Cycle, Box<dyn InstructionStream + Send>)>;

    /// Threads attached at scripted cycles: compute runs on every pair
    /// and on friends, pair 2's friend starting its run behind a
    /// `Compute { latency: 40 }`, two attaches while the shared segment is
    /// still being prefetched and one into a freed slot once it is
    /// resident.
    fn run_issue_script() -> Script {
        let mut stalled = true;
        let stall_40 = FnStream::new(move || {
            std::mem::take(&mut stalled).then_some(Op::Compute { latency: 40 })
        })
        .with_segment(0, 1024);
        vec![
            (0, Box::new(compute_only(700))),
            (0, Box::new(compute_only(300))),
            (0, Box::new(stall_40)),
            (0, Box::new(compute_only(50))),
            (0, Box::new(compute_only(400))),
            (0, Box::new(compute_only(20))),
            (0, Box::new(compute_only(900))),
            (30, Box::new(compute_only(600))),
            (45, Box::new(compute_only(5))),
            (1_200, Box::new(compute_only(800))),
        ]
    }

    /// What a [`drive`] did through skips.
    #[derive(Debug, Default)]
    struct SkipCharges {
        /// Instructions charged by `skip` instead of `tick`.
        instructions: u64,
        /// Skips in which a pair waited out a stall, then issued its run.
        stall_then_run: u64,
        /// Ticks in which the DMA engine only counted down: nothing
        /// issued and no transfer completed.
        dma_ticked: u64,
        /// Skipped cycles in which the DMA engine counted down.
        dma_skipped: u64,
    }

    /// Runs `script` on `c` until `end`, ticking every cycle or, with
    /// `by_horizon`, ticking only where `next_event` says the cycle
    /// matters (attach cycles count as events) and skipping otherwise.
    fn drive(c: &mut TcgCore, script: Script, end: Cycle, by_horizon: bool) -> SkipCharges {
        let mut script = script.into_iter().peekable();
        let mut charges = SkipCharges::default();
        let mut out = Vec::new();
        let mut now = 0;
        while now < end {
            while let Some((_, stream)) = script.next_if(|&(at, _)| at == now) {
                c.attach(stream).expect("vacant slot");
            }
            let stop = script.peek().map_or(end, |&(at, _)| at.min(end));
            if by_horizon {
                let horizon = c.next_event(now);
                let h = horizon.map_or(stop, |h| h.min(stop));
                if h > now {
                    let waits_then_issues = (0..c.pairs.pairs()).any(|p| {
                        let t = c.pairs.active_thread(p);
                        t < c.slots.len()
                            && c.slots[t].state == ThreadState::Runnable
                            && c.issue_run(t) > 0
                            && (now + 1..h).contains(&c.slots[t].stall_until)
                    });
                    let before = c.stats.instructions;
                    if c.dma.is_busy() {
                        charges.dma_skipped += h - now;
                    }
                    c.skip(now, h);
                    // The engine caches horizons across skips, so a skip
                    // must leave the horizon where it was.
                    assert_eq!(
                        c.next_event(h),
                        horizon,
                        "horizon moved across [{now}, {h})"
                    );
                    charges.instructions += c.stats.instructions - before;
                    charges.stall_then_run += u64::from(waits_then_issues);
                    now = h;
                    continue;
                }
            }
            let (busy, issued, completed) =
                (c.dma.is_busy(), c.stats.instructions, c.dma.completed());
            c.tick(now, &mut out);
            if busy && c.stats.instructions == issued && c.dma.completed() == completed {
                charges.dma_ticked += 1;
            }
            let _ = c.take_retired();
            now += 1;
        }
        assert!(out.is_empty(), "scripted threads emitted requests");
        charges
    }

    fn drain(mut stream: Box<dyn InstructionStream + Send>) -> Vec<smarco_isa::Instr> {
        std::iter::from_fn(|| stream.next_instr()).collect()
    }

    #[test]
    fn run_issue_matches_per_cycle_issue() {
        let traced = |mut c: TcgCore| {
            c.enable_trace(TraceConfig {
                capacity: 1 << 16,
                retire_sample: 16,
            });
            c
        };
        // Mid-prefetch, mid-run with the friends waiting, mid-run after
        // the late attach, and drained.
        for end in [60, 700, 1_500, 5_000] {
            for trace in [false, true] {
                let mk = || if trace { traced(core()) } else { core() };
                let (mut ticked, mut skipped) = (mk(), mk());
                drive(&mut ticked, run_issue_script(), end, false);
                let charges = drive(&mut skipped, run_issue_script(), end, true);
                let at = format!("end {end}, tracing {trace}");
                assert_eq!(ticked.stats(), skipped.stats(), "{at}");
                assert_eq!(ticked.trace, skipped.trace, "{at}");
                if trace {
                    assert_eq!(charges.instructions, 0, "a traced core skipped issue: {at}");
                } else if end >= 700 {
                    assert!(
                        charges.instructions * 10 >= skipped.stats().instructions * 9,
                        "run issue charged {charges:?} of {} instructions: {at}",
                        skipped.stats().instructions
                    );
                    assert!(charges.stall_then_run > 0, "{at}");
                }
                for (a, b) in ticked.slots.iter().zip(&skipped.slots) {
                    assert_eq!(
                        (a.state, a.stall_until, a.instructions, a.compute_run()),
                        (b.state, b.stall_until, b.instructions, b.compute_run()),
                        "{at}"
                    );
                }
                // Kill both mid-run: the ripped-out streams must continue
                // identically.
                let (a, b) = (ticked.fail(), skipped.fail());
                assert_eq!(a.len(), b.len(), "{at}");
                for ((ia, sa), (ib, sb)) in a.into_iter().zip(b) {
                    assert_eq!(ia, ib, "{at}");
                    assert_eq!(drain(sa), drain(sb), "slot {ia} at {at}");
                }
            }
        }
    }

    /// A thread in the shared 1 KB segment at 0 running `ops`, then exit.
    fn in_segment(ops: Vec<Op>) -> Box<dyn InstructionStream + Send> {
        let mut ops = ops.into_iter();
        Box::new(FnStream::new(move || ops.next()).with_segment(0, 1024))
    }

    /// A staged prologue: DMA `bytes` from DRAM into the SPM at `offset`,
    /// wait for it, then `loads` SPM loads and computes over the staged
    /// range.
    fn staged(offset: u64, bytes: u32, loads: u64) -> Box<dyn InstructionStream + Send> {
        let spm = space().spm_base(0) + offset;
        let mut ops = vec![
            Op::Dma {
                src: 0x50_000 + offset,
                dst: spm,
                bytes,
            },
            Op::Sync,
        ];
        for i in 0..loads {
            ops.push(Op::load(spm + (i * 40) % u64::from(bytes - 8), 8));
            ops.push(Op::Compute { latency: 3 });
        }
        in_segment(ops)
    }

    /// Staged threads on every pair, their friends issuing branches and
    /// computes through the L1I while the shared segment is prefetched, a
    /// thread with two transfers before its `Sync`, and a late staged
    /// attach into a freed slot.
    fn dma_script() -> Script {
        let friend = |n: usize| {
            let ops = (0..n)
                .map(|i| match i % 3 {
                    0 => Op::Branch { mispredicted: true },
                    _ => Op::compute(),
                })
                .collect();
            in_segment(ops)
        };
        let spm = space().spm_base(0);
        let two_transfers = in_segment(vec![
            Op::Dma {
                src: 0x60_000,
                dst: spm + 24_576,
                bytes: 777,
            },
            Op::Dma {
                src: 0x61_000,
                dst: spm + 26_624,
                bytes: 1_500,
            },
            Op::Sync,
            Op::load(spm + 26_700, 8),
        ]);
        vec![
            (0, staged(0, 4_096, 20)),
            (0, staged(4_096, 2_048, 10)),
            (0, staged(8_192, 1_000, 5)),
            (0, two_transfers),
            (0, friend(60)),
            (0, friend(30)),
            (0, friend(5)),
            (0, staged(12_288, 3_000, 40)),
            (900, staged(16_384, 2_500, 8)),
        ]
    }

    #[test]
    fn dma_horizons_match_per_cycle_dma() {
        for end in [40, 300, 700, 1_000, 3_000] {
            for trace in [false, true] {
                let mk = || {
                    let mut c = core();
                    if trace {
                        c.enable_trace(TraceConfig {
                            capacity: 1 << 16,
                            retire_sample: 4,
                        });
                    }
                    c
                };
                let (mut ticked, mut skipped) = (mk(), mk());
                let reference = drive(&mut ticked, dma_script(), end, false);
                let charges = drive(&mut skipped, dma_script(), end, true);
                let at = format!("end {end}, tracing {trace}");
                assert_eq!(ticked.stats(), skipped.stats(), "{at}");
                assert_eq!(ticked.trace, skipped.trace, "{at}");
                assert_eq!(ticked.spm().stats(), skipped.spm().stats(), "{at}");
                assert_eq!(
                    ticked.dma.ticks_to_complete(),
                    skipped.dma.ticks_to_complete(),
                    "{at}"
                );
                assert_eq!(charges.instructions, 0, "no thread has a compute run: {at}");
                assert!(
                    charges.dma_skipped * 10 >= reference.dma_ticked * 9,
                    "skips charged {} of {} DMA-only cycles: {at}",
                    charges.dma_skipped,
                    reference.dma_ticked
                );
                for (a, b) in ticked.slots.iter().zip(&skipped.slots) {
                    assert_eq!(
                        (a.state, a.stall_until, a.instructions, a.pending_dma),
                        (b.state, b.stall_until, b.instructions, b.pending_dma),
                        "{at}"
                    );
                }
                // Kill both, mid-transfer before the drain.
                if end < 3_000 {
                    assert!(ticked.dma.is_busy(), "no transfer in flight at {at}");
                }
                let (a, b) = (ticked.fail(), skipped.fail());
                assert_eq!(a.len(), b.len(), "{at}");
                for ((ia, sa), (ib, sb)) in a.into_iter().zip(b) {
                    assert_eq!(ia, ib, "{at}");
                    assert_eq!(drain(sa), drain(sb), "slot {ia} at {at}");
                }
            }
        }
    }

    #[test]
    fn fail_rips_out_streams_and_quarantines_the_core() {
        let mut c = core();
        c.attach(Box::new(compute_only(100))).unwrap();
        c.attach(Box::new(compute_only(100))).unwrap();
        let mut out = Vec::new();
        c.tick(0, &mut out);
        assert!(c.is_alive() && c.has_vacancy());

        let streams = c.fail();
        assert_eq!(streams.len(), 2, "both live streams recovered");
        assert_eq!(streams[0].0, 0);
        assert_eq!(streams[1].0, 1);
        assert!(!c.is_alive());
        assert!(c.is_done(), "a dead core holds nothing up");
        assert!(!c.has_vacancy(), "quarantined from dispatch");
        assert_eq!(c.next_event(5), None, "no horizon from the dead");
        assert!(c.attach(Box::new(compute_only(1))).is_err());

        // Frozen: ticking and skipping charge nothing.
        let cycles = c.stats().cycles;
        out.clear();
        c.tick(1, &mut out);
        c.skip(2, 50);
        assert_eq!(c.stats().cycles, cycles);
        assert!(out.is_empty());
        assert!(c.fail().is_empty(), "second kill is a no-op");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stall end")]
    fn too_late_horizon_is_caught_by_skip() {
        // No iseg prefetch: its DMA completes inside the range and would
        // trip the (earlier) DMA check.
        let mut c = TcgCore::new(
            0,
            TcgConfig {
                shared_iseg: false,
                ..TcgConfig::smarco()
            },
            space(),
        );
        let prog = ProgramBuilder::at(0x1000)
            .op(Op::Compute { latency: 10 })
            .op(Op::compute())
            .build();
        c.attach(Box::new(prog.into_stream())).unwrap();
        let mut out = Vec::new();
        c.tick(0, &mut out); // thread now stalled until cycle 10

        // A broken `next_event` claiming quiescence through cycle 50 would
        // drive exactly this call; debug builds refuse to jump past the
        // stall end.
        c.skip(1, 50);
    }
}

//! Conservative time-window parallel discrete-event execution (PDES).
//!
//! The paper's simulation platform (§4.2) is a parallel discrete-event
//! simulator: a framework layer handles synchronization, communication and
//! parallel acceleration, and function modules plug into it. This module is
//! that framework layer.
//!
//! The classic conservative scheme: partition the model into [`Shard`]s
//! whose only interaction is timestamped messages with a minimum delivery
//! latency (the *lookahead*, e.g. the router pipeline depth between a
//! sub-ring and the main ring). All shards can then safely advance
//! `lookahead` cycles in parallel without seeing each other's messages,
//! because anything a peer emits inside the window cannot become visible
//! until the next window. At each window boundary the engine routes the
//! emitted envelopes into the destination shards' inboxes.
//!
//! Determinism: every envelope carries its source shard and a per-source
//! sequence number, and inboxes deliver in `(timestamp, source, sequence)`
//! order — a total order fixed at emission time, independent of both host
//! thread interleaving and the order envelopes happen to arrive in. The
//! sequence counters live in the engine and persist across windows, so the
//! order is total across the whole run, not just within one window.
//! Results are therefore identical for any worker count, so
//! [`ParallelEngine::run_windowed`] with one worker is the reference every
//! multi-worker run is checked against.
//!
//! A second property falls out of absolute timestamps: the window length
//! never affects results, only synchronization frequency. Any window no
//! longer than the lookahead is conservative, so running cycle-by-cycle
//! (`run_windowed(n, 1)` with a 1-cycle clamp at the end of a run) produces
//! the same states and messages as full-lookahead windows.
//!
//! Every worker count runs the same window loop over a group of shards:
//! one group runs it on the calling thread, more groups run it on scoped
//! threads that meet at a barrier after each window.
//!
//! The hot path is allocation- and contention-free in steady state. Each
//! lane owns a recycled envelope slab (an arena reused window after
//! window) for its outbox, and emitted envelopes are published straight
//! into a cache-line-padded per-(destination, source) mailbox matrix — a
//! flat-combining exchange: routing work rides along with each lane's
//! step instead of serializing at the barrier, so the barrier's serial
//! section shrinks to an O(1) horizon fold.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering as MemOrder};
use std::sync::Mutex;
use std::time::Instant;

use crate::contract::HorizonContract;
use crate::prof::{
    EngineProfile, HostPhase, HostSlice, HostTrack, ProfConfig, Telemetry, WorkerScratch,
};
use crate::Cycle;

/// A horizon contract paired with the classifier that maps a message to
/// its contract class. Plain function pointer so the pair stays `Copy`
/// across worker threads.
type ContractCheck<M> = (HorizonContract, fn(&M) -> usize);

/// Timestamped message addressed to another shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Cycle at which the message becomes visible to the destination.
    pub at: Cycle,
    /// Destination shard index.
    pub to: usize,
    /// Source shard index (stamped by the [`Outbox`]).
    pub from: usize,
    /// Per-source emission sequence number (stamped by the [`Outbox`]).
    pub seq: u64,
    /// Payload.
    pub msg: M,
}

/// Heap entry ordered min-first by `(at, from, seq)` — the deterministic
/// delivery order. The payload never participates in comparisons.
#[derive(Debug, Clone)]
struct Pending<M> {
    at: Cycle,
    from: usize,
    seq: u64,
    msg: M,
}

impl<M> Pending<M> {
    fn key(&self) -> (Cycle, usize, u64) {
        (self.at, self.from, self.seq)
    }
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<M> Eq for Pending<M> {}

impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest key.
        other.key().cmp(&self.key())
    }
}

/// Messages delivered to a shard, popped in `(timestamp, source shard,
/// sequence)` order — so same-cycle delivery is deterministic no matter in
/// which order the host threads happened to route the envelopes.
#[derive(Debug, Clone)]
pub struct Inbox<M> {
    heap: BinaryHeap<Pending<M>>,
}

impl<M> Default for Inbox<M> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
        }
    }
}

impl<M> Inbox<M> {
    /// Pops the next message due at or before `now`, if any.
    pub fn pop_due(&mut self, now: Cycle) -> Option<M> {
        if self.heap.peek().is_some_and(|p| p.at <= now) {
            self.heap.pop().map(|p| p.msg)
        } else {
            None
        }
    }

    /// Number of undelivered messages.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no messages are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Due-cycle of the earliest pending message, if any. Together with
    /// [`Shard::next_event`] this bounds the next cycle at which the owning
    /// shard can possibly act.
    pub fn next_due(&self) -> Option<Cycle> {
        self.heap.peek().map(|p| p.at)
    }

    /// Bulk insertion: one capacity reservation for the whole batch instead
    /// of a possible reallocation per envelope.
    fn push_all(&mut self, envs: impl IntoIterator<Item = Envelope<M>>) {
        self.heap.extend(envs.into_iter().map(|env| Pending {
            at: env.at,
            from: env.from,
            seq: env.seq,
            msg: env.msg,
        }));
    }
}

/// Collects messages a shard emits during a window, stamping each with the
/// source shard and a monotonically increasing sequence number.
#[derive(Debug)]
pub struct Outbox<M> {
    from: usize,
    window_end: Cycle,
    next_seq: u64,
    envelopes: Vec<Envelope<M>>,
}

impl<M> Outbox<M> {
    /// `envelopes` is a recycled buffer (cleared here) so steady-state
    /// windows allocate nothing.
    fn new(from: usize, window_end: Cycle, next_seq: u64, mut envelopes: Vec<Envelope<M>>) -> Self {
        envelopes.clear();
        Self {
            from,
            window_end,
            next_seq,
            envelopes,
        }
    }

    /// Sends `msg` to shard `to`, visible at cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the end of the current window — that
    /// would violate the lookahead contract and make parallel execution
    /// diverge from sequential execution.
    pub fn send(&mut self, to: usize, at: Cycle, msg: M) {
        assert!(
            at >= self.window_end,
            "lookahead violation: message timestamped {at} inside window ending {}",
            self.window_end
        );
        self.envelopes.push(Envelope {
            at,
            to,
            from: self.from,
            seq: self.next_seq,
            msg,
        });
        self.next_seq += 1;
    }
}

/// Pads a value out to its own 128-byte region so adjacent values never
/// share a cache line (128, not 64, because x86 spatial prefetchers pull
/// lines in pairs). Hand-rolled because the workspace is dependency-free.
#[derive(Debug, Default)]
#[repr(align(128))]
struct CachePadded<T>(T);

/// One cell of the [`Exchange`] matrix: envelopes one source shard has
/// published for one destination shard, plus a fast-path flag so readers
/// skip locking cells nobody wrote to. The per-cell mutex is only ever
/// contended when this cell's single writer and single reader collide.
#[derive(Debug)]
struct MailSlot<M> {
    envelopes: Mutex<Vec<Envelope<M>>>,
    nonempty: AtomicBool,
}

/// Flat-combining window exchange: an `n × n` matrix of padded mailboxes,
/// row-major by destination (`slots[to * n + from]`). Each lane publishes
/// its outbox into its column as part of its own window step and drains
/// its row into its inbox at the next window start, so envelope routing
/// is spread across the workers instead of serialized at the barrier.
///
/// Publishing during the same phase in which other lanes drain is safe:
/// every published envelope is due at or after the current window's end
/// (the [`Outbox`] asserts this), so whether a given envelope is picked up
/// by its destination's drain this window or next, it cannot come due
/// before the destination's next step — and the `(at, from, seq)` heap
/// order makes the delivery sequence independent of arrival time.
#[derive(Debug)]
struct Exchange<M> {
    n: usize,
    slots: Vec<CachePadded<MailSlot<M>>>,
}

impl<M> Exchange<M> {
    fn new(n: usize) -> Self {
        let slots = (0..n * n)
            .map(|_| {
                CachePadded(MailSlot {
                    envelopes: Mutex::new(Vec::new()),
                    nonempty: AtomicBool::new(false),
                })
            })
            .collect();
        Self { n, slots }
    }

    /// Moves everything published for shard `to` into its inbox. Clearing
    /// the flag *before* taking the envelopes pairs with `publish` setting
    /// it *after* pushing: an envelope can be momentarily covered by a
    /// stale `true` (harmless extra lock next window) but never sit in a
    /// slot whose flag reads `false`. A plain load screens each flag
    /// first, so an empty row costs `n` loads instead of `n` locked
    /// exchanges; a publish it misses is one the barrier makes visible
    /// next window, which is still before the envelope can come due.
    fn drain_row(&self, to: usize, inbox: &mut Inbox<M>) {
        for from in 0..self.n {
            let slot = &self.slots[to * self.n + from].0;
            if slot.nonempty.load(MemOrder::Relaxed) && slot.nonempty.swap(false, MemOrder::Acquire)
            {
                let mut guard = slot.envelopes.lock().expect("mail slot lock");
                inbox.push_all(guard.drain(..));
            }
        }
    }

    /// Publishes one lane's outbox into its column, batching consecutive
    /// same-destination envelopes under one lock acquisition. Leaves `buf`
    /// empty (capacity intact) for slab recycling. Returns the earliest
    /// due-cycle published (`u64::MAX` when none) and the envelope count.
    fn publish(&self, from: usize, buf: &mut Vec<Envelope<M>>) -> (u64, u64) {
        let n = self.n;
        let mut earliest = u64::MAX;
        let mut count = 0u64;
        let mut cur_to = usize::MAX;
        let mut guard: Option<std::sync::MutexGuard<'_, Vec<Envelope<M>>>> = None;
        for env in buf.drain(..) {
            assert!(env.to < n, "unknown shard {}", env.to);
            earliest = earliest.min(env.at);
            count += 1;
            if env.to != cur_to {
                if guard.take().is_some() {
                    self.slots[cur_to * n + from]
                        .0
                        .nonempty
                        .store(true, MemOrder::Release);
                }
                cur_to = env.to;
                let slot = &self.slots[cur_to * n + from].0;
                guard = Some(slot.envelopes.lock().expect("mail slot lock"));
            }
            guard.as_mut().expect("mail slot guard").push(env);
        }
        if guard.take().is_some() {
            self.slots[cur_to * n + from]
                .0
                .nonempty
                .store(true, MemOrder::Release);
        }
        (earliest, count)
    }

    /// Post-run sweep: deliver everything still parked in the matrix
    /// (the final window's publishes were never drained) so a later run
    /// with any worker count sees it. It runs after every group has
    /// joined, so a clear flag proves its slot empty (`publish` sets the
    /// flag after pushing, and a drain clears it only to take the
    /// envelopes) and only flagged slots are locked.
    fn drain_all(&self, inboxes: &mut [Inbox<M>]) {
        for (to, inbox) in inboxes.iter_mut().enumerate() {
            self.drain_row(to, inbox);
        }
    }
}

/// A partition of the model that advances independently within a window.
pub trait Shard: Send {
    /// Message type exchanged between shards.
    type Msg: Send;

    /// Advances the shard through cycles `[from, to)`, consuming inbox
    /// messages as they come due and emitting cross-shard messages with
    /// timestamps `>= to` into `outbox`.
    fn run_window(
        &mut self,
        from: Cycle,
        to: Cycle,
        inbox: &mut Inbox<Self::Msg>,
        outbox: &mut Outbox<Self::Msg>,
    );

    /// Event horizon: the earliest cycle at or after `now` at which this
    /// shard might act — consume an already-delivered message, change
    /// externally visible state (including statistics that are not pure
    /// idle bookkeeping), or emit an envelope. `None` means the shard is
    /// fully drained and only a new inbox message can re-activate it
    /// (the engine accounts for inbox due-cycles separately).
    ///
    /// The contract is conservative: returning a cycle *earlier* than the
    /// true next state change is always safe (it merely disables
    /// skipping); returning a *later* cycle breaks bit-identity. The
    /// default, `Some(now)`, declares the shard permanently active and
    /// opts it out of cycle skipping entirely.
    ///
    /// The engine evaluates the horizon once after each window the shard
    /// steps (and once at the start of each run) and caches it across the
    /// windows it then skips. That relies on a stability rule: a horizon
    /// at or past a skipped range's end is still the horizon after
    /// [`skip_window`](Self::skip_window) applies that range. Debug
    /// builds recompute the horizon after every applied skip and assert
    /// it equals the cache.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }

    /// Fast-forwards the shard across `[from, to)`, a range the engine has
    /// proven event-free via [`next_event`](Self::next_event) and the
    /// inbox. Implementations must apply exactly the state changes
    /// `run_window` would have applied over an idle range (typically
    /// idle-counter bookkeeping) and must not emit messages. The default
    /// does nothing, matching the default always-active horizon (which
    /// guarantees this is never called).
    ///
    /// Skips must be additive: `skip_window(a, b)` then
    /// `skip_window(b, c)` leaves the same state as `skip_window(a, c)`.
    /// The engine relies on it to apply an unbroken run of skipped
    /// windows as one call, just before the shard next steps or before
    /// the run returns, so the state is settled whenever it is read.
    fn skip_window(&mut self, from: Cycle, to: Cycle) {
        let _ = (from, to);
    }
}

/// One shard's per-window execution state: the shard itself, its inbox,
/// its persistent sequence counter, and its recycled outbox slab, keyed
/// by shard index. The slab is exclusively owned (`&mut`, no lock): only
/// the lane's current worker touches it, and it persists in the engine so
/// steady-state windows allocate nothing.
///
/// A lane lives for one `run_windowed` call, and a quiet shard costs it
/// O(1) per window: `horizon` caches the shard's own
/// [`Shard::next_event`] (evaluated at the call's start and after each
/// window the lane steps), and the windows it skips are not applied one
/// by one but accumulate as the pending range `[settled, now)`, applied
/// by [`settle`](Self::settle).
struct Lane<'a, S: Shard> {
    i: usize,
    shard: &'a mut S,
    inbox: &'a mut Inbox<S::Msg>,
    seq: &'a mut u64,
    slab: &'a mut Vec<Envelope<S::Msg>>,
    /// The shard's own horizon, `u64::MAX` for `None`.
    horizon: u64,
    /// Cycle up to which the shard's state is settled.
    settled: Cycle,
}

impl<S: Shard> Lane<'_, S> {
    /// Earliest cycle at which the lane can possibly act: the shard's
    /// cached horizon or its earliest undelivered message, whichever comes
    /// first. `u64::MAX` encodes "never without new input".
    fn horizon(&self) -> u64 {
        self.horizon.min(self.inbox.next_due().unwrap_or(u64::MAX))
    }

    /// Applies the pending skipped range `[settled, now)` as one
    /// [`Shard::skip_window`], returning the nanoseconds it took when
    /// `timed` (0 when nothing was pending or untimed).
    fn settle(&mut self, now: Cycle, timed: bool) -> u64 {
        if self.settled >= now {
            return 0;
        }
        let t0 = timed.then(Instant::now);
        self.shard.skip_window(self.settled, now);
        debug_assert_eq!(
            self.shard.next_event(now).unwrap_or(u64::MAX),
            self.horizon,
            "shard {}'s horizon moved across the skipped range [{}, {now})",
            self.i,
            self.settled
        );
        self.settled = now;
        t0.map_or(0, ns_since)
    }
}

/// What one shard's window step did: whether it skipped, the nanoseconds
/// spent applying its pending skip range before stepping, the earliest
/// due-cycle it published this window (`u64::MAX` when nothing), and how
/// many envelopes it published. The caller folds these into the
/// whole-run fast-forward decision and the exchange telemetry.
struct StepOutcome {
    skipped: bool,
    settle_ns: u64,
    routed_due: u64,
    routed: u64,
}

/// Charges one lane's window to a worker's profile: a skipped window to
/// the skip phase; a stepped one to the step phase, less the time its
/// pending skip range took to apply, which goes to the skip phase. On
/// sampled windows the whole interval also becomes a timeline slice.
fn charge_lane(
    scratch: &mut WorkerScratch,
    i: usize,
    out: &StepOutcome,
    epoch: Instant,
    t0: Instant,
    sampled: bool,
) {
    let ns = ns_since(t0);
    let sp = &mut scratch.shards[i];
    let phase = if out.skipped {
        sp.skip_ns += ns;
        sp.windows_skipped += 1;
        scratch.prof.skip_ns += ns;
        HostPhase::Skip
    } else {
        let step_ns = ns.saturating_sub(out.settle_ns);
        let settle_ns = ns - step_ns;
        sp.step_ns += step_ns;
        sp.skip_ns += settle_ns;
        sp.windows_stepped += 1;
        scratch.prof.step_ns += step_ns;
        scratch.prof.skip_ns += settle_ns;
        HostPhase::Step
    };
    if sampled {
        scratch.slices.push(HostSlice {
            track: HostTrack::Shard(i),
            phase,
            start_ns: ns_between(epoch, t0),
            dur_ns: ns,
        });
    }
}

/// Applies every lane's pending skip range up to `end`, so the shards'
/// statistics are settled when the run returns, charging the time to the
/// skip phase when profiling.
fn settle_lanes<S: Shard>(
    lanes: &mut [Lane<'_, S>],
    end: Cycle,
    mut scratch: Option<&mut WorkerScratch>,
) {
    let timed = scratch.is_some();
    for lane in lanes {
        let ns = lane.settle(end, timed);
        if let Some(scratch) = scratch.as_deref_mut() {
            scratch.shards[lane.i].skip_ns += ns;
            scratch.prof.skip_ns += ns;
        }
    }
}

/// Nanoseconds elapsed since `t0` on the monotonic host clock.
fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds from `epoch` to `t` (saturating at zero and `u64::MAX`).
fn ns_between(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Sense-reversing spin barrier. The chip synchronizes every `lookahead`
/// (typically 2) cycles — tens of thousands of window boundaries per run —
/// so parties spin instead of sleeping: a futex-based barrier's sleep/wake
/// round-trip costs more than an entire window of simulation. The spin
/// budget adapts to the party count: more parties means longer expected
/// waits and more cores burning, so each check yields sooner; on an
/// oversubscribed host (more parties than cores, where a spinning waiter
/// can only steal cycles from the party it is waiting for) the budget is
/// zero and every check yields. The arrival and generation counters live
/// on separate padded lines so arrivers incrementing one don't invalidate
/// the line every waiter is polling. The last party to arrive runs a
/// serial section (the horizon fold) before releasing the others. A party
/// that panics poisons the barrier, and waiters leave instead of spinning
/// for an arrival that will never come.
struct SpinBarrier {
    parties: usize,
    /// Spins between yields while waiting; 0 means yield on every check.
    spins_per_yield: u32,
    arrived: CachePadded<AtomicUsize>,
    generation: CachePadded<AtomicUsize>,
    /// Relaxed: the flag publishes no data, and the panic payload
    /// reaches the caller through the join.
    poisoned: AtomicBool,
}

impl SpinBarrier {
    /// Total spin budget divided among the parties.
    const SPIN_BASE: u32 = 1024;
    /// Floor so small sane party counts still get a useful spin run.
    const SPIN_MIN: u32 = 32;

    /// Spins between yields for `parties` waiters on a host with
    /// `host_cpus` logical CPUs. Zero (yield immediately) when there is
    /// nobody to wait for or the host is oversubscribed; otherwise
    /// inversely proportional to the party count.
    fn spin_budget(parties: usize, host_cpus: usize) -> u32 {
        if parties <= 1 || parties > host_cpus {
            0
        } else {
            (Self::SPIN_BASE / u32::try_from(parties).unwrap_or(u32::MAX)).max(Self::SPIN_MIN)
        }
    }

    /// A barrier for `parties` waiters. A lone party never waits, so it
    /// skips the host CPU query, which costs more than a short window.
    fn new(parties: usize) -> Self {
        let host_cpus = if parties > 1 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            1
        };
        Self {
            parties,
            spins_per_yield: Self::spin_budget(parties, host_cpus),
            arrived: CachePadded(AtomicUsize::new(0)),
            generation: CachePadded(AtomicUsize::new(0)),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Blocks until all parties arrive; the last runs `serial` first.
    /// Returns `false` instead when the barrier is poisoned: a party
    /// unwound and will never arrive.
    fn wait_with(&self, serial: impl FnOnce()) -> bool {
        let generation = self.generation.0.load(MemOrder::Acquire);
        if self.arrived.0.fetch_add(1, MemOrder::AcqRel) + 1 == self.parties {
            serial();
            // Reset before the release so parties freed by the new
            // generation start the next arrival count from zero.
            self.arrived.0.store(0, MemOrder::Relaxed);
            self.generation.0.store(generation + 1, MemOrder::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.0.load(MemOrder::Acquire) == generation {
                if self.poisoned.load(MemOrder::Relaxed) {
                    return false;
                }
                if spins >= self.spins_per_yield {
                    spins = 0;
                    std::thread::yield_now();
                } else {
                    spins += 1;
                    std::hint::spin_loop();
                }
            }
        }
        true
    }
}

/// Poisons the window barrier when its lane group unwinds, so the other
/// groups stop waiting for it and the run fails with the group's panic.
struct PoisonOnUnwind<'a>(&'a SpinBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, MemOrder::Relaxed);
        }
    }
}

/// What one lane group's window loop did: the shard-cycles it stepped
/// and skipped, the window boundaries it crossed, and its profile
/// scratch when profiling.
struct GroupRun {
    stepped: u64,
    skipped: u64,
    windows: u64,
    scratch: Option<WorkerScratch>,
}

/// One [`ParallelEngine::run_windowed`] call as every lane group sees
/// it: the run's bounds and window length, the exchange and contract,
/// the profiling context (all dead when profiling is off), and the words
/// the groups share across the window barrier. Every shared word gets
/// its own padded line: each worker hammers them once per window,
/// exactly where false sharing hurts most.
struct WindowLoop<'a, M> {
    start: Cycle,
    end: Cycle,
    lookahead: Cycle,
    skip: bool,
    /// Shard count of the whole engine.
    n: usize,
    exchange: &'a Exchange<M>,
    /// Checked against every emitted envelope in debug builds only.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    contract: Option<&'a ContractCheck<M>>,
    epoch: Option<Instant>,
    sample_every: u64,
    /// Windows the profile saw before this call, so sampling continues
    /// the profile's stride across calls.
    base_windows: u64,
    env_bytes: u64,
    barrier: SpinBarrier,
    /// Cross-group horizon exchange: each group folds its lanes'
    /// horizons *and* the due-cycles of the envelopes it published this
    /// window in here before the barrier; the serial section swaps it
    /// out and publishes the agreed jump target in `jump_to`.
    horizon: CachePadded<AtomicU64>,
    jump_to: CachePadded<AtomicU64>,
    /// Profiling only: each window's earliest barrier arrival,
    /// stepped-lane count and published envelope count, carried to the
    /// serial section, which owns the window telemetry.
    first_arrival: CachePadded<AtomicU64>,
    occupancy: CachePadded<AtomicUsize>,
    routed: CachePadded<AtomicU64>,
    telemetry: Mutex<Telemetry>,
}

impl<M> WindowLoop<'_, M> {
    /// The window loop over one lane group, charged to worker `w`: step
    /// or skip every lane, fold the group's horizon, meet the other
    /// groups at the barrier, and jump the clock to the agreed next
    /// window start. The engine runs it on the calling thread when there
    /// is one group and on scoped threads otherwise. `None` means another
    /// group panicked and this one left the poisoned barrier mid-run.
    fn run_group<S: Shard<Msg = M>>(
        &self,
        w: usize,
        group: &mut [Lane<'_, S>],
    ) -> Option<GroupRun> {
        let _poison = PoisonOnUnwind(&self.barrier);
        let epoch = self.epoch;
        let timed = epoch.is_some();
        let t_busy = epoch.map(|_| Instant::now());
        let mut scratch = epoch.map(|_| WorkerScratch::new(w, self.n));
        let (mut stepped, mut skipped) = (0u64, 0u64);
        // Window ordinal, identical across groups (the barrier keeps them
        // in lockstep), so every group agrees on which windows are
        // sampled.
        let mut win = 0u64;
        let mut now = self.start;
        while now < self.end {
            let to = now.saturating_add(self.lookahead).min(self.end);
            let sampled = timed && (self.base_windows + win).is_multiple_of(self.sample_every);
            let mut stepped_lanes = 0usize;
            let (mut win_due, mut win_routed) = (u64::MAX, 0u64);
            for lane in group.iter_mut() {
                let t0 = epoch.map(|_| Instant::now());
                let out = self.step_lane(lane, now, to);
                win_due = win_due.min(out.routed_due);
                win_routed += out.routed;
                if out.skipped {
                    skipped += to - now;
                } else {
                    stepped += to - now;
                    stepped_lanes += 1;
                }
                if let (Some(epoch), Some(scratch), Some(t0)) = (epoch, scratch.as_mut(), t0) {
                    charge_lane(scratch, lane.i, &out, epoch, t0, sampled);
                }
            }
            if self.skip {
                // Published due-cycles fold into the same shared horizon
                // as the lane horizons: every group knows its own
                // publishes, so no serial routing pass is needed to see
                // the full minimum.
                let h = group.iter().map(Lane::horizon).fold(win_due, u64::min);
                self.horizon.0.fetch_min(h, MemOrder::AcqRel);
            }
            if timed && win_routed > 0 {
                self.routed.0.fetch_add(win_routed, MemOrder::AcqRel);
            }
            let t_arrive = epoch.map(|_| Instant::now());
            if sampled {
                if let (Some(epoch), Some(t0)) = (epoch, t_arrive) {
                    self.occupancy.0.fetch_add(stepped_lanes, MemOrder::AcqRel);
                    self.first_arrival
                        .0
                        .fetch_min(ns_between(epoch, t0), MemOrder::AcqRel);
                }
            }
            let mut serial_ns = 0u64;
            if !self
                .barrier
                .wait_with(|| serial_ns = self.close_window(to, sampled, t_arrive))
            {
                return None;
            }
            if let (Some(epoch), Some(scratch), Some(t0)) = (epoch, scratch.as_mut(), t_arrive) {
                let total = ns_since(t0);
                let wait = total.saturating_sub(serial_ns);
                scratch.prof.barrier_ns += wait;
                scratch.prof.route_ns += serial_ns;
                scratch.prof.windows += 1;
                if sampled {
                    let start_ns = ns_between(epoch, t0);
                    scratch.slices.push(HostSlice {
                        track: HostTrack::Worker(w),
                        phase: HostPhase::Barrier,
                        start_ns,
                        dur_ns: wait,
                    });
                    if serial_ns > 0 {
                        scratch.slices.push(HostSlice {
                            track: HostTrack::Worker(w),
                            phase: HostPhase::Route,
                            start_ns: start_ns + wait,
                            dur_ns: serial_ns,
                        });
                    }
                }
            }
            win += 1;
            now = to;
            if self.skip {
                // The barrier release orders this load after the serial
                // section's store. The group's pending skip ranges just
                // extend to the jump target.
                let jump = self.jump_to.0.load(MemOrder::Relaxed);
                if jump > now {
                    skipped += (jump - now) * group.len() as u64;
                    now = jump;
                }
            }
        }
        settle_lanes(group, self.end, scratch.as_mut());
        if let (Some(scratch), Some(t0)) = (scratch.as_mut(), t_busy) {
            scratch.prof.busy_ns = ns_since(t0);
        }
        Some(GroupRun {
            stepped,
            skipped,
            windows: win,
            scratch,
        })
    }

    /// One lane's window: drain its mailbox row into the inbox, then
    /// either skip (when the shard's horizon and inbox both clear the
    /// window) or settle the pending skip range, run the model, refresh
    /// the cached horizon and publish the produced envelopes straight
    /// into the exchange.
    fn step_lane<S: Shard<Msg = M>>(
        &self,
        lane: &mut Lane<'_, S>,
        from: Cycle,
        to: Cycle,
    ) -> StepOutcome {
        self.exchange.drain_row(lane.i, lane.inbox);
        if self.skip && lane.horizon() >= to {
            // Nothing can happen in [from, to): the window joins the lane's
            // pending skip range. No outbox is created — a quiescent shard
            // emits nothing, so the sequence counter is untouched and
            // delivery order is unchanged.
            return StepOutcome {
                skipped: true,
                settle_ns: 0,
                routed_due: u64::MAX,
                routed: 0,
            };
        }
        let settle_ns = lane.settle(from, self.epoch.is_some());
        let buf = std::mem::take(lane.slab);
        let mut outbox = Outbox::new(lane.i, to, *lane.seq, buf);
        lane.shard.run_window(from, to, lane.inbox, &mut outbox);
        *lane.seq = outbox.next_seq;
        lane.settled = to;
        if self.skip {
            lane.horizon = lane.shard.next_event(to).unwrap_or(u64::MAX);
        }
        // Debug-build horizon cross-check: every envelope emitted this window
        // must respect the statically derived contract — reachable pair, and
        // timestamp no earlier than window start + the pair/class floor. This
        // is the runtime half of lint code SL0421: both sides evaluate the
        // same `HorizonContract`, so a static "clean" verdict and a quiet
        // debug run certify the same predicate.
        #[cfg(debug_assertions)]
        if let Some((contract, classify)) = self.contract {
            for env in &outbox.envelopes {
                let floor = contract.floor(env.from, env.to, classify(&env.msg));
                assert!(
                    floor != u64::MAX,
                    "horizon contract: shard {} must never message shard {}",
                    env.from,
                    env.to
                );
                assert!(
                    env.at >= from.saturating_add(floor),
                    "horizon contract: shard {} message to {} timestamped {} \
                     under-runs floor {} from window start {}",
                    env.from,
                    env.to,
                    env.at,
                    floor,
                    from
                );
            }
        }
        let (routed_due, routed) = self.exchange.publish(lane.i, &mut outbox.envelopes);
        // The drained buffer (empty, capacity intact) goes back in the slab.
        *lane.slab = outbox.envelopes;
        StepOutcome {
            skipped: false,
            settle_ns,
            routed_due,
            routed,
        }
    }

    /// The barrier's serial section, run by the last group to arrive at
    /// the end of the window `[.., to)`: whole-run fast-forward — if
    /// every shard, every undelivered message, and every just-published
    /// envelope is beyond `to`, the next window starts at the earliest of
    /// them instead of grinding out empty windows — plus, when
    /// profiling, the window's telemetry. O(1), since routing already
    /// happened inside each group's step. Returns the nanoseconds it took
    /// when profiling, else 0.
    fn close_window(&self, to: Cycle, sampled: bool, t_arrive: Option<Instant>) -> u64 {
        let t_serial = self.epoch.map(|_| Instant::now());
        let mut jump = to;
        if self.skip {
            let h = self.horizon.0.swap(u64::MAX, MemOrder::AcqRel);
            jump = if h > to { h.min(self.end) } else { to };
            self.jump_to.0.store(jump, MemOrder::Relaxed);
        }
        let (Some(epoch), Some(t0)) = (self.epoch, t_serial) else {
            return 0;
        };
        let n_envs = self.routed.0.swap(0, MemOrder::AcqRel);
        let mut tel = self.telemetry.lock().expect("prof telemetry lock");
        tel.windows += 1;
        tel.envelopes_total += n_envs;
        tel.envelope_bytes += n_envs * self.env_bytes;
        if jump > to {
            tel.jumps += 1;
        }
        if sampled {
            let occ = self.occupancy.0.swap(0, MemOrder::AcqRel);
            tel.record_sampled(occ, self.n, n_envs);
            // Barrier-arrival spread: this group arrived last, so its own
            // arrival minus the published minimum spans all arrivers. A
            // lone group waits for nobody and records none.
            let first = self.first_arrival.0.swap(u64::MAX, MemOrder::AcqRel);
            if let (true, Some(me)) = (self.barrier.parties > 1, t_arrive) {
                let me = ns_between(epoch, me);
                if first <= me {
                    tel.spread.record((me - first) as f64);
                }
            }
        }
        ns_since(t0)
    }
}

/// Drives a set of shards with conservative window synchronization.
///
/// With cycle skipping enabled (the default), the engine additionally
/// exploits each shard's [`Shard::next_event`] horizon at two levels:
/// within a window, a shard whose horizon and inbox both clear the window
/// end skips it instead of stepping; and at window boundaries, when
/// *every* shard's horizon, every undelivered inbox message, and every
/// just-routed envelope lie beyond the boundary, the clock jumps straight
/// to the earliest of them (clamped to the run end). Both are provably
/// result-neutral: absolute timestamps and the `(at, from, seq)` delivery
/// order mean a cycle nobody acts in is indistinguishable from a cycle
/// that was never stepped.
///
/// A quiet shard costs O(1) per window. Its horizon is evaluated only
/// after it steps and is cached across the windows it skips, and an
/// unbroken run of skipped windows and jumps reaches the shard as one
/// [`Shard::skip_window`] call, made just before it next steps or before
/// the run returns. The [`Shard`] docs state the two rules this needs.
#[derive(Debug)]
pub struct ParallelEngine<S: Shard> {
    shards: Vec<S>,
    inboxes: Vec<Inbox<S::Msg>>,
    seqs: Vec<u64>,
    lookahead: Cycle,
    now: Cycle,
    skip_enabled: bool,
    stepped_cycles: u64,
    skipped_cycles: u64,
    windows: u64,
    // Persistent window-exchange state, held in the engine so per-call
    // (and in the cycle-stepped facade, per-cycle) invocations reuse the
    // allocations: the padded mailbox matrix lanes publish into, and each
    // lane's recycled outbox slab.
    exchange: Exchange<S::Msg>,
    slabs: Vec<Vec<Envelope<S::Msg>>>,
    // Host-side self-profiling. None (the default) costs one branch per
    // instrumentation site and reads no clocks.
    prof: Option<Box<EngineProfile>>,
    // Horizon contract + message classifier, enforced on every emitted
    // envelope in debug builds only; release builds carry the data but
    // never evaluate it.
    contract: Option<ContractCheck<S::Msg>>,
}

impl<S: Shard> ParallelEngine<S> {
    /// Creates an engine over `shards` with the given `lookahead` (minimum
    /// cross-shard message latency, in cycles).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or `lookahead` is zero.
    pub fn new(shards: Vec<S>, lookahead: Cycle) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(lookahead > 0, "lookahead must be positive");
        let inboxes = shards.iter().map(|_| Inbox::default()).collect();
        let seqs = vec![0; shards.len()];
        let exchange = Exchange::new(shards.len());
        let slabs = shards.iter().map(|_| Vec::new()).collect();
        Self {
            shards,
            inboxes,
            seqs,
            lookahead,
            now: 0,
            skip_enabled: true,
            stepped_cycles: 0,
            skipped_cycles: 0,
            windows: 0,
            exchange,
            slabs,
            prof: None,
            contract: None,
        }
    }

    /// Installs a horizon contract and the classifier mapping each message
    /// to its contract class. Debug builds then assert, for every emitted
    /// envelope, that the destination is reachable and the timestamp
    /// clears window-start + the contract floor; release builds ignore it.
    ///
    /// # Panics
    ///
    /// Panics if the contract covers a different number of shards.
    pub fn set_contract(&mut self, contract: HorizonContract, classify: fn(&S::Msg) -> usize) {
        assert_eq!(
            contract.shards(),
            self.shards.len(),
            "contract shard count mismatch"
        );
        self.contract = Some((contract, classify));
    }

    /// Removes an installed horizon contract (for A/B-testing that the
    /// checker is observation-only).
    pub fn clear_contract(&mut self) {
        self.contract = None;
    }

    /// The installed horizon contract, if any.
    pub fn contract(&self) -> Option<&HorizonContract> {
        self.contract.as_ref().map(|(c, _)| c)
    }

    /// Window boundaries processed so far, across all runs. Every worker
    /// observes the same boundaries (the barrier keeps them in lockstep),
    /// so this is a property of the run, not of the worker count.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Enables (or, with a disabled config, tears down) host-side
    /// self-profiling. Profiling is read-only with respect to the
    /// simulation — results stay bit-identical — and accumulates across
    /// subsequent [`run_windowed`](Self::run_windowed) calls.
    pub fn enable_profiling(&mut self, config: ProfConfig) {
        self.prof = if config.enabled {
            Some(Box::new(EngineProfile::new(config, self.shards.len())))
        } else {
            None
        };
    }

    /// The accumulated host-side profile, when profiling is enabled.
    pub fn profile(&self) -> Option<&EngineProfile> {
        self.prof.as_deref()
    }

    /// Enables or disables event-horizon cycle skipping (default: on).
    /// Results are bit-identical either way; off exists for A/B timing and
    /// for flushing out horizon bugs.
    pub fn set_skip_enabled(&mut self, enabled: bool) {
        self.skip_enabled = enabled;
    }

    /// Whether event-horizon cycle skipping is active.
    pub fn skip_enabled(&self) -> bool {
        self.skip_enabled
    }

    /// Shard-cycles executed through `run_window` (one unit = one shard
    /// advanced one cycle the slow way).
    pub fn stepped_cycles(&self) -> u64 {
        self.stepped_cycles
    }

    /// Shard-cycles fast-forwarded through `skip_window`.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Fraction of shard-cycles skipped so far (0 when nothing ran).
    pub fn skip_ratio(&self) -> f64 {
        let total = self.stepped_cycles + self.skipped_cycles;
        if total == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / total as f64
        }
    }

    /// Current simulation time (start of the next window).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Shared view of the shards (for collecting statistics).
    pub fn shards(&self) -> &[S] {
        &self.shards
    }

    /// Exclusive view of the shards.
    pub fn shards_mut(&mut self) -> &mut [S] {
        &mut self.shards
    }

    /// Consumes the engine and returns its shards.
    pub fn into_shards(self) -> Vec<S> {
        self.shards
    }

    /// Cross-shard messages routed but not yet consumed by any shard.
    pub fn pending_messages(&self) -> usize {
        self.inboxes.iter().map(Inbox::len).sum()
    }

    /// The windowing core: advances all shards by `cycles` using up to
    /// `workers` host threads (clamped to `1..=shards`). The shards split
    /// into contiguous groups, one per worker, and every group runs the
    /// same window loop: one group on the calling thread, more on scoped
    /// threads that synchronize at window boundaries with a barrier and
    /// publish envelopes through the mailbox exchange as part of their
    /// own steps — the barrier's serial section only folds horizons.
    /// Results are bit-identical for every worker count.
    pub fn run_windowed(&mut self, cycles: Cycle, workers: usize) {
        let end = self.now + cycles;
        if self.now >= end {
            return;
        }
        let n = self.shards.len();
        let group_size = n.div_ceil(workers.clamp(1, n));
        let groups = n.div_ceil(group_size);
        let start = self.now;
        let skip = self.skip_enabled;
        let lookahead = self.lookahead;
        let Self {
            shards,
            inboxes,
            seqs,
            exchange,
            slabs,
            prof,
            contract,
            ..
        } = self;
        let mut prof = prof.as_deref_mut();
        let window_loop = WindowLoop {
            start,
            end,
            lookahead,
            skip,
            n,
            exchange,
            contract: contract.as_ref(),
            epoch: prof.as_ref().map(|p| p.epoch()),
            sample_every: prof.as_ref().map_or(1, |p| p.config().sample_every.max(1)),
            base_windows: prof.as_ref().map_or(0, |p| p.telemetry().windows),
            env_bytes: std::mem::size_of::<Envelope<S::Msg>>() as u64,
            barrier: SpinBarrier::new(groups),
            horizon: CachePadded(AtomicU64::new(u64::MAX)),
            jump_to: CachePadded(AtomicU64::new(0)),
            first_arrival: CachePadded(AtomicU64::new(u64::MAX)),
            occupancy: CachePadded(AtomicUsize::new(0)),
            routed: CachePadded(AtomicU64::new(0)),
            telemetry: Mutex::new(Telemetry::default()),
        };

        // The facade may have changed any shard since the last call, so
        // every cached horizon starts fresh.
        let mut lanes: Vec<Lane<'_, S>> = shards
            .iter_mut()
            .zip(inboxes.iter_mut())
            .zip(seqs.iter_mut())
            .zip(slabs.iter_mut())
            .enumerate()
            .map(|(i, (((shard, inbox), seq), slab))| Lane {
                i,
                horizon: if skip {
                    shard.next_event(start).unwrap_or(u64::MAX)
                } else {
                    u64::MAX
                },
                settled: start,
                shard,
                inbox,
                seq,
                slab,
            })
            .collect();
        let (mut stepped, mut skipped, mut windows) = (0u64, 0u64, 0u64);
        let mut absorb = |run: GroupRun| {
            stepped += run.stepped;
            skipped += run.skipped;
            // Every group counts the same boundaries (lockstep).
            windows = run.windows;
            if let (Some(p), Some(scratch)) = (prof.as_deref_mut(), run.scratch) {
                p.merge_scratch(scratch);
            }
        };
        if groups == 1 {
            // A lone party never waits, so its barrier is never poisoned.
            absorb(window_loop.run_group(0, &mut lanes).expect("lone group"));
        } else {
            std::thread::scope(|scope| {
                let window_loop = &window_loop;
                let handles: Vec<_> = lanes
                    .chunks_mut(group_size)
                    .enumerate()
                    .map(|(w, group)| scope.spawn(move || window_loop.run_group(w, group)))
                    .collect();
                // Joined in worker order, so the profile merge order is
                // independent of thread finish order. A group that left a
                // poisoned barrier returns `None`; the group that panicked
                // returns its payload, which the run re-raises.
                for handle in handles {
                    match handle.join() {
                        Ok(Some(run)) => absorb(run),
                        Ok(None) => {}
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
            });
        }
        if let Some(p) = prof {
            let telemetry = window_loop.telemetry.into_inner();
            p.merge_telemetry(&telemetry.expect("prof telemetry lock"));
        }
        // Anything published in the final window still sits in the
        // mailbox matrix: deliver it so a later run (any worker count)
        // sees it.
        drop(lanes);
        exchange.drain_all(inboxes);
        self.stepped_cycles += stepped;
        self.skipped_cycles += skipped;
        self.windows += windows;
        self.now = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prof::ProfileReport;

    /// Toy model: each shard holds a counter; every cycle it adds what it
    /// receives and every `lookahead` cycles sends its parity to the next
    /// shard around a ring.
    struct RingShard {
        id: usize,
        n: usize,
        counter: u64,
        log: Vec<(Cycle, u64)>,
    }

    impl Shard for RingShard {
        type Msg = u64;

        fn run_window(
            &mut self,
            from: Cycle,
            to: Cycle,
            inbox: &mut Inbox<u64>,
            outbox: &mut Outbox<u64>,
        ) {
            for now in from..to {
                while let Some(v) = inbox.pop_due(now) {
                    self.counter = self.counter.wrapping_mul(31).wrapping_add(v);
                    self.log.push((now, self.counter));
                }
            }
            outbox.send((self.id + 1) % self.n, to, self.counter % 97);
        }
    }

    fn make_ring(n: usize) -> Vec<RingShard> {
        (0..n)
            .map(|id| RingShard {
                id,
                n,
                counter: id as u64 + 1,
                log: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn every_worker_count_matches_sequential() {
        let mut seq = ParallelEngine::new(make_ring(8), 4);
        seq.run_windowed(1000, 1);
        for workers in [2, 3, 5, 8, 64] {
            let mut par = ParallelEngine::new(make_ring(8), 4);
            par.run_windowed(1000, workers);
            for (p, s) in par.shards().iter().zip(seq.shards().iter()) {
                assert_eq!(p.counter, s.counter, "{workers} workers diverged");
                assert_eq!(p.log, s.log, "{workers} workers diverged");
            }
        }
    }

    #[test]
    fn messages_actually_flow() {
        let mut eng = ParallelEngine::new(make_ring(4), 2);
        eng.run_windowed(100, 4);
        assert!(eng.shards().iter().all(|s| !s.log.is_empty()));
        assert_eq!(eng.now(), 100);
    }

    #[test]
    fn window_clamps_to_run_end() {
        let mut eng = ParallelEngine::new(make_ring(2), 64);
        eng.run_windowed(10, 1);
        assert_eq!(eng.now(), 10);
    }

    #[test]
    fn single_cycle_windows_match_full_lookahead_windows() {
        // Absolute timestamps make the window length irrelevant to results
        // — for models that emit per simulated cycle (as the chip shards
        // do), not per window. Chop the same run into 1-cycle slices and
        // compare against full-lookahead windows.
        struct Pulse {
            id: usize,
            n: usize,
            acc: u64,
            log: Vec<(Cycle, u64)>,
        }
        impl Shard for Pulse {
            type Msg = u64;
            fn run_window(
                &mut self,
                from: Cycle,
                to: Cycle,
                inbox: &mut Inbox<u64>,
                outbox: &mut Outbox<u64>,
            ) {
                for now in from..to {
                    while let Some(v) = inbox.pop_due(now) {
                        self.acc = self.acc.wrapping_mul(31).wrapping_add(v);
                        self.log.push((now, self.acc));
                    }
                    if now % 3 == self.id as u64 % 3 {
                        outbox.send((self.id + 1) % self.n, now + 4, self.acc % 101);
                    }
                }
            }
        }
        let mk = |n: usize| {
            (0..n)
                .map(|id| Pulse {
                    id,
                    n,
                    acc: id as u64 + 1,
                    log: Vec::new(),
                })
                .collect::<Vec<_>>()
        };
        let mut whole = ParallelEngine::new(mk(6), 4);
        whole.run_windowed(400, 1);
        let mut sliced = ParallelEngine::new(mk(6), 4);
        for _ in 0..400 {
            sliced.run_windowed(1, 1);
        }
        for (a, b) in whole.shards().iter().zip(sliced.shards().iter()) {
            assert_eq!(a.acc, b.acc);
            assert_eq!(a.log, b.log);
        }
    }

    #[test]
    fn delivery_order_is_independent_of_arrival_order() {
        // Four same-cycle envelopes from different (source, sequence)
        // points; every arrival permutation must pop identically.
        let envs: Vec<Envelope<u64>> = vec![
            Envelope {
                at: 5,
                to: 0,
                from: 2,
                seq: 0,
                msg: 20,
            },
            Envelope {
                at: 5,
                to: 0,
                from: 0,
                seq: 1,
                msg: 1,
            },
            Envelope {
                at: 5,
                to: 0,
                from: 0,
                seq: 0,
                msg: 0,
            },
            Envelope {
                at: 3,
                to: 0,
                from: 7,
                seq: 9,
                msg: 79,
            },
        ];
        let expected = [79, 0, 1, 20]; // (at, from, seq) ascending
        fn permute(k: usize, arr: &mut Vec<Envelope<u64>>, out: &mut Vec<Vec<Envelope<u64>>>) {
            if k <= 1 {
                out.push(arr.clone());
                return;
            }
            for i in 0..k {
                permute(k - 1, arr, out);
                let swap = if k.is_multiple_of(2) { i } else { 0 };
                arr.swap(swap, k - 1);
            }
        }
        let mut perms = Vec::new();
        permute(envs.len(), &mut envs.clone(), &mut perms);
        assert_eq!(perms.len(), 24);
        for perm in perms {
            let mut inbox = Inbox::default();
            inbox.push_all(perm);
            let mut got = Vec::new();
            while let Some(m) = inbox.pop_due(10) {
                got.push(m);
            }
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn sequence_counters_persist_across_windows() {
        // Two separate windows emitting at the same future timestamp must
        // still have distinct, ordered sequence numbers.
        struct Burst {
            sender: bool,
            got: Vec<u64>,
        }
        impl Shard for Burst {
            type Msg = u64;
            fn run_window(
                &mut self,
                from: Cycle,
                to: Cycle,
                inbox: &mut Inbox<u64>,
                outbox: &mut Outbox<u64>,
            ) {
                for now in from..to {
                    while let Some(v) = inbox.pop_due(now) {
                        self.got.push(v);
                    }
                }
                if self.sender && from < 15 {
                    // The first three windows all land messages at t=20.
                    outbox.send(1, 20.max(to), from);
                }
            }
        }
        let mk = || {
            vec![
                Burst {
                    sender: true,
                    got: Vec::new(),
                },
                Burst {
                    sender: false,
                    got: Vec::new(),
                },
            ]
        };
        let mut seq = ParallelEngine::new(mk(), 5);
        seq.run_windowed(40, 1);
        let mut par = ParallelEngine::new(mk(), 5);
        par.run_windowed(40, 2);
        assert_eq!(seq.shards()[1].got, par.shards()[1].got);
        assert_eq!(seq.shards()[1].got, vec![0, 5, 10]);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn outbox_rejects_early_timestamps() {
        let mut outbox: Outbox<()> = Outbox::new(0, 10, 0, Vec::new());
        outbox.send(0, 9, ());
    }

    #[test]
    #[should_panic(expected = "lookahead must be positive")]
    fn zero_lookahead_rejected() {
        let _ = ParallelEngine::new(make_ring(2), 0);
    }

    #[test]
    fn into_shards_returns_state() {
        let mut eng = ParallelEngine::new(make_ring(3), 1);
        eng.run_windowed(5, 1);
        let shards = eng.into_shards();
        assert_eq!(shards.len(), 3);
    }

    /// Toy model with a real horizon: wakes every `period` cycles, pings
    /// the next shard (due two windows out), and tracks idle cycles the
    /// way the chip shards track stall/idle counters — so a horizon bug
    /// would show up as diverging state, not just timing.
    struct Sleeper {
        id: usize,
        n: usize,
        period: Cycle,
        idle_cycles: u64,
        acc: u64,
        log: Vec<(Cycle, u64)>,
    }

    impl Sleeper {
        fn awake_at(&self, now: Cycle) -> Cycle {
            now.next_multiple_of(self.period)
        }
    }

    impl Shard for Sleeper {
        type Msg = u64;

        fn run_window(
            &mut self,
            from: Cycle,
            to: Cycle,
            inbox: &mut Inbox<u64>,
            outbox: &mut Outbox<u64>,
        ) {
            for now in from..to {
                let mut acted = false;
                while let Some(v) = inbox.pop_due(now) {
                    self.acc = self.acc.wrapping_mul(31).wrapping_add(v);
                    self.log.push((now, self.acc));
                    acted = true;
                }
                if now.is_multiple_of(self.period) {
                    outbox.send((self.id + 1) % self.n, now + 2 * self.period, self.acc % 89);
                    acted = true;
                }
                if !acted {
                    self.idle_cycles += 1;
                }
            }
        }

        fn next_event(&self, now: Cycle) -> Option<Cycle> {
            Some(self.awake_at(now))
        }

        fn skip_window(&mut self, from: Cycle, to: Cycle) {
            debug_assert!(self.awake_at(from) >= to, "skipped past a wakeup");
            self.idle_cycles += to - from;
        }
    }

    fn make_sleepers(n: usize, period: Cycle) -> Vec<Sleeper> {
        (0..n)
            .map(|id| Sleeper {
                id,
                n,
                period,
                idle_cycles: 0,
                acc: id as u64 + 7,
                log: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn skipping_is_bit_identical_and_actually_skips() {
        // Long sleep periods relative to the 2-cycle lookahead: the engine
        // should fast-forward most of the run yet reproduce the no-skip
        // states exactly, for every worker count.
        let mut base = ParallelEngine::new(make_sleepers(6, 64), 2);
        base.set_skip_enabled(false);
        base.run_windowed(5_000, 1);
        assert_eq!(base.skipped_cycles(), 0);
        for workers in [1, 2, 6] {
            let mut eng = ParallelEngine::new(make_sleepers(6, 64), 2);
            eng.run_windowed(5_000, workers);
            assert!(
                eng.skipped_cycles() > eng.stepped_cycles(),
                "{workers} workers: skipped {} vs stepped {}",
                eng.skipped_cycles(),
                eng.stepped_cycles()
            );
            for (a, b) in eng.shards().iter().zip(base.shards().iter()) {
                assert_eq!(a.acc, b.acc, "{workers} workers diverged");
                assert_eq!(a.log, b.log, "{workers} workers diverged");
                assert_eq!(a.idle_cycles, b.idle_cycles, "{workers} workers diverged");
            }
            assert_eq!(eng.now(), base.now());
            assert_eq!(eng.pending_messages(), base.pending_messages());
        }
    }

    /// A [`Sleeper`] that logs how the engine drives it: the windows it
    /// steps, the ranges it skips, and how often its horizon is asked
    /// for. A `busy` one declares itself always active, so the clock
    /// never jumps and every window reaches the quiet ones.
    struct Counted {
        sleeper: Sleeper,
        busy: bool,
        steps: Vec<(Cycle, Cycle)>,
        skips: Vec<(Cycle, Cycle)>,
        horizon_calls: std::cell::Cell<u64>,
    }

    impl Shard for Counted {
        type Msg = u64;

        fn run_window(
            &mut self,
            from: Cycle,
            to: Cycle,
            inbox: &mut Inbox<u64>,
            outbox: &mut Outbox<u64>,
        ) {
            self.steps.push((from, to));
            self.sleeper.run_window(from, to, inbox, outbox);
        }

        fn next_event(&self, now: Cycle) -> Option<Cycle> {
            self.horizon_calls.set(self.horizon_calls.get() + 1);
            if self.busy {
                Some(now)
            } else {
                self.sleeper.next_event(now)
            }
        }

        fn skip_window(&mut self, from: Cycle, to: Cycle) {
            self.skips.push((from, to));
            self.sleeper.skip_window(from, to);
        }
    }

    #[test]
    fn quiet_shards_cost_o1_per_window() {
        let cycles = 5_000;
        let mut base = ParallelEngine::new(make_sleepers(6, 64), 2);
        base.set_skip_enabled(false);
        base.run_windowed(cycles, 1);
        for workers in [1, 2, 4] {
            let shards = make_sleepers(6, 64)
                .into_iter()
                .map(|sleeper| Counted {
                    busy: sleeper.id == 0,
                    sleeper,
                    steps: Vec::new(),
                    skips: Vec::new(),
                    horizon_calls: std::cell::Cell::new(0),
                })
                .collect();
            let mut eng = ParallelEngine::new(shards, 2);
            eng.run_windowed(cycles, workers);
            assert_eq!(
                eng.windows(),
                cycles / 2,
                "the busy shard sees every window"
            );
            for (s, b) in eng.shards().iter().zip(base.shards()) {
                let id = s.sleeper.id;
                assert_eq!(s.sleeper.acc, b.acc, "{workers} workers, shard {id}");
                assert_eq!(s.sleeper.log, b.log, "{workers} workers, shard {id}");
                assert_eq!(
                    s.sleeper.idle_cycles, b.idle_cycles,
                    "{workers} workers, shard {id}"
                );
                // Stepped windows and skipped ranges tile the run, and no
                // two skipped ranges touch: each unbroken run of skipped
                // windows reached the shard as one call.
                let mut spans: Vec<(Cycle, Cycle, bool)> =
                    s.steps.iter().map(|&(f, t)| (f, t, false)).collect();
                spans.extend(s.skips.iter().map(|&(f, t)| (f, t, true)));
                spans.sort_unstable();
                let mut at = 0;
                for (i, &(from, to, skipped)) in spans.iter().enumerate() {
                    assert_eq!(from, at, "{workers} workers, shard {id}: gap or overlap");
                    assert!(
                        !(skipped && i > 0 && spans[i - 1].2),
                        "{workers} workers, shard {id}: adjacent skips at {from}"
                    );
                    at = to;
                }
                assert_eq!(at, cycles);
                // One horizon per run start and per step, plus one debug
                // recheck per applied skip range: never one per window.
                let (steps, runs) = (s.steps.len() as u64, s.skips.len() as u64);
                assert!(
                    s.horizon_calls.get() <= 1 + steps + runs,
                    "{workers} workers, shard {id}: {} horizon calls for {steps} steps and \
                     {runs} skip ranges",
                    s.horizon_calls.get()
                );
                if id != 0 {
                    assert!(
                        8 * (steps + runs) < eng.windows(),
                        "shard {id} is not quiet"
                    );
                }
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "horizon moved across the skipped range")]
    fn a_horizon_that_drifts_across_a_skip_panics_in_debug() {
        // A horizon always ten cycles out breaks the stability rule the
        // cache relies on: after skipping to `t` it reads `t + 10`.
        struct Drifter;
        impl Shard for Drifter {
            type Msg = ();
            fn run_window(&mut self, _: Cycle, _: Cycle, _: &mut Inbox<()>, _: &mut Outbox<()>) {}
            fn next_event(&self, now: Cycle) -> Option<Cycle> {
                Some(now + 10)
            }
        }
        ParallelEngine::new(vec![Drifter], 2).run_windowed(100, 1);
    }

    #[test]
    fn skip_counters_account_for_every_shard_cycle() {
        let mut eng = ParallelEngine::new(make_sleepers(4, 32), 2);
        eng.run_windowed(1_000, 1);
        assert_eq!(eng.stepped_cycles() + eng.skipped_cycles(), 4 * 1_000);
        assert!(eng.skip_ratio() > 0.5);
        let mut off = ParallelEngine::new(make_sleepers(4, 32), 2);
        off.set_skip_enabled(false);
        off.run_windowed(1_000, 1);
        assert_eq!(off.stepped_cycles(), 4 * 1_000);
        assert_eq!(off.skip_ratio(), 0.0);
    }

    #[test]
    fn default_horizon_never_skips() {
        // RingShard keeps the default `Some(now)` horizon, so skipping
        // stays inert even though it is enabled by default.
        let mut eng = ParallelEngine::new(make_ring(4), 4);
        assert!(eng.skip_enabled());
        eng.run_windowed(200, 1);
        assert_eq!(eng.skipped_cycles(), 0);
        assert_eq!(eng.stepped_cycles(), 4 * 200);
    }

    #[test]
    fn resumed_runs_still_skip_identically() {
        // Chop one run into many `run_windowed` calls (as the chip's
        // chunked is_done grid does) and compare against one long call.
        let mut whole = ParallelEngine::new(make_sleepers(5, 48), 2);
        whole.run_windowed(4_096, 1);
        let mut chopped = ParallelEngine::new(make_sleepers(5, 48), 2);
        for _ in 0..4 {
            chopped.run_windowed(1_024, 2);
        }
        for (a, b) in whole.shards().iter().zip(chopped.shards().iter()) {
            assert_eq!(a.acc, b.acc);
            assert_eq!(a.log, b.log);
            assert_eq!(a.idle_cycles, b.idle_cycles);
        }
    }

    #[test]
    fn profiling_is_bit_identical_and_accounts_every_nanosecond() {
        let mut base = ParallelEngine::new(make_sleepers(6, 64), 2);
        base.run_windowed(5_000, 1);
        for workers in [1, 3, 6] {
            let mut eng = ParallelEngine::new(make_sleepers(6, 64), 2);
            eng.enable_profiling(ProfConfig::on());
            eng.run_windowed(5_000, workers);
            for (a, b) in eng.shards().iter().zip(base.shards().iter()) {
                assert_eq!(a.acc, b.acc, "{workers} workers diverged");
                assert_eq!(a.log, b.log, "{workers} workers diverged");
                assert_eq!(a.idle_cycles, b.idle_cycles, "{workers} workers diverged");
            }
            let report = eng.profile().expect("profiling enabled").report();
            // The named buckets are disjoint sub-intervals of each
            // worker's busy interval and `other` is the remainder, so the
            // partition is exact, not approximate.
            assert_eq!(report.phases().total(), report.total_ns());
            for w in &report.workers {
                assert_eq!(w.named_ns() + w.other_ns(), w.busy_ns);
            }
            let tel = &report.telemetry;
            assert!(tel.windows > 0, "{workers} workers saw no windows");
            assert_eq!(tel.sampled_windows, tel.windows); // sample_every = 1
            assert_eq!(tel.occupancy.iter().sum::<u64>(), tel.sampled_windows);
            // Every shard either steps or skips in every window boundary.
            for s in &report.shards {
                assert_eq!(s.windows_stepped + s.windows_skipped, tel.windows);
            }
            assert!(tel.envelopes_total > 0);
            assert!(tel.jumps > 0, "sleepers should trigger whole-run jumps");
            assert_eq!(report.workers.len(), workers, "one account per group");
            for w in &report.workers {
                assert_eq!(w.windows, tel.windows, "groups run in lockstep");
            }
            if workers > 1 {
                assert!(tel.spread.count() > 0, "no barrier spread samples");
            } else {
                assert_eq!(tel.spread.count(), 0, "a lone group waits for nobody");
            }
        }
    }

    /// A profiled run of `shards` at `workers` workers, sampling every
    /// third window so sampled and unsampled windows both occur.
    fn profiled<S: Shard>(shards: Vec<S>, workers: usize) -> ProfileReport {
        let mut cfg = ProfConfig::on();
        cfg.sample_every = 3;
        let mut eng = ParallelEngine::new(shards, 2);
        eng.enable_profiling(cfg);
        eng.run_windowed(5_000, workers);
        eng.profile().expect("profiling enabled").report()
    }

    /// Asserts that `run` at workers {2, 3, 6} crosses the same windows
    /// as at one worker: everything but host time matches.
    fn assert_same_windows(model: &str, run: impl Fn(usize) -> ProfileReport) {
        let one = run(1);
        assert_eq!(one.workers.len(), 1, "{model}: one worker account");
        let spread = one.telemetry.spread.count();
        assert_eq!(spread, 0, "{model}: spread at one worker");
        assert!(one.telemetry.sampled_windows > 0);
        for workers in [2, 3, 6] {
            let r = run(workers);
            let (a, b) = (&r.telemetry, &one.telemetry);
            let at = format!("{model} at {workers} workers");
            assert_eq!(a.windows, b.windows, "{at}");
            assert_eq!(a.sampled_windows, b.sampled_windows, "{at}");
            assert_eq!(a.jumps, b.jumps, "{at}");
            assert_eq!(a.occupancy, b.occupancy, "{at}");
            assert_eq!(a.envelopes, b.envelopes, "{at}");
            assert_eq!(a.envelopes_total, b.envelopes_total, "{at}");
            assert_eq!(a.envelope_bytes, b.envelope_bytes, "{at}");
            assert!(a.spread.count() > 0, "{at}: no spread samples");
            for (s, t) in r.shards.iter().zip(&one.shards) {
                assert_eq!(s.windows_stepped, t.windows_stepped, "{at}");
                assert_eq!(s.windows_skipped, t.windows_skipped, "{at}");
            }
        }
    }

    #[test]
    fn every_worker_count_runs_the_same_windows() {
        // One group on the calling thread and several on scoped threads
        // run one loop.
        assert_same_windows("sleepers", |w| profiled(make_sleepers(6, 64), w));
        assert_same_windows("ring", |w| profiled(make_ring(6), w));
    }

    #[test]
    fn disabled_profiling_reports_nothing() {
        let mut eng = ParallelEngine::new(make_sleepers(4, 32), 2);
        assert!(eng.profile().is_none());
        eng.enable_profiling(ProfConfig::off());
        eng.run_windowed(1_000, 1);
        assert!(eng.profile().is_none());
    }

    #[test]
    fn sampling_stride_thins_histograms_not_totals() {
        let mut cfg = ProfConfig::on();
        cfg.sample_every = 8;
        let mut eng = ParallelEngine::new(make_ring(4), 2);
        eng.enable_profiling(cfg);
        eng.run_windowed(400, 2);
        let r = eng.profile().expect("profiling enabled").report();
        // 200 windows, every 8th sampled starting at 0 → 25 samples; the
        // phase totals still cover every window.
        assert_eq!(r.telemetry.windows, 200);
        assert_eq!(r.telemetry.sampled_windows, 25);
        assert!(r.phases().total() > 0);
        for w in &r.workers {
            assert_eq!(w.windows, 200);
        }
    }

    #[test]
    fn sampling_stride_continues_across_calls() {
        // 300 windows, every 4th sampled: 75 samples whether the run is
        // one call or six, since each call resumes the profile's stride.
        let sampled = |calls: u64, workers: usize| {
            let mut cfg = ProfConfig::on();
            cfg.sample_every = 4;
            let mut eng = ParallelEngine::new(make_ring(4), 2);
            eng.enable_profiling(cfg);
            for _ in 0..calls {
                eng.run_windowed(600 / calls, workers);
            }
            let tel = eng.profile().expect("profiling enabled").report().telemetry;
            assert_eq!(tel.windows, 300);
            tel.sampled_windows
        };
        for workers in [1, 2] {
            assert_eq!(sampled(1, workers), 75, "{workers} workers");
            assert_eq!(sampled(6, workers), 75, "{workers} workers");
        }
    }

    #[test]
    fn one_group_runs_on_the_calling_thread() {
        // One worker costs no thread; two workers run each group on a
        // scoped thread of its own.
        struct Where(Vec<std::thread::ThreadId>);
        impl Shard for Where {
            type Msg = ();
            fn run_window(&mut self, _: Cycle, _: Cycle, _: &mut Inbox<()>, _: &mut Outbox<()>) {
                self.0.push(std::thread::current().id());
            }
        }
        let here = std::thread::current().id();
        let threads = |workers: usize| {
            let mut eng = ParallelEngine::new(vec![Where(Vec::new()), Where(Vec::new())], 2);
            eng.run_windowed(10, workers);
            eng.into_shards()
                .into_iter()
                .flat_map(|w| w.0)
                .collect::<std::collections::HashSet<_>>()
        };
        assert_eq!(threads(1), [here].into());
        let two = threads(2);
        assert_eq!(two.len(), 2);
        assert!(!two.contains(&here));
    }

    /// The satisfiable contract for `make_ring(n)` with a given lookahead:
    /// each shard only messages its ring successor, at exactly the window
    /// end (= window start + lookahead).
    fn ring_contract(n: usize, lookahead: u64) -> HorizonContract {
        let mut c = HorizonContract::unreachable(n);
        for id in 0..n {
            c.allow(id, (id + 1) % n, lookahead);
        }
        c.set_class_floors(vec![lookahead]);
        c
    }

    #[test]
    fn satisfied_contract_is_observation_only() {
        let mut plain = ParallelEngine::new(make_ring(6), 4);
        plain.run_windowed(500, 1);
        for workers in [1, 3, 6] {
            let mut eng = ParallelEngine::new(make_ring(6), 4);
            eng.set_contract(ring_contract(6, 4), |_| 0);
            assert!(eng.contract().is_some());
            eng.run_windowed(500, workers);
            for (a, b) in eng.shards().iter().zip(plain.shards().iter()) {
                assert_eq!(a.counter, b.counter, "{workers} workers diverged");
                assert_eq!(a.log, b.log, "{workers} workers diverged");
            }
        }
        let mut cleared = ParallelEngine::new(make_ring(6), 4);
        cleared.set_contract(ring_contract(6, 4), |_| 0);
        cleared.clear_contract();
        assert!(cleared.contract().is_none());
        cleared.run_windowed(500, 1);
        assert_eq!(cleared.shards()[0].counter, plain.shards()[0].counter);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "under-runs floor")]
    fn contract_floor_violation_panics_in_debug() {
        // RingShard emits at the window end (start + 4); a class floor of
        // 9 promises more delay than the model delivers.
        let mut c = ring_contract(4, 4);
        c.set_class_floors(vec![9]);
        let mut eng = ParallelEngine::new(make_ring(4), 4);
        eng.set_contract(c, |_| 0);
        eng.run_windowed(8, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "must never message")]
    fn contract_unreachable_pair_panics_in_debug() {
        let mut eng = ParallelEngine::new(make_ring(4), 4);
        eng.set_contract(HorizonContract::unreachable(4), |_| 0);
        eng.run_windowed(8, 1);
    }

    #[test]
    #[should_panic(expected = "contract shard count mismatch")]
    fn contract_shard_count_is_checked() {
        let mut eng = ParallelEngine::new(make_ring(4), 4);
        eng.set_contract(HorizonContract::unreachable(5), |_| 0);
    }

    #[test]
    fn a_panicking_group_fails_the_run_instead_of_hanging_it() {
        struct Faulty(usize);
        impl Shard for Faulty {
            type Msg = ();
            fn run_window(
                &mut self,
                from: Cycle,
                to: Cycle,
                _: &mut Inbox<()>,
                _: &mut Outbox<()>,
            ) {
                assert!(
                    self.0 != 1 || !(from..to).contains(&6),
                    "shard 1 fails at cycle 6"
                );
            }
        }
        // On a helper thread, so a hang fails the test instead of
        // blocking it.
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let mut engine = ParallelEngine::new(vec![Faulty(0), Faulty(1)], 2);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.run_windowed(100, 2);
            }));
            let message = result.err().map(|payload| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("run_windowed hung after a worker panicked");
        helper.join().expect("helper thread");
        assert_eq!(message.as_deref(), Some("shard 1 fails at cycle 6"));
    }

    #[test]
    fn spin_budget_adapts_to_party_count_and_host() {
        // Nothing to wait for: never spin.
        assert_eq!(SpinBarrier::spin_budget(1, 8), 0);
        // Oversubscribed: a spinner only steals cycles from the party it
        // is waiting for, so yield on every check.
        assert_eq!(SpinBarrier::spin_budget(16, 8), 0);
        assert_eq!(SpinBarrier::spin_budget(2, 1), 0);
        // More parties -> earlier yield, but never below the floor.
        let two = SpinBarrier::spin_budget(2, 64);
        let eight = SpinBarrier::spin_budget(8, 64);
        let sixty_four = SpinBarrier::spin_budget(64, 64);
        assert!(two >= eight && eight >= sixty_four);
        assert!(sixty_four >= SpinBarrier::SPIN_MIN);
    }

    #[test]
    fn one_party_barrier_never_spins() {
        let barrier = SpinBarrier::new(1);
        // A lone party gets zero spins...
        assert_eq!(barrier.spins_per_yield, 0);
        // ...and a lone party is always the last arriver, so the wait
        // loop is unreachable: the serial section runs inline every time.
        let mut ran = 0u32;
        for _ in 0..3 {
            barrier.wait_with(|| ran += 1);
        }
        assert_eq!(ran, 3);
    }

    #[test]
    fn pending_messages_counts_undelivered_envelopes() {
        let mut eng = ParallelEngine::new(make_ring(2), 8);
        assert_eq!(eng.pending_messages(), 0);
        eng.run_windowed(8, 1);
        // Each shard sent one message due at cycle 8, not yet consumed.
        assert_eq!(eng.pending_messages(), 2);
        eng.run_windowed(8, 1);
        assert_eq!(eng.pending_messages(), 2);
    }
}

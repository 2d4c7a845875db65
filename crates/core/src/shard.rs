//! The chip cut along its junction routers into PDES shards (§4.2).
//!
//! Each of the chip's sub-rings — 16 TCG cores, the sub-ring router, the
//! junction's MACT and the laxity-aware sub-dispatcher — is one
//! [`SubShard`]. Everything attached to the main ring — DDR controllers,
//! the memory side of the direct datapath and the main scheduler — is the
//! single [`HubShard`]. The shards share no state: every interaction
//! crosses a junction (± the direct datapath) and travels as a timestamped
//! [`ChipMsg`] with at least `junction_latency` cycles of delay, which is
//! exactly the lookahead the conservative PDES engine needs to advance all
//! shards in parallel.
//!
//! Determinism contract: a shard's evolution depends only on its own state
//! and the `(timestamp, sender, sequence)`-ordered inbox, and every
//! message carries an absolute delivery cycle fixed at emission. Parallel
//! and sequential window execution therefore produce bit-identical chips —
//! the property `tests/equivalence.rs` locks in.

use std::collections::HashMap;

use smarco_mem::dram::Dram;
use smarco_mem::mact::{Batch, Mact, MactOutcome};
use smarco_mem::map::{channel_of, AddressSpace};
use smarco_mem::request::{MemRequest, RequestId, RequestIdAllocator};
use smarco_noc::backend::{build_hub_backend, build_sub_backend, Entry, NocBackend, NocEvent};
use smarco_noc::direct::DirectSpoke;
use smarco_noc::packet::{NodeId, Packet};
use smarco_sched::{MainScheduler, Task};
use smarco_sim::event::EventWheel;
use smarco_sim::obs::{TraceConfig, TraceSink};
use smarco_sim::parallel::{Inbox, Outbox, Shard};
use smarco_sim::stats::MeanTracker;
use smarco_sim::Cycle;

use crate::config::SmarcoConfig;
use crate::dispatch::{ExitSignal, SubDispatcher, TaskExit};
use crate::fault::FaultPlan;
use crate::report::DegradationReport;
use crate::tcg::{CoreFull, CoreRequest, RequestKind, TcgCore};

/// A request travelling the uncore, with enough context to complete it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UncoreReq {
    /// The memory request.
    pub req: MemRequest,
    /// Issuing thread slot on the core (for completion).
    pub thread: usize,
    /// Path that produced it.
    pub kind: RequestKind,
}

/// Semantic payload of chip NoC packets.
#[derive(Debug, Clone, PartialEq)]
pub enum ChipPayload {
    /// Core → junction (MACT-eligible) or → memory controller (bypass).
    Req(UncoreReq),
    /// Junction → memory controller: a packed MACT line.
    Batch(Batch),
    /// Memory controller → junction: a served read batch.
    BatchReply(Batch),
    /// Memory-side reply to a single blocking request.
    Reply(UncoreReq),
    /// Core → core: access to a remote scratchpad.
    RemoteSpm(UncoreReq),
    /// Owner core → requester: remote-scratchpad completion.
    RemoteSpmReply(UncoreReq),
    /// Core → owner core: SPM-to-SPM DMA pull command (§3.5.1).
    DmaReq(UncoreReq),
    /// Owner core → requester: the pulled DMA data.
    DmaData(UncoreReq),
}

/// A DRAM service payload: either one request or a packed MACT batch.
#[derive(Debug, Clone)]
pub enum DramJob {
    /// A single (bypass or direct-path) request.
    Single {
        /// The request.
        ucr: UncoreReq,
        /// Whether the reply returns over the direct datapath.
        via_direct: bool,
    },
    /// A packed MACT line served as one burst.
    BatchJob(Batch),
}

/// Fixed NoC header bytes for request/descriptor packets.
pub(crate) const REQ_HEADER_BYTES: u32 = 4;
/// Descriptor bytes of a batch packet (type, tag, vector).
pub(crate) const BATCH_HEADER_BYTES: u32 = 8;

/// Everything that crosses a shard boundary.
#[derive(Debug, Clone)]
pub enum ChipMsg {
    /// Sub-ring → hub: a packet that crossed its junction upward, visible
    /// on the main ring one junction latency later.
    Up(Packet<ChipPayload>),
    /// Hub → sub-ring: a packet that crossed a junction downward — a
    /// core-bound reply or a junction-bound batch reply.
    Down(Packet<ChipPayload>),
    /// Sub-ring → hub: a direct-datapath read arriving at memory after
    /// the spoke's fixed traversal.
    DirectReq(UncoreReq),
    /// Hub → sub-ring: a direct-datapath reply arriving at its core.
    DirectReply(UncoreReq),
    /// Sub-ring → hub: a task exit for the main scheduler's accounting.
    Exit {
        /// The sub-ring the task ran on (for load release).
        subring: usize,
        /// The exit record.
        signal: ExitSignal,
    },
}

impl ChipMsg {
    /// Junction-crossing traffic: `Up`/`Down` packets and `Exit` signals
    /// all travel at the junction latency.
    pub const CLASS_JUNCTION: usize = 0;
    /// Direct-datapath traffic: requests and replies travel the spoke's
    /// fixed (longer) latency.
    pub const CLASS_DIRECT: usize = 1;

    /// The message's horizon-contract class (see
    /// `smarco_core::contract::horizon_contract`): the index into the
    /// contract's class floors that bounds how soon after a window start
    /// this kind of message may become visible.
    pub fn contract_class(&self) -> usize {
        match self {
            ChipMsg::Up(_) | ChipMsg::Down(_) | ChipMsg::Exit { .. } => Self::CLASS_JUNCTION,
            ChipMsg::DirectReq(_) | ChipMsg::DirectReply(_) => Self::CLASS_DIRECT,
        }
    }
}

/// Folds two optional horizons into their minimum (`None` = no event).
fn min_horizon(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) | (None, x) => x,
    }
}

/// Ticks `noc` at `now`. With cycle skipping on, a backend with nothing
/// due this cycle is not ticked: it is charged the cycle's idle capacity
/// instead, which is exactly what an idle tick accumulates.
fn tick_noc(
    noc: &mut dyn NocBackend<ChipPayload>,
    now: Cycle,
    cycle_skip: bool,
) -> Vec<NocEvent<ChipPayload>> {
    if cycle_skip && noc.next_event(now).is_none_or(|t| t > now) {
        noc.skip_idle(now, now + 1);
        Vec::new()
    } else {
        noc.tick(now)
    }
}

/// Where a sub-ring packet enters the ring — remembered across NACKed
/// injection attempts so a retransmission re-enters at the same port.
#[derive(Debug, Clone, Copy)]
enum RingSource {
    /// A core's injection port (global core id).
    Core(usize),
    /// The junction's downlink port.
    Junction,
}

/// A NACKed packet waiting out its backoff: `(next attempt, entry port,
/// packet)`.
type Retransmit = (u32, RingSource, Packet<ChipPayload>);

/// Transfer size of a DMA pull. `MemRef` widths cap at 64 bytes, so the
/// size is carried by the fill range (one SPM block when the destination
/// is not local SPM).
fn dma_span_of(ucr: &UncoreReq) -> u64 {
    match ucr.kind {
        RequestKind::DmaPull {
            fill: Some((_, bytes)),
            ..
        } => bytes,
        _ => 64,
    }
}

/// One sub-ring's slice of the chip: its cores, sub-ring router, MACT,
/// direct-datapath sender spoke and sub-dispatcher.
pub struct SubShard {
    sr: usize,
    /// The hub's shard index (`= subrings`).
    hub: usize,
    /// Boundary-crossing latency the NoC backend promises — the delay
    /// stamped on junction-crossing messages.
    jl: Cycle,
    cores_per_subring: usize,
    channels: usize,
    mact_on: bool,
    /// Whether cycle skipping is on, which lets an idle sub-ring go
    /// unticked (see [`tick_noc`]) and a stepped one tick only its due
    /// cores.
    cycle_skip: bool,
    cores: Vec<TcgCore>,
    /// Per core: the cycle it next ticks at, its cached
    /// [`TcgCore::next_event`] (`Cycle::MAX` for none).
    wake: Vec<Cycle>,
    /// Per core: the cycle up to which its statistics are charged. A core
    /// sleeping until its wake cycle lags behind the shard until it
    /// ticks, is mutated, or [`settle_cores`](Self::settle_cores) runs.
    settled: Vec<Cycle>,
    /// Cores whose last tick retired a thread, for the dispatcher to
    /// collect next cycle.
    retiring: Vec<usize>,
    /// Per core: ticks so far, for tests of the wake set.
    #[cfg(test)]
    ticks: Vec<u64>,
    noc: Box<dyn NocBackend<ChipPayload>>,
    mact: Mact,
    dispatcher: SubDispatcher,
    /// Sender-side gate of this sub-ring's direct-datapath spoke.
    to_mem: Option<DirectSpoke<UncoreReq>>,
    ids: RequestIdAllocator,
    next_packet: u64,
    packet_stride: u64,
    /// End-to-end latency of blocking requests (issue → complete).
    mem_latency: MeanTracker,
    /// Latency samples staged for the facade's windowed metrics recorder.
    lat_samples: Vec<f64>,
    collect_latency: bool,
    requests: u64,
    /// Blocking requests in flight: id → issuing thread slot.
    outstanding: HashMap<RequestId, usize>,
    req_buf: Vec<CoreRequest>,
    exit_buf: Vec<ExitSignal>,
    /// The run's fault plan (zero plan when none was configured).
    plan: FaultPlan,
    /// Scheduled deaths of this shard's cores, sorted by `(cycle, core)`.
    kills: Vec<(Cycle, usize)>,
    /// Next unprocessed entry in `kills`.
    next_kill: usize,
    /// NACKed packets waiting out their exponential backoff.
    retransmit: EventWheel<Retransmit>,
    /// Fault damage and recovery spend observed by this shard.
    degradation: DegradationReport,
}

impl std::fmt::Debug for SubShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubShard")
            .field("sr", &self.sr)
            .field("outstanding", &self.outstanding.len())
            .finish()
    }
}

impl SubShard {
    /// Builds sub-ring shard `sr` of a chip with `config`; `n_shards`
    /// strides the request/packet id spaces so shards allocate without
    /// coordinating.
    pub fn new(sr: usize, config: &SmarcoConfig, space: AddressSpace) -> Self {
        let cps = config.noc.cores_per_subring;
        let n_shards = (config.noc.subrings + 1) as u64;
        let cores: Vec<TcgCore> = (sr * cps..(sr + 1) * cps)
            .map(|i| TcgCore::new(i, config.tcg, space))
            .collect();
        let plan = config.fault.clone().unwrap_or_else(FaultPlan::none);
        let kills = plan.core_kills_in(sr * cps, (sr + 1) * cps);
        let mut mact = Mact::new(config.mact.unwrap_or_default());
        mact.set_lockups(plan.mact_lockups(sr));
        Self {
            sr,
            hub: config.noc.subrings,
            jl: config.noc.boundary_latency(),
            cores_per_subring: cps,
            channels: config.dram.channels,
            mact_on: config.mact.is_some(),
            cycle_skip: config.cycle_skip,
            wake: vec![Cycle::MAX; cores.len()],
            settled: vec![0; cores.len()],
            retiring: Vec::new(),
            #[cfg(test)]
            ticks: vec![0; cores.len()],
            cores,
            noc: build_sub_backend(&config.noc, sr),
            mact,
            dispatcher: SubDispatcher::new(cps * config.tcg.resident_threads),
            to_mem: config
                .direct
                .map(|d| DirectSpoke::new(d.latency, d.bytes_per_cycle)),
            ids: RequestIdAllocator::strided(sr as u64, n_shards),
            next_packet: sr as u64,
            packet_stride: n_shards,
            mem_latency: MeanTracker::new(),
            lat_samples: Vec::new(),
            collect_latency: false,
            requests: 0,
            outstanding: HashMap::new(),
            req_buf: Vec::new(),
            exit_buf: Vec::new(),
            plan,
            kills,
            next_kill: 0,
            retransmit: EventWheel::new(),
            degradation: DegradationReport::default(),
        }
    }

    /// Fault damage and recovery spend this shard has observed.
    pub fn degradation(&self) -> DegradationReport {
        self.degradation
    }

    /// This shard's sub-ring index.
    pub fn subring(&self) -> usize {
        self.sr
    }

    /// The shard's cores (locally indexed; global id = `sr * cps + i`).
    pub fn cores(&self) -> &[TcgCore] {
        &self.cores
    }

    /// Mutable view of the shard's cores, between runs. Every core wakes,
    /// since the caller may change any of them.
    pub fn cores_mut(&mut self) -> &mut [TcgCore] {
        self.wake.copy_from_slice(&self.settled);
        &mut self.cores
    }

    /// Charges every core's lag up to `now`, so that its statistics are
    /// read settled. The chip calls it after each engine run; cores keep
    /// their wake cycles.
    pub fn settle_cores(&mut self, now: Cycle) {
        for local in 0..self.cores.len() {
            self.settle(local, now);
        }
    }

    /// Charges local core `local`'s lag up to cycle `at`.
    fn settle(&mut self, local: usize, at: Cycle) {
        let settled = self.settled[local];
        if settled < at {
            self.cores[local].skip(settled, at);
            self.settled[local] = at;
        }
    }

    /// Settles local core `local` to cycle `at` and makes it tick there:
    /// the step every mutation of a core goes through, since a mutation
    /// changes how the cycles it slept through are charged. Inside
    /// [`step`](Self::step) every mutation comes before the tick loop: a
    /// request the loop routes reaches no core in the same cycle.
    fn wake(&mut self, local: usize, at: Cycle) -> &mut TcgCore {
        self.settle(local, at);
        self.wake[local] = at;
        &mut self.cores[local]
    }

    /// The junction's MACT.
    pub fn mact(&self) -> &Mact {
        &self.mact
    }

    /// Requests this shard's cores issued into the uncore.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// End-to-end blocking-request latency tracker.
    pub fn mem_latency(&self) -> &MeanTracker {
        &self.mem_latency
    }

    /// Blocking requests currently in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// The sub-dispatcher (queue depth, in-flight count).
    pub fn dispatcher(&self) -> &SubDispatcher {
        &self.dispatcher
    }

    /// Queues an assigned task with its stream.
    pub fn enqueue_task(
        &mut self,
        task: Task,
        stream: Box<dyn smarco_isa::InstructionStream + Send>,
        now: Cycle,
    ) {
        self.dispatcher.enqueue(task, stream, now);
    }

    /// Attaches a stream to local core `local`, between runs, when every
    /// core is settled: the core wakes at the cycle it is settled to.
    ///
    /// # Errors
    ///
    /// Returns [`CoreFull`] when the core has no vacant slot.
    pub fn attach(
        &mut self,
        local: usize,
        stream: Box<dyn smarco_isa::InstructionStream + Send>,
    ) -> Result<usize, CoreFull> {
        let at = self.settled[local];
        self.wake(local, at).attach(stream)
    }

    /// Starts staging latency samples for the facade's metrics recorder.
    pub fn collect_latency(&mut self) {
        self.collect_latency = true;
    }

    /// Drains staged latency samples (in completion order).
    pub fn take_lat_samples(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.lat_samples)
    }

    /// Cumulative `(payload, offered)` bytes of the sub-ring's channels.
    pub fn payload_offered_bytes(&self) -> (u64, u64) {
        self.noc.payload_offered_bytes()
    }

    /// Payload utilization of the sub-ring's channels.
    pub fn payload_utilization(&self) -> f64 {
        self.noc.payload_utilization()
    }

    /// Turns event tracing on across the shard's components, between
    /// runs. Every core wakes: a traced core issues its compute runs cycle
    /// by cycle.
    pub fn enable_trace(&mut self, cfg: TraceConfig) {
        for core in self.cores_mut() {
            core.enable_trace(cfg);
        }
        self.noc.enable_trace();
        self.mact.enable_trace(self.sr);
        self.dispatcher.enable_trace();
    }

    /// Moves staged events into `sink` (cores, ring, MACT, dispatcher).
    pub fn drain_trace(&mut self, sink: &mut dyn TraceSink) {
        for core in &mut self.cores {
            if let Some(buf) = core.trace_mut() {
                buf.drain_into(sink);
            }
        }
        self.noc.drain_trace(sink);
        if let Some(buf) = self.mact.trace_mut() {
            buf.drain_into(sink);
        }
        self.dispatcher.drain_trace(sink);
    }

    /// Whether the shard holds no runnable or in-flight work. In-flight
    /// boundary messages are the engine's to account for.
    pub fn is_idle(&self) -> bool {
        self.dispatcher.is_idle()
            && self.outstanding.is_empty()
            && self.noc.is_idle()
            && self.mact.open_lines() == 0
            && self.to_mem.as_ref().is_none_or(DirectSpoke::is_idle)
            && self.retransmit.is_empty()
            && self.cores.iter().all(TcgCore::is_done)
    }

    fn packet(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        now: Cycle,
        payload: ChipPayload,
    ) -> Packet<ChipPayload> {
        let id = self.next_packet;
        self.next_packet += self.packet_stride;
        Packet::new(id, src, dst, bytes.max(1), now, payload)
    }

    fn local_pos(&self, core: usize) -> usize {
        debug_assert_eq!(core / self.cores_per_subring, self.sr);
        core % self.cores_per_subring
    }

    /// Injects a core-sourced packet; local exits may deliver instantly.
    fn send_from_core(
        &mut self,
        core: usize,
        pkt: Packet<ChipPayload>,
        now: Cycle,
        outbox: &mut Outbox<ChipMsg>,
    ) {
        if pkt.src == pkt.dst {
            // Self-delivery never touches a link, so it cannot corrupt.
            self.handle_delivery(pkt, now, outbox);
            return;
        }
        self.inject_sub(RingSource::Core(core), pkt, 0, now, outbox);
    }

    /// Attempt `attempt` at putting `pkt` on the sub-ring. A corrupted
    /// attempt is NACKed back to the entry port, which re-injects after
    /// the retry policy's exponential backoff; the attempt after the last
    /// allowed retry always succeeds (the transient has cleared), so a
    /// noisy link *delays* packets but never loses them. The verdict is a
    /// pure function of `(plan seed, packet id, attempt)` — identical for
    /// any PDES worker count.
    fn inject_sub(
        &mut self,
        source: RingSource,
        pkt: Packet<ChipPayload>,
        attempt: u32,
        now: Cycle,
        outbox: &mut Outbox<ChipMsg>,
    ) {
        let retry = self.plan.retry();
        if attempt < retry.max_retries && self.plan.corrupts_sub(pkt.id, attempt) {
            self.degradation.link_retries += 1;
            self.retransmit
                .schedule(now + retry.backoff(attempt), (attempt + 1, source, pkt));
            return;
        }
        let entry = match source {
            RingSource::Core(core) => Entry::Endpoint(self.local_pos(core)),
            RingSource::Junction => Entry::Bridge,
        };
        if let Some(ev) = self.noc.inject(entry, pkt, now) {
            match ev {
                NocEvent::Delivered(p) => self.handle_delivery(p, now, outbox),
                NocEvent::Boundary(p) => {
                    outbox.send(self.hub, now + self.jl, ChipMsg::Up(p));
                }
            }
        }
    }

    /// Routes a fresh core request into the uncore.
    fn route_request(
        &mut self,
        core: usize,
        r: CoreRequest,
        now: Cycle,
        outbox: &mut Outbox<ChipMsg>,
    ) {
        self.requests += 1;
        let req = MemRequest {
            id: self.ids.next_id(),
            core,
            mem: r.mem,
            is_write: r.is_write,
            issued_at: now,
        };
        let ucr = UncoreReq {
            req,
            thread: r.thread,
            kind: r.kind,
        };
        if r.blocking {
            self.outstanding.insert(req.id, r.thread);
        }
        if let RequestKind::DmaPull { owner, .. } = r.kind {
            // DMA command descriptor to the owning core; the data rides
            // back as one (possibly multi-cycle) packet.
            let pkt = self.packet(
                NodeId::Core(core),
                NodeId::Core(owner),
                REQ_HEADER_BYTES,
                now,
                ChipPayload::DmaReq(ucr),
            );
            self.send_from_core(core, pkt, now, outbox);
            return;
        }
        if let RequestKind::RemoteSpm { owner } = r.kind {
            let bytes = if r.is_write {
                u32::from(r.mem.bytes) + REQ_HEADER_BYTES
            } else {
                REQ_HEADER_BYTES
            };
            let pkt = self.packet(
                NodeId::Core(core),
                NodeId::Core(owner),
                bytes,
                now,
                ChipPayload::RemoteSpm(ucr),
            );
            self.send_from_core(core, pkt, now, outbox);
            return;
        }
        // Real-time reads may use the direct datapath.
        let realtime = r.mem.priority == smarco_isa::Priority::Realtime;
        if realtime && !r.is_write {
            if let Some(spoke) = self.to_mem.as_mut() {
                spoke.send(REQ_HEADER_BYTES, ucr);
                return;
            }
        }
        let bytes = if r.is_write {
            (r.span_bytes.min(u64::from(u32::MAX)) as u32) + REQ_HEADER_BYTES
        } else {
            REQ_HEADER_BYTES
        };
        let mact_on = self.mact_on && !realtime;
        let dst = if mact_on {
            NodeId::Junction(self.sr)
        } else {
            NodeId::MemCtrl(channel_of(r.mem.addr, self.channels))
        };
        let mut pkt = self.packet(NodeId::Core(core), dst, bytes, now, ChipPayload::Req(ucr));
        pkt.realtime = realtime;
        self.send_from_core(core, pkt, now, outbox);
    }

    /// Handles a packet delivered at one of this shard's endpoints (a core
    /// or the junction's own structures).
    fn handle_delivery(
        &mut self,
        pkt: Packet<ChipPayload>,
        now: Cycle,
        outbox: &mut Outbox<ChipMsg>,
    ) {
        match pkt.payload {
            ChipPayload::Req(ucr) => {
                let NodeId::Junction(sr) = pkt.dst else {
                    panic!(
                        "request packet delivered to {:?} in sub-ring shard",
                        pkt.dst
                    )
                };
                debug_assert_eq!(sr, self.sr);
                match self.mact.offer(ucr.req, now) {
                    MactOutcome::Collected => {}
                    MactOutcome::Bypass(req) => {
                        let bytes = if req.is_write {
                            u32::from(req.mem.bytes) + REQ_HEADER_BYTES
                        } else {
                            REQ_HEADER_BYTES
                        };
                        let dst = NodeId::MemCtrl(channel_of(req.mem.addr, self.channels));
                        let ucr2 = UncoreReq { req, ..ucr };
                        let p = self.packet(
                            NodeId::Junction(sr),
                            dst,
                            bytes,
                            now,
                            ChipPayload::Req(ucr2),
                        );
                        outbox.send(self.hub, now + self.jl, ChipMsg::Up(p));
                    }
                }
            }
            ChipPayload::BatchReply(batch) => {
                let NodeId::Junction(sr) = pkt.dst else {
                    panic!("batch reply delivered off-junction to {:?}", pkt.dst)
                };
                for req in batch.requests {
                    if req.is_write {
                        continue;
                    }
                    let ucr = UncoreReq {
                        req,
                        thread: usize::MAX,
                        kind: RequestKind::CacheFill,
                    };
                    let p = self.packet(
                        NodeId::Junction(sr),
                        NodeId::Core(req.core),
                        u32::from(req.mem.bytes),
                        now,
                        ChipPayload::Reply(ucr),
                    );
                    self.inject_sub(RingSource::Junction, p, 0, now, outbox);
                }
            }
            ChipPayload::Reply(ucr) => {
                let NodeId::Core(c) = pkt.dst else {
                    panic!("reply delivered off-core to {:?}", pkt.dst)
                };
                self.complete_request(c, ucr, now);
            }
            ChipPayload::RemoteSpm(ucr) => {
                let NodeId::Core(owner) = pkt.dst else {
                    panic!("remote SPM packet delivered off-core to {:?}", pkt.dst)
                };
                // Serve at the owner (the owner's SPM is software-managed;
                // remote accesses are to data the runtime placed there).
                let bytes = if ucr.req.is_write {
                    1
                } else {
                    u32::from(ucr.req.mem.bytes)
                };
                let p = self.packet(
                    NodeId::Core(owner),
                    NodeId::Core(ucr.req.core),
                    bytes,
                    now,
                    ChipPayload::RemoteSpmReply(ucr),
                );
                self.send_from_core(owner, p, now, outbox);
            }
            ChipPayload::RemoteSpmReply(ucr) => {
                let NodeId::Core(c) = pkt.dst else {
                    panic!("remote SPM reply delivered off-core to {:?}", pkt.dst)
                };
                self.complete_request(c, ucr, now);
            }
            ChipPayload::DmaReq(ucr) => {
                let NodeId::Core(owner) = pkt.dst else {
                    panic!("DMA command delivered off-core to {:?}", pkt.dst)
                };
                // The owner streams the requested range back as one
                // wormhole packet sized by the transfer.
                let span = u32::try_from(dma_span_of(&ucr)).unwrap_or(u32::MAX).max(1);
                let p = self.packet(
                    NodeId::Core(owner),
                    NodeId::Core(ucr.req.core),
                    span,
                    now,
                    ChipPayload::DmaData(ucr),
                );
                self.send_from_core(owner, p, now, outbox);
            }
            ChipPayload::DmaData(ucr) => {
                let NodeId::Core(c) = pkt.dst else {
                    panic!("DMA data delivered off-core to {:?}", pkt.dst)
                };
                debug_assert_eq!(c, ucr.req.core);
                if let RequestKind::DmaPull { fill, .. } = ucr.kind {
                    let local = self.local_pos(c);
                    if self.cores[local].is_alive() {
                        self.wake(local, now).dma_complete(ucr.thread, fill);
                    } else {
                        self.degradation.dropped_replies += 1;
                    }
                }
            }
            ChipPayload::Batch(_) => panic!("MACT batch delivered inside a sub-ring shard"),
        }
    }

    fn complete_request(&mut self, core: usize, ucr: UncoreReq, now: Cycle) {
        debug_assert_eq!(core, ucr.req.core);
        if let Some(thread) = self.outstanding.remove(&ucr.req.id) {
            let local = self.local_pos(core);
            if !self.cores[local].is_alive() {
                // The issuing thread died with its core; the reply has no
                // one to wake. Still retired from `outstanding` above so
                // the shard can drain.
                self.degradation.dropped_replies += 1;
                return;
            }
            let lat = now.saturating_sub(ucr.req.issued_at) as f64;
            self.mem_latency.record(lat);
            if self.collect_latency {
                self.lat_samples.push(lat);
            }
            self.wake(local, now).complete(thread, now);
        }
    }

    /// One simulated cycle, mirroring the monolithic chip's step order
    /// within the shard: boundary arrivals, ring, dispatcher, cores, MACT,
    /// direct-path departures.
    fn step(&mut self, now: Cycle, inbox: &mut Inbox<ChipMsg>, outbox: &mut Outbox<ChipMsg>) {
        // 0. Scheduled core deaths fire: rip out the streams, re-enqueue
        //    dispatcher-managed tasks with recomputed deadlines, and
        //    quarantine the core (it reports no vacancy from here on).
        while self.next_kill < self.kills.len() && self.kills[self.next_kill].0 <= now {
            let (_, core) = self.kills[self.next_kill];
            self.next_kill += 1;
            let local = self.local_pos(core);
            if !self.cores[local].is_alive() {
                continue;
            }
            let streams = self.wake(local, now).fail();
            self.degradation.quarantined_cores += 1;
            let (redispatched, lost) = self.dispatcher.fail_core(local, now, streams);
            self.degradation.redispatches += redispatched;
            self.degradation.lost_threads += lost;
        }
        // 1. Boundary messages due this cycle.
        while let Some(msg) = inbox.pop_due(now) {
            match msg {
                ChipMsg::Down(pkt) => match pkt.dst {
                    NodeId::Core(_) => {
                        self.inject_sub(RingSource::Junction, pkt, 0, now, outbox);
                    }
                    NodeId::Junction(_) => self.handle_delivery(pkt, now, outbox),
                    other => panic!("downlink packet addressed to {other:?}"),
                },
                ChipMsg::DirectReply(ucr) => self.complete_request(ucr.req.core, ucr, now),
                other => panic!("sub-ring shard received {other:?}"),
            }
        }
        // 1b. NACKed packets whose backoff expired re-enter the ring.
        while let Some((attempt, source, pkt)) = self.retransmit.pop_due(now) {
            self.inject_sub(source, pkt, attempt, now, outbox);
        }
        // 2. Backend deliveries and junction boundary crossings.
        for ev in tick_noc(self.noc.as_mut(), now, self.cycle_skip) {
            match ev {
                NocEvent::Delivered(p) => self.handle_delivery(p, now, outbox),
                NocEvent::Boundary(p) => {
                    outbox.send(self.hub, now + self.jl, ChipMsg::Up(p));
                }
            }
        }
        // 3. The sub-dispatcher collects the threads that retired last
        //    cycle and binds a ready task to a freed slot; exits head for
        //    the main scheduler.
        let mut exits = std::mem::take(&mut self.exit_buf);
        for k in 0..self.retiring.len() {
            let local = self.retiring[k];
            let slots = self.cores[local].take_retired();
            self.dispatcher.collect(local, slots, now, &mut exits);
        }
        self.retiring.clear();
        if let Some((local, task, stream)) = self.dispatcher.dispatch(&self.cores, now) {
            let slot = self
                .wake(local, now)
                .attach(stream)
                .expect("dispatched to a vacant core");
            self.dispatcher.bind(local, slot, &task, now);
        }
        for signal in exits.drain(..) {
            outbox.send(
                self.hub,
                now + self.jl,
                ChipMsg::Exit {
                    subring: self.sr,
                    signal,
                },
            );
        }
        self.exit_buf = exits;
        // 4. Due cores issue; requests enter the uncore. With cycle
        //    skipping off every core is due every cycle, the reference the
        //    wake set must reproduce.
        let mut buf = std::mem::take(&mut self.req_buf);
        for i in 0..self.cores.len() {
            if self.cycle_skip && self.wake[i] > now {
                continue;
            }
            #[cfg(test)]
            {
                self.ticks[i] += 1;
            }
            self.settle(i, now);
            let core = &mut self.cores[i];
            buf.clear();
            core.tick(now, &mut buf);
            self.settled[i] = now + 1;
            if core.has_retired() {
                self.retiring.push(i);
            }
            self.wake[i] = core.next_event(now + 1).unwrap_or(Cycle::MAX);
            let global = self.sr * self.cores_per_subring + i;
            for r in buf.drain(..) {
                self.route_request(global, r, now, outbox);
            }
        }
        self.req_buf = buf;
        // 5. MACT deadlines; flushed batches head for memory.
        for batch in self.mact.tick(now) {
            let bytes = if batch.is_write {
                batch.bytes_referenced + BATCH_HEADER_BYTES
            } else {
                BATCH_HEADER_BYTES
            };
            let dst = NodeId::MemCtrl(channel_of(batch.base, self.channels));
            let p = self.packet(
                NodeId::Junction(self.sr),
                dst,
                bytes,
                now,
                ChipPayload::Batch(batch),
            );
            outbox.send(self.hub, now + self.jl, ChipMsg::Up(p));
        }
        // 6. Direct-path departures arrive at memory after the spoke's
        //    fixed traversal — already an absolute-cycle message.
        if let Some(spoke) = self.to_mem.as_mut() {
            for (arrives, ucr) in spoke.tick(now) {
                outbox.send(self.hub, arrives, ChipMsg::DirectReq(ucr));
            }
        }
    }

    /// Event horizon over every simulated structure in the shard: cores
    /// (their cached wake cycles: stall ends, DMA completions, retirees),
    /// the sub-ring router (in-flight flits), the MACT (open-line
    /// deadlines, slid past lockup windows), the dispatcher (pending tasks
    /// able to bind), the direct-path sender spoke, plus the fault
    /// machinery — the next scheduled core death and the earliest
    /// retransmission due. Blocking requests in `outstanding` need no term
    /// — their replies arrive as boundary messages, which the engine
    /// accounts for via the inbox.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let wake = self.wake.iter().copied().min().unwrap_or(Cycle::MAX);
        let mut h = (wake != Cycle::MAX).then_some(wake);
        h = min_horizon(h, self.noc.next_event(now));
        h = min_horizon(h, self.mact.next_event(now));
        let vacancy = self.dispatcher.queued() > 0 && self.cores.iter().any(TcgCore::has_vacancy);
        h = min_horizon(h, self.dispatcher.next_event(now, vacancy));
        if let Some(spoke) = self.to_mem.as_ref() {
            h = min_horizon(h, spoke.next_event(now));
        }
        if let Some(&(at, _)) = self.kills.get(self.next_kill) {
            h = min_horizon(h, Some(now.max(at)));
        }
        h = min_horizon(h, self.retransmit.next_due().map(|d| now.max(d)));
        h
    }

    /// Fast-forwards the quiescent shard across `[from, to)`: the router
    /// charges its idle-grant bandwidth, the spoke saturates its credit.
    /// Cores are left lagging, to be charged when they next tick, are
    /// mutated or are settled. The MACT and dispatcher mutate nothing on
    /// idle ticks, so they only contribute debug assertions that the
    /// horizon really cleared them.
    fn skip_window(&mut self, from: Cycle, to: Cycle) {
        self.noc.skip_idle(from, to);
        debug_assert_eq!(
            self.mact.ready_batches(),
            0,
            "cycle-skipped a MACT with flushed batches waiting"
        );
        debug_assert!(
            self.mact.next_event(from).is_none_or(|d| d >= to),
            "cycle-skipped past a MACT line deadline"
        );
        debug_assert!(
            self.dispatcher
                .next_event(from, self.cores.iter().any(TcgCore::has_vacancy))
                .is_none_or(|d| d >= to),
            "cycle-skipped past a ready dispatch"
        );
        debug_assert!(
            self.kills
                .get(self.next_kill)
                .is_none_or(|&(at, _)| at >= to),
            "cycle-skipped past a scheduled core death"
        );
        debug_assert!(
            self.retransmit.next_due().is_none_or(|d| d >= to),
            "cycle-skipped past a due retransmission"
        );
        if let Some(spoke) = self.to_mem.as_mut() {
            spoke.skip_idle(from, to);
        }
    }
}

/// The main-ring slice of the chip: DDR controllers, the memory side of
/// the direct datapath, and the main scheduler.
pub struct HubShard {
    jl: Cycle,
    cores_per_subring: usize,
    channels: usize,
    /// Whether cycle skipping is on, which lets an idle main ring go
    /// unticked (see [`tick_noc`]).
    cycle_skip: bool,
    main: Box<dyn NocBackend<ChipPayload>>,
    dram: Dram<DramJob>,
    /// Memory-side direct-datapath spokes, one per sub-ring.
    from_mem: Vec<DirectSpoke<UncoreReq>>,
    sched: MainScheduler,
    exits: Vec<TaskExit>,
    dram_requests: u64,
    next_packet: u64,
    packet_stride: u64,
    /// The run's fault plan (zero plan when none was configured).
    plan: FaultPlan,
    /// DDR channel deaths as `(channel, cycle)`, earliest per channel.
    channel_deaths: Vec<(usize, Cycle)>,
    /// NACKed main-ring packets waiting out their backoff, with the
    /// attempt number of the next injection.
    retransmit: EventWheel<(u32, Packet<ChipPayload>)>,
    /// Fault damage and recovery spend observed by the hub.
    degradation: DegradationReport,
}

impl std::fmt::Debug for HubShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HubShard")
            .field("exits", &self.exits.len())
            .field("dram_requests", &self.dram_requests)
            .finish()
    }
}

impl HubShard {
    /// Builds the hub shard of a chip with `config`.
    pub fn new(config: &SmarcoConfig) -> Self {
        let n_shards = (config.noc.subrings + 1) as u64;
        let plan = config.fault.clone().unwrap_or_else(FaultPlan::none);
        let mut dram = Dram::new(config.dram);
        for (channel, from, to) in plan.dram_stalls() {
            dram.stall_channel(channel, from, to);
        }
        Self {
            jl: config.noc.boundary_latency(),
            cores_per_subring: config.noc.cores_per_subring,
            channels: config.dram.channels,
            cycle_skip: config.cycle_skip,
            main: build_hub_backend(&config.noc),
            dram,
            from_mem: config
                .direct
                .map(|d| {
                    (0..d.subrings)
                        .map(|_| DirectSpoke::new(d.latency, d.bytes_per_cycle))
                        .collect()
                })
                .unwrap_or_default(),
            sched: MainScheduler::new(config.noc.subrings),
            exits: Vec::new(),
            dram_requests: 0,
            next_packet: config.noc.subrings as u64,
            packet_stride: n_shards,
            channel_deaths: plan.channel_deaths(),
            plan,
            retransmit: EventWheel::new(),
            degradation: DegradationReport::default(),
        }
    }

    /// Fault damage and recovery spend the hub has observed by `now`,
    /// including channels quarantined by then and requests DDR stall
    /// windows delayed.
    pub fn degradation(&self, now: Cycle) -> DegradationReport {
        let mut d = self.degradation;
        d.quarantined_channels = self
            .channel_deaths
            .iter()
            .filter(|&&(_, at)| at <= now)
            .count() as u64;
        d.dram_stalled_requests = self.dram.stalled_requests();
        d
    }

    /// Assigns a submitted task to the least-loaded sub-ring.
    pub fn assign(&mut self, task: &Task) -> usize {
        self.sched.assign(task)
    }

    /// Exit records of hardware-dispatched tasks, in boundary-message
    /// delivery order.
    pub fn exits(&self) -> &[TaskExit] {
        &self.exits
    }

    /// Bursts DRAM has served.
    pub fn dram_requests(&self) -> u64 {
        self.dram_requests
    }

    /// The DRAM model (bytes served, busy cycles, utilization).
    pub fn dram(&self) -> &Dram<DramJob> {
        &self.dram
    }

    /// Cumulative `(payload, offered)` bytes of the main ring's channels.
    pub fn payload_offered_bytes(&self) -> (u64, u64) {
        self.main.payload_offered_bytes()
    }

    /// Payload utilization of the main ring's channels.
    pub fn payload_utilization(&self) -> f64 {
        self.main.payload_utilization()
    }

    /// Turns event tracing on across the hub's components.
    pub fn enable_trace(&mut self) {
        self.main.enable_trace();
        self.dram.enable_trace();
    }

    /// Moves staged events into `sink` (main ring, DRAM).
    pub fn drain_trace(&mut self, sink: &mut dyn TraceSink) {
        self.main.drain_trace(sink);
        self.dram.drain_trace(sink);
    }

    /// Whether the hub holds no in-flight work.
    pub fn is_idle(&self) -> bool {
        self.main.is_idle()
            && self.dram.is_idle()
            && self.retransmit.is_empty()
            && self.from_mem.iter().all(DirectSpoke::is_idle)
    }

    fn packet(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        now: Cycle,
        payload: ChipPayload,
    ) -> Packet<ChipPayload> {
        let id = self.next_packet;
        self.next_packet += self.packet_stride;
        Packet::new(id, src, dst, bytes.max(1), now, payload)
    }

    /// The channel `channel` maps to after quarantine: itself while alive,
    /// else the next live channel round-robin. When every channel is dead
    /// the original keeps serving — a fully dead memory system has no
    /// graceful degradation left to model.
    fn live_channel(&mut self, channel: usize, now: Cycle) -> usize {
        let dead = |c: usize, deaths: &[(usize, Cycle)]| {
            deaths.iter().any(|&(dc, at)| dc == c && at <= now)
        };
        if self.channel_deaths.is_empty() || !dead(channel, &self.channel_deaths) {
            return channel;
        }
        for off in 1..self.channels {
            let c = (channel + off) % self.channels;
            if !dead(c, &self.channel_deaths) {
                self.degradation.redirected_requests += 1;
                return c;
            }
        }
        channel
    }

    fn enqueue_dram(&mut self, addr: u64, span: u64, job: DramJob, now: Cycle) {
        self.dram_requests += 1;
        let channel = channel_of(addr, self.channels);
        let channel = self.live_channel(channel, now);
        self.dram.enqueue(channel, span.max(1), now, job);
    }

    fn on_main_event(
        &mut self,
        ev: NocEvent<ChipPayload>,
        now: Cycle,
        outbox: &mut Outbox<ChipMsg>,
    ) {
        match ev {
            NocEvent::Delivered(pkt) => match pkt.dst {
                NodeId::MemCtrl(_) => match pkt.payload {
                    ChipPayload::Req(ucr) => self.enqueue_dram(
                        ucr.req.mem.addr,
                        u64::from(ucr.req.mem.bytes),
                        DramJob::Single {
                            ucr,
                            via_direct: false,
                        },
                        now,
                    ),
                    ChipPayload::Batch(batch) => {
                        self.enqueue_dram(
                            batch.base,
                            batch.span_bytes,
                            DramJob::BatchJob(batch),
                            now,
                        );
                    }
                    other => panic!("memory controller received {other:?}"),
                },
                NodeId::Junction(sr) => outbox.send(sr, now + self.jl, ChipMsg::Down(pkt)),
                other => panic!("unexpected main-ring delivery at {other:?}"),
            },
            NocEvent::Boundary(pkt) => {
                let NodeId::Core(c) = pkt.dst else {
                    unreachable!("only core packets descend");
                };
                let sr = c / self.cores_per_subring;
                outbox.send(sr, now + self.jl, ChipMsg::Down(pkt));
            }
        }
    }

    fn inject_main(&mut self, pkt: Packet<ChipPayload>, now: Cycle, outbox: &mut Outbox<ChipMsg>) {
        self.inject_main_attempt(pkt, 0, now, outbox);
    }

    /// Attempt `attempt` at putting `pkt` on the main ring, with the same
    /// NACK/backoff/final-attempt-clean semantics as the sub-ring path.
    fn inject_main_attempt(
        &mut self,
        pkt: Packet<ChipPayload>,
        attempt: u32,
        now: Cycle,
        outbox: &mut Outbox<ChipMsg>,
    ) {
        let retry = self.plan.retry();
        if attempt < retry.max_retries && self.plan.corrupts_main(pkt.id, attempt) {
            self.degradation.link_retries += 1;
            self.retransmit
                .schedule(now + retry.backoff(attempt), (attempt + 1, pkt));
            return;
        }
        if let Some(ev) = self.main.inject(Entry::Bridge, pkt, now) {
            self.on_main_event(ev, now, outbox);
        }
    }

    /// One simulated cycle: boundary arrivals, direct-path reply
    /// departures, main ring, DRAM.
    fn step(&mut self, now: Cycle, inbox: &mut Inbox<ChipMsg>, outbox: &mut Outbox<ChipMsg>) {
        // 1. Boundary messages due this cycle.
        while let Some(msg) = inbox.pop_due(now) {
            match msg {
                ChipMsg::Up(pkt) => self.inject_main(pkt, now, outbox),
                ChipMsg::DirectReq(ucr) => self.enqueue_dram(
                    ucr.req.mem.addr,
                    u64::from(ucr.req.mem.bytes),
                    DramJob::Single {
                        ucr,
                        via_direct: true,
                    },
                    now,
                ),
                ChipMsg::Exit { subring, signal } => {
                    self.sched.complete(subring, signal.work);
                    self.exits.push(TaskExit {
                        task: signal.task,
                        exit: signal.exit,
                        deadline: signal.deadline,
                    });
                }
                other => panic!("hub shard received {other:?}"),
            }
        }
        // 1b. NACKed packets whose backoff expired re-enter the ring.
        while let Some((attempt, pkt)) = self.retransmit.pop_due(now) {
            self.inject_main_attempt(pkt, attempt, now, outbox);
        }
        // 2. Direct-path replies depart toward their cores (before DRAM
        //    produces new ones, matching the monolithic step order).
        for sr in 0..self.from_mem.len() {
            for (arrives, ucr) in self.from_mem[sr].tick(now) {
                outbox.send(sr, arrives, ChipMsg::DirectReply(ucr));
            }
        }
        // 3. Main-ring deliveries and descents.
        for ev in tick_noc(self.main.as_mut(), now, self.cycle_skip) {
            self.on_main_event(ev, now, outbox);
        }
        // 4. DRAM completions produce replies.
        for job in self.dram.tick(now) {
            match job {
                DramJob::Single { ucr, via_direct } => {
                    if ucr.req.is_write {
                        continue; // writes complete silently
                    }
                    if via_direct {
                        let sr = ucr.req.core / self.cores_per_subring;
                        self.from_mem[sr].send(u32::from(ucr.req.mem.bytes), ucr);
                    } else {
                        let p = self.packet(
                            NodeId::MemCtrl(channel_of(ucr.req.mem.addr, self.channels)),
                            NodeId::Core(ucr.req.core),
                            u32::from(ucr.req.mem.bytes),
                            now,
                            ChipPayload::Reply(ucr),
                        );
                        self.inject_main(p, now, outbox);
                    }
                }
                DramJob::BatchJob(batch) => {
                    if batch.is_write {
                        continue;
                    }
                    let sr = batch.requests.first().map(|r| r.core).unwrap_or(0)
                        / self.cores_per_subring;
                    let p = self.packet(
                        NodeId::MemCtrl(channel_of(batch.base, self.channels)),
                        NodeId::Junction(sr),
                        batch.bytes_referenced.max(1),
                        now,
                        ChipPayload::BatchReply(batch),
                    );
                    self.inject_main(p, now, outbox);
                }
            }
        }
    }

    /// Event horizon over the hub's structures: the main ring's in-flight
    /// flits, the earliest DRAM completion and the memory-side reply
    /// spokes. The main scheduler is purely message-driven (assignment and
    /// load release both ride boundary messages), so it has no term.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut h = self.main.next_event(now);
        h = min_horizon(h, self.dram.next_event().map(|d| now.max(d)));
        h = min_horizon(h, self.retransmit.next_due().map(|d| now.max(d)));
        for spoke in &self.from_mem {
            h = min_horizon(h, spoke.next_event(now));
        }
        h
    }

    /// Fast-forwards the quiescent hub across `[from, to)`: the main ring
    /// charges its idle-grant bandwidth and the spokes saturate their
    /// credit. An idle DRAM tick mutates nothing, so it only contributes a
    /// debug assertion.
    fn skip_window(&mut self, from: Cycle, to: Cycle) {
        self.main.skip_idle(from, to);
        debug_assert!(
            self.dram.next_event().is_none_or(|d| d >= to),
            "cycle-skipped past a DRAM completion"
        );
        debug_assert!(
            self.retransmit.next_due().is_none_or(|d| d >= to),
            "cycle-skipped past a due retransmission"
        );
        for spoke in &mut self.from_mem {
            spoke.skip_idle(from, to);
        }
    }
}

/// One shard of the sharded chip: a sub-ring or the hub. Boxed so the
/// engine's shard vector stays compact despite the variants' bulk.
#[derive(Debug)]
pub enum ChipShard {
    /// A sub-ring shard.
    Sub(Box<SubShard>),
    /// The hub shard.
    Hub(Box<HubShard>),
}

impl ChipShard {
    /// The sub-ring shard inside, if any.
    pub fn as_sub(&self) -> Option<&SubShard> {
        match self {
            ChipShard::Sub(s) => Some(s),
            ChipShard::Hub(_) => None,
        }
    }

    /// Mutable sub-ring shard inside, if any.
    pub fn as_sub_mut(&mut self) -> Option<&mut SubShard> {
        match self {
            ChipShard::Sub(s) => Some(s),
            ChipShard::Hub(_) => None,
        }
    }

    /// The hub shard inside, if any.
    pub fn as_hub(&self) -> Option<&HubShard> {
        match self {
            ChipShard::Sub(_) => None,
            ChipShard::Hub(h) => Some(h),
        }
    }

    /// Mutable hub shard inside, if any.
    pub fn as_hub_mut(&mut self) -> Option<&mut HubShard> {
        match self {
            ChipShard::Sub(_) => None,
            ChipShard::Hub(h) => Some(h),
        }
    }

    /// Human-readable shard name (`sub-ring{i}` / `hub`), used to label
    /// shard-ordered rows in the host-profile report.
    pub fn label(&self) -> String {
        match self {
            ChipShard::Sub(s) => format!("sub-ring{}", s.subring()),
            ChipShard::Hub(_) => "hub".to_string(),
        }
    }

    /// Whether the shard holds no in-flight work.
    pub fn is_idle(&self) -> bool {
        match self {
            ChipShard::Sub(s) => s.is_idle(),
            ChipShard::Hub(h) => h.is_idle(),
        }
    }
}

impl Shard for ChipShard {
    type Msg = ChipMsg;

    fn run_window(
        &mut self,
        from: Cycle,
        to: Cycle,
        inbox: &mut Inbox<ChipMsg>,
        outbox: &mut Outbox<ChipMsg>,
    ) {
        for now in from..to {
            match self {
                ChipShard::Sub(s) => s.step(now, inbox, outbox),
                ChipShard::Hub(h) => h.step(now, inbox, outbox),
            }
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match self {
            ChipShard::Sub(s) => s.next_event(now),
            ChipShard::Hub(h) => h.next_event(now),
        }
    }

    fn skip_window(&mut self, from: Cycle, to: Cycle) {
        match self {
            ChipShard::Sub(s) => s.skip_window(from, to),
            ChipShard::Hub(h) => h.skip_window(from, to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarco_isa::{InstructionStream, Op, ProgramBuilder};
    use smarco_sim::parallel::ParallelEngine;

    use crate::tcg::CoreStats;

    /// Runs a tiny chip for 3,000 cycles with sub-ring 0's core 2 issuing
    /// a compute every cycle, which keeps the sub-ring stepped, while
    /// core 0 stages 4 KB into its SPM and core 1 waits on a DRAM load,
    /// then on six 250-cycle computes; core 3 holds no thread. Returns
    /// sub-ring 0's settled core statistics, ticks per core and the
    /// shard-cycles stepped.
    fn run(cycle_skip: bool) -> (Vec<CoreStats>, Vec<u64>, u64) {
        let mut config = SmarcoConfig::tiny();
        config.cycle_skip = cycle_skip;
        let space = AddressSpace::new(config.noc.cores(), config.dram.channels);
        let mut shards: Vec<ChipShard> = (0..config.noc.subrings)
            .map(|sr| ChipShard::Sub(Box::new(SubShard::new(sr, &config, space))))
            .collect();
        shards.push(ChipShard::Hub(Box::new(HubShard::new(&config))));
        let mut engine = ParallelEngine::new(shards, config.noc.boundary_latency());
        engine.set_skip_enabled(cycle_skip);
        let spm = space.spm_base(0);
        let streams: [Box<dyn InstructionStream + Send>; 3] = [
            Box::new(
                ProgramBuilder::at(0x1000)
                    .op(Op::Dma {
                        src: 0x50_000,
                        dst: spm,
                        bytes: 4096,
                    })
                    .op(Op::Sync)
                    .op(Op::load(spm + 2048, 8))
                    .build()
                    .into_stream(),
            ),
            Box::new(
                ProgramBuilder::at(0x1000)
                    .op(Op::load(0x10_0000, 8))
                    .ops([Op::Compute { latency: 250 }; 6])
                    .build()
                    .into_stream(),
            ),
            Box::new(
                smarco_isa::stream::FnStream::new({
                    let mut left = 2_000;
                    move || {
                        left -= 1;
                        (left > 0).then(Op::compute)
                    }
                })
                .with_segment(0x8000, 256),
            ),
        ];
        let sub = engine.shards_mut()[0].as_sub_mut().unwrap();
        for (local, stream) in streams.into_iter().enumerate() {
            sub.attach(local, stream).unwrap();
        }
        engine.run_windowed(3_000, 1);
        let now = engine.now();
        let stepped = engine.stepped_cycles();
        let sub = engine.shards_mut()[0].as_sub_mut().unwrap();
        sub.settle_cores(now);
        let left: Vec<_> = sub.cores().iter().map(TcgCore::live_threads).collect();
        assert!(left.iter().all(|&n| n == 0), "threads left: {left:?}");
        let stats = sub.cores().iter().map(|c| c.stats().clone()).collect();
        (stats, sub.ticks.clone(), stepped)
    }

    #[test]
    fn a_stepped_sub_ring_ticks_only_its_due_cores() {
        let (reference, every, _) = run(false);
        let (stats, ticks, stepped) = run(true);
        assert_eq!(stats, reference, "the wake set changed core statistics");
        assert!(
            every.iter().all(|&t| t == 3_000),
            "skip off ticks every core: {every:?}"
        );
        assert!(
            ticks[2] >= 2_000 && stepped >= 2_000,
            "sub-ring 0 steps while core 2 issues: {ticks:?}, {stepped} stepped"
        );
        assert!(
            ticks[..2].iter().all(|&t| t <= 20),
            "waiting cores ticked through their waits: {ticks:?}"
        );
        assert_eq!(ticks[3], 0, "a core without threads ticked");
    }
}

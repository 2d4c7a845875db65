//! Pluggable interconnect backends behind one boundary-event contract.
//!
//! The shard layer (in `smarco-core`) splits the chip into one shard per
//! sub-ring plus a hub shard; each shard owns one *half* of the
//! interconnect and exchanges junction crossings as timestamped PDES
//! messages. [`NocBackend`] is the contract each half implements, so the
//! paper's hierarchical ring and a 2-D mesh are interchangeable behind it:
//!
//! * [`NocBackend::inject`] admits a packet at an [`Entry`] and may
//!   deliver it instantly;
//! * [`NocBackend::tick`] advances one cycle and reports
//!   [`NocEvent::Delivered`] endpoints and [`NocEvent::Boundary`]
//!   junction crossings;
//! * [`NocBackend::next_event`]/[`NocBackend::skip_idle`] expose the
//!   exact event horizon the cycle-skipping engine relies on.
//!
//! A boundary crossing becomes visible in the other half
//! [`NocConfig::boundary_latency`] cycles later, whichever backend carries
//! it. [`crate::hierarchy::Topology`] composes the same halves in one
//! thread.
//!
//! Determinism is part of the contract: a backend's event order must be
//! a pure function of the injected traffic, never of wall-clock or hash
//! iteration order, so reports stay bit-identical across worker counts.

use std::collections::HashMap;

use smarco_sim::obs::{EventKind, TraceBuffer, TraceSink, Track};
use smarco_sim::Cycle;

use crate::hierarchy::NocConfig;
use crate::mesh::Mesh;
use crate::packet::{NodeId, Packet};
use crate::ring::Ring;

/// Which interconnect implementation carries the chip's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocBackendKind {
    /// The paper's hierarchical ring (§3.2) — the default, and the
    /// reference for report bit-identity.
    Ring,
    /// A 2-D mesh with XY routing standing in for each half — the
    /// paper's comparison topology (§3.2).
    Mesh,
}

impl NocBackendKind {
    /// Stable lower-case name (`ring` / `mesh`), used in benchmark
    /// reports and CLI selection.
    pub fn name(&self) -> &'static str {
        match self {
            NocBackendKind::Ring => "ring",
            NocBackendKind::Mesh => "mesh",
        }
    }

    /// Parses a backend name as produced by [`Self::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ring" => Some(NocBackendKind::Ring),
            "mesh" => Some(NocBackendKind::Mesh),
            _ => None,
        }
    }
}

/// Where a packet enters its half of the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// A local endpoint position — the core's position within its
    /// sub-ring on the sub side. Hub backends derive the entry from
    /// `pkt.src` instead and ignore this variant's index.
    Endpoint(usize),
    /// The junction bridge port: a packet descending into a sub-ring
    /// from the hub, or (on the hub side) ascending from a sub-ring.
    Bridge,
}

/// What a backend produced at an endpoint.
#[derive(Debug)]
pub enum NocEvent<P> {
    /// Reached a local endpoint of this half.
    Delivered(Packet<P>),
    /// Reached the junction bridge and must cross into the other half,
    /// where it becomes visible [`NocConfig::boundary_latency`] cycles
    /// later.
    Boundary(Packet<P>),
}

/// The interconnect contract one shard half exercises — see the module
/// docs for the shape and [`build_sub_backend`]/[`build_hub_backend`]
/// for constructors.
pub trait NocBackend<P>: Send {
    /// Admits `pkt` at `entry`; returns an event if it reached its exit
    /// instantly (entry and exit coincide).
    fn inject(&mut self, entry: Entry, pkt: Packet<P>, now: Cycle) -> Option<NocEvent<P>>;

    /// Advances one cycle; returns deliveries and boundary crossings in
    /// deterministic order.
    fn tick(&mut self, now: Cycle) -> Vec<NocEvent<P>>;

    /// Whether nothing is queued or in flight.
    fn is_idle(&self) -> bool;

    /// Earliest cycle ≥ `now` at which [`tick`](Self::tick) could
    /// produce an event or change state; `None` when fully drained.
    fn next_event(&self, now: Cycle) -> Option<Cycle>;

    /// Fast-forwards the idle backend across `[from, to)`, accumulating
    /// exactly the statistics idle ticking would.
    fn skip_idle(&mut self, from: Cycle, to: Cycle);

    /// Cumulative `(payload, offered)` bytes over the backend's links.
    fn payload_offered_bytes(&self) -> (u64, u64);

    /// Aggregated payload utilization over the backend's links.
    fn payload_utilization(&self) -> f64;

    /// Turns event tracing on, on this half's own track.
    fn enable_trace(&mut self);

    /// Moves staged trace events into `sink` (no-op when tracing is
    /// off).
    fn drain_trace(&mut self, sink: &mut dyn TraceSink);
}

// ---------------------------------------------------------------------
// Shared endpoint layouts
// ---------------------------------------------------------------------

/// Sub-side endpoint layout: core positions `0..cps`, gateway (junction
/// port) at `cps`.
#[derive(Debug, Clone, Copy)]
struct SubLayout {
    sr: usize,
    cps: usize,
}

impl SubLayout {
    fn gateway(&self) -> usize {
        self.cps
    }

    fn owns_core(&self, core: usize) -> bool {
        core / self.cps == self.sr
    }

    fn local_pos(&self, core: usize) -> usize {
        debug_assert!(self.owns_core(core));
        core % self.cps
    }

    /// Exit position for a destination: the local core's position, or
    /// the gateway for everything leaving (or addressed to) the
    /// junction.
    fn exit_for(&self, dst: NodeId) -> usize {
        match dst {
            NodeId::Core(d) if self.owns_core(d) => self.local_pos(d),
            _ => self.gateway(),
        }
    }

    /// Entry position for an [`Entry`].
    ///
    /// # Panics
    ///
    /// Panics if an endpoint index is not a core position.
    fn entry_pos(&self, entry: Entry) -> usize {
        match entry {
            Entry::Endpoint(pos) => {
                assert!(pos < self.cps, "not a core position: {pos}");
                pos
            }
            Entry::Bridge => self.gateway(),
        }
    }

    /// A delivery at `pos` is a boundary crossing iff it reached the
    /// gateway without being addressed to the junction's own structures.
    fn classify<P>(&self, pos: usize, pkt: Packet<P>) -> NocEvent<P> {
        if pos == self.gateway() && pkt.dst != NodeId::Junction(self.sr) {
            NocEvent::Boundary(pkt)
        } else {
            NocEvent::Delivered(pkt)
        }
    }
}

/// Hub-side endpoint layout: junctions in order with a memory controller
/// after every `subrings / mem_ctrls` of them, then scheduler and host.
#[derive(Debug, Clone)]
struct HubLayout {
    cores_per_subring: usize,
    main_pos: HashMap<NodeId, usize>,
    junction_pos: Vec<usize>,
    ports: usize,
}

impl HubLayout {
    fn new(config: &NocConfig) -> Self {
        config.validate();
        let mut main_pos = HashMap::new();
        let mut junction_pos = vec![0usize; config.subrings];
        let group = config.subrings / config.mem_ctrls;
        let mut pos = 0usize;
        let mut mc = 0usize;
        for (sr, jpos) in junction_pos.iter_mut().enumerate() {
            *jpos = pos;
            pos += 1;
            if (sr + 1) % group == 0 {
                main_pos.insert(NodeId::MemCtrl(mc), pos);
                mc += 1;
                pos += 1;
            }
        }
        main_pos.insert(NodeId::MainScheduler, pos);
        pos += 1;
        main_pos.insert(NodeId::Host, pos);
        pos += 1;
        Self {
            cores_per_subring: config.cores_per_subring,
            main_pos,
            junction_pos,
            ports: pos,
        }
    }

    fn exit_for(&self, dst: NodeId) -> usize {
        match dst {
            NodeId::Core(c) => self.junction_pos[c / self.cores_per_subring],
            NodeId::Junction(sr) => self.junction_pos[sr],
            other => *self
                .main_pos
                .get(&other)
                .unwrap_or_else(|| panic!("unknown main-ring endpoint {other:?}")),
        }
    }

    /// Entry position derived from the packet source: core packets enter
    /// at their sub-ring's junction, everything else at its own
    /// endpoint.
    fn entry_for(&self, src: NodeId) -> usize {
        match src {
            NodeId::Core(c) => self.junction_pos[c / self.cores_per_subring],
            other => self.exit_for(other),
        }
    }

    /// A packet addressed to a core must descend through a junction —
    /// a boundary crossing; everything else terminates on the hub.
    fn classify<P>(&self, pkt: Packet<P>) -> NocEvent<P> {
        if matches!(pkt.dst, NodeId::Core(_)) {
            NocEvent::Boundary(pkt)
        } else {
            NocEvent::Delivered(pkt)
        }
    }
}

/// Square-ish mesh dimensions for `n` endpoints (both ≥ 2 as
/// [`Mesh::new`] requires); endpoint `i` lives at `(i % w, i / w)` and
/// surplus grid positions stay idle.
fn mesh_dims(n: usize) -> (usize, usize) {
    let w = ((n as f64).sqrt().ceil() as usize).max(2);
    let h = n.div_ceil(w).max(2);
    (w, h)
}

// ---------------------------------------------------------------------
// Hierarchical-ring backends
// ---------------------------------------------------------------------

/// Records one completed ring traversal on a half's track, if tracing is
/// on.
fn trace_hop<P>(trace: &mut Option<TraceBuffer>, now: Cycle, hops: u32, pkt: &Packet<P>) {
    if let Some(buf) = trace.as_mut() {
        buf.emit(
            now,
            EventKind::RingHop {
                hops: u64::from(hops),
                bytes: u64::from(pkt.bytes),
            },
        );
    }
}

/// The sub-ring half of the paper's hierarchical ring: one sub-ring with
/// its cores at positions `0..cps` and the junction port at `cps`.
#[derive(Debug)]
pub struct RingSubBackend<P> {
    layout: SubLayout,
    ring: Ring<Packet<P>>,
    trace: Option<TraceBuffer>,
}

impl<P> RingSubBackend<P> {
    /// Builds the backend for sub-ring `sr` from the topology config.
    pub fn new(config: &NocConfig, sr: usize) -> Self {
        let cps = config.cores_per_subring;
        Self {
            layout: SubLayout { sr, cps },
            ring: Ring::new(cps + 1, config.sub_link),
            trace: None,
        }
    }
}

impl<P: Send> NocBackend<P> for RingSubBackend<P> {
    fn inject(&mut self, entry: Entry, pkt: Packet<P>, _now: Cycle) -> Option<NocEvent<P>> {
        let at = self.layout.entry_pos(entry);
        let exit = self.layout.exit_for(pkt.dst);
        self.ring
            .inject(at, exit, pkt)
            .map(|p| self.layout.classify(exit, p))
    }

    fn tick(&mut self, now: Cycle) -> Vec<NocEvent<P>> {
        // Pushed into a fresh Vec: collecting `Ring::tick`'s wider
        // `(pos, hops, packet)` buffer in place raised `mem_scan`'s peak
        // RSS by about 10%. The hub half does the same.
        let mut out = Vec::new();
        for (pos, hops, pkt) in self.ring.tick(now) {
            trace_hop(&mut self.trace, now, hops, &pkt);
            out.push(self.layout.classify(pos, pkt));
        }
        out
    }

    fn is_idle(&self) -> bool {
        self.ring.is_idle()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.ring.next_event(now)
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.ring.skip_idle(from, to);
    }

    fn payload_offered_bytes(&self) -> (u64, u64) {
        self.ring.payload_offered_bytes()
    }

    fn payload_utilization(&self) -> f64 {
        self.ring.payload_utilization()
    }

    fn enable_trace(&mut self) {
        self.trace = Some(TraceBuffer::new(Track::SubRing(self.layout.sr)));
    }

    fn drain_trace(&mut self, sink: &mut dyn TraceSink) {
        if let Some(buf) = self.trace.as_mut() {
            buf.drain_into(sink);
        }
    }
}

/// The main-ring half of the paper's hierarchical ring, with the hub's
/// endpoint layout. Entry positions derive from `pkt.src`.
#[derive(Debug)]
pub struct RingHubBackend<P> {
    layout: HubLayout,
    ring: Ring<Packet<P>>,
    trace: Option<TraceBuffer>,
}

impl<P> RingHubBackend<P> {
    /// Builds the backend from the topology config.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`NocConfig::validate`]).
    pub fn new(config: &NocConfig) -> Self {
        let layout = HubLayout::new(config);
        let ring = Ring::new(layout.ports, config.main_link);
        Self {
            layout,
            ring,
            trace: None,
        }
    }
}

impl<P: Send> NocBackend<P> for RingHubBackend<P> {
    fn inject(&mut self, _entry: Entry, pkt: Packet<P>, _now: Cycle) -> Option<NocEvent<P>> {
        let at = self.layout.entry_for(pkt.src);
        let exit = self.layout.exit_for(pkt.dst);
        self.ring
            .inject(at, exit, pkt)
            .map(|p| self.layout.classify(p))
    }

    fn tick(&mut self, now: Cycle) -> Vec<NocEvent<P>> {
        let mut out = Vec::new();
        for (_pos, hops, pkt) in self.ring.tick(now) {
            trace_hop(&mut self.trace, now, hops, &pkt);
            out.push(self.layout.classify(pkt));
        }
        out
    }

    fn is_idle(&self) -> bool {
        self.ring.is_idle()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.ring.next_event(now)
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.ring.skip_idle(from, to);
    }

    fn payload_offered_bytes(&self) -> (u64, u64) {
        self.ring.payload_offered_bytes()
    }

    fn payload_utilization(&self) -> f64 {
        self.ring.payload_utilization()
    }

    fn enable_trace(&mut self) {
        self.trace = Some(TraceBuffer::new(Track::MainRing));
    }

    fn drain_trace(&mut self, sink: &mut dyn TraceSink) {
        if let Some(buf) = self.trace.as_mut() {
            buf.drain_into(sink);
        }
    }
}

// ---------------------------------------------------------------------
// Mesh backends
// ---------------------------------------------------------------------

/// One sub-ring's slice carried by a 2-D XY mesh: cores at grid
/// positions `0..cps`, the junction gateway at position `cps`.
#[derive(Debug)]
pub struct MeshSubBackend<P> {
    layout: SubLayout,
    w: usize,
    mesh: Mesh<Packet<P>>,
}

impl<P> MeshSubBackend<P> {
    /// Builds the backend for sub-ring `sr` from the topology config.
    pub fn new(config: &NocConfig, sr: usize) -> Self {
        let cps = config.cores_per_subring;
        let (w, h) = mesh_dims(cps + 1);
        Self {
            layout: SubLayout { sr, cps },
            w,
            mesh: Mesh::new(w, h, config.sub_link),
        }
    }

    fn node(&self, i: usize) -> (usize, usize) {
        (i % self.w, i / self.w)
    }

    fn index(&self, at: (usize, usize)) -> usize {
        at.1 * self.w + at.0
    }
}

impl<P: Send> NocBackend<P> for MeshSubBackend<P> {
    fn inject(&mut self, entry: Entry, pkt: Packet<P>, now: Cycle) -> Option<NocEvent<P>> {
        let at = self.layout.entry_pos(entry);
        let exit = self.layout.exit_for(pkt.dst);
        let (src, dst) = (self.node(at), self.node(exit));
        let bytes = pkt.bytes;
        self.mesh
            .inject(src, dst, bytes, now, pkt)
            .map(|p| self.layout.classify(exit, p))
    }

    fn tick(&mut self, now: Cycle) -> Vec<NocEvent<P>> {
        self.mesh
            .tick(now)
            .into_iter()
            .map(|(at, p)| {
                let pos = self.index(at);
                self.layout.classify(pos, p)
            })
            .collect()
    }

    fn is_idle(&self) -> bool {
        self.mesh.is_idle()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.mesh.next_event(now)
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.mesh.skip_idle(from, to);
    }

    fn payload_offered_bytes(&self) -> (u64, u64) {
        self.mesh.payload_offered_bytes()
    }

    fn payload_utilization(&self) -> f64 {
        self.mesh.payload_utilization()
    }

    fn enable_trace(&mut self) {
        self.mesh.enable_trace(Track::SubRing(self.layout.sr));
    }

    fn drain_trace(&mut self, sink: &mut dyn TraceSink) {
        self.mesh.drain_trace(sink);
    }
}

/// The hub slice carried by a 2-D XY mesh, with the main ring's
/// endpoint layout mapped onto grid positions.
#[derive(Debug)]
pub struct MeshHubBackend<P> {
    layout: HubLayout,
    w: usize,
    mesh: Mesh<Packet<P>>,
}

impl<P> MeshHubBackend<P> {
    /// Builds the backend from the topology config.
    pub fn new(config: &NocConfig) -> Self {
        let layout = HubLayout::new(config);
        let (w, h) = mesh_dims(layout.ports);
        Self {
            layout,
            w,
            mesh: Mesh::new(w, h, config.main_link),
        }
    }

    fn node(&self, i: usize) -> (usize, usize) {
        (i % self.w, i / self.w)
    }
}

impl<P: Send> NocBackend<P> for MeshHubBackend<P> {
    fn inject(&mut self, _entry: Entry, pkt: Packet<P>, now: Cycle) -> Option<NocEvent<P>> {
        let src = self.node(self.layout.entry_for(pkt.src));
        let dst = self.node(self.layout.exit_for(pkt.dst));
        let bytes = pkt.bytes;
        self.mesh
            .inject(src, dst, bytes, now, pkt)
            .map(|p| self.layout.classify(p))
    }

    fn tick(&mut self, now: Cycle) -> Vec<NocEvent<P>> {
        self.mesh
            .tick(now)
            .into_iter()
            .map(|(_at, p)| self.layout.classify(p))
            .collect()
    }

    fn is_idle(&self) -> bool {
        self.mesh.is_idle()
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.mesh.next_event(now)
    }

    fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        self.mesh.skip_idle(from, to);
    }

    fn payload_offered_bytes(&self) -> (u64, u64) {
        self.mesh.payload_offered_bytes()
    }

    fn payload_utilization(&self) -> f64 {
        self.mesh.payload_utilization()
    }

    fn enable_trace(&mut self) {
        self.mesh.enable_trace(Track::MainRing);
    }

    fn drain_trace(&mut self, sink: &mut dyn TraceSink) {
        self.mesh.drain_trace(sink);
    }
}

// ---------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------

/// Builds the sub-side backend for sub-ring `sr` selected by
/// `config.backend`.
pub fn build_sub_backend<P: Send + 'static>(
    config: &NocConfig,
    sr: usize,
) -> Box<dyn NocBackend<P>> {
    match config.backend {
        NocBackendKind::Ring => Box::new(RingSubBackend::new(config, sr)),
        NocBackendKind::Mesh => Box::new(MeshSubBackend::new(config, sr)),
    }
}

/// Builds the hub-side backend selected by `config.backend`.
pub fn build_hub_backend<P: Send + 'static>(config: &NocConfig) -> Box<dyn NocBackend<P>> {
    match config.backend {
        NocBackendKind::Ring => Box::new(RingHubBackend::new(config)),
        NocBackendKind::Mesh => Box::new(MeshHubBackend::new(config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Topology;

    fn cfg(kind: NocBackendKind) -> NocConfig {
        NocConfig::tiny().with_backend(kind)
    }

    fn kinds() -> [NocBackendKind; 2] {
        [NocBackendKind::Ring, NocBackendKind::Mesh]
    }

    fn drive<P>(b: &mut dyn NocBackend<P>, cycles: Cycle) -> Vec<(Cycle, NocEvent<P>)> {
        let mut out = Vec::new();
        for now in 0..cycles {
            for ev in b.tick(now) {
                out.push((now, ev));
            }
        }
        out
    }

    #[test]
    fn every_backend_moves_a_local_packet_to_its_core() {
        for kind in kinds() {
            let c = cfg(kind);
            let mut b = build_sub_backend::<()>(&c, 0);
            // Core 1 → core 3, both on sub-ring 0 of the tiny config.
            let pkt = Packet::new(0, NodeId::Core(1), NodeId::Core(3), 8, 0, ());
            assert!(b.inject(Entry::Endpoint(1), pkt, 0).is_none());
            let evs = drive(b.as_mut(), 200);
            assert_eq!(evs.len(), 1, "{} delivered once", kind.name());
            assert!(
                matches!(evs[0].1, NocEvent::Delivered(ref p) if p.dst == NodeId::Core(3)),
                "{} delivers locally without a boundary crossing",
                kind.name()
            );
            assert!(b.is_idle());
            assert_eq!(b.next_event(500), None, "drained backend reports None");
        }
    }

    #[test]
    fn every_backend_raises_a_boundary_for_remote_traffic() {
        for kind in kinds() {
            let c = cfg(kind);
            let mut b = build_sub_backend::<()>(&c, 0);
            let pkt = Packet::new(0, NodeId::Core(0), NodeId::MemCtrl(0), 8, 0, ());
            assert!(b.inject(Entry::Endpoint(0), pkt, 0).is_none());
            let evs = drive(b.as_mut(), 200);
            assert_eq!(evs.len(), 1);
            assert!(
                matches!(evs[0].1, NocEvent::Boundary(_)),
                "{} surfaces memory traffic at the bridge",
                kind.name()
            );
        }
    }

    #[test]
    fn every_hub_backend_descends_core_traffic_and_delivers_memory_replies() {
        for kind in kinds() {
            let c = cfg(kind);
            let mut b = build_hub_backend::<()>(&c);
            // Request up: core 0 → memory controller 1 (delivered on hub).
            let req = Packet::new(0, NodeId::Core(0), NodeId::MemCtrl(1), 8, 0, ());
            let mut evs: Vec<NocEvent<()>> = b.inject(Entry::Bridge, req, 0).into_iter().collect();
            evs.extend(drive(b.as_mut(), 300).into_iter().map(|(_, ev)| ev));
            assert_eq!(evs.len(), 1);
            assert!(
                matches!(evs[0], NocEvent::Delivered(ref p) if p.dst == NodeId::MemCtrl(1)),
                "{} delivers at the controller",
                kind.name()
            );
            // Reply down: controller 1 → core 0 (boundary at the junction).
            let rep = Packet::new(1, NodeId::MemCtrl(1), NodeId::Core(0), 8, 300, ());
            let mut evs: Vec<NocEvent<()>> =
                b.inject(Entry::Endpoint(0), rep, 300).into_iter().collect();
            for now in 300..600 {
                evs.extend(b.tick(now));
            }
            assert_eq!(evs.len(), 1);
            assert!(
                matches!(evs[0], NocEvent::Boundary(ref p) if p.dst == NodeId::Core(0)),
                "{} descends replies at the junction",
                kind.name()
            );
        }
    }

    #[test]
    fn every_backend_skip_matches_idle_ticking() {
        for kind in kinds() {
            let c = cfg(kind);
            let mut ticked = build_sub_backend::<()>(&c, 0);
            let mut skipped = build_sub_backend::<()>(&c, 0);
            for now in 0..97 {
                assert!(ticked.tick(now).is_empty());
            }
            skipped.skip_idle(0, 97);
            assert_eq!(
                ticked.payload_offered_bytes(),
                skipped.payload_offered_bytes(),
                "{} skip accounting drifts from ticking",
                kind.name()
            );
        }
    }

    #[test]
    fn boundary_latency_follows_the_config() {
        // A packet through the assembled topology pays the junction
        // latency once per junction it crosses.
        let delivered_at = |dst, junction_latency| {
            let mut c = NocConfig::tiny();
            c.junction_latency = junction_latency;
            assert_eq!(c.boundary_latency(), junction_latency);
            let mut noc: Topology<()> = Topology::new(c);
            noc.inject(Packet::new(0, NodeId::Core(0), dst, 8, 0, ()), 0);
            (0..200)
                .find(|&now| !noc.tick(now).is_empty())
                .expect("delivered")
        };
        assert_eq!(delivered_at(NodeId::MemCtrl(0), 2), 5);
        assert_eq!(delivered_at(NodeId::MemCtrl(0), 5), 8);
        assert_eq!(delivered_at(NodeId::Core(15), 2), 10);
        assert_eq!(delivered_at(NodeId::Core(15), 5), 16);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in kinds() {
            assert_eq!(NocBackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(NocBackendKind::parse("torus"), None);
        assert_eq!(NocBackendKind::parse("buffered"), None);
    }
}

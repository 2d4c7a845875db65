//! The full hierarchical-ring topology (Fig. 4).
//!
//! 16 sub-rings of 16 cores each hang off one main ring through junction
//! routers. Four DDR controllers sit on the main ring with equal spacing;
//! the main scheduler and the PCIe host interface are attached as well.
//! A packet from a core to memory rides its sub-ring to the junction,
//! bridges, rides the main ring to the controller, and is delivered;
//! replies take the reverse path.
//!
//! The chip runs the topology as independent halves joined only at the
//! junctions: one sub-side [`NocBackend`] per sub-ring and one hub-side
//! backend (see [`crate::backend`]). A packet crossing a junction leaves
//! one half as a [`NocEvent::Boundary`] and becomes visible in the other
//! [`NocConfig::boundary_latency`] cycles later, so the halves can live in
//! different PDES shards. [`Topology`] composes the same halves in one
//! thread, with event wheels as the junction bridges, for NoC-only
//! studies (Fig. 18) and tests.

use std::fmt;

use smarco_sim::event::EventWheel;
use smarco_sim::stats::{Histogram, MeanTracker};
use smarco_sim::Cycle;

use crate::backend::{build_hub_backend, build_sub_backend, Entry, NocBackend, NocEvent};
use crate::link::{LinkConfig, Transmittable};
use crate::packet::{NodeId, Packet};

/// Topology parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Number of sub-rings (16 in SmarCo).
    pub subrings: usize,
    /// Cores per sub-ring (16 in SmarCo).
    pub cores_per_subring: usize,
    /// DDR controllers on the main ring (4 in SmarCo).
    pub mem_ctrls: usize,
    /// Main-ring channel geometry.
    pub main_link: LinkConfig,
    /// Sub-ring channel geometry.
    pub sub_link: LinkConfig,
    /// Cycles to cross a junction router between rings.
    pub junction_latency: Cycle,
    /// Which interconnect implementation carries the traffic (the paper's
    /// hierarchical ring by default).
    pub backend: crate::backend::NocBackendKind,
}

impl NocConfig {
    /// The paper's full configuration: 256 cores, 512-bit main ring,
    /// 256-bit sub-rings, 4 DDR controllers.
    pub fn smarco() -> Self {
        Self {
            subrings: 16,
            cores_per_subring: 16,
            mem_ctrls: 4,
            main_link: LinkConfig::main_ring(),
            sub_link: LinkConfig::sub_ring(),
            junction_latency: 2,
            backend: crate::backend::NocBackendKind::Ring,
        }
    }

    /// A small configuration for fast tests: 4 sub-rings × 4 cores.
    pub fn tiny() -> Self {
        Self {
            subrings: 4,
            cores_per_subring: 4,
            mem_ctrls: 2,
            main_link: LinkConfig::main_ring(),
            sub_link: LinkConfig::sub_ring(),
            junction_latency: 2,
            backend: crate::backend::NocBackendKind::Ring,
        }
    }

    /// The same topology carried by `backend`.
    #[must_use]
    pub fn with_backend(mut self, backend: crate::backend::NocBackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// The junction-crossing latency: the earliest a packet leaving one
    /// half of the topology can become visible in the other. This is what
    /// the shard layer stamps on junction-crossing messages and what the
    /// horizon contract floors the junction class at; the PDES lookahead
    /// must not exceed it.
    pub fn boundary_latency(&self) -> Cycle {
        self.junction_latency
    }

    /// Total core count.
    pub fn cores(&self) -> usize {
        self.subrings * self.cores_per_subring
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero counts, invalid link configs, or a controller count
    /// that does not divide the sub-ring count (needed for equal spacing).
    pub fn validate(&self) {
        if let Err(reason) = self.check() {
            panic!("{reason}");
        }
    }

    /// Non-panicking validation for builder-style callers.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found, as a human-readable string.
    pub fn check(&self) -> Result<(), String> {
        if self.subrings == 0 || self.cores_per_subring == 0 {
            return Err("zero topology".into());
        }
        if self.mem_ctrls == 0 {
            return Err("need at least one memory controller".into());
        }
        if !self.subrings.is_multiple_of(self.mem_ctrls) {
            return Err("controllers must divide sub-rings for equal spacing".into());
        }
        if self.junction_latency == 0 {
            return Err("junction latency must be positive".into());
        }
        self.main_link.check()?;
        self.sub_link.check()
    }
}

impl<P> Transmittable for Packet<P> {
    fn bytes(&self) -> u32 {
        self.bytes
    }
    fn realtime(&self) -> bool {
        self.realtime
    }
}

/// End-to-end delivery statistics.
#[derive(Debug, Clone, Default)]
pub struct NocStats {
    /// Packets delivered to their destination endpoint.
    pub delivered: u64,
    /// End-to-end latency (cycles).
    pub latency: MeanTracker,
    /// Latency distribution (power-of-two buckets) — the latency
    /// *predictability* the paper prizes in rings.
    pub latency_hist: Histogram,
}

/// The whole NoC in one thread: the chip's sub-ring halves and hub half,
/// built by [`build_sub_backend`]/[`build_hub_backend`] for
/// `config.backend`, with event wheels as the junction bridges.
///
/// # Examples
///
/// ```
/// use smarco_noc::{NocConfig, Packet, Topology};
/// use smarco_noc::packet::NodeId;
///
/// let mut noc: Topology<()> = Topology::new(NocConfig::tiny());
/// noc.inject(Packet::new(0, NodeId::Core(0), NodeId::MemCtrl(0), 8, 0, ()), 0);
/// let mut delivered = Vec::new();
/// for now in 0..200 {
///     delivered.extend(noc.tick(now));
/// }
/// assert_eq!(delivered.len(), 1);
/// assert_eq!(delivered[0].dst, NodeId::MemCtrl(0));
/// ```
pub struct Topology<P> {
    config: NocConfig,
    subs: Vec<Box<dyn NocBackend<P>>>,
    hub: Box<dyn NocBackend<P>>,
    /// Packets crossing a junction, delayed by the boundary latency.
    to_hub: EventWheel<Packet<P>>,
    to_sub: EventWheel<Packet<P>>,
    stats: NocStats,
}

impl<P> fmt::Debug for Topology<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<P: Send + 'static> Topology<P> {
    /// Builds the topology.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`NocConfig::validate`]).
    pub fn new(config: NocConfig) -> Self {
        let hub = build_hub_backend(&config);
        let subs = (0..config.subrings)
            .map(|sr| build_sub_backend(&config, sr))
            .collect();
        Self {
            config,
            subs,
            hub,
            to_hub: EventWheel::new(),
            to_sub: EventWheel::new(),
            stats: NocStats::default(),
        }
    }

    /// Topology parameters.
    pub fn config(&self) -> NocConfig {
        self.config
    }

    /// Delivery statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// `(sub-ring, position)` of a core.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range.
    pub fn core_location(&self, core: usize) -> (usize, usize) {
        assert!(core < self.config.cores(), "core {core} out of range");
        (
            core / self.config.cores_per_subring,
            core % self.config.cores_per_subring,
        )
    }

    fn deliver(&mut self, pkt: Packet<P>, now: Cycle) -> Packet<P> {
        self.stats.delivered += 1;
        let lat = now.saturating_sub(pkt.injected_at);
        self.stats.latency.record(lat as f64);
        self.stats.latency_hist.record(lat);
        pkt
    }

    /// Delivers `ev`'s packet, or puts a boundary crossing on the junction
    /// bridge toward the hub (`to_hub`) or down to a sub-ring.
    fn on_event(&mut self, ev: NocEvent<P>, to_hub: bool, now: Cycle) -> Option<Packet<P>> {
        match ev {
            NocEvent::Delivered(p) => Some(self.deliver(p, now)),
            NocEvent::Boundary(p) => {
                let bridge = if to_hub {
                    &mut self.to_hub
                } else {
                    &mut self.to_sub
                };
                bridge.schedule(now + self.config.boundary_latency(), p);
                None
            }
        }
    }

    fn inject_sub(
        &mut self,
        sr: usize,
        entry: Entry,
        pkt: Packet<P>,
        now: Cycle,
    ) -> Option<Packet<P>> {
        let ev = self.subs[sr].inject(entry, pkt, now)?;
        self.on_event(ev, true, now)
    }

    fn inject_hub(&mut self, pkt: Packet<P>, now: Cycle) -> Option<Packet<P>> {
        let ev = self.hub.inject(Entry::Bridge, pkt, now)?;
        self.on_event(ev, false, now)
    }

    /// Injects a packet at its source endpoint at cycle `now`.
    ///
    /// Returns the packet if it was delivered at once: source and
    /// destination coincide.
    ///
    /// # Panics
    ///
    /// Panics if the source or destination endpoint does not exist.
    pub fn inject(&mut self, pkt: Packet<P>, now: Cycle) -> Option<Packet<P>> {
        if pkt.src == pkt.dst {
            return Some(self.deliver(pkt, now));
        }
        match (pkt.src, pkt.dst) {
            (NodeId::Core(c), _) => {
                let (sr, pos) = self.core_location(c);
                self.inject_sub(sr, Entry::Endpoint(pos), pkt, now)
            }
            // A junction-resident structure (the MACT) sources packets
            // down into its own sub-ring or out over the main ring.
            (NodeId::Junction(sr), NodeId::Core(d)) if self.core_location(d).0 == sr => {
                self.inject_sub(sr, Entry::Bridge, pkt, now)
            }
            _ => self.inject_hub(pkt, now),
        }
    }

    /// Advances one cycle; returns packets delivered to their destination
    /// endpoints.
    pub fn tick(&mut self, now: Cycle) -> Vec<Packet<P>> {
        let mut out = Vec::new();
        // Junction crossings that completed this cycle.
        while let Some(pkt) = self.to_hub.pop_due(now) {
            out.extend(self.inject_hub(pkt, now));
        }
        while let Some(pkt) = self.to_sub.pop_due(now) {
            let NodeId::Core(d) = pkt.dst else {
                unreachable!("only core packets bridge downward");
            };
            let (sr, _) = self.core_location(d);
            out.extend(self.inject_sub(sr, Entry::Bridge, pkt, now));
        }
        for sr in 0..self.subs.len() {
            for ev in self.subs[sr].tick(now) {
                out.extend(self.on_event(ev, true, now));
            }
        }
        for ev in self.hub.tick(now) {
            out.extend(self.on_event(ev, false, now));
        }
        out
    }

    /// Whether nothing is queued or in flight anywhere.
    pub fn is_idle(&self) -> bool {
        self.to_hub.is_empty()
            && self.to_sub.is_empty()
            && self.hub.is_idle()
            && self.subs.iter().all(|s| s.is_idle())
    }

    /// Mean payload utilization of the hub half's links.
    pub fn main_ring_utilization(&self) -> f64 {
        self.hub.payload_utilization()
    }

    /// Mean payload utilization across the sub-ring halves.
    pub fn subring_utilization(&self) -> f64 {
        let sum: f64 = self.subs.iter().map(|s| s.payload_utilization()).sum();
        sum / self.subs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<P: Send + 'static>(noc: &mut Topology<P>, cycles: Cycle) -> Vec<(Cycle, Packet<P>)> {
        let mut out = Vec::new();
        for now in 0..cycles {
            for p in noc.tick(now) {
                out.push((now, p));
            }
        }
        out
    }

    #[test]
    fn core_to_memory_and_back() {
        let mut noc: Topology<u32> = Topology::new(NocConfig::tiny());
        noc.inject(
            Packet::new(1, NodeId::Core(0), NodeId::MemCtrl(0), 8, 0, 42),
            0,
        );
        let d = run(&mut noc, 200);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1.payload, 42);
        let t = d[0].0;
        // Reply path.
        noc.inject(
            Packet::new(2, NodeId::MemCtrl(0), NodeId::Core(0), 64, t, 43),
            t,
        );
        let d2 = run(&mut noc, 400);
        assert_eq!(d2.len(), 1);
        assert_eq!(d2[0].1.dst, NodeId::Core(0));
        assert!(noc.is_idle());
    }

    #[test]
    fn same_subring_core_to_core_stays_local() {
        let mut noc: Topology<()> = Topology::new(NocConfig::tiny());
        noc.inject(
            Packet::new(1, NodeId::Core(0), NodeId::Core(3), 8, 0, ()),
            0,
        );
        let d = run(&mut noc, 50);
        assert_eq!(d.len(), 1);
        // Local traffic should be fast: a handful of cycles.
        assert!(d[0].0 < 10, "took {} cycles", d[0].0);
    }

    #[test]
    fn cross_subring_core_to_core() {
        let mut noc: Topology<()> = Topology::new(NocConfig::tiny());
        let last = noc.config().cores() - 1;
        noc.inject(
            Packet::new(1, NodeId::Core(0), NodeId::Core(last), 8, 0, ()),
            0,
        );
        let d = run(&mut noc, 300);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1.dst, NodeId::Core(last));
    }

    #[test]
    fn host_and_scheduler_reachable() {
        let mut noc: Topology<()> = Topology::new(NocConfig::tiny());
        noc.inject(Packet::new(1, NodeId::Core(5), NodeId::Host, 4, 0, ()), 0);
        noc.inject(
            Packet::new(2, NodeId::Host, NodeId::MainScheduler, 4, 0, ()),
            0,
        );
        noc.inject(
            Packet::new(3, NodeId::MainScheduler, NodeId::Core(7), 4, 0, ()),
            0,
        );
        let d = run(&mut noc, 300);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn all_cores_to_all_mcs_delivered_exactly_once() {
        let mut noc: Topology<(usize, usize)> = Topology::new(NocConfig::tiny());
        let mut id = 0;
        let mut expected = 0;
        for c in 0..noc.config().cores() {
            for m in 0..noc.config().mem_ctrls {
                noc.inject(
                    Packet::new(id, NodeId::Core(c), NodeId::MemCtrl(m), 8, 0, (c, m)),
                    0,
                );
                id += 1;
                expected += 1;
            }
        }
        let d = run(&mut noc, 2000);
        assert_eq!(d.len(), expected);
        assert!(noc.is_idle());
        // Every (core, mc) pair appears exactly once.
        let mut seen: Vec<(usize, usize)> = d.iter().map(|(_, p)| p.payload).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), expected);
        assert_eq!(noc.stats().delivered, expected as u64);
        assert!(noc.stats().latency.mean() > 0.0);
    }

    #[test]
    fn full_smarco_topology_builds_and_routes() {
        let mut noc: Topology<()> = Topology::new(NocConfig::smarco());
        noc.inject(
            Packet::new(1, NodeId::Core(255), NodeId::MemCtrl(3), 8, 0, ()),
            0,
        );
        noc.inject(
            Packet::new(2, NodeId::Core(0), NodeId::MemCtrl(0), 8, 0, ()),
            0,
        );
        let d = run(&mut noc, 500);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn self_delivery_short_circuits() {
        let mut noc: Topology<()> = Topology::new(NocConfig::tiny());
        let p = noc.inject(Packet::new(1, NodeId::Host, NodeId::Host, 4, 3, ()), 3);
        assert!(p.is_some());
        assert_eq!(noc.stats().delivered, 1);
    }

    #[test]
    fn core_location_mapping() {
        let noc: Topology<()> = Topology::new(NocConfig::smarco());
        assert_eq!(noc.core_location(0), (0, 0));
        assert_eq!(noc.core_location(16), (1, 0));
        assert_eq!(noc.core_location(255), (15, 15));
    }

    #[test]
    fn junction_receives_from_local_cores() {
        let mut noc: Topology<()> = Topology::new(NocConfig::tiny());
        // Core 1 lives on sub-ring 0; its junction is addressable.
        noc.inject(
            Packet::new(1, NodeId::Core(1), NodeId::Junction(0), 4, 0, ()),
            0,
        );
        let d = run(&mut noc, 50);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1.dst, NodeId::Junction(0));
        assert!(d[0].0 < 10, "local junction should be close");
    }

    #[test]
    fn junction_sources_packets_both_ways() {
        let mut noc: Topology<u8> = Topology::new(NocConfig::tiny());
        // Down into its own sub-ring…
        noc.inject(
            Packet::new(1, NodeId::Junction(0), NodeId::Core(2), 8, 0, 1),
            0,
        );
        // …and out over the main ring to a memory controller.
        noc.inject(
            Packet::new(2, NodeId::Junction(1), NodeId::MemCtrl(0), 8, 0, 2),
            0,
        );
        // …and to a core in ANOTHER sub-ring (main ring + bridge down).
        let far = noc.config().cores() - 1;
        noc.inject(
            Packet::new(3, NodeId::Junction(0), NodeId::Core(far), 8, 0, 3),
            0,
        );
        let d = run(&mut noc, 300);
        let mut got: Vec<u8> = d.iter().map(|(_, p)| p.payload).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
        assert!(noc.is_idle());
    }

    #[test]
    fn mem_ctrl_reaches_junction() {
        let mut noc: Topology<()> = Topology::new(NocConfig::tiny());
        noc.inject(
            Packet::new(1, NodeId::MemCtrl(1), NodeId::Junction(3), 64, 0, ()),
            0,
        );
        let d = run(&mut noc, 200);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1.dst, NodeId::Junction(3));
    }

    #[test]
    fn cross_subring_junction_traffic_transits_main_ring() {
        let mut noc: Topology<()> = Topology::new(NocConfig::tiny());
        // Core on sub-ring 0 to the junction of sub-ring 2: must climb,
        // cross the main ring, and terminate at the remote junction.
        noc.inject(
            Packet::new(1, NodeId::Core(0), NodeId::Junction(2), 4, 0, ()),
            0,
        );
        let d = run(&mut noc, 300);
        assert_eq!(d.len(), 1);
        assert!(d[0].0 > 5, "remote junction cannot be instant");
    }

    #[test]
    fn split_halves_expose_boundary_events() {
        // Drive the halves by hand: a packet leaves sub-ring 0 as a
        // boundary crossing, rides the main ring to a junction, and
        // crosses again to descend.
        let cfg = NocConfig::tiny();
        let mut sub = build_sub_backend::<()>(&cfg, 0);
        let mut hub = build_hub_backend::<()>(&cfg);
        let pkt = Packet::new(1, NodeId::Core(0), NodeId::Core(14), 8, 0, ());
        assert!(sub.inject(Entry::Endpoint(0), pkt, 0).is_none());
        let mut climbed = None;
        for now in 0..50 {
            for ev in sub.tick(now) {
                match ev {
                    NocEvent::Boundary(p) => climbed = Some((now, p)),
                    NocEvent::Delivered(_) => panic!("dst is remote"),
                }
            }
            if climbed.is_some() {
                break;
            }
        }
        let (t, p) = climbed.expect("packet must climb");
        assert!(hub.inject(Entry::Bridge, p, t).is_none());
        let mut descended = None;
        for now in t..t + 100 {
            for ev in hub.tick(now) {
                match ev {
                    NocEvent::Boundary(p) => descended = Some(p),
                    NocEvent::Delivered(_) => panic!("dst is a core"),
                }
            }
            if descended.is_some() {
                break;
            }
        }
        let p = descended.expect("packet must descend");
        assert_eq!(p.dst, NodeId::Core(14));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_rejected() {
        let noc: Topology<()> = Topology::new(NocConfig::tiny());
        noc.core_location(999);
    }

    #[test]
    #[should_panic(expected = "controllers must divide")]
    fn unequal_spacing_rejected() {
        let mut c = NocConfig::tiny();
        c.mem_ctrls = 3;
        let _: Topology<()> = Topology::new(c);
    }
}

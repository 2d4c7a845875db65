//! Packets and node addressing.

use smarco_sim::Cycle;

/// Global address of a NoC endpoint.
///
/// Junction routers that bridge a sub-ring to the main ring are not
/// endpoints and have no `NodeId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// A TCG core (0..256 in the full configuration).
    Core(usize),
    /// A DDR memory controller on the main ring (0..4).
    MemCtrl(usize),
    /// A sub-ring's junction router — addressable because sub-ring shared
    /// structures (the MACT, §3.4) live there.
    Junction(usize),
    /// The main task scheduler attached to the main ring.
    MainScheduler,
    /// The PCIe/host interface on the main ring.
    Host,
}

/// A packet in flight, generic over the semantic payload `P` (a memory
/// request, a reply, a DMA chunk, …). `bytes` is the *payload* size the
/// link must move — the quantity whose distribution Fig. 8 measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet<P> {
    /// Unique id (assigned by the injector).
    pub id: u64,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Payload size in bytes (≥1).
    pub bytes: u32,
    /// Real-time packets may use the direct datapath and are prioritized
    /// in allocation.
    pub realtime: bool,
    /// Injection cycle, for end-to-end latency statistics.
    pub injected_at: Cycle,
    /// Semantic payload.
    pub payload: P,
}

impl<P> Packet<P> {
    /// Creates a normal-priority packet.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn new(
        id: u64,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
        injected_at: Cycle,
        payload: P,
    ) -> Self {
        assert!(bytes > 0, "packets must carry at least one byte");
        Self {
            id,
            src,
            dst,
            bytes,
            realtime: false,
            injected_at,
            payload,
        }
    }

    /// Marks the packet real-time.
    pub fn with_realtime(mut self) -> Self {
        self.realtime = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_priority() {
        let p = Packet::new(1, NodeId::Core(0), NodeId::MemCtrl(1), 8, 5, ());
        assert!(!p.realtime);
        let p = p.with_realtime();
        assert!(p.realtime);
        assert_eq!(p.bytes, 8);
        assert_eq!(p.injected_at, 5);
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_byte_packet_rejected() {
        let _ = Packet::new(0, NodeId::Host, NodeId::Core(0), 0, 0, ());
    }

    #[test]
    fn node_ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(NodeId::Core(1));
        set.insert(NodeId::MemCtrl(0));
        set.insert(NodeId::MainScheduler);
        set.insert(NodeId::Host);
        assert_eq!(set.len(), 4);
        assert!(NodeId::Core(0) < NodeId::Core(1));
    }
}

//! Network-on-chip models for the SmarCo reproduction (§3.2–§3.4).
//!
//! * [`packet`] — packets with byte sizes and real-time priority; the NoC
//!   is generic over the semantic payload it carries.
//! * [`link`] — the physical channel between two routers: fixed +
//!   bidirectional 64-bit lanes, optionally split into self-governed
//!   narrow slices (**high-density NoC**, §3.3/Figs. 9–10) packed by the
//!   greedy allocation algorithm. Conventional wide links send one packet
//!   per cycle regardless of its size; sliced links let small packets
//!   share a cycle.
//! * [`ring`] — a bidirectional ring of routers with min-hop,
//!   congestion-tie-broken direction choice and per-channel bidirectional
//!   lane granting (§3.2, Fig. 7).
//! * [`backend`] — the [`NocBackend`] contract one half of the topology
//!   implements (a sub-ring, or the main ring with its endpoints), with
//!   the hierarchical ring and a 2-D mesh as interchangeable
//!   implementations selected by [`NocBackendKind`].
//! * [`hierarchy`] — the full topology: one 512-bit main ring bridged to
//!   16 × 256-bit sub-rings of 16 cores each, DDR controllers, scheduler
//!   and host attached to the main ring (Fig. 4), and [`Topology`], which
//!   runs the chip's halves in one thread.
//! * [`direct`] — the star-shaped direct memory datapath for real-time
//!   requests (§3.5.2, Fig. 14).
//! * [`traffic`] — synthetic traffic generation for NoC-only studies
//!   (Fig. 18).

#![warn(missing_docs)]

pub mod backend;
pub mod direct;
pub mod hierarchy;
pub mod link;
pub mod mesh;
pub mod packet;
pub mod ring;
pub mod traffic;

pub use backend::{
    build_hub_backend, build_sub_backend, Entry, NocBackend, NocBackendKind, NocEvent,
};
pub use hierarchy::{NocConfig, Topology};
pub use link::LinkConfig;
pub use packet::{NodeId, Packet};

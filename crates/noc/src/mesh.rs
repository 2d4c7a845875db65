//! A 2-D mesh NoC baseline (the topology the paper argues *against* for
//! HTC, §3.2).
//!
//! Mesh routers use dimension-ordered (XY) routing: correct and
//! deadlock-free, but each hop crosses a 5-port router, and central links
//! concentrate traffic — which is exactly the latency unpredictability
//! and congestion the paper's hierarchical ring avoids. Used by the
//! `ablation_mesh_vs_ring` bench.

use smarco_sim::obs::{EventKind, TraceBuffer, TraceSink, Track};
use smarco_sim::stats::{Histogram, MeanTracker};
use smarco_sim::Cycle;

use crate::link::{DirectedLink, LinkConfig, Transmittable};

/// Wrapped item with its destination coordinates.
#[derive(Debug, Clone)]
struct MeshItem<T> {
    dst: (usize, usize),
    injected_at: Cycle,
    hops: u32,
    item: T,
}

impl<T: Transmittable> Transmittable for MeshItem<T> {
    fn bytes(&self) -> u32 {
        self.item.bytes()
    }
    fn realtime(&self) -> bool {
        self.item.realtime()
    }
    fn class(&self) -> u8 {
        self.item.class()
    }
}

/// Mesh-level delivery statistics.
#[derive(Debug, Clone, Default)]
pub struct MeshStats {
    /// Items delivered.
    pub delivered: u64,
    /// End-to-end latency.
    pub latency: MeanTracker,
    /// Latency distribution (for predictability comparisons with the
    /// ring).
    pub latency_hist: Histogram,
}

/// An `w × h` mesh with XY routing.
///
/// # Examples
///
/// ```
/// use smarco_noc::mesh::Mesh;
/// use smarco_noc::link::{LinkConfig, Transmittable};
///
/// #[derive(Debug)]
/// struct Word(u32);
/// impl Transmittable for Word {
///     fn bytes(&self) -> u32 { 4 }
/// }
///
/// let mut mesh: Mesh<Word> = Mesh::new(4, 4, LinkConfig::sub_ring());
/// mesh.inject((0, 0), (3, 3), 4, 0, Word(42));
/// let mut got = Vec::new();
/// for now in 0..100 {
///     got.extend(mesh.tick(now).into_iter().map(|(_, v)| v.0));
/// }
/// assert_eq!(got, vec![42]);
/// ```
#[derive(Debug)]
pub struct Mesh<T> {
    w: usize,
    h: usize,
    /// `east[y][x]`: link from (x,y) to (x+1,y); `west` the reverse.
    east: Vec<Vec<DirectedLink<MeshItem<T>>>>,
    west: Vec<Vec<DirectedLink<MeshItem<T>>>>,
    /// `south[y][x]`: link from (x,y) to (x,y+1); `north` the reverse.
    south: Vec<Vec<DirectedLink<MeshItem<T>>>>,
    north: Vec<Vec<DirectedLink<MeshItem<T>>>>,
    link: LinkConfig,
    stats: MeshStats,
    trace: Option<TraceBuffer>,
}

impl<T: Transmittable> Mesh<T> {
    /// Creates a `w × h` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2 or the link config is
    /// invalid.
    pub fn new(w: usize, h: usize, link: LinkConfig) -> Self {
        assert!(w >= 2 && h >= 2, "mesh needs at least 2×2 nodes");
        link.validate();
        let row = |n: usize| (0..n).map(|_| DirectedLink::new()).collect::<Vec<_>>();
        Self {
            w,
            h,
            east: (0..h).map(|_| row(w - 1)).collect(),
            west: (0..h).map(|_| row(w - 1)).collect(),
            south: (0..h - 1).map(|_| row(w)).collect(),
            north: (0..h - 1).map(|_| row(w)).collect(),
            link,
            stats: MeshStats::default(),
            trace: None,
        }
    }

    /// Dimensions `(w, h)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.w, self.h)
    }

    /// Statistics so far.
    pub fn stats(&self) -> &MeshStats {
        &self.stats
    }

    fn route(&mut self, at: (usize, usize), it: MeshItem<T>, now: Cycle) -> Option<T> {
        let (x, y) = at;
        let (dx, dy) = it.dst;
        // XY routing: X first, then Y.
        if x < dx {
            self.east[y][x].push(it);
        } else if x > dx {
            self.west[y][x - 1].push(it);
        } else if y < dy {
            self.south[y][x].push(it);
        } else if y > dy {
            self.north[y - 1][x].push(it);
        } else {
            self.stats.delivered += 1;
            let lat = now.saturating_sub(it.injected_at);
            self.stats.latency.record(lat as f64);
            self.stats.latency_hist.record(lat);
            if let Some(buf) = self.trace.as_mut() {
                buf.emit(
                    now,
                    EventKind::RingHop {
                        hops: u64::from(it.hops),
                        bytes: u64::from(it.item.bytes()),
                    },
                );
            }
            return Some(it.item);
        }
        None
    }

    /// Injects `item` of `bytes` at `src` addressed to `dst` at `now`;
    /// returns it immediately if `src == dst`.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is out of range or `bytes` is zero.
    pub fn inject(
        &mut self,
        src: (usize, usize),
        dst: (usize, usize),
        bytes: u32,
        now: Cycle,
        item: T,
    ) -> Option<T> {
        assert!(src.0 < self.w && src.1 < self.h, "src out of range");
        assert!(dst.0 < self.w && dst.1 < self.h, "dst out of range");
        assert!(bytes > 0, "zero-byte packet");
        let _ = bytes; // size comes from Transmittable
        self.route(
            src,
            MeshItem {
                dst,
                injected_at: now,
                hops: 0,
                item,
            },
            now,
        )
    }

    /// An item reaching router `at` after one more hop: routed onward, or
    /// delivered into `out`.
    fn hop(
        &mut self,
        at: (usize, usize),
        mut it: MeshItem<T>,
        now: Cycle,
        out: &mut Vec<((usize, usize), T)>,
    ) {
        it.hops += 1;
        let dst = it.dst;
        if let Some(v) = self.route(at, it, now) {
            out.push((dst, v));
        }
    }

    /// Advances one cycle; returns `(dst, item)` for deliveries.
    pub fn tick(&mut self, now: Cycle) -> Vec<((usize, usize), T)> {
        let mut out = Vec::new();
        // Arrivals, routed as they pop: routing writes only queues, so the
        // routing calls keep the order of a collect-then-route pass.
        for y in 0..self.h {
            for x in 0..self.w - 1 {
                while let Some(it) = self.east[y][x].pop_arrival(now) {
                    self.hop((x + 1, y), it, now, &mut out);
                }
                while let Some(it) = self.west[y][x].pop_arrival(now) {
                    self.hop((x, y), it, now, &mut out);
                }
            }
        }
        for y in 0..self.h - 1 {
            for x in 0..self.w {
                while let Some(it) = self.south[y][x].pop_arrival(now) {
                    self.hop((x, y + 1), it, now, &mut out);
                }
                while let Some(it) = self.north[y][x].pop_arrival(now) {
                    self.hop((x, y), it, now, &mut out);
                }
            }
        }
        // Transmit: each mesh link gets the full per-direction capacity
        // (no bidirectional lane sharing — mesh channels are fixed).
        let cap = self.link.max_capacity();
        let slice = self.link.slice_bytes;
        let lat = self.link.hop_latency;
        for row in self
            .east
            .iter_mut()
            .chain(self.west.iter_mut())
            .chain(self.south.iter_mut())
            .chain(self.north.iter_mut())
        {
            for l in row {
                l.transmit(cap, slice, lat, now);
            }
        }
        out
    }

    /// Whether nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.links().all(DirectedLink::is_empty)
    }

    fn links(&self) -> impl Iterator<Item = &DirectedLink<MeshItem<T>>> {
        self.east
            .iter()
            .chain(self.west.iter())
            .chain(self.south.iter())
            .chain(self.north.iter())
            .flat_map(|row| row.iter())
    }

    fn links_mut(&mut self) -> impl Iterator<Item = &mut DirectedLink<MeshItem<T>>> {
        self.east
            .iter_mut()
            .chain(self.west.iter_mut())
            .chain(self.south.iter_mut())
            .chain(self.north.iter_mut())
            .flat_map(|row| row.iter_mut())
    }

    /// Event horizon: the earliest cycle at or after `now` at which any
    /// link can transmit or deliver something. `Some(now)` while bytes
    /// are queued anywhere, the earliest wire arrival while items are in
    /// flight, `None` when the mesh is fully drained — the same contract
    /// as [`crate::ring::Ring::next_event`], so cycle skipping covers
    /// the mesh too.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut horizon: Option<Cycle> = None;
        for l in self.links() {
            if l.queued_packets() > 0 {
                return Some(now);
            }
            if let Some(due) = l.next_arrival() {
                let due = due.max(now);
                horizon = Some(horizon.map_or(due, |h| h.min(due)));
            }
        }
        horizon
    }

    /// Fast-forwards an idle mesh across `[from, to)`, accumulating
    /// exactly the offered-capacity statistics [`tick`](Self::tick)
    /// accumulates when every queue is empty: each directed link is
    /// offered the full per-direction capacity every cycle.
    pub fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        let bytes = (to - from) * u64::from(self.link.max_capacity());
        for l in self.links_mut() {
            l.skip_offer(bytes);
        }
    }

    /// Cumulative `(payload, offered)` bytes summed over all directed
    /// links. Monotonic counters, diffable for windowed utilization.
    pub fn payload_offered_bytes(&self) -> (u64, u64) {
        let (mut payload, mut offered) = (0u64, 0u64);
        for l in self.links() {
            let s = l.stats();
            payload += s.payload_bytes;
            offered += s.offered_bytes;
        }
        (payload, offered)
    }

    /// Aggregated payload utilization across all directed links.
    pub fn payload_utilization(&self) -> f64 {
        let (payload, offered) = self.payload_offered_bytes();
        if offered == 0 {
            0.0
        } else {
            payload as f64 / offered as f64
        }
    }

    /// Pending bytes across the output queues of node `(x, y)`
    /// (congestion metric, mirroring [`crate::ring::Ring::congestion_at`]).
    pub fn congestion_at(&self, at: (usize, usize)) -> u64 {
        let (x, y) = at;
        let mut q = 0u64;
        if x < self.w - 1 {
            q += self.east[y][x].queued_bytes();
        }
        if x > 0 {
            q += self.west[y][x - 1].queued_bytes();
        }
        if y < self.h - 1 {
            q += self.south[y][x].queued_bytes();
        }
        if y > 0 {
            q += self.north[y - 1][x].queued_bytes();
        }
        q
    }

    /// Turns event tracing on, staging delivery events on `track`.
    pub fn enable_trace(&mut self, track: Track) {
        self.trace = Some(TraceBuffer::new(track));
    }

    /// Moves staged delivery events into `sink` (no-op when tracing is
    /// off).
    pub fn drain_trace(&mut self, sink: &mut dyn TraceSink) {
        if let Some(buf) = self.trace.as_mut() {
            buf.drain_into(sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct P(u32);
    impl Transmittable for P {
        fn bytes(&self) -> u32 {
            self.0
        }
    }

    fn mesh() -> Mesh<P> {
        Mesh::new(4, 4, LinkConfig::sub_ring())
    }

    fn run(m: &mut Mesh<P>, cycles: Cycle) -> Vec<(Cycle, (usize, usize))> {
        let mut out = Vec::new();
        for now in 0..cycles {
            for (dst, _) in m.tick(now) {
                out.push((now, dst));
            }
        }
        out
    }

    #[test]
    fn xy_routing_delivers() {
        let mut m = mesh();
        m.inject((0, 0), (3, 2), 4, 0, P(4));
        let d = run(&mut m, 50);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1, (3, 2));
        assert!(m.is_idle());
        // 5 hops minimum.
        assert!(d[0].0 >= 4);
    }

    #[test]
    fn self_delivery_immediate() {
        let mut m = mesh();
        assert_eq!(m.inject((1, 1), (1, 1), 4, 0, P(4)), Some(P(4)));
        assert_eq!(m.stats().delivered, 1);
    }

    #[test]
    fn all_pairs_exactly_once() {
        let mut m = mesh();
        let mut expected = 0;
        for sx in 0..4 {
            for sy in 0..4 {
                for dx in 0..4 {
                    for dy in 0..4 {
                        if (sx, sy) != (dx, dy) {
                            m.inject((sx, sy), (dx, dy), 4, 0, P(4));
                            expected += 1;
                        }
                    }
                }
            }
        }
        let d = run(&mut m, 2000);
        assert_eq!(d.len(), expected);
        assert!(m.is_idle());
    }

    #[test]
    fn latency_tracked() {
        let mut m = mesh();
        m.inject((0, 0), (3, 3), 8, 0, P(8));
        let _ = run(&mut m, 100);
        assert!(m.stats().latency.mean() >= 5.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_coordinates_rejected() {
        mesh().inject((0, 0), (9, 9), 4, 0, P(4));
    }

    #[test]
    fn drained_mesh_reports_no_horizon() {
        let mut m = mesh();
        assert_eq!(m.next_event(7), None, "fresh mesh has no events");
        m.inject((0, 0), (2, 1), 4, 0, P(4));
        assert_eq!(m.next_event(0), Some(0), "queued item acts immediately");
        m.tick(0); // transmits; arrival due at 1
        assert_eq!(m.next_event(0), Some(1));
        let _ = run(&mut m, 50);
        assert!(m.is_idle());
        assert_eq!(m.next_event(50), None, "drained mesh reports None");
    }

    #[test]
    fn skip_idle_matches_ticking_an_idle_mesh() {
        let mut ticked = mesh();
        let mut skipped = mesh();
        for now in 0..80 {
            ticked.tick(now);
        }
        skipped.skip_idle(0, 80);
        assert_eq!(
            ticked.payload_offered_bytes(),
            skipped.payload_offered_bytes()
        );
    }

    #[test]
    fn congestion_counts_outgoing_queues() {
        let mut m = mesh();
        assert_eq!(m.congestion_at((1, 1)), 0);
        m.inject((1, 1), (3, 1), 8, 0, P(8));
        assert!(m.congestion_at((1, 1)) > 0);
    }
}

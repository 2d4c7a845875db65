//! A bidirectional ring of routers (§3.2, Fig. 7).
//!
//! Rings keep routing trivial — at injection, pick the direction with
//! fewer hops (ties broken toward the less congested output queue) and
//! ride it to the exit position. Per-hop cost is one channel traversal;
//! the channel model (including bidirectional lane granting and
//! high-density slicing) lives in [`crate::link`].
//!
//! A tick costs the channels that hold something, not the ring's size: a
//! bitset names the busy channels, and an idle channel's offered
//! capacity is charged lazily from a ring-wide cycle count.

use smarco_sim::Cycle;

use crate::link::{Channel, LinkConfig, Transmittable};

/// Travel direction around the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Toward increasing positions.
    Cw,
    /// Toward decreasing positions.
    Ccw,
}

/// Internal wrapper: an item plus its routing state on this ring.
#[derive(Debug, Clone)]
struct RingItem<T> {
    exit: usize,
    dir: Dir,
    hops: u32,
    item: T,
}

impl<T: Transmittable> Transmittable for RingItem<T> {
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

/// Ring-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RingStats {
    /// Items delivered at their exit position.
    pub delivered: u64,
    /// Total hops travelled by delivered items.
    pub total_hops: u64,
}

/// A ring of `n` router positions connected by [`Channel`]s.
///
/// The ring is topology-only: it moves opaque items from an injection
/// position to an exit position. Endpoint semantics (which position is a
/// core, a junction, a memory controller) belong to the ring backends in
/// [`crate::backend`].
#[derive(Debug, Clone)]
pub struct Ring<T> {
    /// `channels[i]` joins position `i` (fwd = cw) and `i+1 mod n`.
    channels: Vec<Channel<RingItem<T>>>,
    /// Bit `i` is set while `channels[i]` holds anything queued or on the
    /// wire.
    busy: Vec<u64>,
    /// Cycles accounted so far: one per tick, `to - from` per skip.
    cycles: u64,
    /// How many of those cycles each channel's statistics include; the
    /// rest were idle and are charged on settling.
    settled: Vec<u64>,
    n: usize,
    stats: RingStats,
}

impl<T: Transmittable> Ring<T> {
    /// Creates a ring of `n` positions.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the link config is invalid.
    pub fn new(n: usize, link: LinkConfig) -> Self {
        assert!(n >= 2, "a ring needs at least two positions");
        link.validate();
        Self {
            channels: (0..n).map(|_| Channel::new(link)).collect(),
            busy: vec![0; n.div_ceil(64)],
            cycles: 0,
            settled: vec![0; n],
            n,
            stats: RingStats::default(),
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false — rings have at least two positions.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Statistics so far.
    pub fn stats(&self) -> RingStats {
        self.stats
    }

    /// Degrades (or restores) the channel between positions `i` and
    /// `i+1 mod n` — fault-injection hook: model a partially failed link
    /// by giving it fewer lanes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the config is invalid.
    pub fn set_channel_config(&mut self, i: usize, link: LinkConfig) {
        assert!(i < self.n, "channel {i} out of range");
        self.settle(i);
        self.channels[i].set_config(link);
    }

    /// Charges channel `i` the idle cycles its statistics miss, at its
    /// current geometry.
    fn settle(&mut self, i: usize) {
        self.channels[i].charge_idle(self.cycles - self.settled[i]);
        self.settled[i] = self.cycles;
    }

    /// Indices of the busy channels, ascending.
    fn busy_channels(&self) -> impl Iterator<Item = usize> + '_ {
        self.busy
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| set_bits(word, w * 64))
    }

    /// Hop distance from `a` to `b` travelling `dir`.
    pub fn distance(&self, a: usize, b: usize, dir: Dir) -> usize {
        match dir {
            Dir::Cw => (b + self.n - a) % self.n,
            Dir::Ccw => (a + self.n - b) % self.n,
        }
    }

    fn out_queue_bytes(&self, at: usize, dir: Dir) -> u64 {
        match dir {
            Dir::Cw => self.channels[at].fwd.queued_bytes(),
            Dir::Ccw => self.channels[(at + self.n - 1) % self.n].rev.queued_bytes(),
        }
    }

    /// Pending bytes in both output queues of position `at` (congestion
    /// metric).
    pub fn congestion_at(&self, at: usize) -> u64 {
        self.out_queue_bytes(at, Dir::Cw) + self.out_queue_bytes(at, Dir::Ccw)
    }

    /// Injects `item` at position `at`, to leave the ring at `exit`.
    ///
    /// Direction is chosen by minimum hops; on a tie, by the smaller
    /// output-queue backlog (§3.2: cores "choose both directions of
    /// sub-ring to send packets based on the congestion condition").
    /// Returns `Some(item)` immediately when `at == exit`.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range.
    pub fn inject(&mut self, at: usize, exit: usize, item: T) -> Option<T> {
        assert!(at < self.n && exit < self.n, "position out of range");
        if at == exit {
            self.stats.delivered += 1;
            return Some(item);
        }
        let dcw = self.distance(at, exit, Dir::Cw);
        let dccw = self.distance(at, exit, Dir::Ccw);
        let dir = if dcw < dccw {
            Dir::Cw
        } else if dccw < dcw {
            Dir::Ccw
        } else if self.out_queue_bytes(at, Dir::Cw) <= self.out_queue_bytes(at, Dir::Ccw) {
            Dir::Cw
        } else {
            Dir::Ccw
        };
        let wrapped = RingItem {
            exit,
            dir,
            hops: 0,
            item,
        };
        self.push_out(at, wrapped);
        None
    }

    fn push_out(&mut self, at: usize, item: RingItem<T>) {
        let ch = match item.dir {
            Dir::Cw => at,
            Dir::Ccw => (at + self.n - 1) % self.n,
        };
        self.busy[ch / 64] |= 1 << (ch % 64);
        match item.dir {
            Dir::Cw => self.channels[ch].fwd.push(item),
            Dir::Ccw => self.channels[ch].rev.push(item),
        }
    }

    /// An item reaching position `pos`: delivered at its exit, queued
    /// onward otherwise.
    fn arrive(&mut self, pos: usize, mut it: RingItem<T>, delivered: &mut Vec<(usize, u32, T)>) {
        it.hops += 1;
        if it.exit == pos {
            self.stats.delivered += 1;
            self.stats.total_hops += u64::from(it.hops);
            delivered.push((pos, it.hops, it.item));
        } else {
            self.push_out(pos, it);
        }
    }

    /// Advances one cycle; returns `(exit_position, hops, item)` for every
    /// item that reached its exit, in channel order (forward before
    /// reverse within a channel).
    ///
    /// Only busy channels are visited. Arrivals are forwarded as they pop:
    /// `channels[j].fwd` is fed only by `channels[j-1].fwd` and
    /// `channels[j].rev` only by `channels[j+1].rev`, so every output queue
    /// has one upstream direction per tick and its order does not depend
    /// on the visiting order. A channel with nothing queued is not
    /// ticked; its offered capacity is charged when it is next settled.
    pub fn tick(&mut self, now: Cycle) -> Vec<(usize, u32, T)> {
        let mut delivered = Vec::new();
        // 1. Arrivals. A channel that turns busy here has an empty wire.
        for w in 0..self.busy.len() {
            for i in set_bits(self.busy[w], w * 64) {
                while let Some(it) = self.channels[i].fwd.pop_arrival(now) {
                    self.arrive((i + 1) % self.n, it, &mut delivered);
                }
                while let Some(it) = self.channels[i].rev.pop_arrival(now) {
                    self.arrive(i, it, &mut delivered);
                }
            }
        }
        // 2. Transmit where bytes are queued; drop emptied channels.
        for w in 0..self.busy.len() {
            for i in set_bits(self.busy[w], w * 64) {
                if self.channels[i].has_queued() {
                    self.settle(i);
                    self.channels[i].tick(now);
                    self.settled[i] = self.cycles + 1;
                }
                if self.channels[i].is_empty() {
                    self.busy[w] &= !(1 << (i % 64));
                }
            }
        }
        self.cycles += 1;
        delivered
    }

    /// Whether nothing is queued or in flight anywhere on the ring.
    pub fn is_idle(&self) -> bool {
        self.busy.iter().all(|&word| word == 0)
    }

    /// Event horizon: the earliest cycle at or after `now` at which any
    /// channel can transmit or deliver. Arrivals are processed before
    /// transmits within a tick, so an in-flight item due at `t` acts
    /// exactly at `t` — the wire due-cycle is an exact horizon, not an
    /// approximation. `None` when the ring is fully drained.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.busy_channels()
            .filter_map(|i| self.channels[i].next_event(now))
            .min()
    }

    /// Fast-forwards an idle ring across `[from, to)` in O(1): the skipped
    /// cycles join the ring's cycle count, and each channel's idle-grant
    /// capacity is charged when it is next settled.
    ///
    /// Debug builds assert the ring really is quiescent through `to` — a
    /// lying [`next_event`](Self::next_event) trips these rather than
    /// silently corrupting results.
    pub fn skip_idle(&mut self, from: Cycle, to: Cycle) {
        debug_assert!(
            self.busy_channels().all(|i| !self.channels[i].has_queued()),
            "cycle-skipped a ring with queued traffic"
        );
        debug_assert!(
            self.busy_channels().all(|i| {
                let ch = &self.channels[i];
                [ch.fwd.next_arrival(), ch.rev.next_arrival()]
                    .into_iter()
                    .all(|due| due.is_none_or(|d| d >= to))
            }),
            "cycle-skipped past an in-flight arrival"
        );
        self.cycles += to - from;
    }

    /// Cumulative `(payload, offered)` bytes summed over all channel
    /// directions. Monotonic counters: the windowed-metrics recorder diffs
    /// successive snapshots to get per-window utilization. Unsettled idle
    /// cycles are added to the stored counters without settling them, so
    /// a read changes nothing.
    pub fn payload_offered_bytes(&self) -> (u64, u64) {
        let (mut payload, mut offered) = (0u64, 0u64);
        for (ch, &settled) in self.channels.iter().zip(&self.settled) {
            let (fwd, rev) = ch.idle_offer(self.cycles - settled);
            offered += fwd + rev;
            for s in [ch.fwd.stats(), ch.rev.stats()] {
                payload += s.payload_bytes;
                offered += s.offered_bytes;
            }
        }
        (payload, offered)
    }

    /// Aggregated payload utilization across all channel directions.
    pub fn payload_utilization(&self) -> f64 {
        let (payload, offered) = self.payload_offered_bytes();
        if offered == 0 {
            0.0
        } else {
            payload as f64 / offered as f64
        }
    }
}

/// Indices of the set bits of `word`, ascending, offset by `base`.
fn set_bits(mut word: u64, base: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            base + bit
        })
    })
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

    fn ring(n: usize) -> Ring<P> {
        Ring::new(
            n,
            LinkConfig {
                lanes_fixed_per_dir: 1,
                lanes_bidir: 0,
                lane_bytes: 8,
                slice_bytes: Some(2),
                hop_latency: 1,
            },
        )
    }

    fn run_until_delivered(r: &mut Ring<P>, max: Cycle) -> Vec<(Cycle, usize, u32)> {
        let mut out = Vec::new();
        for now in 0..max {
            for (pos, hops, _) in r.tick(now) {
                out.push((now, pos, hops));
            }
        }
        out
    }

    #[test]
    fn short_way_round_is_chosen() {
        let mut r = ring(8);
        assert!(r.inject(0, 2, P(4)).is_none());
        let d = run_until_delivered(&mut r, 10);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].1, 2);
        assert_eq!(d[0].2, 2, "2 hops cw, not 6 ccw");
    }

    #[test]
    fn ccw_shortcut_is_taken() {
        let mut r = ring(8);
        r.inject(1, 7, P(4));
        let d = run_until_delivered(&mut r, 10);
        assert_eq!(d[0].2, 2, "2 hops ccw, not 6 cw");
    }

    #[test]
    fn self_delivery_is_immediate() {
        let mut r = ring(4);
        assert_eq!(r.inject(3, 3, P(4)), Some(P(4)));
        assert_eq!(r.stats().delivered, 1);
    }

    #[test]
    fn tie_breaks_toward_less_congested_direction() {
        let mut r = ring(4);
        // Pre-load the cw output queue of node 0.
        for _ in 0..10 {
            r.inject(0, 1, P(64));
        }
        // 0 → 2 is a 2-hop tie; congestion should steer it ccw.
        r.inject(0, 2, P(4));
        let cw_q = r.out_queue_bytes(0, Dir::Cw);
        let ccw_q = r.out_queue_bytes(0, Dir::Ccw);
        assert!(ccw_q > 0, "tied packet went ccw (cw backlog {cw_q})");
    }

    #[test]
    fn hop_latency_accumulates() {
        let mut r = ring(8);
        r.inject(0, 4, P(2));
        let d = run_until_delivered(&mut r, 20);
        // 4 hops at ≥1 cycle each: delivery at cycle ≥ 3 (arrivals lead
        // transmits within a tick), exactly 4 hops.
        assert_eq!(d[0].2, 4);
        assert!(r.is_idle());
    }

    #[test]
    fn many_packets_all_arrive_exactly_once() {
        let mut r = ring(16);
        let mut expected = 0;
        for src in 0..16 {
            for dst in 0..16 {
                if src != dst {
                    r.inject(src, dst, P(4));
                    expected += 1;
                }
            }
        }
        let d = run_until_delivered(&mut r, 500);
        assert_eq!(d.len(), expected);
        assert_eq!(r.stats().delivered as usize, expected);
        assert!(r.is_idle());
    }

    #[test]
    fn utilization_rises_under_load() {
        let mut r = ring(8);
        for src in 0..8 {
            for _ in 0..4 {
                r.inject(src, (src + 4) % 8, P(8));
            }
        }
        let _ = run_until_delivered(&mut r, 100);
        assert!(r.payload_utilization() > 0.0);
    }

    #[test]
    fn skip_idle_matches_ticking_an_idle_ring() {
        let mut ticked = ring(4);
        let mut skipped = ring(4);
        for now in 0..50 {
            ticked.tick(now);
        }
        skipped.skip_idle(0, 50);
        assert_eq!(
            ticked.payload_offered_bytes(),
            skipped.payload_offered_bytes()
        );
    }

    #[test]
    fn ring_horizon_follows_in_flight_items() {
        let mut r = ring(8);
        assert_eq!(r.next_event(3), None);
        r.inject(0, 2, P(4));
        assert_eq!(r.next_event(3), Some(3), "queued item acts immediately");
        r.tick(3); // transmits; arrival due at 4
        assert_eq!(r.next_event(3), Some(4));
        let _ = run_until_delivered(&mut r, 20);
        assert_eq!(r.next_event(20), None);
    }

    /// A ring item with an identity, a size and an arbitration class.
    #[derive(Debug, Clone, PartialEq)]
    struct Tagged {
        id: u32,
        bytes: u32,
        class: u8,
    }

    impl Transmittable for Tagged {
        fn bytes(&self) -> u32 {
            self.bytes
        }
        fn class(&self) -> u8 {
            self.class
        }
    }

    // The all-channel ring as it was before busy sets and lazy idle
    // charging: a tick collects every channel's arrivals, then forwards
    // them, then ticks every channel; a skip charges every channel at
    // once. It never advances the ring's cycle count, so
    // `payload_offered_bytes` finds nothing unsettled on it.

    fn ref_tick<T: Transmittable>(r: &mut Ring<T>, now: Cycle) -> Vec<(usize, u32, T)> {
        let mut delivered = Vec::new();
        let mut moved: Vec<(usize, RingItem<T>)> = Vec::new();
        for i in 0..r.n {
            while let Some(mut it) = r.channels[i].fwd.pop_arrival(now) {
                it.hops += 1;
                moved.push(((i + 1) % r.n, it));
            }
            while let Some(mut it) = r.channels[i].rev.pop_arrival(now) {
                it.hops += 1;
                moved.push((i, it));
            }
        }
        for (pos, it) in moved {
            if it.exit == pos {
                r.stats.delivered += 1;
                r.stats.total_hops += u64::from(it.hops);
                delivered.push((pos, it.hops, it.item));
            } else {
                r.push_out(pos, it);
            }
        }
        for ch in &mut r.channels {
            ch.tick(now);
        }
        delivered
    }

    fn ref_next_event<T: Transmittable>(r: &Ring<T>, now: Cycle) -> Option<Cycle> {
        r.channels.iter().filter_map(|ch| ch.next_event(now)).min()
    }

    fn ref_is_idle<T: Transmittable>(r: &Ring<T>) -> bool {
        r.channels.iter().all(Channel::is_empty)
    }

    fn ref_skip_idle<T: Transmittable>(r: &mut Ring<T>, from: Cycle, to: Cycle) {
        for ch in &mut r.channels {
            ch.charge_idle(to - from);
        }
    }

    #[test]
    fn busy_set_ring_matches_an_all_channel_reference() {
        // Seeded injects, ticks and idle skips, replayed on the reference.
        // Traffic comes in bursts with quiet stretches between them, so
        // channels go idle, skip and wake up again; at cycle 300 some
        // channels change their lanes and drop the hop latency from 3 to
        // 1 while items are on their wires. 70 positions make the busy
        // set span two words.
        let slow = LinkConfig {
            hop_latency: 3,
            ..LinkConfig::sub_ring()
        };
        let fast = LinkConfig {
            lanes_fixed_per_dir: 2,
            lanes_bidir: 1,
            hop_latency: 1,
            ..LinkConfig::sub_ring()
        };
        for n in [2, 17, 22, 70] {
            for seed in 1..=4 {
                let mut rng = smarco_sim::rng::SimRng::new(seed * 1_000 + n as u64);
                let mut ring = Ring::new(n, slow);
                let mut reference = Ring::new(n, slow);
                let mut next_id = 0;
                let mut now = 0;
                while now < 1_500 {
                    let burst = match now {
                        0..400 => 7,
                        600..900 => 3,
                        _ => 1,
                    };
                    for _ in 0..rng.gen_range(burst) {
                        let item = Tagged {
                            id: next_id,
                            bytes: 1 + rng.gen_range(40) as u32,
                            class: rng.gen_range(4) as u8,
                        };
                        next_id += 1;
                        let (at, exit) = (rng.gen_index(n), rng.gen_index(n));
                        let want = reference.inject(at, exit, item.clone());
                        assert_eq!(ring.inject(at, exit, item), want);
                    }
                    if now == 300 {
                        for i in (0..n).filter(|_| rng.chance(0.5)) {
                            ring.set_channel_config(i, fast);
                            reference.set_channel_config(i, fast);
                        }
                    }
                    let ctx = format!("n {n}, seed {seed}, cycle {now}");
                    let horizon = ring.next_event(now);
                    assert_eq!(horizon, ref_next_event(&reference, now), "{ctx}");
                    assert_eq!(ring.is_idle(), ref_is_idle(&reference), "{ctx}");
                    if rng.chance(0.5) && horizon.is_none_or(|t| t > now) {
                        let to = horizon
                            .unwrap_or(Cycle::MAX)
                            .min(now + 1 + rng.gen_range(30));
                        ring.skip_idle(now, to);
                        ref_skip_idle(&mut reference, now, to);
                        now = to;
                    } else {
                        let want = ref_tick(&mut reference, now);
                        assert_eq!(ring.tick(now), want, "{ctx}");
                        now += 1;
                    }
                    assert_eq!(
                        ring.payload_offered_bytes(),
                        reference.payload_offered_bytes(),
                        "{ctx}"
                    );
                    assert_eq!(ring.stats(), reference.stats(), "{ctx}");
                }
                assert!(ring.is_idle(), "n {n}, seed {seed}: traffic drained");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two positions")]
    fn tiny_ring_rejected() {
        let _: Ring<P> = ring(1);
    }

    #[test]
    #[should_panic(expected = "position out of range")]
    fn bad_position_rejected() {
        ring(4).inject(0, 9, P(1));
    }
}

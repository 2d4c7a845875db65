//! The conservative parallel-PDES engine (§4.2's "parallel simulation
//! platform"): partition a model into shards, advance them in lookahead-
//! bounded windows on separate threads, and get results identical to
//! sequential execution.
//!
//! The shards here are independent sub-ring NoCs exchanging packets
//! through their junctions with a fixed (≥ lookahead) bridging latency —
//! exactly the decomposition the SmarCo chip admits.
//!
//! ```text
//! cargo run --release --example parallel_pdes
//! ```

use std::time::Instant;

use smarco::noc::link::{LinkConfig, Transmittable};
use smarco::noc::ring::Ring;
use smarco::sim::parallel::{Inbox, Outbox, ParallelEngine, Shard};
use smarco::sim::rng::SimRng;
use smarco::sim::Cycle;

/// Bridging latency between sub-rings (the lookahead). Conservative PDES
/// can only parallelize work inside a lookahead window, so this knob
/// decides whether synchronization or computation dominates — the example
/// runs both a tight and a generous value to show the trade-off.
const LOOKAHEADS: [Cycle; 2] = [4, 64];

#[derive(Debug, Clone, PartialEq)]
struct Pkt(u32);
impl Transmittable for Pkt {
    fn bytes(&self) -> u32 {
        self.0
    }
}

/// One sub-ring plus its traffic source; cross-shard messages are packets
/// bridged between junctions.
struct SubringShard {
    id: usize,
    n_shards: usize,
    lookahead: Cycle,
    ring: Ring<Pkt>,
    rng: SimRng,
    sent: u64,
    received: u64,
    checksum: u64,
}

impl SubringShard {
    fn new(id: usize, n_shards: usize, lookahead: Cycle) -> Self {
        Self {
            id,
            n_shards,
            lookahead,
            ring: Ring::new(17, LinkConfig::sub_ring()),
            rng: SimRng::new(1000 + id as u64),
            sent: 0,
            received: 0,
            checksum: 0,
        }
    }
}

impl Shard for SubringShard {
    type Msg = Pkt;

    fn run_window(
        &mut self,
        from: Cycle,
        to: Cycle,
        inbox: &mut Inbox<Pkt>,
        outbox: &mut Outbox<Pkt>,
    ) {
        for now in from..to {
            // Packets bridged in from other sub-rings enter at the
            // junction (position 16) addressed to a local core.
            while let Some(pkt) = inbox.pop_due(now) {
                let dst = self.rng.gen_index(16);
                if self.ring.inject(16, dst, pkt).is_some() {
                    self.received += 1;
                }
            }
            // Local cores occasionally send to a random other sub-ring.
            if self.rng.chance(0.3) {
                let src = self.rng.gen_index(16);
                let bytes = 1 + self.rng.gen_range(8) as u32;
                self.sent += 1;
                let _ = self.ring.inject(src, 16, Pkt(bytes));
            }
            for (pos, _hops, pkt) in self.ring.tick(now) {
                if pos == 16 {
                    // Reached the junction: bridge to a random peer after
                    // the fixed junction latency.
                    let mut peer = self.rng.gen_index(self.n_shards);
                    if peer == self.id {
                        peer = (peer + 1) % self.n_shards;
                    }
                    // Windows are at most one lookahead long, so `now +
                    // lookahead` always lands at or past the window end —
                    // the conservative contract holds by construction.
                    outbox.send(peer, now + self.lookahead, pkt);
                } else {
                    self.received += 1;
                    self.checksum = self.checksum.wrapping_mul(31).wrapping_add(pos as u64);
                }
            }
        }
    }
}

fn build(n: usize, lookahead: Cycle) -> Vec<SubringShard> {
    (0..n)
        .map(|id| SubringShard::new(id, n, lookahead))
        .collect()
}

fn main() {
    let shards = 16;
    let cycles = 20_000;
    let host = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    println!(
        "Conservative PDES over {shards} sub-ring shards, {cycles} cycles (host has {host} CPU{}):",
        if host == 1 { "" } else { "s" }
    );
    for lookahead in LOOKAHEADS {
        let t0 = Instant::now();
        let mut seq = ParallelEngine::new(build(shards, lookahead), lookahead);
        seq.run_windowed(cycles, 1);
        let t_seq = t0.elapsed();

        let t0 = Instant::now();
        let mut par = ParallelEngine::new(build(shards, lookahead), lookahead);
        par.run_windowed(cycles, shards);
        let t_par = t0.elapsed();

        let (mut sent, mut received) = (0, 0);
        for (s, p) in seq.shards().iter().zip(par.shards()) {
            assert_eq!(s.checksum, p.checksum, "shard {} diverged", s.id);
            assert_eq!(s.received, p.received);
            sent += s.sent;
            received += s.received;
        }
        println!(
            "  lookahead {lookahead:>2}: sent {sent}, delivered {received}; sequential {t_seq:.2?}, parallel {t_par:.2?} ({:.2}x)",
            t_seq.as_secs_f64() / t_par.as_secs_f64()
        );
    }
    println!("  (results checksum-verified identical between modes)");
    println!(
        "Determinism is the point: parallel execution must reproduce the\n\
         sequential run bit-for-bit. Wall-clock speedup additionally needs\n\
         (a) real host cores and (b) windows long enough to amortize each\n\
         barrier — which is why the chip's natural shard boundary is the\n\
         junction latency."
    );
}

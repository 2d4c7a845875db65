//! SPM DMA engine (§3.5.1).
//!
//! SPMs transfer data among themselves and with main memory by DMA so that
//! cores keep computing during the copy. Each core owns one engine; the
//! runtime programs it through the SPM control registers (source,
//! destination, size), modelled here as a queue of transfers drained at a
//! fixed rate.

use std::collections::VecDeque;

use smarco_sim::stats::Counter;
use smarco_sim::Cycle;

/// DMA engine parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaConfig {
    /// Copy bandwidth in bytes per cycle.
    pub bytes_per_cycle: f64,
    /// Fixed start-up cost per transfer (programming + arbitration).
    pub setup_cycles: Cycle,
}

impl Default for DmaConfig {
    fn default() -> Self {
        // Two 64-bit sub-ring lanes sustained, modest setup.
        Self {
            bytes_per_cycle: 16.0,
            setup_cycles: 16,
        }
    }
}

#[derive(Debug, Clone)]
struct Transfer<T> {
    /// Ticks until the one that completes the transfer, setup included.
    ticks_left: Cycle,
    payload: T,
}

/// Copy ticks a transfer of `bytes` takes: each tick subtracts the
/// bandwidth from the bytes left until none are, so count those
/// subtractions in that float arithmetic, which fixes the count exactly
/// for any bandwidth.
fn copy_ticks(bytes: u64, bytes_per_cycle: f64) -> Cycle {
    let mut remaining = bytes as f64;
    let mut ticks = 0;
    loop {
        remaining -= bytes_per_cycle;
        ticks += 1;
        if remaining <= 0.0 {
            return ticks;
        }
    }
}

/// A per-core DMA engine; completed transfers return their payload.
///
/// # Examples
///
/// ```
/// use smarco_mem::dma::{Dma, DmaConfig};
///
/// let mut dma: Dma<&str> = Dma::new(DmaConfig { bytes_per_cycle: 8.0, setup_cycles: 2 });
/// dma.start(64, "iseg prefetch");
/// let mut done = Vec::new();
/// for _ in 0..10 {
///     done.extend(dma.tick());
/// }
/// assert_eq!(done, vec!["iseg prefetch"]); // 2 setup + 8 copy cycles
/// ```
#[derive(Debug, Clone)]
pub struct Dma<T> {
    config: DmaConfig,
    queue: VecDeque<Transfer<T>>,
    completed: Counter,
    bytes_copied: u64,
}

impl<T> Dma<T> {
    /// Creates an idle engine.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is non-positive.
    pub fn new(config: DmaConfig) -> Self {
        assert!(
            config.bytes_per_cycle > 0.0,
            "DMA bandwidth must be positive"
        );
        Self {
            config,
            queue: VecDeque::new(),
            completed: Counter::new(),
            bytes_copied: 0,
        }
    }

    /// Queues a transfer of `bytes`; `payload` comes back from
    /// [`tick`](Self::tick) on completion. Transfers run one at a time in
    /// FIFO order.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn start(&mut self, bytes: u64, payload: T) {
        assert!(bytes > 0, "zero-byte DMA transfer");
        self.bytes_copied += bytes;
        self.queue.push_back(Transfer {
            ticks_left: self.config.setup_cycles + copy_ticks(bytes, self.config.bytes_per_cycle),
            payload,
        });
    }

    /// Advances one cycle; returns the payload of the transfer that
    /// finished, if any. Only the head transfer progresses, so at most one
    /// finishes per cycle.
    pub fn tick(&mut self) -> Option<T> {
        let front = self.queue.front_mut()?;
        front.ticks_left -= 1;
        if front.ticks_left > 0 {
            return None;
        }
        self.completed.inc();
        self.queue.pop_front().map(|t| t.payload)
    }

    /// Ticks until the next completion, counting the completing one:
    /// [`tick`](Self::tick) returns the head transfer's payload on its
    /// `ticks_to_complete()`-th call from now. `None` when idle.
    pub fn ticks_to_complete(&self) -> Option<Cycle> {
        self.queue.front().map(|t| t.ticks_left)
    }

    /// Advances `n` cycles in which nothing completes, exactly as `n`
    /// calls of [`tick`](Self::tick) would. A no-op when idle.
    ///
    /// # Panics
    ///
    /// Panics if `n` reaches the head transfer's completion.
    pub fn skip(&mut self, n: Cycle) {
        if let Some(front) = self.queue.front_mut() {
            assert!(
                n < front.ticks_left,
                "skipped {n} DMA cycles past a completion {} ticks away",
                front.ticks_left
            );
            front.ticks_left -= n;
        }
    }

    /// Whether transfers are pending or in flight.
    pub fn is_busy(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Transfers completed so far.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// Total bytes accepted so far.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_copied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dma() -> Dma<u32> {
        Dma::new(DmaConfig {
            bytes_per_cycle: 8.0,
            setup_cycles: 2,
        })
    }

    #[test]
    fn transfer_takes_setup_plus_copy_cycles() {
        let mut d = dma();
        d.start(64, 7);
        let mut cycles = 0;
        loop {
            cycles += 1;
            if d.tick().is_some() {
                break;
            }
            assert!(cycles < 100, "transfer never completed");
        }
        assert_eq!(cycles, 2 + 8);
        assert!(!d.is_busy());
    }

    #[test]
    fn transfers_are_fifo_and_serialized() {
        let mut d = dma();
        d.start(8, 1);
        d.start(8, 2);
        let mut order = Vec::new();
        for _ in 0..20 {
            order.extend(d.tick());
        }
        assert_eq!(order, vec![1, 2]);
        assert_eq!(d.completed(), 2);
        assert_eq!(d.bytes_copied(), 16);
    }

    #[test]
    fn idle_engine_ticks_empty() {
        let mut d = dma();
        assert!(d.tick().is_none());
        assert!(!d.is_busy());
        assert_eq!(d.ticks_to_complete(), None);
        d.skip(5);
        assert!(!d.is_busy());
    }

    /// A per-tick reference engine: setup cycles count down, then every
    /// tick subtracts the bandwidth from the bytes left.
    struct PerTick {
        config: DmaConfig,
        queue: VecDeque<(Cycle, f64, u32)>,
    }

    impl PerTick {
        fn new(config: DmaConfig) -> Self {
            Self {
                config,
                queue: VecDeque::new(),
            }
        }

        fn start(&mut self, bytes: u64, payload: u32) {
            self.queue
                .push_back((self.config.setup_cycles, bytes as f64, payload));
        }

        fn tick(&mut self) -> Option<u32> {
            let (setup_left, remaining, _) = self.queue.front_mut()?;
            if *setup_left > 0 {
                *setup_left -= 1;
                return None;
            }
            *remaining -= self.config.bytes_per_cycle;
            if *remaining > 0.0 {
                return None;
            }
            self.queue.pop_front().map(|(_, _, payload)| payload)
        }

        fn is_busy(&self) -> bool {
            !self.queue.is_empty()
        }
    }

    fn configs() -> impl Iterator<Item = DmaConfig> {
        [16.0, 8.0, 3.0, 0.7]
            .into_iter()
            .flat_map(|bytes_per_cycle| {
                [0, 2, 16].map(|setup_cycles| DmaConfig {
                    bytes_per_cycle,
                    setup_cycles,
                })
            })
    }

    #[test]
    fn ticks_to_complete_matches_per_tick_ticking() {
        let sizes = (1..=4096).chain([65_537, 1 << 20, (4 << 20) - 3]);
        for config in configs() {
            for bytes in sizes.clone() {
                let mut reference = PerTick::new(config);
                reference.start(bytes, 0);
                let ticks = (1..).find(|_| reference.tick().is_some()).unwrap();
                let mut d = Dma::new(config);
                d.start(bytes, 0);
                assert_eq!(
                    d.ticks_to_complete(),
                    Some(ticks),
                    "{bytes} bytes at {config:?}"
                );
            }
        }
    }

    #[test]
    fn skips_between_completions_match_per_tick_ticking() {
        let mut rng = smarco_sim::rng::SimRng::new(7);
        for config in configs() {
            for round in 0..50 {
                let mut reference = PerTick::new(config);
                let mut d = Dma::new(config);
                for payload in 0..3 {
                    let bytes = 1 + rng.gen_range(if round % 10 == 0 { 100_000 } else { 4096 });
                    reference.start(bytes, payload);
                    d.start(bytes, payload);
                }
                let expected: Vec<(Cycle, u32)> = (0..)
                    .map_while(|now| reference.is_busy().then(|| (now, reference.tick())))
                    .filter_map(|(now, done)| done.map(|p| (now, p)))
                    .collect();
                // Skip a seeded share of each wait, then tick.
                let mut done = Vec::new();
                let mut now = 0;
                while let Some(left) = d.ticks_to_complete() {
                    let n = rng.gen_range(left);
                    d.skip(n);
                    now += n;
                    assert_eq!(d.ticks_to_complete(), Some(left - n));
                    if let Some(p) = d.tick() {
                        done.push((now, p));
                    }
                    now += 1;
                }
                assert_eq!(done, expected, "{config:?}, round {round}");
                assert_eq!(d.completed(), 3);
            }
        }
    }

    #[test]
    #[should_panic(expected = "past a completion")]
    fn skipping_a_completion_is_refused() {
        let mut d = dma();
        d.start(64, 7);
        let left = d.ticks_to_complete().unwrap();
        d.skip(left);
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_bytes_rejected() {
        dma().start(0, 1);
    }
}

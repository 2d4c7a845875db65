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
    remaining: f64,
    payload: T,
    setup_left: Cycle,
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
            remaining: bytes as f64,
            payload,
            setup_left: self.config.setup_cycles,
        });
    }

    /// Advances one cycle; returns the payload of the transfer that
    /// finished, if any. Only the head transfer progresses, so at most one
    /// finishes per cycle.
    pub fn tick(&mut self) -> Option<T> {
        let front = self.queue.front_mut()?;
        if front.setup_left > 0 {
            front.setup_left -= 1;
            return None;
        }
        front.remaining -= self.config.bytes_per_cycle;
        if front.remaining > 0.0 {
            return None;
        }
        self.completed.inc();
        self.queue.pop_front().map(|t| t.payload)
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
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_bytes_rejected() {
        dma().start(0, 1);
    }
}

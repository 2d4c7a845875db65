//! Discrete-event / cycle-hybrid simulation kernel for the SmarCo
//! reproduction.
//!
//! This crate is the substrate the paper calls its "parallel simulation
//! platform based on PDES" (§4.2): a framework responsible for time,
//! synchronization, statistics and parallel acceleration, on which the
//! function modules (cores, routers, memories, NoC) are composed.
//!
//! Design:
//!
//! * **Cycle-driven components, event-driven completions.** Throughput
//!   hardware (pipelines, routers, MACT) is busy nearly every cycle, so the
//!   models tick once per cycle. Long-latency completions (DRAM bursts, DMA)
//!   are scheduled on an [`event::EventWheel`] keyed by cycle.
//! * **Determinism.** All randomness flows through [`rng::SimRng`], a
//!   SplitMix64-seeded xoshiro256** generator that is reproducible across
//!   platforms; the same seed always yields the same simulation.
//! * **Conservative parallel execution.** [`parallel`] implements a
//!   conservative time-window PDES engine: the model is partitioned into
//!   shards (SmarCo uses one shard per sub-ring) that advance in lockstep
//!   windows bounded by the minimum cross-shard latency (the *lookahead*),
//!   exchanging timestamped messages at window boundaries.
//!
//! # Examples
//!
//! ```
//! use smarco_sim::event::EventWheel;
//!
//! let mut wheel: EventWheel<&str> = EventWheel::new();
//! wheel.schedule(10, "dram fill");
//! wheel.schedule(5, "dma done");
//! assert_eq!(wheel.pop_due(5), Some("dma done"));
//! assert_eq!(wheel.pop_due(5), None);
//! assert_eq!(wheel.pop_due(10), Some("dram fill"));
//! ```

#![warn(missing_docs)]

pub mod contract;
pub mod event;
pub mod obs;
pub mod parallel;
pub mod prof;
pub mod rng;
pub mod stats;

/// Simulation time, measured in clock cycles of the component's own clock
/// domain.
///
/// SmarCo runs at 1.5 GHz and the baseline Xeon model at 2.2 GHz; cycle
/// counts are converted to seconds only at reporting time (see
/// `smarco-power`).
pub type Cycle = u64;

//! Per-layer numbers of a traced pass, measured from the benchmark's side
//! of each layer boundary: a wrapper around every instruction stream, the
//! engine's own `ProfileReport`, and timers around the calls into the
//! runtime and the rack.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use smarco_isa::{Instr, InstructionStream};
use smarco_sim::prof::{HostPhase, PhaseNanos, ProfileReport};
use smarco_sim::stats::Percentiles;

/// Host time spent inside `next_instr`, summed over every stream of a pass.
#[derive(Debug, Default)]
pub struct GenClock {
    ns: AtomicU64,
    instrs: AtomicU64,
}

impl GenClock {
    /// Host seconds spent generating instructions.
    pub fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Instructions generated.
    pub fn instrs(&self) -> u64 {
        self.instrs.load(Ordering::Relaxed)
    }
}

/// Times every `next_instr` call of the stream it wraps and forwards it
/// unchanged. A stream adds its totals to the clock when it is dropped, so
/// read the clock after the chip that ran the stream is gone.
pub struct TimedStream {
    inner: Box<dyn InstructionStream + Send>,
    clock: Arc<GenClock>,
    ns: u64,
    instrs: u64,
}

impl TimedStream {
    /// Wraps `inner`, reporting into `clock`.
    pub fn new(inner: Box<dyn InstructionStream + Send>, clock: Arc<GenClock>) -> Self {
        Self {
            inner,
            clock,
            ns: 0,
            instrs: 0,
        }
    }
}

impl InstructionStream for TimedStream {
    fn next_instr(&mut self) -> Option<Instr> {
        let t0 = Instant::now();
        let instr = self.inner.next_instr();
        self.ns += t0.elapsed().as_nanos() as u64;
        self.instrs += u64::from(instr.is_some());
        instr
    }

    fn segment(&self) -> Option<(u64, u64)> {
        self.inner.segment()
    }
}

impl Drop for TimedStream {
    fn drop(&mut self) {
        // Statistics only: the thread that drops the chip joined every
        // worker first, so Relaxed is enough.
        self.clock.ns.fetch_add(self.ns, Ordering::Relaxed);
        self.clock.instrs.fetch_add(self.instrs, Ordering::Relaxed);
    }
}

/// The PDES engine's self-profile, summed over the jobs of a pass.
#[derive(Debug, Default)]
pub struct Engine {
    /// Host nanoseconds per engine phase, summed over workers.
    pub phases: PhaseNanos,
    /// Window boundaries processed.
    pub windows: u64,
    /// Envelopes routed between shards.
    pub envelopes: u64,
    /// Barrier-arrival spread per window, in nanoseconds (two or more
    /// workers only).
    pub spread: Percentiles,
    /// Nanoseconds stepping the sub-ring shards: TCG cores, sub-ring, MACT
    /// and sub-dispatcher.
    pub sub_step_ns: u64,
    /// Nanoseconds stepping the hub shard: main ring, DDR and main
    /// scheduler.
    pub hub_step_ns: u64,
    /// Shard-cycles stepped one by one.
    pub stepped_cycles: u64,
    /// Shard-cycles fast-forwarded past.
    pub skipped_cycles: u64,
}

impl Engine {
    /// Adds one job's profile and engine cycle counts.
    pub fn absorb(&mut self, p: &ProfileReport, stepped_cycles: u64, skipped_cycles: u64) {
        self.phases.merge(&p.phases());
        self.windows += p.telemetry.windows;
        self.envelopes += p.telemetry.envelopes_total;
        self.spread.merge(&p.telemetry.spread);
        for (shard, name) in p.shards.iter().zip(&p.shard_names) {
            if name == "hub" {
                self.hub_step_ns += shard.step_ns;
            } else {
                self.sub_step_ns += shard.step_ns;
            }
        }
        self.stepped_cycles += stepped_cycles;
        self.skipped_cycles += skipped_cycles;
    }

    /// Host seconds in `phase`.
    pub fn seconds(&self, phase: HostPhase) -> f64 {
        self.phases.get(phase) as f64 / 1e9
    }
}

/// Host seconds in the MapReduce runtime, and the phase lengths it
/// reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct Runtime {
    /// Host seconds constructing task streams.
    pub stream_build_s: f64,
    /// Simulated cycles of the map phases.
    pub map_cycles: u64,
    /// Simulated cycles of the reduce phases.
    pub reduce_cycles: u64,
}

/// Everything a traced pass measures per layer.
#[derive(Debug)]
pub struct Layers {
    /// Host seconds inside `build()` of the chips or the rack.
    pub build_s: f64,
    /// Host seconds producing the workload's inputs: `next_instr` of every
    /// stream on a chip workload, iterating the request stream on a rack.
    pub gen_s: f64,
    /// The MapReduce runtime (MapReduce workloads).
    pub runtime: Option<Runtime>,
    /// The engine's self-profile (chip workloads).
    pub engine: Option<Engine>,
    /// Largest offered − completed at a slice edge (rack workloads).
    pub backlog_max: Option<u64>,
}

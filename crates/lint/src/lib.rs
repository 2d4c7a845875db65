//! `smarco-lint` — static verifier for guest programs, DMA plans, and
//! chip configurations.
//!
//! The simulator's runtime checks (asserts in `Spm::access`, config
//! `validate()` panics, MACT debug invariants) catch a defect only on
//! the cycle it executes. This crate finds the same classes of defect
//! *statically*, from a bounded capture of each thread's instruction
//! stream and the plain config structs, before a chip is ever built:
//!
//! * [`addr`] — **SL01xx** address-map analysis: every memory reference
//!   and DMA endpoint must resolve wholly inside one mapped region of
//!   the unified address space.
//! * [`race`] — **SL02xx** cross-thread race detection: the ISA has no
//!   inter-thread barrier, so overlapping write/write or read/write
//!   footprints of co-scheduled threads are races; so is touching your
//!   own DMA destination before `Sync`.
//! * [`dma`] — **SL03xx** DMA/overlap analysis: self-overlapping
//!   copies, conflicting destinations, and MapReduce staging plans whose
//!   SPM buffers collide (mirroring `run_mapreduce`'s placement).
//! * [`config`] — **SL04xx** configuration validation: the structural
//!   invariants of [`SmarcoConfig`] and friends as diagnostics instead
//!   of panics, plus soft heuristics (slice widths, MACT deadlines,
//!   infeasible tasks).
//! * [`model`] — the **ChipModel IR**: a typed component/channel graph
//!   of the whole chip (cores, ring segments, junctions, MACTs, spokes,
//!   DDR channels, the retry wheel) extracted purely from config, plus
//!   the shard-partition hierarchy pass (**SL0423**) and the rack-scale
//!   cluster pass (**SL0460/SL0461**: fabric hops shorter than a chip's
//!   internal boundary, open-loop load beyond aggregate capacity).
//! * [`deadlock`] — **SL0420/SL0422** static deadlock analysis: blocking
//!   cycles and resource-class extinction over the model graph.
//! * [`horizon`] — **SL0421** horizon-soundness: evaluates the *same*
//!   [`HorizonContract`](smarco_core::contract::HorizonContract) object
//!   the PDES engine enforces in debug builds.
//! * [`schedbound`] — **SL0430/SL0431** worst-case latency bounds: the
//!   fault plan's composed worst-case delay against MACT deadlines,
//!   task laxities, and MapReduce phase budgets.
//! * [`corpus`](mod@corpus) — the negative-config corpus: one seeded bad
//!   config per model-pass trigger, self-verifying in tests and in CI.
//!
//! Every finding is a [`Diagnostic`] with a stable `SLxxxx` code, a
//! severity (deny / warn / note), a span, and usually a help line;
//! [`Report`] renders them as text or JSON. The `lint` binary in
//! `smarco-bench` sweeps the built-in benchmarks and configs.
//!
//! Statically certified footprints can be cross-checked at runtime:
//! [`certified_spm_footprint`] converts a thread set's verdict into the
//! ranges `Spm::certify` enforces under `debug_assertions`.

#![warn(missing_docs)]

pub mod access;
pub mod addr;
pub mod config;
pub mod corpus;
pub mod deadlock;
pub mod diag;
pub mod dma;
pub mod horizon;
pub mod model;
pub mod race;
pub mod schedbound;

pub use access::{Interval, IntervalSet, ThreadAccesses, ThreadProgram};
pub use addr::{check_addresses, check_thread_addresses};
pub use config::{check_config, check_link, check_mact, check_noc, check_task, check_tcg};
pub use corpus::{corpus, run_corpus, CorpusEntry};
pub use deadlock::check_deadlock;
pub use diag::{Code, Diagnostic, Report, Severity, Span};
pub use dma::{check_dma, check_mapreduce_plan, check_staging, StagedBuffer};
pub use horizon::check_horizon;
pub use model::{
    check_cluster, check_partition_hierarchy, Channel, ChannelKind, ChipModel, ClusterGeometry,
    PartitionLevel,
};
pub use race::{check_races, check_unsynced_dma};
pub use schedbound::{check_schedbound, fault_slack};

use smarco_core::config::SmarcoConfig;
use smarco_core::fault::FaultPlan;
use smarco_mem::map::{AddressSpace, RangeClass, Region};
use smarco_runtime::MapReduceConfig;
use smarco_sched::Task;

/// Runs the address, race, and DMA passes over a co-scheduled thread
/// set and returns the sorted report.
pub fn lint_threads(space: &AddressSpace, threads: &[ThreadProgram]) -> Report {
    let mut report = Report::new();
    report.absorb(addr::check_addresses(space, threads));
    report.absorb(race::check_races(threads));
    report.absorb(dma::check_dma(threads));
    report.sort();
    report
}

/// Runs the configuration pass over a whole-chip config and returns the
/// sorted report.
pub fn lint_config(cfg: &SmarcoConfig) -> Report {
    let mut report = Report::new();
    report.absorb(config::check_config(cfg));
    report.sort();
    report
}

/// Everything the model passes analyse together: a chip configuration,
/// the task set headed for the dispatcher, an optional fault plan
/// override (the config's own plan otherwise), an optional MapReduce
/// plan, and any outer partition levels beyond the chip's own.
#[derive(Debug, Clone)]
pub struct ModelInput {
    /// The chip configuration.
    pub cfg: SmarcoConfig,
    /// Tasks headed for the dispatcher.
    pub tasks: Vec<Task>,
    /// Fault plan override; `cfg.fault` is used when `None`.
    pub plan: Option<FaultPlan>,
    /// MapReduce plan whose phase budget joins the deadline checks.
    pub mr: Option<MapReduceConfig>,
    /// Partition levels enclosing the chip level, innermost first.
    pub outer_levels: Vec<PartitionLevel>,
    /// Rack-scale cluster geometry, when the chip is one of many on an
    /// inter-chip fabric serving an open-loop request stream.
    pub cluster: Option<ClusterGeometry>,
}

impl ModelInput {
    /// An input with no tasks, no plan override, and no outer levels.
    pub fn new(cfg: SmarcoConfig) -> Self {
        Self {
            cfg,
            tasks: Vec::new(),
            plan: None,
            mr: None,
            outer_levels: Vec::new(),
            cluster: None,
        }
    }

    /// Overrides the fault plan under analysis.
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Sets the task set under analysis.
    #[must_use]
    pub fn with_tasks(mut self, tasks: Vec<Task>) -> Self {
        self.tasks = tasks;
        self
    }

    /// Adds a MapReduce plan whose phase budget joins the checks.
    #[must_use]
    pub fn with_mapreduce(mut self, mr: MapReduceConfig) -> Self {
        self.mr = Some(mr);
        self
    }

    /// Appends an enclosing partition level (e.g. an inter-chip fabric).
    #[must_use]
    pub fn with_outer_level(mut self, level: PartitionLevel) -> Self {
        self.outer_levels.push(level);
        self
    }

    /// Attaches a rack-scale cluster geometry: the cluster pass
    /// ([`check_cluster`], SL0460/SL0461) runs and the geometry's fabric
    /// level joins the partition hierarchy (SL0423 and friends).
    #[must_use]
    pub fn with_cluster(mut self, cluster: ClusterGeometry) -> Self {
        self.cluster = Some(cluster);
        self
    }
}

/// Runs all four model passes — deadlock, horizon soundness,
/// schedulability bounds, and partition-hierarchy soundness — over one
/// [`ModelInput`] and returns the sorted report. This is the entry
/// point the `lint` CLI sweep, the CI corpus gate, and the corpus's own
/// tests all share.
pub fn lint_model(input: &ModelInput) -> Report {
    let mut model = ChipModel::extract(
        &input.cfg,
        &input.tasks,
        input.plan.as_ref(),
        input.mr.as_ref(),
    );
    model.levels.extend(input.outer_levels.iter().cloned());
    let mut report = Report::new();
    if let Some(cluster) = &input.cluster {
        model.levels.push(cluster.level());
        report.absorb(model::check_cluster(cluster));
    }
    report.absorb(deadlock::check_deadlock(&model));
    report.absorb(horizon::check_horizon(&input.cfg));
    report.absorb(schedbound::check_schedbound(&model));
    report.absorb(check_partition_hierarchy(&model.levels));
    report.sort();
    report
}

/// The union of `core`'s SPM-data ranges touched by `threads`, as
/// `(offset, len)` pairs relative to the data region — the exact shape
/// `Spm::certify` takes. Feed a lint-clean thread set's footprint to the
/// SPM and every debug-build access outside it will panic, catching any
/// divergence between the static model and the actual execution.
pub fn certified_spm_footprint(
    space: &AddressSpace,
    threads: &[ThreadProgram],
    core: usize,
) -> Vec<(u64, u64)> {
    let mut intervals = Vec::new();
    for t in threads {
        for (index, instr) in t.instrs.iter().enumerate() {
            for e in instr.op.effects() {
                if e.start >= e.end {
                    continue;
                }
                if let RangeClass::Within(Region::Spm { core: c, offset }) =
                    space.classify_range(e.start, e.end - e.start)
                {
                    if c == core {
                        intervals.push(Interval {
                            start: offset,
                            end: offset + (e.end - e.start),
                            pc: instr.pc,
                            index,
                        });
                    }
                }
            }
        }
    }
    IntervalSet::build(intervals)
        .intervals()
        .iter()
        .map(|iv| (iv.start, iv.end - iv.start))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarco_isa::op::{Instr, Op};
    use smarco_mem::map::{DRAM_BYTES, SPM_BASE};

    fn prog(name: &str, core: usize, slot: usize, ops: Vec<Op>) -> ThreadProgram {
        let instrs = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| Instr {
                pc: 0x4000 + i as u64 * 4,
                op,
            })
            .collect();
        ThreadProgram::new(name, core, slot, instrs)
    }

    #[test]
    fn seeded_violations_surface_in_text_and_json() {
        let space = AddressSpace::new(4, 2);
        let threads = vec![
            // SL0101: load from the unmapped hole above DRAM.
            prog("core0/slot0", 0, 0, vec![Op::load(DRAM_BYTES + 64, 8)]),
            // SL0201: both threads store the same DRAM word.
            prog("core0/slot2", 0, 2, vec![Op::store(0x9000, 8)]),
            prog("core1/slot0", 1, 0, vec![Op::store(0x9000, 8)]),
        ];
        let report = lint_threads(&space, &threads);
        assert!(report.has_deny());
        let text = report.render_text();
        assert!(text.contains("SL0101"), "{text}");
        assert!(text.contains("SL0201"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"code\":\"SL0101\""), "{json}");
        assert!(json.contains("\"code\":\"SL0201\""), "{json}");
    }

    #[test]
    fn clean_threads_and_configs_produce_empty_reports() {
        let space = AddressSpace::new(4, 2);
        let threads = vec![
            prog("a", 0, 0, vec![Op::load(0x1000, 8), Op::store(SPM_BASE, 8)]),
            prog("b", 1, 0, vec![Op::load(0x1000, 8), Op::store(0x2000, 8)]),
        ];
        assert!(lint_threads(&space, &threads).is_empty());
        assert!(lint_config(&SmarcoConfig::tiny()).is_empty());
    }

    #[test]
    fn config_violations_surface_in_both_renderings() {
        let mut cfg = SmarcoConfig::tiny();
        cfg.dram.channels = 9;
        let report = lint_config(&cfg);
        assert!(report.has_deny());
        assert!(report.render_text().contains("SL0403"));
        assert!(report.to_json().contains("\"code\":\"SL0403\""));
    }

    #[test]
    fn footprint_covers_spm_effects_and_ignores_the_rest() {
        let space = AddressSpace::new(4, 2);
        let threads = vec![prog(
            "t",
            0,
            0,
            vec![
                Op::store(SPM_BASE + 128, 8),
                Op::load(SPM_BASE + 132, 4), // merges with the store
                Op::load(0x1000, 8),         // DRAM: not part of the SPM footprint
                Op::Dma {
                    src: 0x1_0000,
                    dst: SPM_BASE + 4096,
                    bytes: 1024,
                },
                Op::Sync,
            ],
        )];
        let fp = certified_spm_footprint(&space, &threads, 0);
        assert_eq!(fp, vec![(128, 8), (4096, 1024)]);
        assert!(certified_spm_footprint(&space, &threads, 1).is_empty());
    }
}

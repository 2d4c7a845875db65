//! The negative-config corpus: one deliberately broken configuration
//! per model-pass trigger, each annotated with the codes it must
//! produce.
//!
//! The corpus is the verifier's own regression suite, runnable three
//! ways: as unit tests here, via `lint --corpus` in CI (which fails the
//! build if any entry stops producing its expected codes), and as
//! documentation — each entry is a minimal reproduction of one failure
//! mode the passes exist to catch.
//!
//! Every entry runs through [`lint_model`](crate::lint_model), the same
//! entry point the CLI sweep uses, so the corpus exercises the real
//! composition of passes, not the passes in isolation.

use smarco_core::config::SmarcoConfig;
use smarco_core::fault::{Fault, FaultPlan, RetryPolicy};
use smarco_sched::Task;

use crate::diag::Code;
use crate::model::{ClusterGeometry, PartitionLevel};
use crate::{lint_model, ModelInput};

/// One corpus entry: a broken configuration and the codes it must trip.
pub struct CorpusEntry {
    /// Stable entry name (used in CI output).
    pub name: &'static str,
    /// What the entry seeds and why it is fatal.
    pub why: &'static str,
    /// Codes the model passes must produce (`found ⊇ expected`).
    pub expected: Vec<Code>,
    /// Builds the broken input.
    pub build: fn() -> ModelInput,
}

fn base() -> ModelInput {
    ModelInput::new(SmarcoConfig::tiny())
}

/// The corpus, one entry per seeded failure mode.
pub fn corpus() -> Vec<CorpusEntry> {
    vec![
        CorpusEntry {
            name: "mact-permanent-lockup",
            why: "a MACT lockup that never ends closes the collect/flush/credit \
                  wait-for cycle around its sub-ring",
            expected: vec![Code::BlockingCycle],
            build: || {
                base().with_plan(FaultPlan::new(1).with_fault(Fault::MactLockup {
                    subring: 0,
                    at: 1_000,
                    cycles: u64::MAX,
                }))
            },
        },
        CorpusEntry {
            name: "all-channels-dead",
            why: "killing every DDR channel leaves memory requests no live server",
            expected: vec![Code::ResourceClassDead],
            build: || {
                let mut plan = FaultPlan::new(2);
                for channel in 0..SmarcoConfig::tiny().dram.channels {
                    plan = plan.with_fault(Fault::DramChannelDeath { channel, at: 100 });
                }
                base().with_plan(plan)
            },
        },
        CorpusEntry {
            name: "all-cores-dead",
            why: "killing every core leaves re-dispatch nowhere to move work",
            expected: vec![Code::ResourceClassDead],
            build: || {
                let mut plan = FaultPlan::new(3);
                for core in 0..SmarcoConfig::tiny().noc.cores() {
                    plan = plan.with_fault(Fault::CoreDeath { core, at: 100 });
                }
                base().with_plan(plan)
            },
        },
        CorpusEntry {
            name: "zero-latency-spoke",
            why: "a zero-cycle direct path floors its class at the junction \
                  latency only, so next_event can under-promise",
            expected: vec![Code::HorizonContract],
            build: || {
                let mut cfg = SmarcoConfig::tiny();
                cfg.direct.as_mut().unwrap().latency = 0;
                ModelInput::new(cfg)
            },
        },
        CorpusEntry {
            name: "zero-dram-latency",
            why: "a zero-cycle DDR reply timestamp equals its request cycle, \
                  voiding the hub shard's horizon promise",
            expected: vec![Code::HorizonContract],
            build: || {
                let mut cfg = SmarcoConfig::tiny();
                cfg.dram.base_latency = 0;
                ModelInput::new(cfg)
            },
        },
        CorpusEntry {
            name: "retry-blows-deadline-under-noise",
            why: "with noise injected, a maximally retried packet (worst 60 \
                  cycles) misses the 16-cycle MACT collection deadline",
            expected: vec![Code::WorstPathExceedsDeadline],
            build: || {
                base().with_plan(
                    FaultPlan::new(4)
                        .with_fault(Fault::SubRingNoise { permille: 50 })
                        .with_retry(RetryPolicy {
                            max_retries: 4,
                            base_backoff: 4,
                        }),
                )
            },
        },
        CorpusEntry {
            name: "starvable-task",
            why: "a task whose laxity is inside the plan's worst-case fault \
                  slack starves even though it is healthy-chip schedulable",
            expected: vec![Code::TaskStarvable],
            build: || {
                base()
                    .with_plan(
                        FaultPlan::new(5)
                            .with_fault(Fault::SubRingNoise { permille: 10 })
                            .with_fault(Fault::DramStall {
                                channel: 0,
                                at: 500,
                                cycles: 5_000,
                            }),
                    )
                    .with_tasks(vec![Task::new(1, 0, 4_000, 1_000)])
            },
        },
        CorpusEntry {
            name: "inverted-hierarchy",
            why: "an outer fabric level with a shorter lookahead than the \
                  sub-ring level would deliver into retired inner windows",
            expected: vec![Code::HierarchyLookahead],
            build: || base().with_outer_level(PartitionLevel::fabric(4, 1, 4)),
        },
        CorpusEntry {
            name: "oversubscribed-host",
            why: "a 64-chip fabric level pinned to a 2-CPU host time-slices \
                  its workers and measures scheduler overhead, not speedup",
            expected: vec![Code::HostOversubscribed],
            build: || base().with_outer_level(PartitionLevel::fabric(64, 20, 64).with_host_cpus(2)),
        },
        CorpusEntry {
            name: "fabric-hop-below-chip-boundary",
            why: "a 1-cycle fabric hop undercuts the chip's 2-cycle internal \
                  boundary, inverting the cluster's two-level PDES hierarchy",
            expected: vec![Code::FabricBelowChipBoundary, Code::HierarchyLookahead],
            build: || base().with_cluster(ClusterGeometry::new(4, 1, 4, &SmarcoConfig::tiny())),
        },
        CorpusEntry {
            name: "open-loop-overload",
            why: "offering 300k work-cycles per kcycle to a 4-chip cluster that \
                  retires 256k grows queues without bound",
            expected: vec![Code::OfferedLoadExceedsCapacity],
            build: || {
                base().with_cluster(
                    ClusterGeometry::new(4, 32, 4, &SmarcoConfig::tiny())
                        .with_offered_load(300_000.0),
                )
            },
        },
    ]
}

/// Runs every corpus entry; returns `(name, missing, report)` triples
/// for entries that failed to produce an expected code. An empty result
/// means the corpus is sound.
pub fn run_corpus() -> Vec<(String, Vec<Code>, crate::Report)> {
    let mut failures = Vec::new();
    for entry in corpus() {
        let report = lint_model(&(entry.build)());
        let missing: Vec<Code> = entry
            .expected
            .iter()
            .copied()
            .filter(|&code| !report.diagnostics().iter().any(|d| d.code == code))
            .collect();
        if !missing.is_empty() {
            failures.push((entry.name.to_string(), missing, report));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_corpus_entry_trips_its_expected_codes() {
        let failures = run_corpus();
        assert!(
            failures.is_empty(),
            "corpus entries missing their codes: {:?}",
            failures
                .iter()
                .map(|(n, m, _)| (n.clone(), m.clone()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn corpus_names_are_unique_and_entries_nonempty() {
        let entries = corpus();
        assert!(entries.len() >= 8);
        let mut names: Vec<_> = entries.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), entries.len(), "duplicate corpus names");
        for entry in &entries {
            assert!(!entry.expected.is_empty(), "{} expects nothing", entry.name);
        }
    }

    #[test]
    fn the_healthy_baseline_is_clean_so_findings_are_the_seeds() {
        // If tiny itself tripped the passes, the corpus would prove
        // nothing: every entry's finding must come from its seed.
        assert!(lint_model(&ModelInput::new(SmarcoConfig::tiny())).is_empty());
    }

    #[test]
    fn starvable_task_entry_uses_a_healthy_chip_schedulable_task() {
        // Guard the entry against drifting into SL0409 territory.
        let task = Task::new(1, 0, 4_000, 1_000);
        assert!(task.laxity(task.arrival) >= 0);
    }
}

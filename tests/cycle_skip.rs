//! The cycle-skipping contract: event-horizon fast-forwarding is a pure
//! wall-clock optimisation. For every HTC benchmark, at one and four
//! workers, a run with skipping on reproduces the skip-off canonical
//! report bit for bit — and on these memory-bound workloads the skipper
//! must actually engage, with stepped + skipped shard-cycles tiling the
//! run (checked on every point by `support`). On the rack's serving load,
//! runs of single-cycle computes, a core charges each run in one skip, so
//! almost every shard-cycle is skipped. A MapReduce job that stages its
//! slices into SPM spends much of its time waiting on DMA transfers, which
//! a core sleeps through until the next completion.

mod support;

use smarco::core::config::SmarcoConfig;
use smarco::core::fault::{Fault, FaultPlan};
use smarco::core::report::SmarcoReport;
use smarco::core::SmarcoSystem;
use smarco::isa::mix::compute_only;
use smarco::runtime::mapreduce::MapReduceRun;
use smarco::sched::TaskPriority;
use smarco::workloads::Benchmark;
use support::{at, check_against_canonical, LOAD, SKIP, WORKERS};

#[test]
fn skip_on_and_off_are_bit_identical_on_all_benchmarks() {
    check_against_canonical(Benchmark::ALL.iter().flat_map(|bench| {
        ["1", "4"].map(|workers| at(&[(LOAD, bench.name()), (WORKERS, workers), (SKIP, "on")]))
    }));
}

/// Runs 96 `compute_only` tasks of 1,000–3,999 instructions through the
/// hardware dispatcher of a tiny chip; returns the report and the
/// skipped share of its shard-cycles.
fn serve_compute_runs(
    fault: Option<Fault>,
    workers: usize,
    cycle_skip: bool,
) -> (SmarcoReport, f64) {
    let mut cfg = SmarcoConfig::tiny();
    cfg.workers = workers;
    cfg.cycle_skip = cycle_skip;
    cfg.fault = fault.map(|f| FaultPlan::new(1).with_fault(f));
    let shards = (cfg.noc.subrings + 1) as u64;
    let mut sys = SmarcoSystem::builder()
        .config(cfg)
        .build()
        .expect("valid config");
    for j in 0..96u64 {
        let work = 1_000 + (j * 37) % 3_000;
        sys.submit_task(
            Box::new(compute_only(work)),
            4_000_000,
            work,
            TaskPriority::Normal,
        );
    }
    let report = sys.run(10_000_000);
    assert!(sys.is_done(), "chip did not drain");
    let share = sys.skipped_cycles() as f64 / (shards * report.cycles) as f64;
    (report, share)
}

#[test]
fn compute_runs_are_skipped_not_ticked() {
    for fault in [None, Some(Fault::CoreDeath { core: 0, at: 1_500 })] {
        let (canonical, _) = serve_compute_runs(fault, 1, false);
        let d = &canonical.degradation;
        if fault.is_some() {
            // The death lands mid-run: core 0's eight threads move.
            assert_eq!(
                (d.quarantined_cores, d.redispatches, d.lost_threads),
                (1, 8, 0),
                "{d:?}"
            );
        } else {
            assert!(d.is_clean(), "{d:?}");
        }
        for (workers, skip) in [(1, true), (4, false), (4, true)] {
            let (report, share) = serve_compute_runs(fault, workers, skip);
            assert_eq!(
                report, canonical,
                "fault {fault:?}, workers {workers}, skip {skip}"
            );
            if skip {
                assert!(
                    share >= 0.9,
                    "skipped {share:.3} of shard-cycles (fault {fault:?}, workers {workers})"
                );
            }
        }
    }
}

/// Runs a TeraSort MapReduce job on the tiny chip, eight tasks per core:
/// each map and reduce thread DMAs its slice into its SPM share before
/// computing, so every core's engine stages eight slices one after the
/// other while their threads wait at `Sync`.
fn staged_job(workers: usize, cycle_skip: bool) -> MapReduceRun {
    let mut cfg = SmarcoConfig::tiny();
    cfg.workers = workers;
    cfg.cycle_skip = cycle_skip;
    smarco_bench::harness::smarco_mapreduce(Benchmark::TeraSort, &cfg, 300, 100, 8)
}

#[test]
fn staged_dma_waits_are_skipped_not_ticked() {
    let canonical = staged_job(1, false);
    let summary = |run: &MapReduceRun| {
        (
            run.map_tasks,
            run.reduce_tasks,
            run.map_cycles,
            run.reduce_cycles,
            run.report.clone(),
        )
    };
    for (workers, skip) in [(1, true), (4, false), (4, true)] {
        let run = staged_job(workers, skip);
        assert_eq!(
            summary(&run),
            summary(&canonical),
            "workers {workers}, skip {skip}"
        );
        // A core sleeps through its engine's countdown to the next
        // completion: 0.797 of shard-cycles skipped, against 0.668 when a
        // busy DMA engine kept its core's horizon at the current cycle.
        if skip {
            assert!(
                run.skip_ratio() >= 0.75,
                "skipped {:.3} of shard-cycles (workers {workers})",
                run.skip_ratio()
            );
        }
    }
}

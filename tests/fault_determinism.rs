//! The fault-injection determinism contract: a seeded [`FaultPlan`]
//! perturbs a run, but the perturbed run is still *exactly* reproducible
//! — the full `SmarcoReport`, including its degradation section, is
//! bit-identical for any PDES worker count and with cycle skipping on or
//! off. Corruption verdicts are pure functions of (seed, packet id,
//! attempt) and every scheduled fault publishes a `next_event` horizon,
//! so neither host-thread interleaving nor fast-forwarding can leak into
//! the damage done or the recovery performed. A core that dies mid-run
//! has its dispatched tasks re-enqueued and finished on the surviving
//! cores, with no thread lost.

mod support;

use smarco::core::config::SmarcoConfig;
use smarco::core::fault::{Fault, FaultPlan};
use smarco::core::SmarcoSystem;
use smarco::sim::rng::SimRng;
use smarco::workloads::{Benchmark, HtcStream};
use support::{at, check_against_canonical, FAULT, LOAD, PLAN, SKIP, WORKERS};

const THREADS_PER_CORE: usize = 4;
const OPS: u64 = 1_200;
const MAX_CYCLES: u64 = 100_000_000;

#[test]
fn chaos_report_identical_across_workers_and_cycle_skip() {
    // TeraSort through the hardware dispatcher under a chaos plan; the
    // canonical run must show retries, a quarantined core and no lost
    // thread.
    let variants = [("1", "on"), ("4", "off"), ("4", "on")];
    check_against_canonical(variants.map(|(workers, skip)| {
        at(&[
            (LOAD, "dispatched TeraSort"),
            (FAULT, "chaos"),
            (WORKERS, workers),
            (SKIP, skip),
        ])
    }));
}

#[test]
fn zero_fault_plan_reproduces_unfaulted_run() {
    // A chip built with the explicit empty plan must match one built with
    // no plan at all, bit for bit, and do no damage.
    check_against_canonical(["off", "on"].map(|skip| {
        at(&[
            (LOAD, "dispatched TeraSort"),
            (PLAN, "FaultPlan::none()"),
            (SKIP, skip),
        ])
    }));
}

#[test]
fn quarantine_then_redispatch_completes_all_terasort_tasks() {
    // One core dies early with noise on both ring levels; its dispatched
    // tasks must be ripped out, re-enqueued with recomputed deadlines,
    // and finish on the surviving cores.
    let plan = FaultPlan::new(7)
        .with_fault(Fault::SubRingNoise { permille: 30 })
        .with_fault(Fault::MainRingNoise { permille: 15 })
        .with_fault(Fault::CoreDeath { core: 0, at: 3_000 });
    let cfg = SmarcoConfig::tiny();
    let mut sys = SmarcoSystem::builder()
        .config(cfg.clone())
        .fault_plan(plan)
        .build()
        .expect("valid config");
    let total = (cfg.noc.cores() * THREADS_PER_CORE) as u64;
    for j in 0..total {
        let p = Benchmark::TeraSort.thread_params(0x100_0000, 16 << 20, 0x8000_0000, j, total, OPS);
        sys.submit_task(
            Box::new(HtcStream::new(p, SimRng::new(1 + j))),
            4_000_000,
            OPS * 4,
            smarco::sched::TaskPriority::Normal,
        );
    }
    let report = sys.run(MAX_CYCLES);
    assert!(sys.is_done(), "chip drained under faults");
    let d = &report.degradation;
    assert_eq!(d.quarantined_cores, 1, "{d:?}");
    assert!(
        d.redispatches > 0,
        "dead core's tasks not re-dispatched: {d:?}"
    );
    assert_eq!(
        d.lost_threads, 0,
        "dispatcher-managed tasks must survive: {d:?}"
    );
    assert!(d.link_retries > 0, "{d:?}");
    assert!(report.instructions > 0);
}

//! Fig. 21: task exit times under the software Deadline Scheduler vs the
//! hardware laxity-aware scheduler.
//!
//! One sub-ring holds 128 resident RNC thread tasks but only 64 run at any
//! instant; the scheduler decides, every quantum, which 64 make progress.
//! All tasks share a 340 000-cycle deadline and each needs ≈ half the
//! deadline of solo work, so under processor sharing everything exits
//! near the deadline. The software Deadline Scheduler (coarse OS quantum)
//! leaves quantum-sized progress offsets: exits spread wide and some miss
//! the deadline. The hardware laxity-aware scheduler re-decides at a fine
//! grain, always running the least-laxity tasks: progress equalizes and
//! the exit window tightens — the earliest exit is *later*, the success
//! rate higher, exactly the paper's observation.
//!
//! The figure is built on the observability layer: each run executes
//! under [`run_tasks_preemptive_traced`] with an [`EventTrace`] sink, and
//! the exit-time/laxity distributions are derived from the captured
//! `task_dispatch` / `task_exit` events.

use smarco_sched::executor::run_tasks_preemptive_traced;
use smarco_sched::{DeadlineScheduler, ExecutorReport, LaxityAwareScheduler, Task, TaskScheduler};
use smarco_sim::obs::{EventKind, EventTrace};
use smarco_sim::rng::SimRng;
use smarco_sim::stats::Percentiles;
use smarco_sim::Cycle;

use crate::paper::Claim;
use crate::Scale;

/// The common deadline (cycles), as in the paper.
pub const DEADLINE: Cycle = 340_000;
/// Tasks per sub-ring (16 cores × 8 resident threads).
pub const TASKS: u64 = 128;
/// Running slots per sub-ring (16 cores × 4 running threads).
pub const SLOTS: usize = 64;
/// OS scheduling quantum for the software scheduler.
pub const SW_QUANTUM: Cycle = 20_000;
/// Hardware re-decision interval.
pub const HW_QUANTUM: Cycle = 4_000;

/// Observability summary of one scheduler run, derived from its event
/// trace rather than the executor's records.
#[derive(Debug, Clone)]
pub struct SchedObs {
    /// The captured scheduler-track events.
    pub trace: EventTrace,
    /// Exit-cycle distribution (p50/p90/p99 of `task_exit` timestamps).
    pub exits: Percentiles,
    /// Laxity (cycles of slack) at each task's first dispatch, clamped
    /// at zero.
    pub dispatch_laxity: Percentiles,
    /// Deadline misses counted from `task_exit` events.
    pub misses: u64,
}

impl SchedObs {
    fn from_trace(trace: EventTrace) -> Self {
        let mut exits = Percentiles::new();
        let mut dispatch_laxity = Percentiles::new();
        let mut misses = 0;
        for ev in trace.iter() {
            match ev.kind {
                EventKind::TaskExit { deadline_met, .. } => {
                    exits.record(ev.cycle as f64);
                    if !deadline_met {
                        misses += 1;
                    }
                }
                EventKind::TaskDispatch { laxity, .. } => {
                    dispatch_laxity.record(laxity.max(0) as f64);
                }
                _ => {}
            }
        }
        Self {
            trace,
            exits,
            dispatch_laxity,
            misses,
        }
    }
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig21 {
    /// Software Deadline Scheduler run (left panel).
    pub software: ExecutorReport,
    /// Hardware laxity-aware run (right panel).
    pub hardware: ExecutorReport,
    /// Trace-derived summary of the software run.
    pub software_obs: SchedObs,
    /// Trace-derived summary of the hardware run.
    pub hardware_obs: SchedObs,
}

/// RNC task set: equal deadlines; solo work ≈ half the deadline (two
/// tasks share each running slot) with a few percent variation.
pub fn rnc_tasks(seed: u64) -> Vec<Task> {
    let mut rng = SimRng::new(seed);
    let mean = DEADLINE / 2 - DEADLINE / 50;
    (0..TASKS)
        .map(|i| {
            let spread = mean / 12;
            let work = mean - spread / 2 + rng.gen_range(spread);
            Task::new(i, 0, DEADLINE, work)
        })
        .collect()
}

fn traced_run(
    scheduler: &mut dyn TaskScheduler,
    tasks: Vec<Task>,
    quantum: Cycle,
) -> (ExecutorReport, SchedObs) {
    // 128 dispatches + 128 exits fit comfortably; headroom for reuse.
    let mut trace = EventTrace::new(1 << 12);
    let report =
        run_tasks_preemptive_traced(scheduler, tasks, SLOTS, quantum, 100_000_000, &mut trace);
    (report, SchedObs::from_trace(trace))
}

/// Runs the experiment (the task geometry is the paper's; `scale` is
/// accepted for interface uniformity).
pub fn run(_scale: Scale) -> Fig21 {
    let tasks = rnc_tasks(21);
    let mut sw = DeadlineScheduler::with_overhead(200);
    let (software, software_obs) = traced_run(&mut sw, tasks.clone(), SW_QUANTUM);
    let mut hw = LaxityAwareScheduler::subring();
    let (hardware, hardware_obs) = traced_run(&mut hw, tasks, HW_QUANTUM);
    Fig21 {
        software,
        hardware,
        software_obs,
        hardware_obs,
    }
}

/// The paper's claim about Fig. 21.
pub const CLAIMS: &[Claim<Fig21>] = &[Claim::new(
    "Of 128 tasks, the laxity-aware hardware meets every deadline, more than the \
     software scheduler, with under a third of its exit spread and a later earliest exit.",
    |f| {
        let (sw, hw) = (&f.software, &f.hardware);
        let tasks = (sw.records.len(), hw.records.len());
        ensure!(tasks == (128, 128), "tasks {tasks:?}");
        let spread = (hw.exit_spread(), sw.exit_spread());
        ensure!(spread.0 < spread.1 / 3, "exit spread {spread:?}");
        let success = (hw.success_rate(), sw.success_rate());
        let met = (success.0 - 1.0).abs() < 1e-9 && success.0 > success.1;
        ensure!(met, "success {success:.3?}");
        let earliest = (hw.exit_range().0, sw.exit_range().0);
        ensure!(earliest.0 > earliest.1, "earliest exit {earliest:?}");
        Ok(())
    },
)];

impl std::fmt::Display for Fig21 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig. 21: exit times of {TASKS} tasks, deadline {DEADLINE} cycles"
        )?;
        for (label, r, o) in [
            ("software deadline", &self.software, &self.software_obs),
            ("hardware laxity", &self.hardware, &self.hardware_obs),
        ] {
            let (min, max) = r.exit_range();
            writeln!(
                f,
                "  {:<18} exits {:>7}..{:<7} spread={:<7} success={:.1}%",
                label,
                min,
                max,
                r.exit_spread(),
                r.success_rate() * 100.0
            )?;
            writeln!(
                f,
                "  {:<18}   exit p50={:.0} p90={:.0} p99={:.0}  dispatch-laxity p50={:.0}  misses={}",
                "",
                o.exits.p50(),
                o.exits.p90(),
                o.exits.p99(),
                o.dispatch_laxity.p50(),
                o.misses,
            )?;
        }
        Ok(())
    }
}

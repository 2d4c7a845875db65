//! Pass (c) — **SL043x** worst-case latency and schedulability bounds
//! over the [`ChipModel`].
//!
//! The recovery stack turns faults into *delay*: retransmits back off
//! exponentially, DDR stalls park requests, a channel death costs a
//! remap re-issue. This pass composes those worst cases into a single
//! **fault slack** — the most extra latency one request can absorb under
//! the extracted plan — and checks it against every deadline in the
//! model:
//!
//! * **SL0430 `WorstPathExceedsDeadline`** — under injected noise, a
//!   maximally retried packet misses the MACT collection deadline, so a
//!   line flushes without it and the batch it expected splits. This
//!   sharpens `SL0415`: that heuristic compares the retry wheel to the
//!   MACT unconditionally, while this pass only fires when the plan
//!   actually injects noise on the path feeding the MACT.
//! * **SL0431 `TaskStarvable`** — a task's laxity at arrival (or a
//!   MapReduce phase budget) is non-negative but smaller than the fault
//!   slack: schedulable on the healthy chip, starvable under the plan.
//!   (Outright infeasible tasks — negative laxity — are `SL0409`'s job
//!   and stay out of this pass.)
//!
//! All bounds are interval arithmetic over the model; no simulation.

use crate::diag::{Code, Diagnostic, Span};
use crate::model::ChipModel;
use smarco_sim::Cycle;

/// The most extra latency one request can absorb under the model's
/// fault plan: a full retransmit ladder (when noise is injected), plus
/// the longest scheduled DDR stall, plus one remap re-issue (when a
/// channel death forces requests onto a surviving channel).
pub fn fault_slack(model: &ChipModel) -> Cycle {
    let mut slack: Cycle = 0;
    if model.sub_noise_permille > 0 || model.main_noise_permille > 0 {
        slack = slack.saturating_add(model.retry_worst_delay);
    }
    slack = slack.saturating_add(model.max_dram_stall);
    if model.any_channel_death {
        slack = slack.saturating_add(model.dram_base_latency);
    }
    slack
}

/// Runs the schedulability pass.
pub fn check_schedbound(model: &ChipModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let slack = fault_slack(model);

    // SL0430: noise on the collection path vs the MACT deadline.
    if let Some(threshold) = model.mact_threshold {
        if model.sub_noise_permille > 0 && model.retry_worst_delay >= threshold {
            out.push(
                Diagnostic::new(
                    Code::WorstPathExceedsDeadline,
                    Span::Field("fault.retry".to_string()),
                    format!(
                        "with {}‰ sub-ring noise a maximally retried request \
                         ({} retries, base backoff {}) arrives {} cycles late \
                         — at or past the {}-cycle MACT collection deadline, \
                         so its line flushes without it and the batch splits",
                        model.sub_noise_permille,
                        model.retry_max,
                        model.retry_base,
                        model.retry_worst_delay,
                        threshold,
                    ),
                )
                .with_help("shorten the retry ladder or raise mact.threshold above it"),
            );
        }
    }

    if slack == 0 {
        return out;
    }

    // SL0431: per-task laxity vs the fault slack.
    for task in &model.tasks {
        let laxity = task.laxity(task.arrival);
        if laxity >= 0 && (laxity as u64) < slack {
            out.push(
                Diagnostic::new(
                    Code::TaskStarvable,
                    Span::Plan(format!("task {}", task.id)),
                    format!(
                        "laxity {laxity} at arrival is smaller than the plan's \
                         {slack}-cycle worst-case fault slack: schedulable on \
                         the healthy chip, starvable under this fault plan",
                    ),
                )
                .with_help("extend the deadline by the fault slack or soften the plan"),
            );
        }
    }

    // SL0431 (phase form): a MapReduce phase budget inside the slack.
    if let Some(budget) = model.phase_budget {
        if budget < slack {
            out.push(
                Diagnostic::new(
                    Code::TaskStarvable,
                    Span::Plan("mapreduce phase budget".to_string()),
                    format!(
                        "phase budget {budget} is smaller than the plan's \
                         {slack}-cycle worst-case fault slack: one faulted \
                         request can starve an entire phase",
                    ),
                )
                .with_help("budget each phase beyond the worst single-request delay"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ChipModel;
    use smarco_core::config::SmarcoConfig;
    use smarco_core::fault::{Fault, FaultPlan, RetryPolicy};
    use smarco_sched::Task;

    fn model(plan: FaultPlan, tasks: &[Task]) -> ChipModel {
        ChipModel::extract(&SmarcoConfig::tiny(), tasks, Some(&plan), None)
    }

    #[test]
    fn healthy_plan_has_zero_slack_and_no_findings() {
        let m = model(FaultPlan::none(), &[Task::new(1, 0, 10, 5)]);
        assert_eq!(fault_slack(&m), 0);
        assert!(check_schedbound(&m).is_empty());
    }

    #[test]
    fn default_retry_ladder_under_noise_misses_nothing() {
        // Worst delay 2+4+8 = 14 < threshold 16: noise alone is fine.
        let plan = FaultPlan::new(1).with_fault(Fault::SubRingNoise { permille: 50 });
        let m = model(plan, &[]);
        assert_eq!(fault_slack(&m), 14);
        assert!(check_schedbound(&m).is_empty());
    }

    #[test]
    fn oversized_retry_ladder_under_noise_blows_the_mact_deadline() {
        let plan = FaultPlan::new(1)
            .with_fault(Fault::SubRingNoise { permille: 50 })
            .with_retry(RetryPolicy {
                max_retries: 4,
                base_backoff: 4,
            });
        let m = model(plan, &[]);
        let ds = check_schedbound(&m);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::WorstPathExceedsDeadline);
    }

    #[test]
    fn oversized_ladder_without_noise_stays_silent() {
        // Sharper than SL0415: no noise, so the worst path never occurs.
        let plan = FaultPlan::new(1).with_retry(RetryPolicy {
            max_retries: 4,
            base_backoff: 4,
        });
        assert!(check_schedbound(&model(plan, &[])).is_empty());
    }

    #[test]
    fn low_laxity_task_is_starvable_under_the_plan() {
        let plan = FaultPlan::new(1)
            .with_fault(Fault::SubRingNoise { permille: 10 })
            .with_fault(Fault::DramStall {
                channel: 0,
                at: 100,
                cycles: 2000,
            });
        // slack = 14 + 2000 = 2014. laxity = 2500 - 0 - 1000 = 1500.
        let tight = Task::new(7, 0, 2500, 1000);
        let loose = Task::new(8, 0, 1_000_000, 1000);
        let ds = check_schedbound(&model(plan, &[tight, loose]));
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::TaskStarvable);
        assert!(matches!(&ds[0].span, Span::Plan(p) if p == "task 7"));
    }

    #[test]
    fn infeasible_tasks_are_not_this_passes_business() {
        let plan = FaultPlan::new(1).with_fault(Fault::DramStall {
            channel: 0,
            at: 100,
            cycles: 2000,
        });
        // Negative laxity: SL0409 territory, SL0431 stays silent.
        let infeasible = Task::new(9, 0, 10, 1000);
        assert!(check_schedbound(&model(plan, &[infeasible])).is_empty());
    }
}

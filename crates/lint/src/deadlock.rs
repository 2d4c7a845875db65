//! Pass (a) — **SL042x** static deadlock analysis over the
//! [`ChipModel`] graph.
//!
//! The chip's request paths form a directed graph; the engine's
//! blocking discipline means a request parked behind a permanently
//! out-of-service component never completes, and everything queued
//! behind it stalls in turn. Two shapes are fatal:
//!
//! * **SL0420 `BlockingCycle`** — a wait-for cycle with no escape: a
//!   MACT whose scheduled lockup never ends still *admits* collectable
//!   requests into its open lines, but never flushes, so the sub-ring's
//!   cores wait on the MACT, the MACT holds the junction batch, and the
//!   junction's credit never returns to the cores. The pass names the
//!   cycle edge by edge.
//! * **SL0422 `ResourceClassDead`** — the fault plan kills *every* unit
//!   of a resource class some live requester still needs: all DDR
//!   channels dead (every memory request blocks forever) or all cores
//!   dead (nothing can make progress at all). Killing *some* units is
//!   the recovery stack's job and stays silent.
//!
//! Both are reachability facts, checked with a DFS that refuses to exit
//! permanently blocked components — no simulation, no timing.

use crate::diag::{Code, Diagnostic, Span};
use crate::model::{ChipModel, Component};

/// Runs the deadlock pass.
pub fn check_deadlock(model: &ChipModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // SL0420: a permanently locked MACT closes the collect → flush →
    // junction loop around its sub-ring. Narrate the wait-for cycle.
    for id in model.find(Component::permanently_blocked) {
        if let Component::Mact {
            subring, lockups, ..
        } = &model.components[id]
        {
            let at = lockups
                .iter()
                .find(|&&(_, to)| to == u64::MAX)
                .map_or(0, |&(from, _)| from);
            out.push(
                Diagnostic::new(
                    Code::BlockingCycle,
                    Span::Field(format!("fault.mact_lockup[subring{subring}]")),
                    format!(
                        "mact{subring} locks up at cycle {at} and never recovers: \
                         cores on sub-ring {subring} wait on mact{subring}, \
                         mact{subring} holds its flush batch for junction{subring}, \
                         and junction{subring}'s credit never returns to the cores \
                         — a wait-for cycle with no live exit",
                    ),
                )
                .with_help("give the lockup a finite duration or quarantine the sub-ring"),
            );
        }
    }

    // SL0422: class extinction. A request class with zero live servers
    // blocks every live requester that needs it.
    let live = |pred: fn(&Component) -> bool| {
        model
            .components
            .iter()
            .filter(|c| pred(c))
            .filter(|c| !c.permanently_blocked())
            .count()
    };
    let total = |pred: fn(&Component) -> bool| model.find(pred).len();

    let is_ddr = |c: &Component| matches!(c, Component::DdrChannel { .. });
    if total(is_ddr) > 0 && live(is_ddr) == 0 {
        out.push(
            Diagnostic::new(
                Code::ResourceClassDead,
                Span::Field("fault.dram_channel_death".to_string()),
                format!(
                    "the fault plan kills all {} DDR channels: every memory \
                     request on the chip eventually blocks forever",
                    total(is_ddr),
                ),
            )
            .with_help("leave at least one channel alive so remap recovery has a target"),
        );
    }

    let is_core = |c: &Component| matches!(c, Component::TcgCore { .. });
    if total(is_core) > 0 && live(is_core) == 0 {
        out.push(
            Diagnostic::new(
                Code::ResourceClassDead,
                Span::Field("fault.core_death".to_string()),
                format!(
                    "the fault plan kills all {} TCG cores: re-dispatch has \
                     nowhere to move work and the chip halts",
                    total(is_core),
                ),
            )
            .with_help("leave at least one core alive so the scheduler can re-dispatch"),
        );
    }

    // General reachability: every live core must still reach a live DDR
    // channel through the graph. This subsumes single-point blockages
    // the class checks above cannot name (and stays silent when a core
    // has an alternate route, e.g. the direct-path spoke around a locked
    // MACT).
    if out.is_empty() {
        for core in model.find(|c| matches!(c, Component::TcgCore { .. })) {
            if model.components[core].permanently_blocked() {
                continue;
            }
            let reach = model.reachable(core);
            let memory_reachable = reach.iter().any(|&i| {
                matches!(model.components[i], Component::DdrChannel { .. })
                    && !model.components[i].permanently_blocked()
            });
            if !memory_reachable {
                out.push(
                    Diagnostic::new(
                        Code::BlockingCycle,
                        Span::Whole,
                        format!(
                            "{} has no blockage-free path to a live DDR channel: \
                             its first memory request waits forever",
                            model.components[core].label(),
                        ),
                    )
                    .with_help("restore a route (spoke or ring) or kill the core too"),
                );
                break; // one witness is enough; siblings repeat it
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ChipModel;
    use smarco_core::config::SmarcoConfig;
    use smarco_core::fault::{Fault, FaultPlan};

    fn model_with(plan: FaultPlan) -> ChipModel {
        ChipModel::extract(&SmarcoConfig::tiny(), &[], Some(&plan), None)
    }

    #[test]
    fn healthy_and_finitely_faulty_chips_are_clean() {
        assert!(check_deadlock(&model_with(FaultPlan::none())).is_empty());
        // A bounded lockup, one dead channel, one dead core: recoverable.
        let plan = FaultPlan::new(1)
            .with_fault(Fault::MactLockup {
                subring: 0,
                at: 100,
                cycles: 500,
            })
            .with_fault(Fault::DramChannelDeath { channel: 0, at: 50 })
            .with_fault(Fault::CoreDeath { core: 3, at: 10 });
        assert!(check_deadlock(&model_with(plan)).is_empty());
    }

    #[test]
    fn permanent_mact_lockup_is_a_blocking_cycle() {
        let plan = FaultPlan::new(1).with_fault(Fault::MactLockup {
            subring: 2,
            at: 1000,
            cycles: u64::MAX,
        });
        let ds = check_deadlock(&model_with(plan));
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::BlockingCycle);
        assert!(ds[0].message.contains("mact2"), "{}", ds[0].message);
        assert!(
            ds[0].message.contains("wait-for cycle"),
            "{}",
            ds[0].message
        );
    }

    #[test]
    fn killing_every_ddr_channel_is_class_extinction() {
        let channels = SmarcoConfig::tiny().dram.channels;
        let mut plan = FaultPlan::new(1);
        for channel in 0..channels {
            plan = plan.with_fault(Fault::DramChannelDeath { channel, at: 40 });
        }
        let ds = check_deadlock(&model_with(plan));
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::ResourceClassDead);
        assert!(ds[0].message.contains("DDR"), "{}", ds[0].message);
    }

    #[test]
    fn killing_every_core_is_class_extinction() {
        let cores = SmarcoConfig::tiny().noc.cores();
        let mut plan = FaultPlan::new(1);
        for core in 0..cores {
            plan = plan.with_fault(Fault::CoreDeath { core, at: 40 });
        }
        let ds = check_deadlock(&model_with(plan));
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::ResourceClassDead);
        assert!(ds[0].message.contains("cores"), "{}", ds[0].message);
    }
}

//! The **ChipModel IR**: a typed component/channel graph of the whole
//! chip, extracted purely from configuration — no simulation.
//!
//! Every structural fact the model passes reason about is reified here:
//! TCG cores, sub-ring and main-ring segments, junctions, MACTs,
//! direct-path spokes, DDR channels, the retransmission wheel, the
//! fault plan's scheduled outages, the task set, and the shard
//! partition hierarchy. The passes ([`crate::deadlock`],
//! [`crate::horizon`], [`crate::schedbound`], and
//! [`check_partition_hierarchy`]) are graph algorithms and interval
//! arithmetic over this IR; none of them ever constructs a chip.
//!
//! Extraction is total: any [`SmarcoConfig`] yields a model, including
//! invalid ones — that is the point, since the passes exist to report
//! on configurations the simulator would refuse to build (or build and
//! then livelock).

use smarco_core::config::SmarcoConfig;
use smarco_core::fault::FaultPlan;
use smarco_runtime::MapReduceConfig;
use smarco_sched::Task;
use smarco_sim::Cycle;

use crate::diag::{Code, Diagnostic, Span};

/// Index of a component in [`ChipModel::components`].
pub type CompId = usize;

/// A chip component, with the fault-plan outages that apply to it.
#[derive(Debug, Clone, PartialEq)]
pub enum Component {
    /// One TCG core.
    TcgCore {
        /// Global core index.
        core: usize,
        /// Owning sub-ring.
        subring: usize,
        /// Cycle a scheduled `CoreDeath` kills it, if any.
        killed_at: Option<Cycle>,
    },
    /// One sub-ring's link segment (plus its injection ports).
    SubRingSeg {
        /// Sub-ring index.
        subring: usize,
        /// Injection corruption probability (‰ per attempt).
        noise_permille: u32,
        /// Backend realizing the segment (`ring` or `mesh`).
        backend: &'static str,
    },
    /// The junction between one sub-ring and the main ring.
    Junction {
        /// Sub-ring index.
        subring: usize,
        /// Crossing latency (the engine lookahead).
        latency: Cycle,
    },
    /// The main ring's link segment.
    MainRingSeg {
        /// Injection corruption probability (‰ per attempt).
        noise_permille: u32,
        /// Backend realizing the segment (`ring` or `mesh`).
        backend: &'static str,
    },
    /// One sub-ring's memory-access collection table.
    Mact {
        /// Sub-ring index.
        subring: usize,
        /// Collection deadline in cycles.
        threshold: Cycle,
        /// Scheduled lockup windows `[from, to)`; `to == u64::MAX` is a
        /// lockup that never ends.
        lockups: Vec<(Cycle, Cycle)>,
    },
    /// One sub-ring's direct-datapath spoke.
    DirectSpoke {
        /// Sub-ring index.
        subring: usize,
        /// Fixed traversal latency.
        latency: Cycle,
    },
    /// One DDR channel.
    DdrChannel {
        /// Channel index.
        channel: usize,
        /// Cycle a scheduled `DramChannelDeath` kills it, if any.
        dead_at: Option<Cycle>,
        /// Scheduled stall windows `[from, to)`.
        stalls: Vec<(Cycle, Cycle)>,
    },
    /// The retransmission wheel retried NoC packets park on.
    RetryWheel {
        /// Retry budget.
        max_retries: u32,
        /// First backoff in cycles (doubles per attempt).
        base_backoff: Cycle,
        /// Total worst-case retransmit delay.
        worst_delay: Cycle,
    },
}

impl Component {
    /// Whether the component is permanently out of service under the
    /// extracted fault plan: a dead DDR channel, a killed core, or a
    /// MACT whose lockup window never ends. Finite outages (stalls,
    /// bounded lockups) do not count — they delay, they don't block.
    pub fn permanently_blocked(&self) -> bool {
        match self {
            Component::DdrChannel { dead_at, .. } => dead_at.is_some(),
            Component::TcgCore { killed_at, .. } => killed_at.is_some(),
            Component::Mact { lockups, .. } => lockups.iter().any(|&(_, to)| to == u64::MAX),
            _ => false,
        }
    }

    /// Short label for diagnostics.
    pub fn label(&self) -> String {
        match self {
            Component::TcgCore { core, .. } => format!("core{core}"),
            Component::SubRingSeg { subring, .. } => format!("sub-ring{subring}"),
            Component::Junction { subring, .. } => format!("junction{subring}"),
            Component::MainRingSeg { .. } => "main-ring".to_string(),
            Component::Mact { subring, .. } => format!("mact{subring}"),
            Component::DirectSpoke { subring, .. } => format!("spoke{subring}"),
            Component::DdrChannel { channel, .. } => format!("ddr{channel}"),
            Component::RetryWheel { .. } => "retry-wheel".to_string(),
        }
    }
}

/// What a channel between two components carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// Core → sub-ring injection (and the reply delivery back).
    Inject,
    /// Sub-ring → MACT: a collectable request entering an open line.
    Collect,
    /// MACT → junction: a flushed batch heading for the main ring.
    Flush,
    /// Junction ↔ main ring crossing.
    Ring,
    /// Core → spoke or spoke → DDR: direct-datapath traversal.
    Spoke,
    /// Main ring → DDR channel port (and the reply back).
    Port,
    /// A blocked sender parking on the retry wheel and re-entering.
    Retry,
}

/// A directed channel in the component graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel {
    /// Source component.
    pub from: CompId,
    /// Destination component.
    pub to: CompId,
    /// Traffic class.
    pub kind: ChannelKind,
    /// Minimum traversal latency in cycles.
    pub latency: Cycle,
}

/// The extracted chip model.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipModel {
    /// All components.
    pub components: Vec<Component>,
    /// All directed channels (the request direction; replies retrace the
    /// same channels backwards and are not duplicated).
    pub channels: Vec<Channel>,
    /// MACT collection deadline, when a MACT is configured.
    pub mact_threshold: Option<Cycle>,
    /// Sub-ring injection noise (‰), 0 when the plan injects none.
    pub sub_noise_permille: u32,
    /// Main-ring injection noise (‰).
    pub main_noise_permille: u32,
    /// Worst-case retransmit delay of the retry wheel.
    pub retry_worst_delay: Cycle,
    /// Retry budget (for diagnostics).
    pub retry_max: u32,
    /// First backoff (for diagnostics).
    pub retry_base: Cycle,
    /// Longest scheduled DDR stall window, in cycles.
    pub max_dram_stall: Cycle,
    /// Whether any DDR channel death is scheduled (remap penalty).
    pub any_channel_death: bool,
    /// DDR base latency (the remap re-issue penalty).
    pub dram_base_latency: Cycle,
    /// The laxity-scheduled task set under analysis.
    pub tasks: Vec<Task>,
    /// Per-phase cycle budget of the MapReduce plan, when one is given.
    pub phase_budget: Option<Cycle>,
    /// The shard-partition hierarchy (innermost level first).
    pub levels: Vec<PartitionLevel>,
}

impl ChipModel {
    /// Extracts the model from a configuration, a task set, a fault plan
    /// (defaulting to the config's own plan when `None`), and an
    /// optional MapReduce plan.
    pub fn extract(
        cfg: &SmarcoConfig,
        tasks: &[Task],
        plan: Option<&FaultPlan>,
        mr: Option<&MapReduceConfig>,
    ) -> Self {
        let healthy = FaultPlan::none();
        let plan = plan.or(cfg.fault.as_ref()).unwrap_or(&healthy);
        let subrings = cfg.noc.subrings;
        let cps = cfg.noc.cores_per_subring;
        let jl = cfg.noc.boundary_latency();
        let backend = cfg.noc.backend.name();

        let mut components = Vec::new();
        let mut channels = Vec::new();
        let main_seg = {
            components.push(Component::MainRingSeg {
                noise_permille: plan.main_noise_permille(),
                backend,
            });
            components.len() - 1
        };
        let retry = plan.retry();
        let wheel = {
            components.push(Component::RetryWheel {
                max_retries: retry.max_retries,
                base_backoff: retry.base_backoff,
                worst_delay: retry.worst_case_delay(),
            });
            components.len() - 1
        };
        let mut ddr_ids = Vec::new();
        let deaths = plan.channel_deaths();
        let stalls = plan.dram_stalls();
        for channel in 0..cfg.dram.channels {
            let id = components.len();
            components.push(Component::DdrChannel {
                channel,
                dead_at: deaths
                    .iter()
                    .find(|&&(c, _)| c == channel)
                    .map(|&(_, at)| at),
                stalls: stalls
                    .iter()
                    .filter(|&&(c, _, _)| c == channel)
                    .map(|&(_, from, to)| (from, to))
                    .collect(),
            });
            ddr_ids.push(id);
            channels.push(Channel {
                from: main_seg,
                to: id,
                kind: ChannelKind::Port,
                latency: cfg.noc.main_link.hop_latency,
            });
        }
        for sr in 0..subrings {
            let seg = components.len();
            components.push(Component::SubRingSeg {
                subring: sr,
                noise_permille: plan.sub_noise_permille(),
                backend,
            });
            let junction = components.len();
            components.push(Component::Junction {
                subring: sr,
                latency: jl,
            });
            channels.push(Channel {
                from: junction,
                to: main_seg,
                kind: ChannelKind::Ring,
                latency: jl,
            });
            if let Some(mact) = &cfg.mact {
                let m = components.len();
                components.push(Component::Mact {
                    subring: sr,
                    threshold: mact.threshold,
                    lockups: plan.mact_lockups(sr),
                });
                channels.push(Channel {
                    from: seg,
                    to: m,
                    kind: ChannelKind::Collect,
                    latency: cfg.noc.sub_link.hop_latency,
                });
                channels.push(Channel {
                    from: m,
                    to: junction,
                    kind: ChannelKind::Flush,
                    latency: mact.threshold,
                });
            } else {
                channels.push(Channel {
                    from: seg,
                    to: junction,
                    kind: ChannelKind::Ring,
                    latency: cfg.noc.sub_link.hop_latency,
                });
            }
            let spoke = cfg.direct.as_ref().map(|d| {
                let s = components.len();
                components.push(Component::DirectSpoke {
                    subring: sr,
                    latency: d.latency,
                });
                // The spoke lands directly at memory: one Port channel
                // per DDR channel (the address decides which).
                for &ddr in &ddr_ids {
                    channels.push(Channel {
                        from: s,
                        to: ddr,
                        kind: ChannelKind::Spoke,
                        latency: d.latency,
                    });
                }
                s
            });
            // Noise on this sub-ring parks blocked senders on the wheel,
            // which re-injects into the same segment: the retry cycle.
            if plan.sub_noise_permille() > 0 {
                channels.push(Channel {
                    from: seg,
                    to: wheel,
                    kind: ChannelKind::Retry,
                    latency: retry.backoff(0),
                });
                channels.push(Channel {
                    from: wheel,
                    to: seg,
                    kind: ChannelKind::Retry,
                    latency: 0,
                });
            }
            let kills = plan.core_kills_in(sr * cps, (sr + 1) * cps);
            for c in 0..cps {
                let core = sr * cps + c;
                let id = components.len();
                components.push(Component::TcgCore {
                    core,
                    subring: sr,
                    killed_at: kills.iter().find(|&&(_, k)| k == core).map(|&(at, _)| at),
                });
                channels.push(Channel {
                    from: id,
                    to: seg,
                    kind: ChannelKind::Inject,
                    latency: cfg.noc.sub_link.hop_latency,
                });
                if let Some(s) = spoke {
                    channels.push(Channel {
                        from: id,
                        to: s,
                        kind: ChannelKind::Spoke,
                        latency: cfg.direct.as_ref().map_or(0, |d| d.latency),
                    });
                }
            }
        }
        if plan.main_noise_permille() > 0 {
            channels.push(Channel {
                from: main_seg,
                to: wheel,
                kind: ChannelKind::Retry,
                latency: retry.backoff(0),
            });
            channels.push(Channel {
                from: wheel,
                to: main_seg,
                kind: ChannelKind::Retry,
                latency: 0,
            });
        }

        let max_dram_stall = stalls
            .iter()
            .map(|&(_, from, to)| to.saturating_sub(from))
            .max()
            .unwrap_or(0);
        Self {
            components,
            channels,
            mact_threshold: cfg.mact.as_ref().map(|m| m.threshold),
            sub_noise_permille: plan.sub_noise_permille(),
            main_noise_permille: plan.main_noise_permille(),
            retry_worst_delay: retry.worst_case_delay(),
            retry_max: retry.max_retries,
            retry_base: retry.base_backoff,
            max_dram_stall,
            any_channel_death: !deaths.is_empty(),
            dram_base_latency: cfg.dram.base_latency,
            tasks: tasks.to_vec(),
            phase_budget: mr.map(|m| m.phase_budget),
            levels: vec![PartitionLevel::subring(cfg)],
        }
    }

    /// Components matching `pred`, as ids.
    pub fn find(&self, pred: impl Fn(&Component) -> bool) -> Vec<CompId> {
        (0..self.components.len())
            .filter(|&i| pred(&self.components[i]))
            .collect()
    }

    /// Every component reachable from `start` along request-direction
    /// channels, refusing to *leave* a permanently blocked component (a
    /// request may arrive at a dead unit; it never comes out).
    pub fn reachable(&self, start: CompId) -> Vec<CompId> {
        let mut seen = vec![false; self.components.len()];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(c) = stack.pop() {
            if self.components[c].permanently_blocked() {
                continue;
            }
            for ch in self.channels.iter().filter(|ch| ch.from == c) {
                if !seen[ch.to] {
                    seen[ch.to] = true;
                    stack.push(ch.to);
                }
            }
        }
        (0..self.components.len()).filter(|&i| seen[i]).collect()
    }
}

/// One level of the shard-partition hierarchy, innermost first: today's
/// chip has a single level (cores partitioned into sub-ring shards plus
/// the hub); a multi-chip fabric adds an outer level (chips partitioned
/// across cluster shards). The same soundness rules apply at every
/// level, plus a cross-level rule: lookahead must not shrink outward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionLevel {
    /// Human-readable level name for spans (e.g. `sub-ring`, `chip`).
    pub label: String,
    /// Units being partitioned at this level (cores, chips, ...).
    pub units: usize,
    /// Units per shard.
    pub per_shard: usize,
    /// Total shards at this level (including any hub/coordinator shard).
    pub shards: usize,
    /// The level's PDES lookahead in cycles.
    pub lookahead: Cycle,
    /// The shortest boundary-crossing path latency at this level.
    pub min_boundary_latency: Cycle,
    /// Host threads driving this level.
    pub workers: usize,
    /// Logical CPUs on the host expected to drive this level, when
    /// known. `None` disables the oversubscription check (SL0450) —
    /// e.g. a hypothetical fabric whose host is not yet chosen.
    pub host_cpus: Option<usize>,
}

impl PartitionLevel {
    /// Today's chip level: cores into sub-ring shards plus the hub,
    /// junction-latency lookahead, with the direct-path spoke as the
    /// shortest possible boundary crossing.
    pub fn subring(cfg: &SmarcoConfig) -> Self {
        let jl = cfg.noc.boundary_latency();
        Self {
            label: "sub-ring".to_string(),
            units: cfg.noc.cores(),
            per_shard: cfg.noc.cores_per_subring,
            shards: cfg.noc.subrings + 1,
            lookahead: jl,
            min_boundary_latency: cfg.direct.as_ref().map_or(jl, |d| d.latency.min(jl)),
            workers: cfg.workers,
            host_cpus: Some(detected_host_cpus()),
        }
    }

    /// An outer chip-as-shard fabric level (ROADMAP item 2): `chips`
    /// chips, one per shard, crossed by an inter-chip fabric with the
    /// given `lookahead` (= its minimum hop latency), driven by
    /// `workers` host threads.
    pub fn fabric(chips: usize, lookahead: Cycle, workers: usize) -> Self {
        Self {
            label: "chip".to_string(),
            units: chips,
            per_shard: 1,
            shards: chips,
            lookahead,
            min_boundary_latency: lookahead,
            workers,
            host_cpus: None,
        }
    }

    /// Pins the level to a host with `cpus` logical CPUs, arming the
    /// oversubscription check (SL0450).
    pub fn with_host_cpus(mut self, cpus: usize) -> Self {
        self.host_cpus = Some(cpus);
        self
    }
}

/// Logical CPUs available to this process (1 when detection fails).
pub fn detected_host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The rack-scale facts the cluster pass reasons about: the member
/// chip's shape, the inter-chip fabric, and the open-loop offered load.
/// Extracted from plain config values — no cluster is ever built, in
/// the same spirit as [`ChipModel::extract`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterGeometry {
    /// Chips on the fabric.
    pub chips: usize,
    /// Inter-chip fabric hop latency — the cluster engine's outer PDES
    /// lookahead.
    pub fabric_latency: Cycle,
    /// A member chip's internal boundary latency — its inner lookahead.
    pub chip_boundary_latency: Cycle,
    /// One chip's aggregate issue width in work-cycles per cycle
    /// (cores × thread pairs; each pair retires one instruction per
    /// cycle when busy).
    pub chip_width: u64,
    /// Mean offered work in work-cycles per 1000 cycles (arrival rate ×
    /// mean request size). `None` disables the load check (SL0461) —
    /// e.g. a closed-loop or replayed workload.
    pub offered_work_per_kcycle: Option<f64>,
    /// Host threads driving the cluster level.
    pub workers: usize,
}

impl ClusterGeometry {
    /// Geometry of `chips` copies of `chip` on a fabric with the given
    /// hop latency, driven by `workers` host threads, with no offered
    /// load attached yet.
    pub fn new(chips: usize, fabric_latency: Cycle, workers: usize, chip: &SmarcoConfig) -> Self {
        Self {
            chips,
            fabric_latency,
            chip_boundary_latency: chip.noc.boundary_latency(),
            chip_width: (chip.noc.cores() * chip.tcg.pairs) as u64,
            offered_work_per_kcycle: None,
            workers,
        }
    }

    /// Attaches an open-loop offered load (work-cycles per 1000 cycles),
    /// arming the capacity check (SL0461).
    #[must_use]
    pub fn with_offered_load(mut self, per_kcycle: f64) -> Self {
        self.offered_work_per_kcycle = Some(per_kcycle);
        self
    }

    /// This geometry as an outer partition level, for
    /// [`check_partition_hierarchy`].
    pub fn level(&self) -> PartitionLevel {
        PartitionLevel::fabric(self.chips, self.fabric_latency, self.workers)
    }

    /// Aggregate service capacity in work-cycles per 1000 cycles.
    pub fn capacity_per_kcycle(&self) -> f64 {
        self.chips as f64 * self.chip_width as f64 * 1000.0
    }
}

/// Pass (e) — cluster-geometry soundness. SL0460: the fabric hop (the
/// outer lookahead) is below a member chip's internal boundary latency,
/// the cluster-specific instance of SL0423 caught from the fabric
/// config alone. SL0461: the open-loop offered load exceeds the
/// cluster's aggregate issue width, so queues grow without bound.
/// [`lint_model`](crate::lint_model) also folds the geometry's
/// [`level`](ClusterGeometry::level) into the partition hierarchy, so
/// the per-level shard rules fire alongside these.
pub fn check_cluster(g: &ClusterGeometry) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if g.fabric_latency < g.chip_boundary_latency {
        out.push(
            Diagnostic::new(
                Code::FabricBelowChipBoundary,
                Span::Field("fabric.latency".to_string()),
                format!(
                    "fabric hop of {} cycles is below the chip's {}-cycle \
                     internal boundary latency: the outer barrier would \
                     deliver into windows the chip's own engine already \
                     retired",
                    g.fabric_latency, g.chip_boundary_latency,
                ),
            )
            .with_help("raise the fabric latency to at least the chip's boundary latency"),
        );
    }
    if let Some(offered) = g.offered_work_per_kcycle {
        let capacity = g.capacity_per_kcycle();
        if offered > capacity {
            out.push(
                Diagnostic::new(
                    Code::OfferedLoadExceedsCapacity,
                    Span::Field("traffic.arrivals".to_string()),
                    format!(
                        "open-loop traffic offers {offered:.1} work-cycles per \
                         kcycle but {} chip(s) of width {} retire at most \
                         {capacity:.1}: queues grow without bound and tail \
                         latency diverges",
                        g.chips, g.chip_width,
                    ),
                )
                .with_help("lower the arrival rate, shrink request sizes, or add chips"),
            );
        }
    }
    out
}

/// Pass (d) — shard-partition soundness over a whole hierarchy, levels
/// ordered innermost first. Per level: positive worker count (SL0401),
/// whole-shard partition (SL0411), lookahead within the shortest
/// boundary latency (SL0410), worker-count sanity (SL0412), and host
/// oversubscription when the level's host is known (SL0450). Across
/// levels: an outer lookahead shorter than an inner one (SL0423) breaks
/// the conservative-window invariant — the outer barrier would deliver
/// into windows the inner engine already retired.
pub fn check_partition_hierarchy(levels: &[PartitionLevel]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for level in levels {
        let l = &level.label;
        if level.workers == 0 {
            out.push(Diagnostic::new(
                Code::ZeroField,
                Span::Field(format!("{l}.workers")),
                "PDES worker count must be positive".to_string(),
            ));
        }
        if level.per_shard > 0 && !level.units.is_multiple_of(level.per_shard) {
            out.push(
                Diagnostic::new(
                    Code::ShardPartition,
                    Span::Field(format!("{l}.per_shard")),
                    format!(
                        "{} units do not split into {l} shards of {}",
                        level.units, level.per_shard,
                    ),
                )
                .with_help("every shard owns exactly the same number of whole units"),
            );
        }
        if level.lookahead > level.min_boundary_latency {
            out.push(
                Diagnostic::new(
                    Code::ShardLookahead,
                    Span::Field(format!("{l}.lookahead")),
                    format!(
                        "{l} lookahead {} exceeds the {}-cycle shortest boundary \
                         path: a message would be delivered inside a window the \
                         engine already simulated",
                        level.lookahead, level.min_boundary_latency,
                    ),
                )
                .with_help("keep every boundary-crossing latency at or above the lookahead"),
            );
        }
        if level.workers > level.shards {
            out.push(
                Diagnostic::new(
                    Code::ShardWorkers,
                    Span::Field(format!("{l}.workers")),
                    format!(
                        "{} workers for {} {l} shards: the engine clamps, so the \
                         extra host threads never run",
                        level.workers, level.shards,
                    ),
                )
                .with_help("workers beyond the shard count add no parallelism"),
            );
        }
        // Oversubscription is judged on the threads the engine actually
        // spawns (workers clamp to the shard count), so SL0412 and
        // SL0450 stay independent findings.
        let spawned = level.workers.min(level.shards);
        if let Some(cpus) = level.host_cpus {
            if spawned > cpus {
                out.push(
                    Diagnostic::new(
                        Code::HostOversubscribed,
                        Span::Field(format!("{l}.workers")),
                        format!(
                            "{spawned} {l} workers on a {cpus}-CPU host: the \
                             workers time-slice and the lockstep barrier \
                             degrades to yield-on-every-check, so the run \
                             measures scheduler overhead, not speedup",
                        ),
                    )
                    .with_help("clamp workers to the host's CPU count"),
                );
            }
        }
    }
    for pair in levels.windows(2) {
        let (inner, outer) = (&pair[0], &pair[1]);
        if outer.lookahead < inner.lookahead {
            out.push(
                Diagnostic::new(
                    Code::HierarchyLookahead,
                    Span::Field(format!("{}.lookahead", outer.label)),
                    format!(
                        "outer `{}` level lookahead {} is shorter than inner \
                         `{}` level lookahead {}: the outer barrier would have \
                         to deliver into inner windows that were already retired",
                        outer.label, outer.lookahead, inner.label, inner.lookahead,
                    ),
                )
                .with_help("order lookaheads outward: each enclosing level at least as long"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarco_core::fault::Fault;

    #[test]
    fn tiny_model_has_the_papers_components() {
        let cfg = SmarcoConfig::tiny();
        let m = ChipModel::extract(&cfg, &[], None, None);
        let count = |pred: fn(&Component) -> bool| m.find(pred).len();
        assert_eq!(count(|c| matches!(c, Component::TcgCore { .. })), 16);
        assert_eq!(count(|c| matches!(c, Component::SubRingSeg { .. })), 4);
        assert_eq!(count(|c| matches!(c, Component::Junction { .. })), 4);
        assert_eq!(count(|c| matches!(c, Component::Mact { .. })), 4);
        assert_eq!(count(|c| matches!(c, Component::DirectSpoke { .. })), 4);
        assert_eq!(count(|c| matches!(c, Component::DdrChannel { .. })), 2);
        assert_eq!(count(|c| matches!(c, Component::MainRingSeg { .. })), 1);
        assert_eq!(count(|c| matches!(c, Component::RetryWheel { .. })), 1);
        // Healthy plan: no retry channels, nothing blocked.
        assert!(m.channels.iter().all(|ch| ch.kind != ChannelKind::Retry));
        assert!(m.components.iter().all(|c| !c.permanently_blocked()));
    }

    #[test]
    fn every_core_reaches_a_live_ddr_channel() {
        let cfg = SmarcoConfig::tiny();
        let m = ChipModel::extract(&cfg, &[], None, None);
        for core in m.find(|c| matches!(c, Component::TcgCore { .. })) {
            let reach = m.reachable(core);
            assert!(
                reach
                    .iter()
                    .any(|&i| matches!(m.components[i], Component::DdrChannel { .. })),
                "{} cannot reach memory",
                m.components[core].label()
            );
        }
    }

    #[test]
    fn fault_plan_outages_land_on_their_components() {
        let cfg = SmarcoConfig::tiny();
        let plan = FaultPlan::new(3)
            .with_fault(Fault::DramChannelDeath { channel: 1, at: 50 })
            .with_fault(Fault::CoreDeath { core: 5, at: 70 })
            .with_fault(Fault::MactLockup {
                subring: 2,
                at: 10,
                cycles: 100,
            })
            .with_fault(Fault::SubRingNoise { permille: 25 });
        let m = ChipModel::extract(&cfg, &[], Some(&plan), None);
        let blocked: Vec<String> = m
            .components
            .iter()
            .filter(|c| c.permanently_blocked())
            .map(Component::label)
            .collect();
        assert_eq!(blocked, vec!["ddr1", "core5"], "finite lockup not blocked");
        assert!(m.channels.iter().any(|ch| ch.kind == ChannelKind::Retry));
        assert_eq!(m.sub_noise_permille, 25);
        assert_eq!(m.retry_worst_delay, 14);
    }

    #[test]
    fn hierarchy_pass_accepts_todays_chip_and_a_sane_fabric() {
        let cfg = SmarcoConfig::tiny();
        let one = vec![PartitionLevel::subring(&cfg)];
        assert!(check_partition_hierarchy(&one).is_empty());
        let two = vec![
            PartitionLevel::subring(&cfg),
            PartitionLevel::fabric(4, 20, 4),
        ];
        assert!(check_partition_hierarchy(&two).is_empty());
    }

    #[test]
    fn inverted_hierarchy_denied_with_sl0423() {
        let cfg = SmarcoConfig::tiny();
        let two = vec![
            PartitionLevel::subring(&cfg), // lookahead 2
            PartitionLevel::fabric(4, 1, 4),
        ];
        let ds = check_partition_hierarchy(&two);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::HierarchyLookahead);
    }

    #[test]
    fn per_level_rules_still_fire_in_a_hierarchy() {
        let mut level = PartitionLevel::fabric(4, 10, 9);
        level.units = 5;
        level.per_shard = 2;
        let ds = check_partition_hierarchy(&[level]);
        assert!(ds.iter().any(|d| d.code == Code::ShardPartition));
        assert!(ds.iter().any(|d| d.code == Code::ShardWorkers));
    }

    #[test]
    fn oversubscribed_host_warns_with_sl0450() {
        // 64 chips, 64 workers, but the level is pinned to a 2-CPU host.
        let level = PartitionLevel::fabric(64, 20, 64).with_host_cpus(2);
        let ds = check_partition_hierarchy(&[level]);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::HostOversubscribed);
        assert_eq!(ds[0].severity, crate::diag::Severity::Warn);
        // Unknown host → the check stays silent on the same shape.
        let unpinned = PartitionLevel::fabric(64, 20, 64);
        assert!(check_partition_hierarchy(&[unpinned]).is_empty());
    }

    #[test]
    fn oversubscription_judges_spawned_workers_not_requested() {
        // 40 requested workers clamp to 4 shards; on a 8-CPU host the
        // 4 spawned threads fit, so only SL0412 fires — the excess
        // *requested* workers never exist as runnable threads.
        let level = PartitionLevel::fabric(4, 20, 40).with_host_cpus(8);
        let ds = check_partition_hierarchy(&[level]);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::ShardWorkers);
    }

    #[test]
    fn sane_cluster_geometry_is_clean() {
        let cfg = SmarcoConfig::tiny();
        // tiny: boundary latency 2, width 16 cores x 4 pairs = 64.
        let g = ClusterGeometry::new(4, 32, 4, &cfg).with_offered_load(1000.0);
        assert_eq!(g.chip_boundary_latency, 2);
        assert_eq!(g.chip_width, 64);
        assert!(check_cluster(&g).is_empty());
        assert!(check_partition_hierarchy(&[PartitionLevel::subring(&cfg), g.level()]).is_empty());
    }

    #[test]
    fn short_fabric_hop_denied_with_sl0460() {
        let cfg = SmarcoConfig::tiny();
        let g = ClusterGeometry::new(4, 1, 4, &cfg);
        let ds = check_cluster(&g);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::FabricBelowChipBoundary);
        assert_eq!(ds[0].severity, crate::diag::Severity::Deny);
        // The same inversion also fires SL0423 through the hierarchy
        // pass — SL0460 is its cluster-specific sharpening.
        let hier = check_partition_hierarchy(&[PartitionLevel::subring(&cfg), g.level()]);
        assert!(hier.iter().any(|d| d.code == Code::HierarchyLookahead));
    }

    #[test]
    fn overload_warns_with_sl0461_and_scales_with_chips() {
        let cfg = SmarcoConfig::tiny();
        // 4 chips x width 64 retire 256k work-cycles per kcycle.
        let over = ClusterGeometry::new(4, 32, 4, &cfg).with_offered_load(300_000.0);
        let ds = check_cluster(&over);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::OfferedLoadExceedsCapacity);
        assert_eq!(ds[0].severity, crate::diag::Severity::Warn);
        // Adding chips absorbs the same load.
        let wider = ClusterGeometry::new(8, 32, 4, &cfg).with_offered_load(300_000.0);
        assert!(check_cluster(&wider).is_empty());
        // No offered load attached: the check stays silent.
        let closed = ClusterGeometry::new(1, 32, 1, &cfg);
        assert!(check_cluster(&closed).is_empty());
    }

    #[test]
    fn subring_level_pins_the_detected_host() {
        let cfg = SmarcoConfig::tiny();
        let level = PartitionLevel::subring(&cfg);
        assert_eq!(level.host_cpus, Some(detected_host_cpus()));
        assert!(detected_host_cpus() >= 1);
    }
}

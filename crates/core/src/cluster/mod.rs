//! Rack-scale SmarCo: N chips on an inter-chip fabric, serving a live
//! open-loop request stream (ROADMAP item 2).
//!
//! The cluster is a second, outer PDES level built from the same
//! machinery as the chip. Where [`crate::chip::SmarcoSystem`] shards one
//! chip along its sub-ring boundaries with the junction latency as
//! lookahead, [`Cluster`] shards the rack along its *chip* boundaries
//! with the fabric latency as lookahead: each chip becomes one chip-node
//! shard (driving the whole inner engine window by window through
//! [`SmarcoSystem::advance_until`]), plus one frontend shard that
//! generates seeded Poisson/diurnal arrivals with bounded-Pareto sizes
//! ([`TrafficProfile`]), routes them through a pluggable
//! [`BalancePolicy`], and scores completions against the end-to-end SLO.
//!
//! The two levels form the `PartitionLevel` hierarchy the lint's
//! SL0423/SL0460 passes check: the fabric's `boundary_latency` is the
//! outer lookahead and must dominate the chip's internal
//! `boundary_latency()`, or fabric messages could land inside retired
//! inner windows. [`ClusterBuilder::build`] enforces the same inequality
//! at construction time.
//!
//! Determinism composes across the levels: every chip is bit-identical
//! for any inner worker count (PR 3), the outer engine is bit-identical
//! for any outer worker count, and the traffic stream is a pure function
//! of its seed — so a [`ClusterReport`] is reproducible across workers ×
//! cycle-skip × chaos plans, which `tests/equivalence.rs` enforces.

mod balancer;
mod node;
mod report;
mod traffic;

pub use balancer::BalancePolicy;
pub use report::ClusterReport;
pub use traffic::{ArrivalProcess, Request, RequestStream, SizeDistribution, TrafficProfile};

use smarco_sim::contract::HorizonContract;
use smarco_sim::parallel::{Inbox, Outbox, ParallelEngine, Shard};
use smarco_sim::Cycle;

use crate::chip::SmarcoSystem;
use crate::cluster::balancer::Balancer;
use crate::cluster::node::{ChipNode, ClusterMsg, Frontend};
use crate::config::SmarcoConfig;
use crate::error::SmarcoError;
use crate::fault::FaultPlan;

/// Cycles between completion checks in [`Cluster::run`] — same fixed
/// grid idea as the chip's, so every worker count stops at the same
/// cycle.
const CHUNK: Cycle = 2048;

/// The inter-chip fabric: a full crossbar between the frontend and every
/// chip, with one uniform hop latency that doubles as the outer engine's
/// lookahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Cycles one fabric hop takes (frontend → chip or chip → frontend).
    /// Must be at least the chip's internal `boundary_latency()` — the
    /// nested-window proof needs the outer promise to dominate the inner
    /// one (lint SL0460).
    pub latency: Cycle,
}

impl FabricConfig {
    /// A serdes-class inter-chip link: 32 cycles per hop.
    pub fn datacenter() -> Self {
        Self { latency: 32 }
    }
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self::datacenter()
    }
}

/// One shard of the outer engine: a chip or the traffic frontend.
enum ClusterShard {
    Chip(Box<ChipNode>),
    Frontend(Box<Frontend>),
}

impl ClusterShard {
    fn is_idle(&self) -> bool {
        match self {
            Self::Chip(c) => c.is_idle(),
            Self::Frontend(f) => f.is_idle(),
        }
    }
}

impl Shard for ClusterShard {
    type Msg = ClusterMsg;

    fn run_window(
        &mut self,
        from: Cycle,
        to: Cycle,
        inbox: &mut Inbox<ClusterMsg>,
        outbox: &mut Outbox<ClusterMsg>,
    ) {
        match self {
            Self::Chip(c) => c.run_window(from, to, inbox, outbox),
            Self::Frontend(f) => f.run_window(from, to, inbox, outbox),
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match self {
            Self::Chip(c) => c.next_event(now),
            Self::Frontend(f) => f.next_event(now),
        }
    }

    fn skip_window(&mut self, from: Cycle, to: Cycle) {
        match self {
            Self::Chip(c) => c.skip_window(from, to),
            Self::Frontend(f) => f.skip_window(from, to),
        }
    }
}

/// A rack of SmarCo chips serving an open-loop request stream.
///
/// # Examples
///
/// ```
/// use smarco_core::cluster::{BalancePolicy, Cluster, TrafficProfile};
///
/// let mut cluster = Cluster::builder()
///     .chips(2)
///     .traffic(TrafficProfile::poisson(42, 6.0).requests(40))
///     .policy(BalancePolicy::ShortestQueue)
///     .build()?;
/// let report = cluster.run(2_000_000);
/// assert_eq!(report.offered, 40);
/// assert_eq!(report.completed, 40);
/// assert!(report.latency.count() == 40);
/// # Ok::<(), smarco_core::SmarcoError>(())
/// ```
pub struct Cluster {
    engine: ParallelEngine<ClusterShard>,
    chips: usize,
    workers: usize,
    policy: BalancePolicy,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("chips", &self.chips)
            .field("now", &self.engine.now())
            .field("workers", &self.workers)
            .field("policy", &self.policy.name())
            .finish()
    }
}

/// Fluent constructor for [`Cluster`], mirroring
/// [`SmarcoSystem::builder`]: describe the rack, then
/// [`build`](Self::build) validates everything at once.
///
/// ```
/// use smarco_core::cluster::{Cluster, FabricConfig, TrafficProfile};
///
/// let cluster = Cluster::builder()
///     .chips(4)
///     .fabric(FabricConfig { latency: 48 })
///     .traffic(TrafficProfile::poisson(7, 2.0).requests(10))
///     .build()?;
/// assert_eq!(cluster.chips(), 4);
/// # Ok::<(), smarco_core::SmarcoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    chips: usize,
    chip: SmarcoConfig,
    fabric: FabricConfig,
    traffic: TrafficProfile,
    policy: BalancePolicy,
    workers: usize,
    cycle_skip: bool,
    fault_plans: Vec<(usize, FaultPlan)>,
}

impl Default for ClusterBuilder {
    /// Four tiny chips on a datacenter fabric under light Poisson load,
    /// round-robin routing, one outer worker. (The default chip is
    /// [`SmarcoConfig::tiny`], not the paper chip: rack experiments sweep
    /// many chips, so opt in to the 256-core configuration per chip with
    /// [`chip`](Self::chip).)
    fn default() -> Self {
        Self {
            chips: 4,
            chip: SmarcoConfig::tiny(),
            fabric: FabricConfig::datacenter(),
            traffic: TrafficProfile::poisson(1, 2.0),
            policy: BalancePolicy::RoundRobin,
            workers: 1,
            cycle_skip: true,
            fault_plans: Vec::new(),
        }
    }
}

impl ClusterBuilder {
    /// Puts `n` chips in the rack.
    ///
    /// ```
    /// use smarco_core::cluster::Cluster;
    ///
    /// let cluster = Cluster::builder().chips(6).build()?;
    /// assert_eq!(cluster.chips(), 6);
    /// # Ok::<(), smarco_core::SmarcoError>(())
    /// ```
    #[must_use]
    pub fn chips(mut self, n: usize) -> Self {
        self.chips = n;
        self
    }

    /// Uses `config` for every chip (its `workers` field is ignored:
    /// inside a cluster each chip runs single-threaded and parallelism
    /// comes from the outer [`workers`](Self::workers)).
    ///
    /// ```
    /// use smarco_core::cluster::Cluster;
    /// use smarco_core::config::SmarcoConfig;
    ///
    /// let cluster = Cluster::builder()
    ///     .chips(2)
    ///     .chip(SmarcoConfig::tiny())
    ///     .build()?;
    /// assert_eq!(cluster.chips(), 2);
    /// # Ok::<(), smarco_core::SmarcoError>(())
    /// ```
    #[must_use]
    pub fn chip(mut self, config: SmarcoConfig) -> Self {
        self.chip = config;
        self
    }

    /// Uses `fabric` as the inter-chip interconnect; its latency becomes
    /// the outer engine's lookahead.
    ///
    /// ```
    /// use smarco_core::cluster::{Cluster, FabricConfig};
    ///
    /// let cluster = Cluster::builder()
    ///     .fabric(FabricConfig { latency: 64 })
    ///     .build()?;
    /// assert_eq!(cluster.chips(), 4);
    /// # Ok::<(), smarco_core::SmarcoError>(())
    /// ```
    #[must_use]
    pub fn fabric(mut self, fabric: FabricConfig) -> Self {
        self.fabric = fabric;
        self
    }

    /// Uses `traffic` as the open-loop request stream.
    ///
    /// ```
    /// use smarco_core::cluster::{Cluster, TrafficProfile};
    ///
    /// let traffic = TrafficProfile::diurnal(9, 1.0, 6.0, 100_000)
    ///     .requests(25)
    ///     .slo(30_000);
    /// let cluster = Cluster::builder().traffic(traffic).build()?;
    /// assert_eq!(cluster.chips(), 4);
    /// # Ok::<(), smarco_core::SmarcoError>(())
    /// ```
    #[must_use]
    pub fn traffic(mut self, traffic: TrafficProfile) -> Self {
        self.traffic = traffic;
        self
    }

    /// Uses `policy` to pick a chip for each request.
    ///
    /// ```
    /// use smarco_core::cluster::{BalancePolicy, Cluster};
    ///
    /// let cluster = Cluster::builder()
    ///     .policy(BalancePolicy::LaxityAware)
    ///     .build()?;
    /// assert_eq!(cluster.policy().name(), "laxity_aware");
    /// # Ok::<(), smarco_core::SmarcoError>(())
    /// ```
    #[must_use]
    pub fn policy(mut self, policy: BalancePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Drives the outer engine with `workers` host threads (clamped to at
    /// least 1). Reports are bit-identical for every value.
    ///
    /// ```
    /// use smarco_core::cluster::Cluster;
    ///
    /// let cluster = Cluster::builder().workers(4).build()?;
    /// assert_eq!(cluster.chips(), 4);
    /// # Ok::<(), smarco_core::SmarcoError>(())
    /// ```
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables or disables outer-level cycle skipping (default on).
    /// Reports are bit-identical either way.
    ///
    /// ```
    /// use smarco_core::cluster::Cluster;
    ///
    /// let cluster = Cluster::builder().cycle_skip(false).build()?;
    /// assert_eq!(cluster.chips(), 4);
    /// # Ok::<(), smarco_core::SmarcoError>(())
    /// ```
    #[must_use]
    pub fn cycle_skip(mut self, enabled: bool) -> Self {
        self.cycle_skip = enabled;
        self
    }

    /// Injects `plan`'s faults into chip `chip` (repeatable; the last
    /// plan per chip wins). The cluster stays bit-identical across worker
    /// counts under chaos — `tests/equivalence.rs` runs exactly this.
    ///
    /// ```
    /// use smarco_core::cluster::Cluster;
    /// use smarco_core::config::SmarcoConfig;
    /// use smarco_core::fault::FaultPlan;
    ///
    /// let plan = FaultPlan::chaos(42, &SmarcoConfig::tiny());
    /// let cluster = Cluster::builder().fault_plan(0, plan).build()?;
    /// assert_eq!(cluster.chips(), 4);
    /// # Ok::<(), smarco_core::SmarcoError>(())
    /// ```
    #[must_use]
    pub fn fault_plan(mut self, chip: usize, plan: FaultPlan) -> Self {
        self.fault_plans.push((chip, plan));
        self
    }

    /// Validates the rack description and assembles the cluster.
    ///
    /// # Errors
    ///
    /// [`SmarcoError::InvalidCluster`] when the geometry or traffic is
    /// inconsistent (zero chips, a fabric hop shorter than the chip's
    /// internal boundary latency — lint SL0460's inequality — or a
    /// malformed profile); [`SmarcoError::NoSuchChip`] when a fault plan
    /// targets a chip outside the rack; [`SmarcoError::InvalidConfig`]
    /// when the per-chip configuration itself is broken.
    ///
    /// ```
    /// use smarco_core::cluster::Cluster;
    /// use smarco_core::error::SmarcoError;
    /// use smarco_core::fault::FaultPlan;
    ///
    /// let err = Cluster::builder().chips(0).build().unwrap_err();
    /// assert!(matches!(err, SmarcoError::InvalidCluster { .. }));
    ///
    /// let err = Cluster::builder()
    ///     .chips(2)
    ///     .fault_plan(5, FaultPlan::none())
    ///     .build()
    ///     .unwrap_err();
    /// assert!(matches!(err, SmarcoError::NoSuchChip { chip: 5, chips: 2 }));
    /// ```
    pub fn build(self) -> Result<Cluster, SmarcoError> {
        if self.chips == 0 {
            return Err(SmarcoError::InvalidCluster {
                reason: "cluster needs at least one chip".into(),
            });
        }
        if self.fabric.latency == 0 {
            return Err(SmarcoError::InvalidCluster {
                reason: "fabric latency must be positive".into(),
            });
        }
        let chip_boundary = self.chip.noc.boundary_latency();
        if self.fabric.latency < chip_boundary {
            return Err(SmarcoError::InvalidCluster {
                reason: format!(
                    "fabric latency {} is below the chip's internal boundary latency \
                     {chip_boundary} (SL0460): outer windows would deliver into retired \
                     inner windows",
                    self.fabric.latency
                ),
            });
        }
        if let Err(reason) = self.traffic.check() {
            return Err(SmarcoError::InvalidCluster { reason });
        }
        for (chip, _) in &self.fault_plans {
            if *chip >= self.chips {
                return Err(SmarcoError::NoSuchChip {
                    chip: *chip,
                    chips: self.chips,
                });
            }
        }

        let frontend_index = self.chips;
        let mut shards = Vec::with_capacity(self.chips + 1);
        for i in 0..self.chips {
            let mut cfg = self.chip.clone();
            cfg.workers = 1;
            cfg.fault = self
                .fault_plans
                .iter()
                .rev()
                .find(|(chip, _)| *chip == i)
                .map(|(_, plan)| plan.clone());
            let chip = SmarcoSystem::builder().config(cfg).build()?;
            shards.push(ClusterShard::Chip(Box::new(ChipNode::new(
                i,
                frontend_index,
                chip,
                self.fabric.latency,
            ))));
        }
        let width = (self.chip.noc.cores() * self.chip.tcg.pairs) as u64;
        let balancer = Balancer::new(self.policy, self.chips, width);
        shards.push(ClusterShard::Frontend(Box::new(Frontend::new(
            self.traffic.stream(),
            balancer,
            self.fabric.latency,
            self.traffic.slo,
        ))));

        let mut engine = ParallelEngine::new(shards, self.fabric.latency);
        engine.set_skip_enabled(self.cycle_skip);
        // The outer horizon contract mirrors the chip's: fabric traffic
        // flows only between the frontend and each chip, never faster
        // than one fabric hop. Debug builds cross-check every envelope.
        let mut contract = HorizonContract::unreachable(self.chips + 1);
        for i in 0..self.chips {
            contract.allow(frontend_index, i, self.fabric.latency);
            contract.allow(i, frontend_index, self.fabric.latency);
        }
        contract.set_class_floors(vec![self.fabric.latency]);
        engine.set_contract(contract, ClusterMsg::contract_class);
        engine.widen_from_contract();

        Ok(Cluster {
            engine,
            chips: self.chips,
            workers: self.workers.max(1),
            policy: self.policy,
        })
    }
}

impl Cluster {
    /// Starts a [`ClusterBuilder`] with the default rack (four tiny
    /// chips, datacenter fabric, light Poisson traffic, round-robin).
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Number of chips in the rack.
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// The routing policy in force.
    pub fn policy(&self) -> BalancePolicy {
        self.policy
    }

    /// The cluster's current cycle.
    pub fn now(&self) -> Cycle {
        self.engine.now()
    }

    /// Whether the run has fully drained: every offered request has
    /// completed, every chip is idle, and no fabric message is in flight.
    pub fn is_done(&self) -> bool {
        self.engine.pending_messages() == 0
            && self.engine.shards().iter().all(ClusterShard::is_idle)
    }

    /// Runs until the request stream is exhausted and every chip drains,
    /// or `max` cycles elapse; returns the report. Completion is checked
    /// on a fixed cycle grid so the stopping point is identical for every
    /// worker count.
    pub fn run(&mut self, max: Cycle) -> ClusterReport {
        while self.engine.now() < max && !self.is_done() {
            let stop = (((self.engine.now() / CHUNK) + 1) * CHUNK).min(max);
            let now = self.engine.now();
            self.engine.run_windowed(stop - now, self.workers);
        }
        self.report()
    }

    fn frontend(&self) -> &Frontend {
        match self.engine.shards().last() {
            Some(ClusterShard::Frontend(f)) => f,
            _ => unreachable!("frontend is always the last shard"),
        }
    }

    /// Builds the cluster-wide report at the current cycle: the
    /// frontend's latency/SLO view plus every chip's [`SmarcoReport`].
    pub fn report(&self) -> ClusterReport {
        let front = self.frontend();
        ClusterReport {
            cycles: self.engine.now(),
            offered: front.offered(),
            completed: front.completed(),
            slo_misses: front.slo_misses(),
            latency: front.latency().clone(),
            chips: self
                .engine
                .shards()
                .iter()
                .filter_map(|s| match s {
                    ClusterShard::Chip(c) => Some(c.chip().report()),
                    ClusterShard::Frontend(_) => None,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_traffic(seed: u64) -> TrafficProfile {
        TrafficProfile::poisson(seed, 8.0).requests(60).slo(40_000)
    }

    fn run_cluster(policy: BalancePolicy) -> ClusterReport {
        Cluster::builder()
            .chips(3)
            .traffic(small_traffic(21))
            .policy(policy)
            .build()
            .unwrap()
            .run(5_000_000)
    }

    #[test]
    fn cluster_serves_every_request() {
        for policy in BalancePolicy::ALL {
            let r = run_cluster(policy);
            assert_eq!(r.offered, 60, "{}", policy.name());
            assert_eq!(r.completed, 60, "{}", policy.name());
            assert_eq!(r.latency.count(), 60);
            assert!(r.instructions() > 0);
            assert!(r.is_clean());
            // Every latency includes two fabric hops.
            assert!(r.latency.min() >= 2.0 * 32.0);
        }
    }

    #[test]
    fn round_robin_spreads_requests_across_chips() {
        let r = run_cluster(BalancePolicy::RoundRobin);
        let busy = r.chips.iter().filter(|c| c.instructions > 0).count();
        assert_eq!(busy, 3, "round-robin must touch every chip");
    }

    #[test]
    fn builder_rejects_broken_racks() {
        assert!(matches!(
            Cluster::builder().chips(0).build(),
            Err(SmarcoError::InvalidCluster { .. })
        ));
        assert!(matches!(
            Cluster::builder()
                .fabric(FabricConfig { latency: 0 })
                .build(),
            Err(SmarcoError::InvalidCluster { .. })
        ));
        // Fabric hop below the chip's internal boundary latency.
        assert!(matches!(
            Cluster::builder()
                .fabric(FabricConfig { latency: 1 })
                .build(),
            Err(SmarcoError::InvalidCluster { .. })
        ));
        assert!(matches!(
            Cluster::builder()
                .traffic(TrafficProfile::poisson(1, 0.0))
                .build(),
            Err(SmarcoError::InvalidCluster { .. })
        ));
        assert!(matches!(
            Cluster::builder().fault_plan(7, FaultPlan::none()).build(),
            Err(SmarcoError::NoSuchChip { chip: 7, chips: 4 })
        ));
    }

    #[test]
    fn chaos_on_one_chip_stays_contained() {
        let a = Cluster::builder()
            .chips(2)
            .traffic(small_traffic(5))
            .fault_plan(1, FaultPlan::chaos(42, &SmarcoConfig::tiny()))
            .build()
            .unwrap()
            .run(5_000_000);
        assert!(!a.is_clean(), "chaos must actually bite");
        assert!(
            a.chips[0].degradation.is_clean(),
            "chaos must stay on chip 1"
        );
    }

    #[test]
    fn open_loop_overload_shows_up_as_slo_misses() {
        // One tiny chip, a hot stream of large requests: the queue grows
        // and the tail blows the SLO — the open-loop property.
        let traffic = TrafficProfile::poisson(3, 40.0)
            .requests(300)
            .slo(5_000)
            .sizes(SizeDistribution {
                alpha: 1.5,
                min_work: 2_000,
                max_work: 16_000,
            });
        let mut cluster = Cluster::builder()
            .chips(1)
            .traffic(traffic)
            .build()
            .unwrap();
        let r = cluster.run(20_000_000);
        assert_eq!(r.completed, 300);
        assert!(
            r.slo_miss_rate() > 0.5,
            "overload should miss most SLOs, got {:.2}",
            r.slo_miss_rate()
        );
    }
}

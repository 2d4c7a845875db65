//! The cluster's PDES shards: one [`ChipNode`] per chip and one
//! [`Frontend`] generating and routing traffic.
//!
//! This is the chip-as-shard facade: a whole
//! [`SmarcoSystem`] — itself a PDES engine over sub-ring shards — becomes
//! one shard of the outer cluster engine. The outer engine windows on the
//! fabric latency; inside each window a [`ChipNode`] advances its chip's
//! clock in lock-step ([`SmarcoSystem::advance_until`]), submitting
//! requests at their boundary-message timestamps and emitting completion
//! messages one fabric hop later. Because every chip is already
//! bit-identical for any inner worker count, and the outer engine is
//! bit-identical for any outer worker count, the cluster's reports are
//! reproducible across the full worker × cycle-skip matrix —
//! `tests/equivalence.rs` proves it, chaos plans included.

use smarco_sim::parallel::{Inbox, Outbox, Shard};
use smarco_sim::stats::Percentiles;
use smarco_sim::Cycle;

use crate::chip::SmarcoSystem;
use crate::cluster::balancer::Balancer;
use crate::cluster::traffic::{Request, RequestStream};

/// Message class for the cluster's horizon contract: every fabric hop
/// (request or completion) costs at least the fabric latency.
pub(crate) const CLASS_FABRIC: usize = 0;

/// Boundary messages on the inter-chip fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClusterMsg {
    /// Frontend → chip: serve this request.
    Request {
        /// Frontend-assigned request id.
        id: u64,
        /// Cycle the request reached the frontend.
        arrival: Cycle,
        /// Absolute end-to-end deadline (`arrival + slo`).
        deadline: Cycle,
        /// Request size in work-cycles.
        work: Cycle,
    },
    /// Chip → frontend: a request finished on-chip.
    Done {
        /// Frontend-assigned request id.
        id: u64,
        /// Which chip served it.
        chip: usize,
        /// Original arrival cycle (echoed so the frontend keeps no map).
        arrival: Cycle,
        /// Absolute end-to-end deadline (echoed).
        deadline: Cycle,
        /// Request size in work-cycles (echoed, to credit the balancer).
        work: Cycle,
        /// Cycle the task exited on-chip.
        exit: Cycle,
    },
}

impl ClusterMsg {
    /// Contract class of this message (all fabric traffic is one class).
    pub(crate) fn contract_class(&self) -> usize {
        CLASS_FABRIC
    }
}

/// Request metadata a chip holds between submission and exit, indexed by
/// the chip-local task id (task ids are sequential from zero).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    id: u64,
    arrival: Cycle,
    deadline: Cycle,
    work: Cycle,
}

/// One chip wrapped as an outer-engine shard.
pub(crate) struct ChipNode {
    chip: SmarcoSystem,
    /// This chip's shard index (also its cluster-wide chip index).
    index: usize,
    /// The frontend's shard index (one past the last chip).
    frontend: usize,
    /// One fabric hop, in cycles (= the outer lookahead).
    fabric_latency: Cycle,
    /// The chip's internal boundary latency: an exit at cycle `e` reaches
    /// the chip's fabric port (the main scheduler) at `e + inner_boundary`.
    inner_boundary: Cycle,
    /// Metadata for submitted tasks, indexed by chip-local task id.
    in_flight: Vec<InFlight>,
    /// How many entries of `chip.task_exits()` have been emitted.
    exits_seen: usize,
}

impl ChipNode {
    pub(crate) fn new(
        index: usize,
        frontend: usize,
        chip: SmarcoSystem,
        fabric_latency: Cycle,
    ) -> Self {
        let inner_boundary = chip.config().noc.boundary_latency();
        Self {
            chip,
            index,
            frontend,
            fabric_latency,
            inner_boundary,
            in_flight: Vec::new(),
            exits_seen: 0,
        }
    }

    pub(crate) fn chip(&self) -> &SmarcoSystem {
        &self.chip
    }

    pub(crate) fn is_idle(&self) -> bool {
        self.chip.is_done()
    }

    fn submit(&mut self, id: u64, arrival: Cycle, deadline: Cycle, work: Cycle) {
        let task = self.chip.submit_task(
            Box::new(smarco_isa::mix::compute_only(work)),
            deadline,
            work,
            smarco_sched::TaskPriority::Normal,
        );
        debug_assert_eq!(task as usize, self.in_flight.len());
        self.in_flight.push(InFlight {
            id,
            arrival,
            deadline,
            work,
        });
    }

    /// Emits `Done` for every task that exited since the last call. The
    /// reply leaves the chip when the main scheduler observes the exit —
    /// `exit + inner_boundary`, which lands inside the window just run —
    /// so its fabric timestamp is `≥ from + lookahead ≥ window end`: the
    /// outbox's lookahead assertion and the outer horizon contract both
    /// hold by construction, including for short final windows.
    fn emit_exits(&mut self, outbox: &mut Outbox<ClusterMsg>) {
        let n = self.chip.task_exits().len();
        for i in self.exits_seen..n {
            let exit = self.chip.task_exits()[i];
            let meta = self.in_flight[exit.task as usize];
            outbox.send(
                self.frontend,
                exit.exit + self.inner_boundary + self.fabric_latency,
                ClusterMsg::Done {
                    id: meta.id,
                    chip: self.index,
                    arrival: meta.arrival,
                    deadline: meta.deadline,
                    work: meta.work,
                    exit: exit.exit,
                },
            );
        }
        self.exits_seen = n;
    }
}

impl Shard for ChipNode {
    type Msg = ClusterMsg;

    fn run_window(
        &mut self,
        _from: Cycle,
        to: Cycle,
        inbox: &mut Inbox<ClusterMsg>,
        outbox: &mut Outbox<ClusterMsg>,
    ) {
        // Advance the chip to each request's timestamp, submit, repeat;
        // then close out the window. `submit_task` stamps the task with
        // the chip's own clock, so advancing first is what makes the
        // on-chip arrival equal the fabric delivery cycle.
        while let Some(at) = inbox.next_due().filter(|&at| at < to) {
            self.chip.advance_until(at);
            while let Some(msg) = inbox.pop_due(at) {
                if let ClusterMsg::Request {
                    id,
                    arrival,
                    deadline,
                    work,
                } = msg
                {
                    self.submit(id, arrival, deadline, work);
                }
            }
        }
        self.chip.advance_until(to);
        self.emit_exits(outbox);
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // A busy chip may act every cycle; a drained one only reacts to
        // fabric messages, which the engine tracks through the inbox.
        if self.chip.is_done() {
            None
        } else {
            Some(now)
        }
    }

    fn skip_window(&mut self, from: Cycle, to: Cycle) {
        // The engine proved the range event-free (chip drained, inbox
        // quiet), so run_window would only have advanced the chip's
        // clock — do exactly that, emitting nothing.
        debug_assert!(self.chip.is_done(), "skipped a busy chip");
        let _ = from;
        self.chip.advance_until(to);
    }
}

/// The traffic frontend: generates open-loop arrivals, routes them, and
/// scores completions against the SLO.
pub(crate) struct Frontend {
    stream: RequestStream,
    /// Next arrival, pre-drawn so `next_event` can promise a horizon.
    next: Option<Request>,
    balancer: Balancer,
    fabric_latency: Cycle,
    slo: Cycle,
    /// Requests routed so far.
    offered: u64,
    /// Completions observed so far.
    completed: u64,
    /// Completions that beat `arrival + slo`.
    slo_misses: u64,
    /// End-to-end latency (arrival → completion seen at the frontend).
    latency: Percentiles,
    /// Requests routed and not yet completed.
    outstanding: u64,
}

impl Frontend {
    pub(crate) fn new(
        mut stream: RequestStream,
        balancer: Balancer,
        fabric_latency: Cycle,
        slo: Cycle,
    ) -> Self {
        let next = stream.next();
        Self {
            stream,
            next,
            balancer,
            fabric_latency,
            slo,
            offered: 0,
            completed: 0,
            slo_misses: 0,
            latency: Percentiles::new(),
            outstanding: 0,
        }
    }

    pub(crate) fn is_idle(&self) -> bool {
        self.next.is_none() && self.outstanding == 0
    }

    pub(crate) fn offered(&self) -> u64 {
        self.offered
    }

    pub(crate) fn completed(&self) -> u64 {
        self.completed
    }

    pub(crate) fn slo_misses(&self) -> u64 {
        self.slo_misses
    }

    pub(crate) fn latency(&self) -> &Percentiles {
        &self.latency
    }

    fn complete(&mut self, msg: ClusterMsg, now: Cycle) {
        let ClusterMsg::Done {
            chip,
            arrival,
            deadline,
            work,
            exit,
            ..
        } = msg
        else {
            return;
        };
        // The reply's fabric delivery cycle is the moment the user sees
        // their answer: exit + the chip's boundary latency + one hop.
        let response = now;
        debug_assert!(exit < response, "reply cannot precede the exit");
        self.latency.record((response - arrival) as f64);
        if response > deadline {
            self.slo_misses += 1;
        }
        self.completed += 1;
        self.outstanding -= 1;
        self.balancer.complete(chip, work);
    }

    fn route(&mut self, req: Request, outbox: &mut Outbox<ClusterMsg>) {
        let deadline = req.arrival + self.slo;
        let chip = self.balancer.route(req.work, self.slo);
        outbox.send(
            chip,
            req.arrival + self.fabric_latency,
            ClusterMsg::Request {
                id: req.id,
                arrival: req.arrival,
                deadline,
                work: req.work,
            },
        );
        self.offered += 1;
        self.outstanding += 1;
    }
}

impl Shard for Frontend {
    type Msg = ClusterMsg;

    fn run_window(
        &mut self,
        from: Cycle,
        to: Cycle,
        inbox: &mut Inbox<ClusterMsg>,
        outbox: &mut Outbox<ClusterMsg>,
    ) {
        // Strict cycle order: completions due at a cycle are scored
        // before arrivals at the same cycle route, so the balancer's view
        // at routing time is a deterministic function of simulated time.
        for now in from..to {
            while let Some(msg) = inbox.pop_due(now) {
                self.complete(msg, now);
            }
            while self.next.is_some_and(|r| r.arrival <= now) {
                let req = self.next.take().expect("checked above");
                self.next = self.stream.next();
                self.route(req, outbox);
            }
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // The next self-generated event is the next arrival; completions
        // arrive through the inbox, which the engine accounts separately.
        self.next.map(|r| r.arrival.max(now))
    }

    // Default skip_window: an arrival-free range leaves no bookkeeping.
}

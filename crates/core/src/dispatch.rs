//! The hardware task-dispatch path (§3.7, Fig. 4), split along the shard
//! boundary: the main scheduler (load balancing across sub-rings) lives in
//! the hub shard next to the main ring, while each sub-ring shard owns a
//! [`SubDispatcher`] — the laxity-aware chain table that binds tasks to TCG
//! thread slots as they free up.
//!
//! This closes the loop the paper draws between Figs. 4 and 16: tasks
//! arrive from the host with deadlines, hardware decides placement and
//! order, and exits are recorded against their deadlines — all while the
//! tasks' memory traffic contends on the real simulated rings and DRAM.
//! Exits travel back to the main scheduler as timestamped boundary
//! messages ([`ExitSignal`]), one junction latency after the thread
//! retires, so the hub's load accounting never needs to peek inside a
//! sub-ring shard mid-window.

use std::collections::HashMap;

use smarco_isa::InstructionStream;
use smarco_sched::{LaxityAwareScheduler, Task, TaskScheduler};
use smarco_sim::obs::{EventKind, TraceBuffer, TraceSink, Track};
use smarco_sim::Cycle;

use crate::tcg::TcgCore;

/// Completion record of a dispatched task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskExit {
    /// Task id assigned at submission.
    pub task: u64,
    /// Cycle the task's thread exited.
    pub exit: Cycle,
    /// The task's deadline.
    pub deadline: Cycle,
}

impl TaskExit {
    /// Whether the task met its deadline.
    pub fn met_deadline(&self) -> bool {
        self.exit <= self.deadline
    }
}

/// A task completion leaving a sub-ring shard for the hub's main
/// scheduler: everything the hub needs to record the exit and release the
/// sub-ring's load share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExitSignal {
    /// Task id.
    pub task: u64,
    /// Cycle the task's thread exited (on the sub-ring's clock).
    pub exit: Cycle,
    /// The task's deadline.
    pub deadline: Cycle,
    /// The work estimate the main scheduler charged at assignment.
    pub work: u64,
}

/// One sub-ring's half of the two-level dispatcher: the laxity-aware chain
/// table plus the streams of queued tasks and the bookkeeping of which
/// thread slot runs which task.
pub struct SubDispatcher {
    sched: LaxityAwareScheduler,
    /// Queued-but-undispatched task streams.
    pending: HashMap<u64, Box<dyn InstructionStream + Send>>,
    /// `(local core, slot)` → `(task, work estimate)`.
    dispatched: HashMap<(usize, usize), (u64, u64)>,
    /// Deadlines of queued and in-flight tasks, by id.
    deadlines: HashMap<u64, Cycle>,
    /// Dispatcher pipeline availability (chain-table walks cost cycles).
    ready_at: Cycle,
    /// Staged dispatch/exit events when tracing is enabled.
    trace: Option<TraceBuffer>,
}

impl std::fmt::Debug for SubDispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubDispatcher")
            .field("pending", &self.pending.len())
            .field("dispatched", &self.dispatched.len())
            .finish()
    }
}

impl SubDispatcher {
    /// Creates the dispatcher with a chain table of `capacity` tasks
    /// (SmarCo: one sub-ring's worth of thread slots).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self {
            sched: LaxityAwareScheduler::new(capacity),
            pending: HashMap::new(),
            dispatched: HashMap::new(),
            deadlines: HashMap::new(),
            ready_at: 0,
            trace: None,
        }
    }

    /// Turns event tracing on: dispatch and exit decisions are reported on
    /// [`Track::Scheduler`].
    pub fn enable_trace(&mut self) {
        self.trace = Some(TraceBuffer::new(Track::Scheduler));
    }

    /// Moves staged scheduler events into `sink` (no-op when tracing is
    /// off).
    pub fn drain_trace(&mut self, sink: &mut dyn TraceSink) {
        if let Some(buf) = self.trace.as_mut() {
            buf.drain_into(sink);
        }
    }

    /// Queues `task` (already assigned to this sub-ring by the main
    /// scheduler) with its instruction stream.
    pub fn enqueue(&mut self, task: Task, stream: Box<dyn InstructionStream + Send>, now: Cycle) {
        self.deadlines.insert(task.id, task.deadline);
        self.pending.insert(task.id, stream);
        self.sched.enqueue(task, now);
    }

    /// Tasks queued in the chain table, not yet bound to a slot.
    pub fn queued(&self) -> usize {
        self.sched.pending()
    }

    /// Tasks currently bound to thread slots.
    pub fn in_flight(&self) -> usize {
        self.dispatched.len()
    }

    /// Whether every queued task has been dispatched and exited.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.dispatched.is_empty()
    }

    /// Event horizon: the earliest cycle at or after `now` the dispatcher
    /// can act, given whether any local core currently has a vacant slot.
    /// Collection of retirees is covered by the cores' own horizons (a
    /// core whose tick retired a thread reports the next cycle, when the
    /// shard hands its slots to [`collect`](Self::collect)), so this only
    /// models the dispatch side: pending tasks plus a vacancy wait for the
    /// chain-table pipeline (`ready_at`); otherwise
    /// [`dispatch`](Self::dispatch) returns `None` and mutates nothing.
    pub fn next_event(&self, now: Cycle, vacancy: bool) -> Option<Cycle> {
        if self.sched.pending() > 0 && vacancy {
            Some(now.max(self.ready_at))
        } else {
            None
        }
    }

    /// Recovers from the death of local core `core`: tasks bound to its
    /// slots are re-enqueued in the chain table with their recovered
    /// streams (`(slot, stream)` pairs from [`TcgCore::fail`]) and a
    /// laxity-aware recomputed deadline — restarting from scratch at `now`
    /// needs at least `work` more cycles, so a deadline that would leave
    /// negative laxity is pushed out to `now + work`. Returns
    /// `(redispatched, lost)`: tasks requeued and directly-attached
    /// threads (not dispatcher-managed) whose work is simply gone.
    pub fn fail_core(
        &mut self,
        core: usize,
        now: Cycle,
        streams: Vec<(usize, Box<dyn InstructionStream + Send>)>,
    ) -> (u64, u64) {
        let mut redispatched = 0;
        let mut lost = 0;
        for (slot, stream) in streams {
            let Some((task, work)) = self.dispatched.remove(&(core, slot)) else {
                lost += 1;
                continue;
            };
            let deadline = self.deadlines.get(&task).copied().unwrap_or(Cycle::MAX);
            let recomputed = deadline.max(now.saturating_add(work));
            self.deadlines.insert(task, recomputed);
            if let Some(buf) = self.trace.as_mut() {
                buf.emit(
                    now,
                    EventKind::TaskDispatch {
                        task,
                        laxity: (recomputed - now) as i64 - work as i64,
                        queued: self.sched.pending() as u64 + 1,
                    },
                );
            }
            self.pending.insert(task, stream);
            self.sched
                .enqueue(Task::new(task, now, recomputed, work), now);
            redispatched += 1;
        }
        (redispatched, lost)
    }

    /// Records the exits of local core `core`'s threads `slots`, which
    /// retired before `now`: each dispatched task's exit signal goes into
    /// `exits`. Threads attached directly, not by the dispatcher, leave no
    /// signal.
    pub fn collect(
        &mut self,
        core: usize,
        slots: Vec<usize>,
        now: Cycle,
        exits: &mut Vec<ExitSignal>,
    ) {
        for slot in slots {
            let Some((task, work)) = self.dispatched.remove(&(core, slot)) else {
                continue;
            };
            let deadline = self.deadlines.remove(&task).unwrap_or(Cycle::MAX);
            if let Some(buf) = self.trace.as_mut() {
                buf.emit(
                    now,
                    EventKind::TaskExit {
                        task,
                        deadline_met: now <= deadline,
                    },
                );
            }
            exits.push(ExitSignal {
                task,
                exit: now,
                deadline,
                work,
            });
        }
    }

    /// The task the chain table dispatches at `now`, with its stream and
    /// the first local core with a vacant slot: `None` while the
    /// chain-table walk of the previous dispatch is still running, when
    /// nothing is queued, or when no core has a vacancy. The caller
    /// attaches the stream to that core and reports the slot through
    /// [`bind`](Self::bind).
    pub fn dispatch(
        &mut self,
        cores: &[TcgCore],
        now: Cycle,
    ) -> Option<(usize, Task, Box<dyn InstructionStream + Send>)> {
        if now < self.ready_at || self.sched.pending() == 0 {
            return None;
        }
        let core = cores.iter().position(TcgCore::has_vacancy)?;
        let task = self.sched.dispatch(now)?;
        self.ready_at = now + self.sched.overhead();
        let stream = self.pending.remove(&task.id).expect("stream pending");
        Some((core, task, stream))
    }

    /// Records that `task`, dispatched at `now`, runs on local core
    /// `core`'s thread `slot`.
    pub fn bind(&mut self, core: usize, slot: usize, task: &Task, now: Cycle) {
        if let Some(buf) = self.trace.as_mut() {
            buf.emit(
                now,
                EventKind::TaskDispatch {
                    task: task.id,
                    laxity: task.laxity(now),
                    queued: self.sched.pending() as u64,
                },
            );
        }
        self.dispatched.insert((core, slot), (task.id, task.work));
    }
}

//! Thread slots and the in-pair pair scheduler (§3.1.1, Fig. 6).
//!
//! Every thread is coupled with a *friend*; only one of the two occupies
//! the pair's issue slot at any time. When the running thread blocks on an
//! SPM/D-cache miss the slot switches to the friend immediately; the
//! blocked thread, once its data returns, waits in the *Ready* state until
//! the friend blocks in turn (alternate execution — exactly the paper's
//! state machine).

use smarco_isa::InstructionStream;
use smarco_sim::Cycle;

/// Scheduling state of a thread slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// May issue when it holds the pair's slot.
    Runnable,
    /// Waiting for a memory reply.
    Blocked,
    /// Reply arrived; waiting for the friend to block (in-pair handoff).
    Ready,
    /// Stream exhausted.
    Done,
    /// No stream attached.
    Vacant,
}

/// One hardware thread context.
pub struct ThreadSlot {
    stream: Option<Box<dyn InstructionStream + Send>>,
    /// Current scheduling state.
    pub state: ThreadState,
    /// The thread cannot issue before this cycle (multi-cycle ops, branch
    /// refill, hit latencies).
    pub stall_until: Cycle,
    /// Outstanding asynchronous DMA transfers.
    pub pending_dma: usize,
    /// Dynamic instructions issued.
    pub instructions: u64,
    /// What is left of the stream's compute run (see
    /// [`InstructionStream::compute_run`]): asked once at attach and
    /// counted down by every instruction taken since.
    run: u64,
    /// The stream's instruction segment, asked once at attach.
    segment: Option<(u64, u64)>,
}

impl std::fmt::Debug for ThreadSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadSlot")
            .field("state", &self.state)
            .field("stall_until", &self.stall_until)
            .field("instructions", &self.instructions)
            .field("run", &self.run)
            .field("segment", &self.segment)
            .finish()
    }
}

impl Default for ThreadSlot {
    fn default() -> Self {
        Self::vacant()
    }
}

impl ThreadSlot {
    /// An empty context.
    pub fn vacant() -> Self {
        Self {
            stream: None,
            state: ThreadState::Vacant,
            stall_until: 0,
            pending_dma: 0,
            instructions: 0,
            run: 0,
            segment: None,
        }
    }

    /// Attaches a stream, making the slot runnable.
    pub fn attach(&mut self, stream: Box<dyn InstructionStream + Send>) {
        self.run = stream.compute_run();
        self.segment = stream.segment();
        self.stream = Some(stream);
        self.state = ThreadState::Runnable;
        self.stall_until = 0;
        self.pending_dma = 0;
    }

    /// The attached stream's instruction segment, if any.
    pub fn segment(&self) -> Option<(u64, u64)> {
        self.segment
    }

    /// Fetches the next instruction; `None` ends the thread.
    pub fn next_instr(&mut self) -> Option<smarco_isa::Instr> {
        self.run = self.run.saturating_sub(1);
        self.stream
            .as_mut()
            .and_then(smarco_isa::InstructionStream::next_instr)
    }

    /// How many of the next instructions form the stream's compute run:
    /// single-cycle computes with PCs in the stream's segment.
    pub fn compute_run(&self) -> u64 {
        self.run
    }

    /// Takes `n` instructions of the compute run at once, exactly as `n`
    /// calls of [`next_instr`](Self::next_instr) would.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`compute_run`](Self::compute_run).
    pub fn skip_computes(&mut self, n: u64) {
        assert!(n <= self.run, "skipped {n} computes of a {} run", self.run);
        self.run -= n;
        if let Some(stream) = self.stream.as_mut() {
            stream.skip_computes(n);
        }
    }

    /// Whether the slot holds live work (not done/vacant).
    pub fn is_live(&self) -> bool {
        !matches!(self.state, ThreadState::Done | ThreadState::Vacant)
    }

    /// Rips the stream out of a live slot, leaving it vacant. Used when a
    /// core fails: the unfinished stream is what the dispatcher re-runs
    /// elsewhere. Returns `None` for done/vacant slots.
    pub fn take_stream(&mut self) -> Option<Box<dyn InstructionStream + Send>> {
        if !self.is_live() {
            return None;
        }
        let stream = self.stream.take();
        *self = Self::vacant();
        stream
    }
}

/// The pair scheduler: which thread of each pair holds the issue slot.
///
/// Pure state machine over thread indices so the policy is unit-testable
/// apart from the pipeline. Threads `0..pairs` are primary; thread
/// `pairs + p` (when present) is pair `p`'s friend.
#[derive(Debug, Clone)]
pub struct PairScheduler {
    pairs: usize,
    active: Vec<usize>,
    in_pair: bool,
}

impl PairScheduler {
    /// Creates the scheduler for `pairs` pairs; each pair starts with its
    /// primary thread active.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is zero.
    pub fn new(pairs: usize, in_pair: bool) -> Self {
        assert!(pairs > 0, "need at least one pair");
        Self {
            pairs,
            active: (0..pairs).collect(),
            in_pair,
        }
    }

    /// Number of pairs.
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// The thread currently holding pair `p`'s slot.
    pub fn active_thread(&self, p: usize) -> usize {
        self.active[p]
    }

    /// The friend of thread `t`, if a friend slot exists for its pair.
    pub fn friend_of(&self, t: usize, total_slots: usize) -> Option<usize> {
        let f = if t < self.pairs {
            t + self.pairs
        } else {
            t - self.pairs
        };
        (f < total_slots).then_some(f)
    }

    /// Pair index of thread `t`.
    pub fn pair_of(&self, t: usize) -> usize {
        t % self.pairs
    }

    /// Called when the active thread of pair `p` blocks (or exits). Hands
    /// the slot to the friend when the in-pair mechanism is enabled and the
    /// friend is live; returns the newly active thread, if the slot
    /// changed hands.
    pub fn on_block(&mut self, p: usize, slots: &mut [ThreadSlot]) -> Option<usize> {
        let cur = self.active[p];
        let friend = self.friend_of(cur, slots.len())?;
        let switchable = self.in_pair || !slots[cur].is_live();
        if !switchable {
            return None;
        }
        match slots[friend].state {
            ThreadState::Ready => {
                slots[friend].state = ThreadState::Runnable;
                self.active[p] = friend;
                Some(friend)
            }
            ThreadState::Runnable => {
                self.active[p] = friend;
                Some(friend)
            }
            _ => None,
        }
    }

    /// Called when a blocked thread's data returns. Per the paper the
    /// thread resumes only when its friend blocks — unless the friend is
    /// itself blocked/done, in which case it takes the slot immediately.
    pub fn on_unblock(&mut self, t: usize, slots: &mut [ThreadSlot]) {
        let p = self.pair_of(t);
        let friend = self.friend_of(t, slots.len());
        let friend_live_and_active = friend.is_some_and(|f| {
            self.active[p] == f && matches!(slots[f].state, ThreadState::Runnable)
        });
        if friend_live_and_active && self.in_pair {
            // Wait for the friend to block.
            slots[t].state = ThreadState::Ready;
        } else {
            slots[t].state = ThreadState::Runnable;
            self.active[p] = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarco_isa::mix::compute_only;

    fn slots(n: usize) -> Vec<ThreadSlot> {
        (0..n)
            .map(|_| {
                let mut s = ThreadSlot::vacant();
                s.attach(Box::new(compute_only(1000)));
                s
            })
            .collect()
    }

    #[test]
    fn friend_mapping() {
        let ps = PairScheduler::new(4, true);
        assert_eq!(ps.friend_of(0, 8), Some(4));
        assert_eq!(ps.friend_of(4, 8), Some(0));
        assert_eq!(ps.friend_of(3, 8), Some(7));
        assert_eq!(ps.friend_of(0, 4), None, "no friend slot with 4 threads");
        assert_eq!(ps.pair_of(6), 2);
    }

    #[test]
    fn block_hands_slot_to_friend() {
        let mut ps = PairScheduler::new(4, true);
        let mut sl = slots(8);
        sl[0].state = ThreadState::Blocked;
        assert_eq!(ps.on_block(0, &mut sl), Some(4));
        assert_eq!(ps.active_thread(0), 4);
    }

    #[test]
    fn unblock_waits_for_friend_to_miss() {
        let mut ps = PairScheduler::new(4, true);
        let mut sl = slots(8);
        // Thread 0 blocks; slot goes to 4.
        sl[0].state = ThreadState::Blocked;
        ps.on_block(0, &mut sl);
        // Data returns while 4 still runs: thread 0 parks Ready.
        ps.on_unblock(0, &mut sl);
        assert_eq!(sl[0].state, ThreadState::Ready);
        assert_eq!(ps.active_thread(0), 4);
        // Now 4 blocks: slot returns to 0.
        sl[4].state = ThreadState::Blocked;
        assert_eq!(ps.on_block(0, &mut sl), Some(0));
        assert_eq!(sl[0].state, ThreadState::Runnable);
    }

    #[test]
    fn unblock_takes_slot_when_friend_is_blocked() {
        let mut ps = PairScheduler::new(4, true);
        let mut sl = slots(8);
        sl[0].state = ThreadState::Blocked;
        ps.on_block(0, &mut sl);
        sl[4].state = ThreadState::Blocked;
        ps.on_block(0, &mut sl); // nobody to switch to
        ps.on_unblock(0, &mut sl);
        assert_eq!(sl[0].state, ThreadState::Runnable);
        assert_eq!(ps.active_thread(0), 0);
    }

    #[test]
    fn disabled_in_pair_never_switches_while_live() {
        let mut ps = PairScheduler::new(4, false);
        let mut sl = slots(8);
        sl[0].state = ThreadState::Blocked;
        assert_eq!(ps.on_block(0, &mut sl), None);
        ps.on_unblock(0, &mut sl);
        assert_eq!(sl[0].state, ThreadState::Runnable);
    }

    #[test]
    fn done_thread_hands_over_even_without_in_pair() {
        let mut ps = PairScheduler::new(4, false);
        let mut sl = slots(8);
        sl[0].state = ThreadState::Done;
        assert_eq!(ps.on_block(0, &mut sl), Some(4));
    }

    #[test]
    fn single_thread_pair_has_no_handoff() {
        let mut ps = PairScheduler::new(2, true);
        let mut sl = slots(2); // threads 0,1 → two pairs, no friends
        sl[0].state = ThreadState::Blocked;
        assert_eq!(ps.on_block(0, &mut sl), None);
        ps.on_unblock(0, &mut sl);
        assert_eq!(sl[0].state, ThreadState::Runnable);
    }

    #[test]
    fn slot_lifecycle() {
        let mut s = ThreadSlot::vacant();
        assert!(!s.is_live());
        s.attach(Box::new(compute_only(2)));
        assert!(s.is_live());
        assert!(s.next_instr().is_some());
        assert_eq!(s.state, ThreadState::Runnable);
    }

    #[test]
    fn slot_counts_its_compute_run_down() {
        let mut s = ThreadSlot::vacant();
        s.attach(Box::new(compute_only(10)));
        assert_eq!(s.compute_run(), 10);
        assert!(s.next_instr().is_some());
        s.skip_computes(6);
        assert_eq!(s.compute_run(), 3);
        let rest: Vec<_> = std::iter::from_fn(|| s.next_instr()).collect();
        assert_eq!(rest.len(), 4, "three computes and the exit");
        assert_eq!(s.compute_run(), 0);
        s.state = ThreadState::Runnable;
        assert!(s.take_stream().is_some());
        assert_eq!(s.compute_run(), 0, "a vacant slot has no run");
    }
}

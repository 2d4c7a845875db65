//! The instruction-stream abstraction consumed by core pipelines.

use crate::op::Instr;

/// A source of instructions for one thread.
///
/// Streams end by returning `None` after (usually) emitting an
/// [`crate::Op::Exit`]; pipelines treat both as thread termination.
pub trait InstructionStream {
    /// Produces the next instruction, or `None` when the thread is done.
    fn next_instr(&mut self) -> Option<Instr>;

    /// `(base, bytes)` of the thread's instruction segment when known.
    ///
    /// Used for the shared-instruction-segment optimization (§3.1.2): when
    /// co-resident threads report the same segment, the core DMA-prefetches
    /// it into SPM and instruction fetch always hits. A core asks once, at
    /// attach, so the answer must not change over the stream's life.
    fn segment(&self) -> Option<(u64, u64)> {
        None
    }

    /// How many of the next instructions are certain to be
    /// `Op::Compute { latency: 1 }` with PCs inside [`segment`](Self::segment):
    /// a *compute run*, which a core whose shared instruction segment
    /// holds that segment issues one per cycle and can charge in one step.
    /// The default, 0, promises nothing and keeps the core issuing cycle
    /// by cycle; that is always exact, only slower.
    ///
    /// A wrapper stream that does not forward this method and
    /// [`skip_computes`](Self::skip_computes) stays exact but loses the
    /// fast path.
    fn compute_run(&self) -> u64 {
        0
    }

    /// Consumes `n` instructions of the current compute run, leaving the
    /// stream exactly as `n` calls of [`next_instr`](Self::next_instr)
    /// would. Callers keep `n` within [`compute_run`](Self::compute_run).
    fn skip_computes(&mut self, n: u64) {
        for _ in 0..n {
            let _ = self.next_instr();
        }
    }
}

impl<S: InstructionStream + ?Sized> InstructionStream for Box<S> {
    fn next_instr(&mut self) -> Option<Instr> {
        (**self).next_instr()
    }
    fn segment(&self) -> Option<(u64, u64)> {
        (**self).segment()
    }
    fn compute_run(&self) -> u64 {
        (**self).compute_run()
    }
    fn skip_computes(&mut self, n: u64) {
        (**self).skip_computes(n);
    }
}

/// A stream backed by a closure; the workhorse for structured benchmark
/// generators in `smarco-workloads`.
///
/// # Examples
///
/// ```
/// use smarco_isa::stream::{FnStream, InstructionStream};
/// use smarco_isa::{Instr, Op};
///
/// let mut remaining = 3u32;
/// let mut s = FnStream::new(move || {
///     if remaining == 0 {
///         None
///     } else {
///         remaining -= 1;
///         Some(Op::compute())
///     }
/// });
/// let mut count = 0;
/// while let Some(Instr { op, .. }) = s.next_instr() {
///     count += 1;
///     if matches!(op, Op::Exit) { break; }
/// }
/// assert_eq!(count, 4); // 3 computes + implicit Exit
/// ```
pub struct FnStream<F> {
    f: F,
    pc: u64,
    segment: Option<(u64, u64)>,
    exited: bool,
}

impl<F> std::fmt::Debug for FnStream<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnStream")
            .field("pc", &self.pc)
            .field("segment", &self.segment)
            .field("exited", &self.exited)
            .finish()
    }
}

impl<F: FnMut() -> Option<crate::op::Op>> FnStream<F> {
    /// Wraps `f`; PCs are assigned sequentially from 0 (wrapping within the
    /// declared segment when one is set).
    pub fn new(f: F) -> Self {
        Self {
            f,
            pc: 0,
            segment: None,
            exited: false,
        }
    }

    /// Declares the instruction segment `(base, bytes)`; PCs then start at
    /// `base` and wrap within it, modelling loop-dominated kernels.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or not a multiple of the instruction size.
    pub fn with_segment(mut self, base: u64, bytes: u64) -> Self {
        assert!(
            bytes > 0 && bytes.is_multiple_of(crate::op::INSTR_BYTES),
            "bad segment length {bytes}"
        );
        self.segment = Some((base, bytes));
        self.pc = base;
        self
    }
}

impl<F: FnMut() -> Option<crate::op::Op>> InstructionStream for FnStream<F> {
    fn next_instr(&mut self) -> Option<Instr> {
        if self.exited {
            return None;
        }
        let op = match (self.f)() {
            Some(op) => op,
            None => {
                self.exited = true;
                crate::op::Op::Exit
            }
        };
        if matches!(op, crate::op::Op::Exit) {
            self.exited = true;
        }
        let pc = self.pc;
        self.pc += crate::op::INSTR_BYTES;
        if let Some((base, bytes)) = self.segment {
            if self.pc >= base + bytes {
                self.pc = base;
            }
        }
        Some(Instr { pc, op })
    }

    fn segment(&self) -> Option<(u64, u64)> {
        self.segment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    #[test]
    fn fn_stream_appends_exit_once() {
        let mut n = 2;
        let mut s = FnStream::new(move || {
            if n == 0 {
                None
            } else {
                n -= 1;
                Some(Op::compute())
            }
        });
        assert_eq!(s.next_instr().unwrap().op, Op::compute());
        assert_eq!(s.next_instr().unwrap().op, Op::compute());
        assert_eq!(s.next_instr().unwrap().op, Op::Exit);
        assert_eq!(s.next_instr(), None);
    }

    #[test]
    fn explicit_exit_ends_stream() {
        let mut sent = false;
        let mut s = FnStream::new(move || {
            if sent {
                Some(Op::compute())
            } else {
                sent = true;
                Some(Op::Exit)
            }
        });
        assert_eq!(s.next_instr().unwrap().op, Op::Exit);
        assert_eq!(s.next_instr(), None);
    }

    #[test]
    fn pcs_wrap_in_declared_segment() {
        let mut s = FnStream::new(|| Some(Op::compute())).with_segment(0x400, 8);
        let pcs: Vec<u64> = (0..5).map(|_| s.next_instr().unwrap().pc).collect();
        assert_eq!(pcs, vec![0x400, 0x404, 0x400, 0x404, 0x400]);
        assert_eq!(s.segment(), Some((0x400, 8)));
    }

    #[test]
    fn boxed_stream_delegates() {
        let mut b: Box<dyn InstructionStream> =
            Box::new(FnStream::new(|| Some(Op::compute())).with_segment(0, 4));
        assert!(b.next_instr().is_some());
        assert_eq!(b.segment(), Some((0, 4)));
        assert_eq!(b.compute_run(), 0, "a closure stream promises no run");
        let mut b: Box<dyn InstructionStream> = Box::new(crate::mix::compute_only(5));
        assert_eq!(b.compute_run(), 5);
        b.skip_computes(3);
        assert_eq!(b.compute_run(), 2);
        assert_eq!(b.next_instr().map(|i| i.pc), Some(12));
    }

    #[test]
    fn default_skip_computes_calls_next_instr() {
        let mut s = FnStream::new(|| Some(Op::compute())).with_segment(0x400, 8);
        s.skip_computes(3);
        assert_eq!(s.next_instr().map(|i| i.pc), Some(0x404));
    }

    #[test]
    #[should_panic(expected = "bad segment length")]
    fn unaligned_segment_rejected() {
        let _ = FnStream::new(|| None).with_segment(0, 6);
    }
}

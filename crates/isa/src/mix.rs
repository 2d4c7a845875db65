//! Statistical instruction-stream generation.
//!
//! An [`OpMix`] captures what the paper measures about a workload class:
//! the instruction-class fractions, the branch behaviour, and — central to
//! Fig. 8 and the high-density-NoC / MACT studies — the **memory-access
//! granularity distribution** and locality. A [`SyntheticStream`] then
//! plays an endless (or bounded) instruction stream with those statistics
//! and a concrete, locality-faithful address stream.

use smarco_sim::rng::SimRng;

use crate::op::{MemRef, Op, Priority};
use crate::stream::InstructionStream;

/// Access-size distribution over power-of-two widths (1–64 bytes).
///
/// # Examples
///
/// ```
/// use smarco_isa::mix::GranularityMix;
///
/// // KMP-like: dominated by 1–2 byte accesses.
/// let g = GranularityMix::new([0.55, 0.30, 0.10, 0.05, 0.0, 0.0, 0.0]);
/// assert!((g.mean_bytes() - (0.55 + 0.6 + 0.4 + 0.4)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GranularityMix {
    /// Weights for sizes `[1, 2, 4, 8, 16, 32, 64]`; need not sum to 1.
    weights: [f64; 7],
}

/// The power-of-two access sizes a [`GranularityMix`] distributes over.
pub const GRANULARITY_SIZES: [u8; 7] = [1, 2, 4, 8, 16, 32, 64];

impl GranularityMix {
    /// Creates a mix from weights for sizes `[1, 2, 4, 8, 16, 32, 64]`.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or any is negative.
    pub fn new(weights: [f64; 7]) -> Self {
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative"
        );
        assert!(
            weights.iter().sum::<f64>() > 0.0,
            "weights must not all be zero"
        );
        Self { weights }
    }

    /// Uniform mix across all sizes.
    pub fn uniform() -> Self {
        Self::new([1.0; 7])
    }

    /// Samples an access size in bytes.
    pub fn sample(&self, rng: &mut SimRng) -> u8 {
        GRANULARITY_SIZES[rng.pick_weighted(&self.weights)]
    }

    /// Probability-weighted mean access size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.weights
            .iter()
            .zip(GRANULARITY_SIZES)
            .map(|(&w, s)| w / total * f64::from(s))
            .sum()
    }

    /// Fraction of accesses of at most `bytes`.
    pub fn fraction_le(&self, bytes: u8) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.weights
            .iter()
            .zip(GRANULARITY_SIZES)
            .filter(|&(_, s)| s <= bytes)
            .map(|(&w, _)| w / total)
            .sum()
    }

    /// The weights, in size order.
    pub fn weights(&self) -> &[f64; 7] {
        &self.weights
    }
}

/// Locality model for generated addresses: a hot region visited with
/// probability `hot_frac`, sequential striding with probability `seq_frac`,
/// otherwise uniform over the working set.
#[derive(Debug, Clone, PartialEq)]
pub struct AddressModel {
    /// Base address of the thread's data region.
    pub base: u64,
    /// Working-set size in bytes.
    pub working_set: u64,
    /// Fraction of accesses that continue sequentially from the previous.
    pub seq_frac: f64,
    /// Fraction of (non-sequential) accesses that hit the hot region.
    pub hot_frac: f64,
    /// Hot-region size in bytes (≤ working_set).
    pub hot_bytes: u64,
}

impl AddressModel {
    /// A streaming model: mostly-sequential over `working_set`.
    pub fn streaming(base: u64, working_set: u64) -> Self {
        Self {
            base,
            working_set,
            seq_frac: 0.85,
            hot_frac: 0.2,
            hot_bytes: 4096,
        }
    }

    /// A random-access model: uniform over `working_set` with a small hot
    /// region.
    pub fn random(base: u64, working_set: u64) -> Self {
        Self {
            base,
            working_set,
            seq_frac: 0.05,
            hot_frac: 0.3,
            hot_bytes: 4096,
        }
    }
}

/// Statistical description of a workload's instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub struct OpMix {
    /// Fraction of instructions that access memory.
    pub mem_frac: f64,
    /// Of memory instructions, the fraction that are loads.
    pub load_frac: f64,
    /// Fraction of instructions that are branches.
    pub branch_frac: f64,
    /// Probability a branch mispredicts.
    pub branch_miss: f64,
    /// Fraction of memory accesses carrying real-time priority.
    pub realtime_frac: f64,
    /// Access-size distribution.
    pub granularity: GranularityMix,
    /// Address locality model.
    pub addresses: AddressModel,
}

impl OpMix {
    /// Validates the mix and panics with a descriptive message when a
    /// fraction is out of `[0, 1]` or the class fractions exceed 1.
    pub fn validate(&self) {
        for (name, v) in [
            ("mem_frac", self.mem_frac),
            ("load_frac", self.load_frac),
            ("branch_frac", self.branch_frac),
            ("branch_miss", self.branch_miss),
            ("realtime_frac", self.realtime_frac),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} = {v} outside [0, 1]");
        }
        assert!(
            self.mem_frac + self.branch_frac <= 1.0,
            "mem_frac + branch_frac must not exceed 1"
        );
        assert!(
            self.addresses.working_set > 0,
            "working set must be positive"
        );
    }
}

/// An unbounded statistical instruction stream drawn from an [`OpMix`].
#[derive(Debug)]
pub struct SyntheticStream {
    mix: OpMix,
    rng: SimRng,
    cursor: u64,
    remaining: u64,
    exited: bool,
    pc: u64,
    segment: Option<(u64, u64)>,
}

impl SyntheticStream {
    /// Creates a stream of `instructions` dynamic instructions (the final
    /// `Exit` is added on top).
    ///
    /// # Panics
    ///
    /// Panics if the mix is invalid (see [`OpMix::validate`]) or
    /// `instructions` is zero.
    pub fn new(mix: OpMix, instructions: u64, rng: SimRng) -> Self {
        mix.validate();
        assert!(instructions > 0, "instruction budget must be positive");
        let cursor = mix.addresses.base;
        Self {
            mix,
            rng,
            cursor,
            remaining: instructions,
            exited: false,
            pc: 0,
            segment: None,
        }
    }

    /// Declares the instruction segment for shared-I-segment modelling; PCs
    /// wrap within `(base, bytes)`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or unaligned to the instruction size.
    pub fn with_segment(mut self, base: u64, bytes: u64) -> Self {
        assert!(
            bytes > 0 && bytes.is_multiple_of(crate::op::INSTR_BYTES),
            "bad segment length {bytes}"
        );
        self.segment = Some((base, bytes));
        self.pc = base;
        self
    }

    fn next_addr(&mut self, bytes: u8) -> u64 {
        let a = &self.mix.addresses;
        let addr = if self.rng.chance(a.seq_frac) {
            self.cursor
        } else if self.rng.chance(a.hot_frac) {
            a.base + self.rng.gen_range(a.hot_bytes.min(a.working_set).max(1))
        } else {
            a.base + self.rng.gen_range(a.working_set)
        };
        // Keep inside the working set and aligned to the access width.
        let span = a.working_set.max(u64::from(bytes));
        let offset = (addr - a.base) % (span - u64::from(bytes) + 1);
        let aligned = offset - offset % u64::from(bytes);
        let addr = a.base + aligned;
        self.cursor = addr + u64::from(bytes);
        if self.cursor >= a.base + a.working_set {
            self.cursor = a.base;
        }
        addr
    }

    fn next_op(&mut self) -> Option<Op> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let roll = self.rng.gen_f64();
        let op = if roll < self.mix.mem_frac {
            let bytes = self.mix.granularity.sample(&mut self.rng);
            let addr = self.next_addr(bytes);
            let priority = if self.rng.chance(self.mix.realtime_frac) {
                Priority::Realtime
            } else {
                Priority::Normal
            };
            let mem = MemRef {
                addr,
                bytes,
                priority,
            };
            if self.rng.chance(self.mix.load_frac) {
                Op::Load(mem)
            } else {
                Op::Store(mem)
            }
        } else if roll < self.mix.mem_frac + self.mix.branch_frac {
            Op::Branch {
                mispredicted: self.rng.chance(self.mix.branch_miss),
            }
        } else {
            Op::compute()
        };
        Some(op)
    }
}

impl InstructionStream for SyntheticStream {
    fn next_instr(&mut self) -> Option<crate::op::Instr> {
        if self.exited {
            return None;
        }
        let op = match self.next_op() {
            Some(op) => op,
            None => {
                self.exited = true;
                Op::Exit
            }
        };
        let pc = self.pc;
        self.pc += crate::op::INSTR_BYTES;
        if let Some((base, bytes)) = self.segment {
            if self.pc >= base + bytes {
                self.pc = base;
            }
        }
        Some(crate::op::Instr { pc, op })
    }

    fn segment(&self) -> Option<(u64, u64)> {
        self.segment
    }
}

/// Convenience: wraps an [`OpMix`] into a boxed stream usable anywhere a
/// generator closure is expected.
pub fn boxed_synthetic(
    mix: OpMix,
    instructions: u64,
    rng: SimRng,
) -> Box<dyn InstructionStream + Send> {
    Box::new(SyntheticStream::new(mix, instructions, rng))
}

/// The instruction segment a [`ComputeOnly`] stream loops in: 1 KB at 0.
const COMPUTE_ONLY_SEGMENT: (u64, u64) = (0, 1024);

/// `n` single-cycle computes followed by `Exit`, with PCs looping in a
/// 1 KB instruction segment, as real kernels do. The whole remainder
/// before `Exit` is one compute run, so a core with the segment resident
/// charges it without ticking (see [`InstructionStream::compute_run`]).
#[derive(Debug, Clone)]
pub struct ComputeOnly {
    left: u64,
    pc: u64,
    exited: bool,
}

impl InstructionStream for ComputeOnly {
    fn next_instr(&mut self) -> Option<crate::op::Instr> {
        if self.exited {
            return None;
        }
        let op = if self.left == 0 {
            self.exited = true;
            Op::Exit
        } else {
            self.left -= 1;
            Op::compute()
        };
        let pc = self.pc;
        self.skip_pcs(1);
        Some(crate::op::Instr { pc, op })
    }

    fn segment(&self) -> Option<(u64, u64)> {
        Some(COMPUTE_ONLY_SEGMENT)
    }

    fn compute_run(&self) -> u64 {
        self.left
    }

    fn skip_computes(&mut self, n: u64) {
        assert!(
            n <= self.left,
            "skipped {n} computes of a {} run",
            self.left
        );
        self.left -= n;
        self.skip_pcs(n);
    }
}

impl ComputeOnly {
    /// Advances the PC by `n` instructions, wrapping in the segment.
    fn skip_pcs(&mut self, n: u64) {
        let (base, bytes) = COMPUTE_ONLY_SEGMENT;
        let step = n % (bytes / crate::op::INSTR_BYTES) * crate::op::INSTR_BYTES;
        self.pc = base + (self.pc - base + step) % bytes;
    }
}

/// A [`ComputeOnly`] stream of `n` compute ops (testing aid, and the
/// rack's request body).
pub fn compute_only(n: u64) -> ComputeOnly {
    ComputeOnly {
        left: n,
        pc: COMPUTE_ONLY_SEGMENT.0,
        exited: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_mix() -> OpMix {
        OpMix {
            mem_frac: 0.4,
            load_frac: 0.7,
            branch_frac: 0.1,
            branch_miss: 0.05,
            realtime_frac: 0.0,
            granularity: GranularityMix::new([0.5, 0.3, 0.1, 0.1, 0.0, 0.0, 0.0]),
            addresses: AddressModel::random(0x10_0000, 1 << 20),
        }
    }

    fn drain(mut s: SyntheticStream) -> Vec<Op> {
        let mut ops = Vec::new();
        while let Some(i) = s.next_instr() {
            ops.push(i.op);
        }
        ops
    }

    #[test]
    fn produces_requested_length_plus_exit() {
        let ops = drain(SyntheticStream::new(test_mix(), 1000, SimRng::new(1)));
        assert_eq!(ops.len(), 1001);
        assert_eq!(*ops.last().unwrap(), Op::Exit);
    }

    #[test]
    fn class_fractions_roughly_match() {
        let ops = drain(SyntheticStream::new(test_mix(), 20_000, SimRng::new(2)));
        let mem = ops.iter().filter(|o| o.is_mem()).count() as f64 / ops.len() as f64;
        let br = ops
            .iter()
            .filter(|o| matches!(o, Op::Branch { .. }))
            .count() as f64
            / ops.len() as f64;
        assert!((mem - 0.4).abs() < 0.03, "mem fraction {mem}");
        assert!((br - 0.1).abs() < 0.02, "branch fraction {br}");
    }

    #[test]
    fn loads_dominate_stores_per_mix() {
        let ops = drain(SyntheticStream::new(test_mix(), 20_000, SimRng::new(3)));
        let loads = ops.iter().filter(|o| matches!(o, Op::Load(_))).count();
        let stores = ops.iter().filter(|o| matches!(o, Op::Store(_))).count();
        let frac = loads as f64 / (loads + stores) as f64;
        assert!((frac - 0.7).abs() < 0.03, "load fraction {frac}");
    }

    #[test]
    fn addresses_stay_in_working_set_and_aligned() {
        let mix = test_mix();
        let base = mix.addresses.base;
        let ws = mix.addresses.working_set;
        let ops = drain(SyntheticStream::new(mix, 20_000, SimRng::new(4)));
        for op in ops {
            if let Some(m) = op.mem_ref() {
                assert!(m.addr >= base, "below base");
                assert!(m.end() <= base + ws, "beyond working set");
                assert_eq!(m.addr % u64::from(m.bytes), 0, "unaligned");
            }
        }
    }

    #[test]
    fn granularity_distribution_matches() {
        let ops = drain(SyntheticStream::new(test_mix(), 50_000, SimRng::new(5)));
        let sizes: Vec<u8> = ops
            .iter()
            .filter_map(Op::mem_ref)
            .map(|m| m.bytes)
            .collect();
        let small = sizes.iter().filter(|&&s| s <= 2).count() as f64 / sizes.len() as f64;
        assert!((small - 0.8).abs() < 0.03, "small-access fraction {small}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = drain(SyntheticStream::new(test_mix(), 500, SimRng::new(42)));
        let b = drain(SyntheticStream::new(test_mix(), 500, SimRng::new(42)));
        assert_eq!(a, b);
    }

    #[test]
    fn granularity_mix_stats() {
        let g = GranularityMix::new([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
        assert!((g.fraction_le(2) - 0.5).abs() < 1e-12);
        assert!((g.fraction_le(64) - 1.0).abs() < 1e-12);
        assert!((g.mean_bytes() - 3.75).abs() < 1e-12);
        let mut rng = SimRng::new(6);
        for _ in 0..100 {
            assert!(g.sample(&mut rng) <= 8);
        }
    }

    #[test]
    fn segment_wrapping_pcs() {
        let s = SyntheticStream::new(test_mix(), 100, SimRng::new(7)).with_segment(0x2000, 64);
        assert_eq!(s.segment(), Some((0x2000, 64)));
        let mut s = s;
        for _ in 0..200 {
            if let Some(i) = s.next_instr() {
                assert!((0x2000..0x2040).contains(&i.pc));
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_mix_rejected() {
        let mut m = test_mix();
        m.mem_frac = 1.5;
        let _ = SyntheticStream::new(m, 10, SimRng::new(0));
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn zero_granularity_rejected() {
        let _ = GranularityMix::new([0.0; 7]);
    }

    #[test]
    fn compute_only_helper() {
        let mut s = compute_only(2);
        assert_eq!(s.next_instr().unwrap().op, Op::compute());
        assert_eq!(s.next_instr().unwrap().op, Op::compute());
        assert_eq!(s.next_instr().unwrap().op, Op::Exit);
        assert_eq!(s.next_instr(), None);
    }

    fn drain_instrs(s: &mut impl InstructionStream) -> Vec<crate::op::Instr> {
        std::iter::from_fn(|| s.next_instr()).collect()
    }

    /// The closure stream `compute_only` returned before it became a
    /// named type: the reference for its op and PC sequence.
    fn closure_compute_only(n: u64) -> impl InstructionStream {
        let mut left = n;
        crate::stream::FnStream::new(move || {
            if left == 0 {
                None
            } else {
                left -= 1;
                Some(Op::compute())
            }
        })
        .with_segment(0, 1024)
    }

    #[test]
    fn compute_only_keeps_the_closure_streams_sequence() {
        for n in [0, 1, 255, 256, 257, 5000] {
            let mut s = compute_only(n);
            assert_eq!(s.segment(), Some((0, 1024)));
            assert_eq!(s.compute_run(), n);
            let got = drain_instrs(&mut s);
            assert_eq!(got, drain_instrs(&mut closure_compute_only(n)), "n = {n}");
            assert_eq!(s.compute_run(), 0);
        }
    }

    #[test]
    fn skip_computes_matches_calling_next_instr() {
        // Runs that end before, at and across the 1 KB (256-instruction)
        // wrap, skipped in one piece or in two.
        for (len, skips) in [
            (300, &[0][..]),
            (300, &[1]),
            (300, &[255]),
            (300, &[256]),
            (300, &[257]),
            (300, &[300]),
            (5000, &[1023, 2000]),
            (5000, &[256, 256]),
        ] {
            let mut skipped = compute_only(len);
            let mut stepped = compute_only(len);
            for &n in skips {
                skipped.skip_computes(n);
                for _ in 0..n {
                    assert_eq!(stepped.next_instr().map(|i| i.op), Some(Op::compute()));
                }
                assert_eq!(skipped.compute_run(), stepped.compute_run());
            }
            let (a, b) = (drain_instrs(&mut skipped), drain_instrs(&mut stepped));
            assert_eq!(a, b, "len {len}, skips {skips:?}");
            assert_eq!(a.last().map(|i| i.op), Some(Op::Exit));
        }
    }

    #[test]
    #[should_panic(expected = "skipped 4 computes of a 3 run")]
    fn skipping_past_the_run_is_refused() {
        compute_only(3).skip_computes(4);
    }
}

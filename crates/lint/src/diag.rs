//! The structured diagnostics engine: stable codes, severities, spans,
//! and text/JSON rendering shared by every lint pass.

use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: legal but worth knowing (e.g. remote-SPM traffic).
    Note,
    /// Suspicious: almost always a performance bug or a latent
    /// correctness bug.
    Warn,
    /// Certain defect: the program, plan, or configuration will corrupt
    /// data, panic, or violate an architectural invariant.
    Deny,
}

impl Severity {
    /// Stable lowercase name (`deny` / `warn` / `note`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Stable diagnostic codes, grouped by pass:
///
/// * `SL01xx` — address-map analysis
/// * `SL02xx` — cross-thread race detection
/// * `SL03xx` — DMA / staging-plan overlap analysis
/// * `SL04xx` — configuration validation
///
/// Codes never change meaning once shipped; new findings get new codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// SL0101: memory reference resolves to no mapped region.
    UnmappedRef,
    /// SL0102: memory reference straddles a region boundary.
    StraddlingRef,
    /// SL0103: naturally-alignable reference is misaligned for its width.
    MisalignedRef,
    /// SL0104: guest load/store hits the SPM control-register window.
    CtrlRef,
    /// SL0105: DMA endpoint range is unmapped, straddling, or empty.
    BadDmaRange,
    /// SL0106: access to another core's SPM window (legal but remote).
    RemoteSpmRef,
    /// SL0201: two threads write overlapping ranges with no ordering.
    WriteWriteRace,
    /// SL0202: one thread writes a range another reads with no ordering.
    ReadWriteRace,
    /// SL0203: thread touches its own in-flight DMA destination before
    /// the `Sync` that completes the transfer.
    UnsyncedDmaAccess,
    /// SL0301: a DMA op's source and destination ranges overlap.
    DmaSrcDstOverlap,
    /// SL0302: DMA destinations of different threads overlap.
    DmaDstConflict,
    /// SL0303: SPM staging buffers collide or escape their core's window.
    StagingCollision,
    /// SL0304: MapReduce plan shape is invalid (ranges, regions, threads).
    PlanShape,
    /// SL0305: slice rounding makes trailing tasks read past the input.
    SliceBeyondInput,
    /// SL0401: a structurally required field is zero (or non-positive).
    ZeroField,
    /// SL0402: resident threads exceed 2 × thread pairs.
    ThreadsExceedPairs,
    /// SL0403: DRAM channel count differs from NoC memory controllers.
    DramChannelMismatch,
    /// SL0404: direct-datapath spokes differ from sub-ring count.
    DirectSpokeMismatch,
    /// SL0405: memory controllers do not divide sub-rings evenly.
    CtrlSpacing,
    /// SL0406: link slice width is zero, oversized, or does not tile the
    /// guaranteed link capacity.
    SliceWidth,
    /// SL0407: MACT geometry is invalid (lines, line bytes).
    MactGeometry,
    /// SL0408: MACT collection deadline exceeds the line capacity.
    MactThreshold,
    /// SL0409: task deadline is infeasible (negative laxity at arrival).
    InfeasibleTask,
    /// SL0410: shard lookahead (the junction latency) exceeds a
    /// boundary-crossing path latency, so a shard would have to deliver
    /// a message into a window the engine already simulated.
    ShardLookahead,
    /// SL0411: core count does not split into whole sub-ring shards.
    ShardPartition,
    /// SL0412: more PDES workers than shards — the excess host threads
    /// never run.
    ShardWorkers,
    /// SL0413: the configuration makes event horizons degenerate (e.g. a
    /// 1-cycle MACT threshold keeps every open line's deadline at the
    /// next cycle), so the cycle skipper can rarely fast-forward.
    DegenerateHorizon,
    /// SL0414: a fault-plan entry targets a unit outside the chip's
    /// geometry (core, DDR channel, or sub-ring index out of range) and
    /// can never fire.
    FaultTargetOutOfRange,
    /// SL0415: the NoC retransmission budget (retries × exponential
    /// backoff) can delay a request past the MACT collection deadline, so
    /// every retried request blows its batching window.
    RetryExceedsDeadline,
    /// SL0416: self-profiling is enabled with a telemetry sampling stride
    /// so sparse that short runs close few or no sampled windows — the
    /// histograms and barrier-spread percentiles come back empty while
    /// the run still pays the profiling overhead.
    DegenerateProfileSampling,
    /// SL0420: the chip model contains a blocking cycle — a wait-for
    /// loop through ring junctions, MACT open-line windows, direct-path
    /// request/reply pairs, or fault-retry wheels with no live sink, so
    /// backpressure can livelock the configuration.
    BlockingCycle,
    /// SL0421: a component's static horizon contract is violated — its
    /// config lets `next_event` under-promise (e.g. zero-latency links,
    /// a zero minimum boundary floor), so the cycle skipper could jump
    /// past a real event.
    HorizonContract,
    /// SL0422: the fault plan permanently removes every unit of a
    /// resource class the workload needs (all DDR channels, all cores),
    /// leaving requests with no live sink.
    ResourceClassDead,
    /// SL0423: in a multi-level shard hierarchy, an outer level's
    /// lookahead is shorter than an inner level's — the outer barrier
    /// would have to deliver into windows the inner engine already
    /// retired.
    HierarchyLookahead,
    /// SL0430: the symbolic worst path through the model (retry backoff
    /// under injected noise) pushes even a clean final attempt past the
    /// MACT collection deadline.
    WorstPathExceedsDeadline,
    /// SL0431: a laxity-scheduled task's slack at arrival is smaller
    /// than the plan's worst-case fault stall (retry budget + DDR stall
    /// window + channel-death remap), so injected faults can starve it.
    TaskStarvable,
    /// SL0450: a shard level asks for more PDES workers than the host
    /// has CPUs — the extra workers time-slice, the lockstep barrier
    /// degrades to yield-on-every-check, and the run measures scheduler
    /// overhead instead of speedup.
    HostOversubscribed,
    /// SL0460: the inter-chip fabric latency (the cluster engine's outer
    /// lookahead) is below a member chip's internal boundary latency —
    /// the cluster-specific instance of SL0423, caught from the fabric
    /// config alone.
    FabricBelowChipBoundary,
    /// SL0461: the open-loop traffic profile offers more work per cycle
    /// than the cluster's aggregate issue width can retire, so queues
    /// grow without bound and tail latency diverges.
    OfferedLoadExceedsCapacity,
}

impl Code {
    /// Every code, in numeric order (for docs and exhaustive tests).
    pub const ALL: [Code; 39] = [
        Code::UnmappedRef,
        Code::StraddlingRef,
        Code::MisalignedRef,
        Code::CtrlRef,
        Code::BadDmaRange,
        Code::RemoteSpmRef,
        Code::WriteWriteRace,
        Code::ReadWriteRace,
        Code::UnsyncedDmaAccess,
        Code::DmaSrcDstOverlap,
        Code::DmaDstConflict,
        Code::StagingCollision,
        Code::PlanShape,
        Code::SliceBeyondInput,
        Code::ZeroField,
        Code::ThreadsExceedPairs,
        Code::DramChannelMismatch,
        Code::DirectSpokeMismatch,
        Code::CtrlSpacing,
        Code::SliceWidth,
        Code::MactGeometry,
        Code::MactThreshold,
        Code::InfeasibleTask,
        Code::ShardLookahead,
        Code::ShardPartition,
        Code::ShardWorkers,
        Code::DegenerateHorizon,
        Code::FaultTargetOutOfRange,
        Code::RetryExceedsDeadline,
        Code::DegenerateProfileSampling,
        Code::BlockingCycle,
        Code::HorizonContract,
        Code::ResourceClassDead,
        Code::HierarchyLookahead,
        Code::WorstPathExceedsDeadline,
        Code::TaskStarvable,
        Code::HostOversubscribed,
        Code::FabricBelowChipBoundary,
        Code::OfferedLoadExceedsCapacity,
    ];

    /// The stable `SLxxxx` identifier.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnmappedRef => "SL0101",
            Code::StraddlingRef => "SL0102",
            Code::MisalignedRef => "SL0103",
            Code::CtrlRef => "SL0104",
            Code::BadDmaRange => "SL0105",
            Code::RemoteSpmRef => "SL0106",
            Code::WriteWriteRace => "SL0201",
            Code::ReadWriteRace => "SL0202",
            Code::UnsyncedDmaAccess => "SL0203",
            Code::DmaSrcDstOverlap => "SL0301",
            Code::DmaDstConflict => "SL0302",
            Code::StagingCollision => "SL0303",
            Code::PlanShape => "SL0304",
            Code::SliceBeyondInput => "SL0305",
            Code::ZeroField => "SL0401",
            Code::ThreadsExceedPairs => "SL0402",
            Code::DramChannelMismatch => "SL0403",
            Code::DirectSpokeMismatch => "SL0404",
            Code::CtrlSpacing => "SL0405",
            Code::SliceWidth => "SL0406",
            Code::MactGeometry => "SL0407",
            Code::MactThreshold => "SL0408",
            Code::InfeasibleTask => "SL0409",
            Code::ShardLookahead => "SL0410",
            Code::ShardPartition => "SL0411",
            Code::ShardWorkers => "SL0412",
            Code::DegenerateHorizon => "SL0413",
            Code::FaultTargetOutOfRange => "SL0414",
            Code::RetryExceedsDeadline => "SL0415",
            Code::DegenerateProfileSampling => "SL0416",
            Code::BlockingCycle => "SL0420",
            Code::HorizonContract => "SL0421",
            Code::ResourceClassDead => "SL0422",
            Code::HierarchyLookahead => "SL0423",
            Code::WorstPathExceedsDeadline => "SL0430",
            Code::TaskStarvable => "SL0431",
            Code::HostOversubscribed => "SL0450",
            Code::FabricBelowChipBoundary => "SL0460",
            Code::OfferedLoadExceedsCapacity => "SL0461",
        }
    }

    /// Parses a stable `SLxxxx` identifier back into its code.
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// The severity a finding of this code carries unless the pass
    /// overrides it.
    pub fn default_severity(self) -> Severity {
        match self {
            Code::UnmappedRef
            | Code::StraddlingRef
            | Code::BadDmaRange
            | Code::WriteWriteRace
            | Code::ReadWriteRace
            | Code::UnsyncedDmaAccess
            | Code::DmaSrcDstOverlap
            | Code::DmaDstConflict
            | Code::StagingCollision
            | Code::PlanShape
            | Code::ZeroField
            | Code::ThreadsExceedPairs
            | Code::DramChannelMismatch
            | Code::DirectSpokeMismatch
            | Code::CtrlSpacing
            | Code::MactGeometry
            | Code::ShardLookahead
            | Code::ShardPartition
            | Code::FaultTargetOutOfRange
            | Code::BlockingCycle
            | Code::HorizonContract
            | Code::ResourceClassDead
            | Code::HierarchyLookahead
            | Code::FabricBelowChipBoundary => Severity::Deny,
            Code::MisalignedRef
            | Code::CtrlRef
            | Code::SliceBeyondInput
            | Code::SliceWidth
            | Code::MactThreshold
            | Code::InfeasibleTask
            | Code::ShardWorkers
            | Code::DegenerateHorizon
            | Code::RetryExceedsDeadline
            | Code::DegenerateProfileSampling
            | Code::WorstPathExceedsDeadline
            | Code::TaskStarvable
            | Code::HostOversubscribed
            | Code::OfferedLoadExceedsCapacity => Severity::Warn,
            Code::RemoteSpmRef => Severity::Note,
        }
    }

    /// One-line description for the code table.
    pub fn title(self) -> &'static str {
        match self {
            Code::UnmappedRef => "reference outside every mapped region",
            Code::StraddlingRef => "reference straddles a region boundary",
            Code::MisalignedRef => "misaligned reference",
            Code::CtrlRef => "guest access to SPM control registers",
            Code::BadDmaRange => "invalid DMA endpoint range",
            Code::RemoteSpmRef => "access to a remote core's SPM",
            Code::WriteWriteRace => "cross-thread write/write race",
            Code::ReadWriteRace => "cross-thread read/write race",
            Code::UnsyncedDmaAccess => "access to own in-flight DMA destination",
            Code::DmaSrcDstOverlap => "DMA source/destination overlap",
            Code::DmaDstConflict => "DMA destinations of two threads overlap",
            Code::StagingCollision => "SPM staging buffers collide",
            Code::PlanShape => "invalid MapReduce plan shape",
            Code::SliceBeyondInput => "task slices extend past the input",
            Code::ZeroField => "structurally required field is zero",
            Code::ThreadsExceedPairs => "resident threads exceed 2 x pairs",
            Code::DramChannelMismatch => "DRAM channels != NoC memory controllers",
            Code::DirectSpokeMismatch => "direct spokes != sub-rings",
            Code::CtrlSpacing => "controllers do not divide sub-rings",
            Code::SliceWidth => "bad link slice width",
            Code::MactGeometry => "invalid MACT geometry",
            Code::MactThreshold => "MACT deadline exceeds line capacity",
            Code::InfeasibleTask => "task deadline infeasible at arrival",
            Code::ShardLookahead => "shard lookahead exceeds a boundary latency",
            Code::ShardPartition => "cores do not split into sub-ring shards",
            Code::ShardWorkers => "more PDES workers than shards",
            Code::DegenerateHorizon => "config makes event horizons degenerate",
            Code::FaultTargetOutOfRange => "fault plan targets a unit outside the chip",
            Code::RetryExceedsDeadline => "retry budget can outlast the MACT deadline",
            Code::DegenerateProfileSampling => "profiling stride starves window telemetry",
            Code::BlockingCycle => "chip model has a blocking cycle with no live sink",
            Code::HorizonContract => "config lets a component's next_event under-promise",
            Code::ResourceClassDead => "fault plan kills every unit of a needed resource",
            Code::HierarchyLookahead => "outer shard level has shorter lookahead than inner",
            Code::WorstPathExceedsDeadline => "worst retry path blows the MACT deadline",
            Code::TaskStarvable => "task slack smaller than worst-case fault stall",
            Code::HostOversubscribed => "more PDES workers than host CPUs",
            Code::FabricBelowChipBoundary => "fabric latency below a chip's boundary latency",
            Code::OfferedLoadExceedsCapacity => "offered load exceeds cluster service capacity",
        }
    }

    /// Documented rationale and fix hint, for `lint --explain`.
    ///
    /// Returns `(rationale, fix_hint)`: why the finding matters for the
    /// chip's guarantees, and the usual way out.
    pub fn explain(self) -> (&'static str, &'static str) {
        match self {
            Code::UnmappedRef => (
                "A load or store resolves to no mapped region, so the access \
                 would fault or silently read garbage on hardware.",
                "Map the buffer in the address space or fix the base address \
                 the thread computes.",
            ),
            Code::StraddlingRef => (
                "A single access crosses a region boundary; the two halves \
                 would take different paths through the memory system.",
                "Align the buffer or split the access so each piece stays \
                 inside one region.",
            ),
            Code::MisalignedRef => (
                "A naturally-alignable access is misaligned for its width, \
                 costing extra memory transactions.",
                "Align the address to the access width.",
            ),
            Code::CtrlRef => (
                "Guest code touches the SPM control-register window, which \
                 is reserved for the runtime.",
                "Use the runtime's DMA/staging API instead of poking control \
                 registers directly.",
            ),
            Code::BadDmaRange => (
                "A DMA endpoint range is unmapped, straddling, or empty, so \
                 the transfer cannot complete as written.",
                "Fix the endpoint base/length so the range sits inside one \
                 mapped region.",
            ),
            Code::RemoteSpmRef => (
                "The access lands in another core's SPM window. Legal, but \
                 it rides the ring and is an order of magnitude slower.",
                "Stage the data locally via DMA if the access is hot.",
            ),
            Code::WriteWriteRace => (
                "Two threads write overlapping bytes with no ordering edge; \
                 the final contents depend on scheduling.",
                "Partition the buffer or order the writers with a Sync.",
            ),
            Code::ReadWriteRace => (
                "One thread writes bytes another reads with no ordering \
                 edge, so the reader may see either version.",
                "Order the pair with a Sync, or give the reader its own \
                 copy.",
            ),
            Code::UnsyncedDmaAccess => (
                "A thread touches its own in-flight DMA destination before \
                 the completing Sync; the DMA may land before or after.",
                "Move the access after the Sync that completes the \
                 transfer.",
            ),
            Code::DmaSrcDstOverlap => (
                "A DMA op's source and destination overlap; the copy \
                 direction makes the result undefined.",
                "Use disjoint ranges or copy through a bounce buffer.",
            ),
            Code::DmaDstConflict => (
                "DMA destinations of different threads overlap, so transfer \
                 completion order decides the contents.",
                "Give each thread a disjoint destination window.",
            ),
            Code::StagingCollision => (
                "SPM staging buffers collide or escape their core's window, \
                 corrupting a neighbour's working set.",
                "Shrink the staged slices or re-tile the per-core SPM \
                 budget.",
            ),
            Code::PlanShape => (
                "The MapReduce plan's ranges, regions, or thread counts are \
                 structurally invalid; execution would index out of range.",
                "Regenerate the plan from the actual config geometry.",
            ),
            Code::SliceBeyondInput => (
                "Slice rounding makes trailing tasks read past the input's \
                 end.",
                "Clamp the last slice or pad the input to a slice multiple.",
            ),
            Code::ZeroField => (
                "A structurally required field is zero or non-positive; the \
                 component cannot be constructed.",
                "Set the field to a positive value.",
            ),
            Code::ThreadsExceedPairs => (
                "Resident threads exceed 2 x thread pairs, so some threads \
                 can never be scheduled onto a pair.",
                "Raise tcg.thread_pairs or lower tcg.threads.",
            ),
            Code::DramChannelMismatch => (
                "DRAM channel count differs from the NoC's memory \
                 controllers; some controllers have no backing channel.",
                "Set dram.channels == noc.mem_ctrls.",
            ),
            Code::DirectSpokeMismatch => (
                "Direct-datapath spokes differ from the sub-ring count, so \
                 some sub-rings have no direct path.",
                "Set direct.subrings == noc.subrings.",
            ),
            Code::CtrlSpacing => (
                "Memory controllers do not divide the sub-rings evenly, so \
                 controller placement on the main ring is irregular.",
                "Pick mem_ctrls that divides noc.subrings.",
            ),
            Code::SliceWidth => (
                "A link slice width is zero, oversized, or does not tile \
                 the guaranteed link capacity, wasting bandwidth.",
                "Pick a slice width that tiles the link's guaranteed \
                 bytes-per-cycle.",
            ),
            Code::MactGeometry => (
                "MACT geometry (lines, line bytes) is invalid; the \
                 collection table cannot be built.",
                "Give the MACT at least one line of a positive, bounded \
                 line size.",
            ),
            Code::MactThreshold => (
                "The MACT collection deadline exceeds what one line can \
                 absorb, so the deadline never fires before the line fills.",
                "Lower mact.threshold or raise mact.line_bytes.",
            ),
            Code::InfeasibleTask => (
                "The task's deadline is already infeasible at arrival \
                 (negative laxity): deadline < arrival + work.",
                "Extend the deadline or shrink the task's work estimate.",
            ),
            Code::ShardLookahead => (
                "The PDES lookahead (junction latency) exceeds a \
                 boundary-crossing path latency, so a shard would deliver a \
                 message into a window the engine already simulated.",
                "Lower the lookahead or raise the shortest boundary \
                 latency (e.g. direct.latency).",
            ),
            Code::ShardPartition => (
                "The core count does not split into whole sub-ring shards; \
                 the chip cannot be sharded as configured.",
                "Make cores a multiple of cores_per_subring x subrings.",
            ),
            Code::ShardWorkers => (
                "More PDES worker threads than shards; the excess host \
                 threads spin on the barrier and never run a shard.",
                "Clamp workers to subrings + 1.",
            ),
            Code::DegenerateHorizon => (
                "The config pins event horizons to the next cycle (e.g. a \
                 1-cycle MACT threshold), so the cycle skipper can rarely \
                 fast-forward and the skip machinery is pure overhead.",
                "Raise the threshold or disable cycle_skip.",
            ),
            Code::FaultTargetOutOfRange => (
                "A fault-plan entry targets a core, DDR channel, or \
                 sub-ring outside the chip's geometry and can never fire — \
                 the chaos coverage you asked for silently does not exist.",
                "Fix the unit index or regenerate the plan against this \
                 config.",
            ),
            Code::RetryExceedsDeadline => (
                "The NoC retransmission budget (retries x exponential \
                 backoff) can delay a request past the MACT collection \
                 deadline, so every retried request blows its batching \
                 window.",
                "Shorten the retry budget or raise mact.threshold.",
            ),
            Code::DegenerateProfileSampling => (
                "Profiling is enabled with a sampling stride so sparse that \
                 short runs close no sampled windows; telemetry comes back \
                 empty while the run still pays the overhead.",
                "Lower prof.sample_every or disable profiling.",
            ),
            Code::BlockingCycle => (
                "The chip model contains a wait-for cycle — through ring \
                 junctions, MACT open-line windows, direct request/reply \
                 pairs, or retry wheels — with no live sink to drain it, so \
                 backpressure can livelock the config. The canonical case \
                 is a MACT lockup window that never ends: open lines stop \
                 flushing forever and every core behind them blocks.",
                "Give every blocking path a live sink: bound MACT lockup \
                 windows, keep at least one live DDR channel, and keep \
                 retry wheels finite.",
            ),
            Code::HorizonContract => (
                "A component's config lets its next_event horizon \
                 under-promise (zero-latency links, zero bandwidth, a zero \
                 boundary floor). The cycle skipper trusts horizons; an \
                 under-promise here means skipped cycles that contained \
                 real events. The same floors are asserted at runtime by \
                 the debug-build cross-checker, so this finding is the \
                 static twin of a debug panic.",
                "Make every latency and bandwidth field positive so each \
                 boundary class has a non-zero floor.",
            ),
            Code::ResourceClassDead => (
                "The fault plan permanently removes every unit of a \
                 resource class the workload needs (every DDR channel, or \
                 every core). Channel death remaps to the next live \
                 channel; with none live, requests black-hole and the run \
                 never drains.",
                "Leave at least one unit of each class alive, or bound the \
                 outage with a stall window instead of a death.",
            ),
            Code::HierarchyLookahead => (
                "In a shard hierarchy, an outer level's lookahead is \
                 shorter than an inner level's. The outer barrier would \
                 have to deliver messages into windows the inner engine \
                 already retired — the conservative-window invariant \
                 breaks across levels.",
                "Order lookaheads outward: each enclosing level at least \
                 as long as the levels it contains.",
            ),
            Code::WorstPathExceedsDeadline => (
                "With ring noise actually injected, the symbolic worst \
                 path (full retry backoff before the clean final attempt) \
                 reaches the MACT collection deadline, so every retried \
                 request misses its batching window — sharpened from \
                 SL0415, which fires on the budget alone.",
                "Shorten retries/backoff or raise mact.threshold above the \
                 worst-case retry delay.",
            ),
            Code::TaskStarvable => (
                "A laxity-scheduled task's slack at arrival is smaller \
                 than the plan's worst-case fault stall (retry budget plus \
                 the longest DDR stall window plus a channel-death remap \
                 penalty), so injected faults alone can push it past its \
                 deadline.",
                "Extend the task deadline past the plan's worst-case \
                 stall, or soften the fault plan.",
            ),
            Code::HostOversubscribed => (
                "A shard level asks for more PDES worker threads than the \
                 host has logical CPUs. The workers time-slice on the same \
                 cores, the lockstep barrier degrades to \
                 yield-on-every-check, and the run measures scheduler \
                 overhead instead of speedup. Results stay bit-identical — \
                 this is purely a performance finding.",
                "Clamp workers to the host's CPU count (or move the run to \
                 a larger host).",
            ),
            Code::FabricBelowChipBoundary => (
                "The inter-chip fabric latency is the cluster engine's \
                 outer PDES lookahead, and a member chip's NoC boundary \
                 latency is its inner lookahead. A fabric hop shorter than \
                 the chip's internal boundary inverts the hierarchy — the \
                 outer barrier would deliver into windows the chip's own \
                 engine already retired. This is the cluster-specific \
                 instance of SL0423, caught from the fabric config alone.",
                "Raise the fabric latency to at least the chip's NoC \
                 boundary_latency().",
            ),
            Code::OfferedLoadExceedsCapacity => (
                "The open-loop traffic profile's mean offered work per \
                 cycle (arrival rate x mean request size) exceeds the \
                 cluster's aggregate issue width (chips x cores x thread \
                 pairs). Open-loop arrivals do not slow down when the \
                 system backs up, so queues grow without bound, latency \
                 percentiles diverge with the horizon, and the SLO miss \
                 rate trends to one.",
                "Lower the arrival rate, shrink the request sizes, or add \
                 chips until offered work fits under aggregate capacity.",
            ),
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a finding points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Span {
    /// An instruction in a thread's captured stream.
    Pc {
        /// Thread label, e.g. `core0/slot2`.
        thread: String,
        /// Program counter of the instruction.
        pc: u64,
        /// Index in the captured stream.
        index: usize,
    },
    /// A configuration field path, e.g. `noc.sub_link.slice_bytes`.
    Field(String),
    /// An element of a staging/MapReduce plan, e.g. `map task 3`.
    Plan(String),
    /// The whole artifact under analysis.
    Whole,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Pc { thread, pc, index } => write!(f, "{thread} pc {pc:#x} #{index}"),
            Span::Field(path) => write!(f, "config `{path}`"),
            Span::Plan(what) => write!(f, "plan {what}"),
            Span::Whole => f.write_str("<whole>"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (usually the code's default).
    pub severity: Severity,
    /// Location.
    pub span: Span,
    /// What is wrong, with concrete addresses/values.
    pub message: String,
    /// How to fix it, when the pass knows.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Creates a finding at the code's default severity.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: code.default_severity(),
            span,
            message: message.into(),
            help: None,
        }
    }

    /// Overrides the severity.
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }

    /// Attaches a fix suggestion.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.span, self.message
        )
    }
}

/// An ordered collection of findings with counting and rendering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Absorbs a pass's findings.
    pub fn absorb(&mut self, ds: Vec<Diagnostic>) {
        self.diags.extend(ds);
    }

    /// The findings, in insertion order (or severity order after
    /// [`Report::sort`]).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Whether the report is clean.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == severity).count()
    }

    /// Whether any deny-level finding is present.
    pub fn has_deny(&self) -> bool {
        self.count(Severity::Deny) > 0
    }

    /// The most severe finding present.
    pub fn worst(&self) -> Option<Severity> {
        self.diags.iter().map(|d| d.severity).max()
    }

    /// Orders findings most severe first (stable within a severity).
    pub fn sort(&mut self) {
        self.diags.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.code.as_str().cmp(b.code.as_str()))
        });
    }

    /// Human-readable rendering: one line per finding plus indented help,
    /// ending with a severity summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_string());
            out.push('\n');
            if let Some(h) = &d.help {
                out.push_str("    help: ");
                out.push_str(h);
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "{} deny, {} warn, {} note\n",
            self.count(Severity::Deny),
            self.count(Severity::Warn),
            self.count(Severity::Note),
        ));
        out
    }

    /// Machine-readable JSON rendering (no external dependencies; same
    /// hand-rolled style as the observability exporter).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counts\":{");
        out.push_str(&format!(
            "\"deny\":{},\"warn\":{},\"note\":{}",
            self.count(Severity::Deny),
            self.count(Severity::Warn),
            self.count(Severity::Note),
        ));
        out.push_str("},\"diagnostics\":[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"span\":{},\"message\":\"{}\"",
                d.code,
                d.severity,
                span_json(&d.span),
                escape(&d.message),
            ));
            match &d.help {
                Some(h) => out.push_str(&format!(",\"help\":\"{}\"}}", escape(h))),
                None => out.push_str(",\"help\":null}"),
            }
        }
        out.push_str("]}");
        out
    }
}

fn span_json(span: &Span) -> String {
    match span {
        Span::Pc { thread, pc, index } => format!(
            "{{\"kind\":\"pc\",\"thread\":\"{}\",\"pc\":{pc},\"index\":{index}}}",
            escape(thread)
        ),
        Span::Field(path) => format!("{{\"kind\":\"field\",\"path\":\"{}\"}}", escape(path)),
        Span::Plan(what) => format!("{{\"kind\":\"plan\",\"element\":\"{}\"}}", escape(what)),
        Span::Whole => String::from("{\"kind\":\"whole\"}"),
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(c.as_str().starts_with("SL"));
            assert_eq!(c.as_str().len(), 6);
        }
    }

    #[test]
    fn parse_and_explain_cover_every_code() {
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(c), "round-trip {c}");
            let (rationale, fix) = c.explain();
            assert!(!rationale.is_empty() && !fix.is_empty(), "explain {c}");
        }
        assert_eq!(Code::parse("SL9999"), None);
        // Retired codes stay unassigned: a number is never reused.
        assert_eq!(Code::parse("SL0440"), None);
        assert_eq!(Code::parse("SL0441"), None);
        assert_eq!(Code::parse("sl0101"), None, "parse is case-sensitive");
    }

    #[test]
    fn severity_orders_note_warn_deny() {
        assert!(Severity::Note < Severity::Warn);
        assert!(Severity::Warn < Severity::Deny);
    }

    #[test]
    fn report_counts_and_sorts() {
        let mut r = Report::new();
        r.push(Diagnostic::new(Code::RemoteSpmRef, Span::Whole, "remote"));
        r.push(Diagnostic::new(Code::UnmappedRef, Span::Whole, "bad"));
        r.push(Diagnostic::new(Code::MisalignedRef, Span::Whole, "odd"));
        assert_eq!(r.len(), 3);
        assert_eq!(r.count(Severity::Deny), 1);
        assert!(r.has_deny());
        assert_eq!(r.worst(), Some(Severity::Deny));
        r.sort();
        assert_eq!(r.diagnostics()[0].code, Code::UnmappedRef);
        assert_eq!(r.diagnostics()[2].code, Code::RemoteSpmRef);
    }

    #[test]
    fn text_rendering_carries_code_and_help() {
        let mut r = Report::new();
        r.push(
            Diagnostic::new(
                Code::UnmappedRef,
                Span::Pc {
                    thread: "core0/slot1".into(),
                    pc: 0x1004,
                    index: 7,
                },
                "load of 8 bytes at 0xdead hits no region",
            )
            .with_help("map the buffer or fix the base address"),
        );
        let text = r.render_text();
        assert!(text.contains("deny[SL0101] core0/slot1 pc 0x1004 #7"));
        assert!(text.contains("help: map the buffer"));
        assert!(text.contains("1 deny, 0 warn, 0 note"));
    }

    #[test]
    fn json_rendering_is_escaped_and_structured() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            Code::SliceWidth,
            Span::Field("noc.sub_link.slice_bytes".into()),
            "slice \"3\" does not tile 8",
        ));
        let json = r.to_json();
        assert!(json.contains("\"code\":\"SL0406\""));
        assert!(json.contains("\"severity\":\"warn\""));
        assert!(json.contains("\"kind\":\"field\""));
        assert!(json.contains("slice \\\"3\\\" does not tile 8"));
        assert!(json.contains("\"warn\":1"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}

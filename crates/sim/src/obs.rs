//! Observability: structured event tracing, windowed time-series metrics,
//! and the configuration that turns profiling hooks on.
//!
//! Three coordinated layers:
//!
//! 1. **Event tracing** — components own an optional [`TraceBuffer`]; each
//!    instrumentation site is a single `Option` check when tracing is off
//!    (zero allocation, no clock reads, no side effects on model state).
//!    The system model drains component buffers once per tick into a
//!    ring-buffered [`EventTrace`], which exports Chrome `trace_event`
//!    JSON loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev):
//!    every core, sub-ring, MACT and DDR channel becomes its own track.
//! 2. **Windowed metrics** — a [`MetricsRecorder`] snapshots cumulative
//!    counters every `window` cycles and stores per-window deltas
//!    (computed with [`StatsReport::diff`]), alongside p50/p90/p99 of any
//!    latency samples recorded inside the window
//!    (via [`crate::stats::Percentiles`]). Exports CSV, one row per window.
//! 3. **Configuration** — [`ObsConfig`] rides inside the chip config;
//!    everything defaults to off, and enabling observation must never
//!    change simulated results (hooks are read-only by construction).
//!
//! Invariant shared by all hooks: observation reads model state, it never
//! writes it. A run with tracing + sampling enabled must produce a
//! bit-identical report to the same seed with observation disabled.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::stats::{Percentiles, StatsReport};
use crate::Cycle;

/// Identity of the hardware unit an event happened on; maps 1:1 to a
/// Perfetto track (`pid`/`tid` pair in Chrome trace terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// A TCG core, by flat core index.
    Core(usize),
    /// The chip-level main ring.
    MainRing,
    /// A sub-ring, by index.
    SubRing(usize),
    /// A memory-access collection table, by sub-ring index.
    Mact(usize),
    /// A DDR channel, by channel index.
    DdrChannel(usize),
    /// The hardware task scheduler / dispatcher.
    Scheduler,
    /// The direct datapath for real-time requests.
    DirectPath,
}

impl Track {
    /// Chrome trace process id: groups tracks into named lanes.
    fn pid(self) -> u64 {
        match self {
            Track::Core(_) => 1,
            Track::MainRing | Track::SubRing(_) => 2,
            Track::Mact(_) => 3,
            Track::DdrChannel(_) => 4,
            Track::Scheduler => 5,
            Track::DirectPath => 6,
        }
    }

    /// Chrome trace thread id, unique within the pid.
    fn tid(self) -> u64 {
        match self {
            Track::Core(i) => i as u64,
            Track::MainRing => 0,
            Track::SubRing(i) => 1 + i as u64,
            Track::Mact(i) => i as u64,
            Track::DdrChannel(i) => i as u64,
            Track::Scheduler => 0,
            Track::DirectPath => 0,
        }
    }

    /// Human-readable track name shown in the trace viewer.
    pub fn name(self) -> String {
        match self {
            Track::Core(i) => format!("core{i}"),
            Track::MainRing => "main-ring".into(),
            Track::SubRing(i) => format!("sub-ring{i}"),
            Track::Mact(i) => format!("mact{i}"),
            Track::DdrChannel(i) => format!("ddr{i}"),
            Track::Scheduler => "scheduler".into(),
            Track::DirectPath => "direct-path".into(),
        }
    }

    fn group_name(self) -> &'static str {
        match self {
            Track::Core(_) => "cores",
            Track::MainRing | Track::SubRing(_) => "noc",
            Track::Mact(_) => "mact",
            Track::DdrChannel(_) => "dram",
            Track::Scheduler => "scheduler",
            Track::DirectPath => "direct-path",
        }
    }
}

/// Typed payload of a trace event. Every variant carries only plain data
/// copied out of the model — holding one never borrows model state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// `count` instructions retired since the core's last retire event
    /// (retires are sampled, not traced individually).
    InstrRetire {
        /// Retires represented by this event.
        count: u64,
    },
    /// A data or instruction-fetch access missed in the L1.
    CacheMiss {
        /// Address (data) or PC (ifetch) that missed.
        addr: u64,
        /// True for instruction-fetch misses.
        ifetch: bool,
    },
    /// An in-pair friend-thread switch: the pair's issue slot moved from
    /// one resident thread to its partner.
    ThreadSwap {
        /// Pair index within the core.
        pair: usize,
        /// Thread slot that lost the issue slot.
        from: usize,
        /// Thread slot that gained it.
        to: usize,
    },
    /// A thread blocked waiting on a long-latency operation.
    ThreadBlock {
        /// Blocking thread's slot within the core.
        thread: usize,
    },
    /// The MACT absorbed a small request into an open collection line.
    MactCollect {
        /// 64-byte-aligned base address of the line.
        base: u64,
    },
    /// The MACT closed a collection line and emitted one batched request.
    MactFlush {
        /// 64-byte-aligned base address of the line.
        base: u64,
        /// Number of small requests batched into the line.
        requests: u64,
        /// Why the line flushed ("threshold", "deadline", ...).
        cause: &'static str,
    },
    /// A packet finished traversing one ring (injection to ejection).
    RingHop {
        /// Hops traversed on this ring.
        hops: u64,
        /// Payload bytes carried.
        bytes: u64,
    },
    /// A DRAM burst occupied a channel; rendered as a duration slice.
    DramBurst {
        /// Bytes transferred.
        bytes: u64,
        /// Channel occupancy in DRAM-clock cycles.
        duration: Cycle,
    },
    /// The scheduler dispatched a task to an execution slot.
    TaskDispatch {
        /// Task id.
        task: u64,
        /// Task laxity (cycles of slack until its deadline) at dispatch.
        laxity: i64,
        /// Tasks still queued after this dispatch.
        queued: u64,
    },
    /// A task exited.
    TaskExit {
        /// Task id.
        task: u64,
        /// Whether it exited at or before its deadline.
        deadline_met: bool,
    },
    /// A DMA transfer started.
    DmaStart {
        /// Bytes to move.
        bytes: u64,
    },
    /// A DMA transfer completed and unblocked its thread.
    DmaComplete {
        /// Thread slot that issued the DMA.
        thread: usize,
    },
}

impl EventKind {
    /// Stable event-type name (used in exports and summaries).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::InstrRetire { .. } => "instr_retire",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::ThreadSwap { .. } => "thread_swap",
            EventKind::ThreadBlock { .. } => "thread_block",
            EventKind::MactCollect { .. } => "mact_collect",
            EventKind::MactFlush { .. } => "mact_flush",
            EventKind::RingHop { .. } => "ring_hop",
            EventKind::DramBurst { .. } => "dram_burst",
            EventKind::TaskDispatch { .. } => "task_dispatch",
            EventKind::TaskExit { .. } => "task_exit",
            EventKind::DmaStart { .. } => "dma_start",
            EventKind::DmaComplete { .. } => "dma_complete",
        }
    }

    /// For events that occupy their unit over time, the occupancy length.
    fn duration(&self) -> Option<Cycle> {
        match self {
            EventKind::DramBurst { duration, .. } => Some(*duration),
            _ => None,
        }
    }

    fn write_args_json(&self, out: &mut String) {
        match *self {
            EventKind::InstrRetire { count } => {
                let _ = write!(out, "{{\"count\":{count}}}");
            }
            EventKind::CacheMiss { addr, ifetch } => {
                let _ = write!(out, "{{\"addr\":{addr},\"ifetch\":{ifetch}}}");
            }
            EventKind::ThreadSwap { pair, from, to } => {
                let _ = write!(out, "{{\"pair\":{pair},\"from\":{from},\"to\":{to}}}");
            }
            EventKind::ThreadBlock { thread } => {
                let _ = write!(out, "{{\"thread\":{thread}}}");
            }
            EventKind::MactCollect { base } => {
                let _ = write!(out, "{{\"base\":{base}}}");
            }
            EventKind::MactFlush {
                base,
                requests,
                cause,
            } => {
                let _ = write!(
                    out,
                    "{{\"base\":{base},\"requests\":{requests},\"cause\":\"{cause}\"}}"
                );
            }
            EventKind::RingHop { hops, bytes } => {
                let _ = write!(out, "{{\"hops\":{hops},\"bytes\":{bytes}}}");
            }
            EventKind::DramBurst { bytes, duration } => {
                let _ = write!(out, "{{\"bytes\":{bytes},\"duration\":{duration}}}");
            }
            EventKind::TaskDispatch {
                task,
                laxity,
                queued,
            } => {
                let _ = write!(
                    out,
                    "{{\"task\":{task},\"laxity\":{laxity},\"queued\":{queued}}}"
                );
            }
            EventKind::TaskExit { task, deadline_met } => {
                let _ = write!(out, "{{\"task\":{task},\"deadline_met\":{deadline_met}}}");
            }
            EventKind::DmaStart { bytes } => {
                let _ = write!(out, "{{\"bytes\":{bytes}}}");
            }
            EventKind::DmaComplete { thread } => {
                let _ = write!(out, "{{\"thread\":{thread}}}");
            }
        }
    }
}

/// One timestamped, typed occurrence on a track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Cycle the event happened (its unit's clock domain).
    pub cycle: Cycle,
    /// Hardware unit it happened on.
    pub track: Track,
    /// What happened.
    pub kind: EventKind,
}

/// Destination for trace events. The system model is the only required
/// implementor ([`EventTrace`]), but tests and tools can capture events
/// with their own sinks.
pub trait TraceSink {
    /// Accepts one event.
    fn emit(&mut self, ev: TraceEvent);
}

/// A sink that drops everything (for running instrumented code untraced).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&mut self, _ev: TraceEvent) {}
}

/// Per-component staging buffer for trace events.
///
/// Components own `Option<TraceBuffer>` — `None` (the default) costs one
/// branch per instrumentation site. The parent model drains the buffer
/// into the global [`EventTrace`] once per tick, which keeps components
/// free of shared references and `Send` for the parallel engine.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBuffer {
    track: Track,
    events: Vec<TraceEvent>,
}

impl TraceBuffer {
    /// Creates an empty buffer bound to `track`.
    pub fn new(track: Track) -> Self {
        Self {
            track,
            events: Vec::new(),
        }
    }

    /// The track this buffer reports on.
    pub fn track(&self) -> Track {
        self.track
    }

    /// Records one event at `cycle`.
    #[inline]
    pub fn emit(&mut self, cycle: Cycle, kind: EventKind) {
        self.events.push(TraceEvent {
            cycle,
            track: self.track,
            kind,
        });
    }

    /// Moves all staged events into `sink`, oldest first.
    pub fn drain_into(&mut self, sink: &mut dyn TraceSink) {
        for ev in self.events.drain(..) {
            sink.emit(ev);
        }
    }

    /// Number of staged (not yet drained) events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are staged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Ring-buffered event store: keeps the most recent `capacity` events and
/// counts what it had to drop, so a trace of a long run stays bounded.
#[derive(Debug, Clone)]
pub struct EventTrace {
    buf: Vec<TraceEvent>,
    head: usize,
    capacity: usize,
    dropped: u64,
}

impl TraceSink for EventTrace {
    fn emit(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

impl EventTrace {
    /// Creates a trace retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Self {
            buf: Vec::new(),
            head: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by the ring buffer (0 until `capacity` overflows).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever emitted (retained + dropped).
    pub fn total(&self) -> u64 {
        self.buf.len() as u64 + self.dropped
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, head) = self.buf.split_at(self.head);
        head.iter().chain(tail.iter())
    }

    /// Count of retained events per event-type name.
    pub fn counts_by_kind(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for ev in self.iter() {
            *out.entry(ev.kind.name()).or_insert(0) += 1;
        }
        out
    }

    /// Serializes the retained events as Chrome `trace_event` JSON (the
    /// object-with-`traceEvents` form Perfetto and `chrome://tracing`
    /// load directly). Cycles map to microseconds 1:1, so viewer "µs" are
    /// simulated cycles.
    pub fn to_chrome_json(&self) -> String {
        let mut tracks: Vec<Track> = self.iter().map(|e| e.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        let mut trace = ChromeTrace::new(64 * (self.buf.len() + tracks.len()) + 64);
        // Metadata: name each pid (unit group) and tid (unit).
        for t in &tracks {
            trace.track(t.pid(), t.group_name(), t.tid(), &t.name());
        }
        for ev in self.iter() {
            let out = trace.event();
            match ev.kind.duration() {
                Some(dur) => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\
                         \"ts\":{},\"dur\":{},\"args\":",
                        ev.kind.name(),
                        ev.track.group_name(),
                        ev.track.pid(),
                        ev.track.tid(),
                        ev.cycle,
                        dur.max(1),
                    );
                }
                None => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{}\",\"cat\":\"{}\",\
                         \"pid\":{},\"tid\":{},\"ts\":{},\"args\":",
                        ev.kind.name(),
                        ev.track.group_name(),
                        ev.track.pid(),
                        ev.track.tid(),
                        ev.cycle,
                    );
                }
            }
            ev.kind.write_args_json(out);
            out.push('}');
        }
        trace.finish("dropped_events", self.dropped)
    }

    /// Writes [`to_chrome_json`](Self::to_chrome_json) to `path`.
    pub fn write_chrome_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_chrome_json())
    }
}

/// Chrome `trace_event` JSON writer shared by the chip's [`EventTrace`]
/// and the host profile's timeline: the object-with-`traceEvents` form
/// Perfetto and `chrome://tracing` load directly. It writes the envelope,
/// the `process_name`/`thread_name` metadata pair of each track, the
/// separators and the `displayTimeUnit`/`otherData` trailer; callers
/// write each event object into [`event`](Self::event).
pub(crate) struct ChromeTrace {
    out: String,
    first: bool,
}

impl ChromeTrace {
    /// Opens the `traceEvents` array in a buffer of `capacity` bytes.
    pub(crate) fn new(capacity: usize) -> Self {
        let mut out = String::with_capacity(capacity);
        out.push_str("{\"traceEvents\":[\n");
        Self { out, first: true }
    }

    /// Starts the next array element and returns the buffer to write it
    /// into.
    pub(crate) fn event(&mut self) -> &mut String {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        &mut self.out
    }

    /// Names thread `tid` of process `pid`: `group` is the process name
    /// shown for the pid, `name` the track's own.
    pub(crate) fn track(&mut self, pid: u64, group: &str, tid: u64, name: &str) {
        let _ = write!(
            self.event(),
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{group}\"}}}},\n\
             {{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }

    /// Closes the array and returns the document, whose `otherData`
    /// reports `dropped` under `dropped_key`.
    pub(crate) fn finish(mut self, dropped_key: &str, dropped: u64) -> String {
        let _ = write!(
            self.out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"{dropped_key}\":{dropped}}}}}\n"
        );
        self.out
    }
}

/// One closed sampling window: `[start, end)` plus the per-window stats.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsWindow {
    /// First cycle of the window.
    pub start: Cycle,
    /// One past the last cycle of the window.
    pub end: Cycle,
    /// Window-local stats: counter deltas, gauges, derived rates and
    /// latency percentiles, all keyed by name.
    pub stats: StatsReport,
}

/// Windowed time-series metrics: snapshots cumulative counters every
/// `window` cycles and stores per-window deltas plus latency percentiles.
///
/// Protocol per window: the model calls [`record_latency`] as samples
/// complete, then [`close_window`] at each boundary with its cumulative
/// counter snapshot and instantaneous gauges. The recorder diffs the
/// snapshot against the previous boundary ([`StatsReport::diff`]), merges
/// the gauges and the window's p50/p90/p99, and returns the window stats
/// for the caller to add derived metrics (IPC, utilization...).
///
/// [`record_latency`]: Self::record_latency
/// [`close_window`]: Self::close_window
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    window: Cycle,
    next_boundary: Cycle,
    prev: StatsReport,
    prev_at: Cycle,
    windows: Vec<MetricsWindow>,
    lat_window: Percentiles,
    lat_run: Percentiles,
}

impl MetricsRecorder {
    /// Creates a recorder sampling every `window` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: Cycle) -> Self {
        assert!(window > 0, "sampling window must be positive");
        Self {
            window,
            next_boundary: window,
            prev: StatsReport::new(),
            prev_at: 0,
            windows: Vec::new(),
            lat_window: Percentiles::new(),
            lat_run: Percentiles::new(),
        }
    }

    /// The sampling window length in cycles.
    pub fn window(&self) -> Cycle {
        self.window
    }

    /// Whether a window boundary is due at or before `now`.
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next_boundary
    }

    /// Cycle of the next window boundary — chunked run loops pause the
    /// engine exactly here so windows close at their nominal edge.
    pub fn next_boundary(&self) -> Cycle {
        self.next_boundary
    }

    /// Records one latency sample into the current window (and the
    /// whole-run summary).
    pub fn record_latency(&mut self, v: f64) {
        self.lat_window.record(v);
        self.lat_run.record(v);
    }

    /// Closes the window ending at `now`.
    ///
    /// `cumulative` holds monotonically growing counters since run start;
    /// `gauges` holds instantaneous values copied into the window as-is.
    /// Returns the stored window's stats so the caller can add derived
    /// metrics that need the delta (e.g. IPC = Δinstructions / Δcycles).
    pub fn close_window(
        &mut self,
        now: Cycle,
        cumulative: &StatsReport,
        gauges: &StatsReport,
    ) -> &mut StatsReport {
        let mut stats = cumulative.diff(&self.prev);
        for (k, v) in gauges.iter() {
            stats.set(k, v);
        }
        stats.set("mem_latency_p50", self.lat_window.p50());
        stats.set("mem_latency_p90", self.lat_window.p90());
        stats.set("mem_latency_p99", self.lat_window.p99());
        stats.set("mem_latency_p999", self.lat_window.p999());
        stats.set("mem_latency_samples", self.lat_window.count() as f64);
        self.prev = cumulative.clone();
        let start = self.prev_at;
        self.prev_at = now;
        self.next_boundary = now + self.window;
        self.lat_window.clear();
        self.windows.push(MetricsWindow {
            start,
            end: now,
            stats,
        });
        &mut self.windows.last_mut().expect("just pushed").stats
    }

    /// All closed windows, in time order.
    pub fn windows(&self) -> &[MetricsWindow] {
        &self.windows
    }

    /// Whole-run latency percentile summary (across every window).
    pub fn run_latency(&self) -> &Percentiles {
        &self.lat_run
    }

    /// Renders all windows as CSV: `start,end,<metric columns>` with the
    /// column set being the union of keys across windows (blank where a
    /// window lacks a key).
    pub fn to_csv(&self) -> String {
        let mut columns: Vec<&str> = Vec::new();
        for w in &self.windows {
            for (k, _) in w.stats.iter() {
                if !columns.contains(&k) {
                    columns.push(k);
                }
            }
        }
        columns.sort_unstable();
        let mut out = String::new();
        out.push_str("start,end");
        for c in &columns {
            let _ = write!(out, ",{c}");
        }
        out.push('\n');
        for w in &self.windows {
            let _ = write!(out, "{},{}", w.start, w.end);
            for c in &columns {
                match w.stats.get(c) {
                    Some(v) => {
                        let _ = write!(out, ",{v}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Writes [`to_csv`](Self::to_csv) to `path`.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_csv())
    }
}

/// Tracing layer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum events retained by the ring buffer.
    pub capacity: usize,
    /// Emit one `instr_retire` event per this many retires per core
    /// (1 = every retire; higher values bound event volume).
    pub retire_sample: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            capacity: 1 << 18,
            retire_sample: 64,
        }
    }
}

/// Observability configuration carried inside the chip config.
///
/// Default is fully off: no buffers are allocated, every hook reduces to
/// one `Option` branch, and simulated results are bit-identical to a
/// build without the hooks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Event tracing; `Some` enables it.
    pub trace: Option<TraceConfig>,
    /// Windowed metrics sampling every `n` cycles; `Some(n)` enables it.
    pub sample_window: Option<Cycle>,
}

impl ObsConfig {
    /// Fully disabled (the default).
    pub fn off() -> Self {
        Self::default()
    }

    /// Tracing on (default capacity/sampling), metrics off.
    pub fn tracing() -> Self {
        Self {
            trace: Some(TraceConfig::default()),
            sample_window: None,
        }
    }

    /// Tracing and windowed sampling both on.
    pub fn full(sample_window: Cycle) -> Self {
        Self {
            trace: Some(TraceConfig::default()),
            sample_window: Some(sample_window),
        }
    }

    /// Whether any layer is enabled.
    pub fn enabled(&self) -> bool {
        self.trace.is_some() || self.sample_window.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: Cycle, track: Track, kind: EventKind) -> TraceEvent {
        TraceEvent { cycle, track, kind }
    }

    #[test]
    fn ring_buffer_retains_most_recent() {
        let mut t = EventTrace::new(4);
        for i in 0..10 {
            t.emit(ev(i, Track::Core(0), EventKind::InstrRetire { count: i }));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.total(), 10);
        let cycles: Vec<Cycle> = t.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }

    #[test]
    fn trace_buffer_drains_in_order() {
        let mut buf = TraceBuffer::new(Track::Mact(2));
        buf.emit(5, EventKind::MactCollect { base: 64 });
        buf.emit(
            6,
            EventKind::MactFlush {
                base: 64,
                requests: 8,
                cause: "threshold",
            },
        );
        assert_eq!(buf.len(), 2);
        let mut trace = EventTrace::new(16);
        buf.drain_into(&mut trace);
        assert!(buf.is_empty());
        let kinds: Vec<&str> = trace.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["mact_collect", "mact_flush"]);
        assert!(trace.iter().all(|e| e.track == Track::Mact(2)));
    }

    #[test]
    fn chrome_json_is_loadable_shape() {
        let mut t = EventTrace::new(16);
        t.emit(ev(
            10,
            Track::Core(1),
            EventKind::CacheMiss {
                addr: 0x40,
                ifetch: false,
            },
        ));
        t.emit(ev(
            12,
            Track::DdrChannel(0),
            EventKind::DramBurst {
                bytes: 64,
                duration: 4,
            },
        ));
        t.emit(ev(
            13,
            Track::Scheduler,
            EventKind::TaskDispatch {
                task: 7,
                laxity: -3,
                queued: 2,
            },
        ));
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\"")); // track metadata
        assert!(json.contains("\"name\":\"core1\""));
        assert!(json.contains("\"ph\":\"X\"")); // duration slice for the burst
        assert!(json.contains("\"dur\":4"));
        assert!(json.contains("\"laxity\":-3"));
        assert!(json.contains("\"dropped_events\":0"));
        // Balanced braces/brackets — cheap structural validity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_writer_frames_every_export() {
        let mut trace = ChromeTrace::new(0);
        trace.track(7, "group", 3, "unit");
        let _ = write!(trace.event(), "{{\"ph\":\"X\"}}");
        let json = trace.finish("dropped_things", 2);
        assert_eq!(
            json,
            "{\"traceEvents\":[\n\
             {\"ph\":\"M\",\"name\":\"process_name\",\"pid\":7,\"tid\":0,\
             \"args\":{\"name\":\"group\"}},\n\
             {\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":7,\"tid\":3,\
             \"args\":{\"name\":\"unit\"}},\n\
             {\"ph\":\"X\"}\n\
             ],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_things\":2}}\n"
        );
        // An empty trace is still a loadable document.
        let empty = ChromeTrace::new(0).finish("dropped_events", 0);
        assert_eq!(
            empty,
            "{\"traceEvents\":[\n\n],\"displayTimeUnit\":\"ns\",\
             \"otherData\":{\"dropped_events\":0}}\n"
        );
    }

    #[test]
    fn counts_by_kind_counts() {
        let mut t = EventTrace::new(16);
        t.emit(ev(1, Track::Core(0), EventKind::ThreadBlock { thread: 3 }));
        t.emit(ev(2, Track::Core(0), EventKind::ThreadBlock { thread: 4 }));
        t.emit(ev(
            2,
            Track::Core(0),
            EventKind::ThreadSwap {
                pair: 1,
                from: 2,
                to: 3,
            },
        ));
        let c = t.counts_by_kind();
        assert_eq!(c["thread_block"], 2);
        assert_eq!(c["thread_swap"], 1);
    }

    #[test]
    fn recorder_windows_diff_cumulative_counters() {
        let mut r = MetricsRecorder::new(100);
        assert!(!r.due(99));
        assert!(r.due(100));
        let mut cum = StatsReport::new();
        cum.set("instructions", 400.0);
        r.record_latency(10.0);
        r.record_latency(20.0);
        let g = StatsReport::new();
        r.close_window(100, &cum, &g);
        cum.set("instructions", 1000.0);
        r.record_latency(30.0);
        let w = r.close_window(200, &cum, &g);
        w.set("ipc", w.get("instructions").unwrap() / 100.0);
        let ws = r.windows();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].start, 0);
        assert_eq!(ws[0].end, 100);
        assert_eq!(ws[0].stats.get("instructions"), Some(400.0));
        assert_eq!(ws[0].stats.get("mem_latency_samples"), Some(2.0));
        assert_eq!(ws[1].stats.get("instructions"), Some(600.0));
        assert_eq!(ws[1].stats.get("ipc"), Some(6.0));
        // Window percentiles reset between windows; the run summary doesn't.
        assert_eq!(ws[1].stats.get("mem_latency_samples"), Some(1.0));
        assert_eq!(r.run_latency().count(), 3);
    }

    #[test]
    fn recorder_csv_has_union_columns() {
        let mut r = MetricsRecorder::new(10);
        let mut cum = StatsReport::new();
        cum.set("a", 1.0);
        let g = StatsReport::new();
        r.close_window(10, &cum, &g);
        cum.set("a", 2.0);
        let w = r.close_window(20, &cum, &g);
        w.set("only_second", 9.0);
        let csv = r.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("start,end,"));
        assert!(header.contains("a"));
        assert!(header.contains("only_second"));
        assert_eq!(lines.count(), 2);
    }

    #[test]
    fn obs_config_default_off() {
        let c = ObsConfig::default();
        assert!(!c.enabled());
        assert!(ObsConfig::tracing().enabled());
        assert_eq!(ObsConfig::full(500).sample_window, Some(500));
    }
}

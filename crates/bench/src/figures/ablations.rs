//! Ablations of the design choices DESIGN.md calls out — experiments the
//! paper argues qualitatively (§3.2's ring-vs-mesh case, §3.1's in-pair
//! threads, §3.6/§7's SPM staging) but does not plot.

use smarco_core::config::SmarcoConfig;
use smarco_noc::link::{LinkConfig, Transmittable};
use smarco_noc::mesh::Mesh;
use smarco_noc::traffic::{Pattern, SizeMix, Testbench, TrafficConfig};
use smarco_noc::NocConfig;
use smarco_sim::rng::SimRng;
use smarco_workloads::{Benchmark, HtcStream};

use crate::harness::{smarco_mapreduce, smarco_team_system};
use crate::paper::Claim;
use crate::Scale;

// ---------------------------------------------------------------- mesh --

/// Ring-vs-mesh comparison under the same HTC traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshVsRing {
    /// Ring mean / max latency (cycles).
    pub ring_mean: f64,
    /// Ring maximum observed latency.
    pub ring_max: f64,
    /// Mesh mean latency.
    pub mesh_mean: f64,
    /// Mesh maximum observed latency.
    pub mesh_max: f64,
    /// Ring delivered packets per cycle.
    pub ring_throughput: f64,
    /// Mesh delivered packets per cycle.
    pub mesh_throughput: f64,
}

#[derive(Debug)]
struct Payload {
    bytes: u32,
}

impl Transmittable for Payload {
    fn bytes(&self) -> u32 {
        self.bytes
    }
}

/// Runs HTC traffic through the hierarchical ring and a same-node-count
/// mesh; the paper's claim is the ring's simpler, more *predictable*
/// latency (§3.2).
pub fn mesh_vs_ring(scale: Scale) -> MeshVsRing {
    let (noc_cfg, side, cycles) = match scale {
        Scale::Quick => (NocConfig::tiny(), 4usize, 4_000u64),
        Scale::Paper => (NocConfig::smarco(), 16, 10_000),
    };
    let rate = 0.25;
    // --- Ring: the standard testbench.
    let traffic = TrafficConfig {
        rate,
        pattern: Pattern::ToMemory,
        sizes: SizeMix::htc(),
    };
    let mut tb = Testbench::new(noc_cfg, traffic, 99);
    let ring = tb.run(cycles, cycles * 4);

    // --- Mesh: same core count, memory at the four edge midpoints.
    let mut mesh: Mesh<Payload> = Mesh::new(side, side, LinkConfig::sub_ring());
    let mems = [
        (side / 2, 0),
        (side - 1, side / 2),
        (side / 2, side - 1),
        (0, side / 2),
    ];
    let mut rng = SimRng::new(99);
    let sizes = SizeMix::htc();
    for now in 0..cycles {
        for x in 0..side {
            for y in 0..side {
                if rng.chance(rate) {
                    let dst = mems[rng.gen_index(mems.len())];
                    let bytes = sizes.sample(&mut rng);
                    let _ = mesh.inject((x, y), dst, bytes, now, Payload { bytes });
                }
            }
        }
        let _ = mesh.tick(now);
    }
    let mut now = cycles;
    while !mesh.is_idle() && now < cycles * 5 {
        let _ = mesh.tick(now);
        now += 1;
    }
    MeshVsRing {
        ring_mean: ring.mean_latency,
        ring_max: ring.max_latency,
        mesh_mean: mesh.stats().latency.mean(),
        mesh_max: mesh.stats().latency.max(),
        ring_throughput: ring.throughput,
        mesh_throughput: mesh.stats().delivered as f64 / cycles as f64,
    }
}

/// §3.2's case for rings: predictability, not raw latency.
pub const RING_CLAIMS: &[Claim<MeshVsRing>] = &[Claim::new(
    "Both networks deliver, and the ring's worst case stays closer to its mean.",
    |a| {
        let ring = a.ring_max / a.ring_mean.max(1e-9);
        let mesh = a.mesh_max / a.mesh_mean.max(1e-9);
        ensure!(ring < mesh, "max/mean: ring {ring:.2} vs mesh {mesh:.2}");
        let delivered = a.ring_throughput > 0.0 && a.mesh_throughput > 0.0;
        ensure!(delivered, "a network delivered nothing");
        Ok(())
    },
)];

impl std::fmt::Display for MeshVsRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Ablation: hierarchical ring vs 2-D mesh (HTC traffic)")?;
        writeln!(
            f,
            "  ring: mean={:.1} max={:.0} thr={:.2} pkts/cy",
            self.ring_mean, self.ring_max, self.ring_throughput
        )?;
        writeln!(
            f,
            "  mesh: mean={:.1} max={:.0} thr={:.2} pkts/cy",
            self.mesh_mean, self.mesh_max, self.mesh_throughput
        )?;
        writeln!(
            f,
            "  latency spread (max/mean): ring {:.1}x vs mesh {:.1}x",
            self.ring_max / self.ring_mean.max(1e-9),
            self.mesh_max / self.mesh_mean.max(1e-9)
        )
    }
}

// ------------------------------------------------------------- in-pair --

/// In-pair / shared-iseg ablation of one benchmark (steady-state core
/// IPC at 8 resident threads against an 80-cycle memory).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InPairRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// IPC with both mechanisms on (the shipped design).
    pub full: f64,
    /// IPC without the in-pair friend switch (coarse-grained blocking).
    pub no_inpair: f64,
    /// IPC without the shared-instruction-segment prefetch.
    pub no_iseg: f64,
}

/// Runs every benchmark on one TCG core with each mechanism disabled in
/// turn — the latency-bound regime where the mechanisms matter.
pub fn inpair_ablation(scale: Scale) -> Vec<InPairRow> {
    use smarco_core::config::TcgConfig;
    let window = scale.scaled(20_000, 100_000);
    let run = |bench: Benchmark, in_pair: bool, shared_iseg: bool| {
        let cfg = TcgConfig {
            in_pair,
            shared_iseg,
            ..TcgConfig::smarco()
        };
        crate::harness::tcg_ipc_with(bench, cfg, window, 80)
    };
    Benchmark::ALL
        .iter()
        .map(|&bench| InPairRow {
            bench,
            full: run(bench, true, true),
            no_inpair: run(bench, false, true),
            no_iseg: run(bench, true, false),
        })
        .collect()
}

// --------------------------------------------------------- spm staging --

/// SPM staging ablation: the same MapReduce job with slices DMA-staged
/// into SPM vs addressed in DRAM (the §7 "data penetration and prefetch"
/// direction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagingRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// Job cycles with SPM staging.
    pub staged_cycles: u64,
    /// Job cycles without.
    pub unstaged_cycles: u64,
    /// DRAM requests with staging.
    pub staged_requests: u64,
    /// DRAM requests without.
    pub unstaged_requests: u64,
}

/// Runs the MapReduce job both ways. "Unstaged" simply sizes slices past
/// the SPM share, so the framework leaves them in DRAM.
pub fn staging_ablation(scale: Scale) -> Vec<StagingRow> {
    let (map_ops, reduce_ops) = match scale {
        Scale::Quick => (1_000, 400),
        Scale::Paper => (4_000, 1_500),
    };
    Benchmark::ALL
        .iter()
        .map(|&bench| {
            let staged = smarco_mapreduce(bench, &SmarcoConfig::tiny(), map_ops, reduce_ops, 8);
            // Oversized slices: same ops, data stays in DRAM.
            let cfg = SmarcoConfig::tiny();
            let mut sys = crate::harness::build_system(&cfg);
            let cps = cfg.noc.cores_per_subring;
            let mut seed = 1;
            for core in 0..sys.cores_len() {
                let sr = (core / cps) as u64;
                for _t in 0..8 {
                    let p = bench.thread_params(
                        0x100_0000 + sr * (256 << 20),
                        64 << 20,
                        0x3000_0000 + sr * (1 << 20),
                        0,
                        1,
                        map_ops + reduce_ops / 4,
                    );
                    crate::harness::or_exit(
                        sys.attach(core, Box::new(HtcStream::new(p, SimRng::new(seed)))),
                    );
                    seed += 1;
                }
            }
            let unstaged = sys.run(500_000_000);
            StagingRow {
                bench,
                staged_cycles: staged.total_cycles(),
                unstaged_cycles: unstaged.cycles,
                staged_requests: staged.report.dram_requests,
                unstaged_requests: unstaged.dram_requests,
            }
        })
        .collect()
}

/// Formats the in-pair rows.
pub fn format_inpair(rows: &[InPairRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("Ablation: in-pair threads & shared instruction segment (core IPC)\n");
    let _ = writeln!(
        s,
        "  {:<12} {:>6} {:>10} {:>8}  {:>11} {:>9}",
        "bench", "full", "no-inpair", "no-iseg", "inpair gain", "iseg gain"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "  {:<12} {:>6.2} {:>10.2} {:>8.2}  {:>10.2}x {:>8.2}x",
            r.bench.name(),
            r.full,
            r.no_inpair,
            r.no_iseg,
            r.full / r.no_inpair.max(1e-9),
            r.full / r.no_iseg.max(1e-9),
        );
    }
    s
}

/// Formats the staging rows.
pub fn format_staging(rows: &[StagingRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("Ablation: SPM staging for MapReduce tasks\n");
    let _ = writeln!(
        s,
        "  {:<12} {:>10} {:>10} {:>8}  {:>10} {:>10}",
        "bench", "staged", "unstaged", "speedup", "dram(st)", "dram(un)"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "  {:<12} {:>10} {:>10} {:>7.2}x  {:>10} {:>10}",
            r.bench.name(),
            r.staged_cycles,
            r.unstaged_cycles,
            r.unstaged_cycles as f64 / r.staged_cycles as f64,
            r.staged_requests,
            r.unstaged_requests,
        );
    }
    s
}

/// §3.1's claim for in-pair threads and the shared instruction segment.
pub const INPAIR_CLAIMS: &[Claim<[InPairRow]>] = &[Claim::new(
    "Neither in-pair switching nor the shared segment ever hurts, and RNC, the \
     most memory-bound, gains over 1.2x from pairing.",
    |rows| {
        for r in rows {
            let (pair, iseg) = (r.full / r.no_inpair, r.full / r.no_iseg);
            let b = r.bench;
            ensure!(pair >= 0.99 && iseg >= 0.98, "{b}: {pair:.2}x, {iseg:.2}x");
            let rnc = b == Benchmark::Rnc;
            ensure!(!rnc || pair > 1.2, "RNC pairing gain {pair:.2}x");
        }
        Ok(())
    },
)];

/// §3.6's data placement: staging into the SPM pays for most jobs.
pub const STAGING_CLAIMS: &[Claim<[StagingRow]>] = &[Claim::new(
    "Staging speeds up at least four of six jobs 1.2x and cuts every job's DRAM requests.",
    |rows| {
        let gain = |r: &&StagingRow| r.unstaged_cycles as f64 / r.staged_cycles as f64;
        let wins = rows.iter().filter(|r| gain(r) > 1.2).count();
        ensure!(wins >= 4, "{wins} of 6 gain 1.2x");
        for r in rows {
            let (st, un) = (r.staged_requests, r.unstaged_requests);
            ensure!(st < un, "{}: {st} vs {un} unstaged requests", r.bench);
        }
        Ok(())
    },
)];

// ---------------------------------------------------------------- pim --

/// On-core vs in-memory string matching over the same text volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PimResult {
    /// Text volume scanned, in bytes.
    pub text_bytes: u64,
    /// Cycles for TCG cores to stream and match the text (KMP teams).
    pub core_cycles: u64,
    /// DRAM requests the core path issued.
    pub core_dram_requests: u64,
    /// Cycles for the PIM scan units to sweep the same text.
    pub pim_cycles: u64,
    /// Channel-crossing commands the PIM path issued.
    pub pim_commands: u64,
}

impl PimResult {
    /// Speedup of offloading the match to memory.
    pub fn speedup(&self) -> f64 {
        self.core_cycles as f64 / self.pim_cycles.max(1) as f64
    }
}

/// Runs the §7 future-work experiment: match a pattern over `text_bytes`
/// of DRAM-resident text, once by streaming it through KMP threads on the
/// cores and once by issuing PIM scan commands (64 KB per command,
/// striped over the channels).
pub fn pim_matching(scale: Scale) -> PimResult {
    use smarco_mem::pim::{PimConfig, PimUnit};

    let text_bytes: u64 = match scale {
        Scale::Quick => 2 << 20,
        Scale::Paper => 32 << 20,
    };
    // --- Core path: every text byte must cross the channel and the ring.
    // KMP threads read ~1 byte per scan access; with KMP's instruction mix
    // that is mem_frac × (1 − table_frac) scan reads per instruction.
    let cfg = crate::harness::pressure_matched_tiny();
    let p = Benchmark::Kmp.profile();
    let scan_reads_per_instr = p.mem_frac * (1.0 - p.table_frac);
    let threads = cfg.noc.cores() * 4;
    let bytes_per_thread = text_bytes / threads as u64;
    let ops_per_thread = ((bytes_per_thread as f64
        / Benchmark::Kmp.profile().scan_elem_bytes as f64)
        / scan_reads_per_instr) as u64;
    let mut sys = smarco_team_system(Benchmark::Kmp, &cfg, ops_per_thread.max(1), 4);
    let report = sys.run(2_000_000_000);

    // --- PIM path: 64 KB scan commands striped over the channels; the
    // channels never carry the text itself.
    let mut pim: PimUnit<u64> = PimUnit::new(PimConfig {
        channels: cfg.dram.channels,
        ..PimConfig::smarco()
    });
    let chunk = 64 << 10;
    let mut submitted = 0u64;
    let mut chan = 0;
    while submitted < text_bytes {
        let bytes = chunk.min(text_bytes - submitted);
        pim.submit(chan, bytes, 0, submitted);
        chan = (chan + 1) % cfg.dram.channels;
        submitted += bytes;
    }
    let mut pim_cycles = 0;
    for now in 0..u64::MAX / 2 {
        let _ = pim.tick(now);
        if pim.is_idle() {
            pim_cycles = now;
            break;
        }
    }
    PimResult {
        text_bytes,
        core_cycles: report.cycles,
        core_dram_requests: report.dram_requests,
        pim_cycles,
        pim_commands: pim.commands(),
    }
}

impl std::fmt::Display for PimResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Ablation: in-memory string matching (the paper's §7 direction), {} MB of text",
            self.text_bytes >> 20
        )?;
        writeln!(
            f,
            "  on-core KMP : {} cycles, {} DRAM requests",
            self.core_cycles, self.core_dram_requests
        )?;
        writeln!(
            f,
            "  PIM scan    : {} cycles, {} channel commands",
            self.pim_cycles, self.pim_commands
        )?;
        writeln!(f, "  offload speedup: {:.1}x", self.speedup())
    }
}

/// §7's premise: fixed-pattern scans should not drag the whole text
/// across the channel.
pub const PIM_CLAIMS: &[Claim<PimResult>] = &[Claim::new(
    "Offloading the scan is over 5x faster, with under 1% of the channel traffic.",
    |r| {
        ensure!(r.speedup() > 5.0, "offload speedup {:.1}x", r.speedup());
        let (cmds, reqs) = (r.pim_commands, r.core_dram_requests);
        ensure!(cmds * 100 < reqs, "{cmds} commands vs {reqs} requests");
        Ok(())
    },
)];

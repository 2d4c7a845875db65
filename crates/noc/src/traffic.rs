//! Synthetic traffic for NoC-only studies (Fig. 18).
//!
//! Each core injects packets at a configurable rate with a configurable
//! size distribution (HTC workloads are dominated by 1–8-byte requests,
//! Fig. 8) toward memory controllers and/or peer cores. The testbench
//! reports throughput (packets per cycle — the paper's "throughput rate"),
//! latency and link utilization for a given link slicing.

use smarco_sim::rng::SimRng;
use smarco_sim::Cycle;

use crate::hierarchy::{NocConfig, Topology};
use crate::packet::{NodeId, Packet};

/// A discrete packet-size distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeMix {
    /// Packet sizes in bytes.
    bytes: Vec<u32>,
    /// Their weights, kept apart so sampling borrows them as they are.
    weights: Vec<f64>,
}

impl SizeMix {
    /// Creates a mix from `(bytes, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if empty, any size is zero, or all weights are zero.
    pub fn new(sizes: Vec<(u32, f64)>) -> Self {
        assert!(!sizes.is_empty(), "size mix must not be empty");
        assert!(
            sizes.iter().all(|&(b, w)| b > 0 && w >= 0.0),
            "bad size entry"
        );
        assert!(
            sizes.iter().map(|&(_, w)| w).sum::<f64>() > 0.0,
            "weights all zero"
        );
        let (bytes, weights) = sizes.into_iter().unzip();
        Self { bytes, weights }
    }

    /// HTC-like: small packets dominate (Fig. 8 left).
    pub fn htc() -> Self {
        Self::new(vec![
            (1, 0.25),
            (2, 0.3),
            (4, 0.2),
            (8, 0.15),
            (16, 0.06),
            (32, 0.04),
        ])
    }

    /// Conventional/SPLASH2-like: larger transfers (Fig. 8 right).
    pub fn conventional() -> Self {
        Self::new(vec![(8, 0.1), (16, 0.2), (32, 0.3), (64, 0.4)])
    }

    /// Samples a packet size.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        self.bytes[rng.pick_weighted(&self.weights)]
    }

    /// Weighted mean size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.bytes
            .iter()
            .zip(&self.weights)
            .map(|(&b, &w)| f64::from(b) * w / total)
            .sum()
    }
}

/// Where generated packets go.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// All packets to a random memory controller (the dominant HTC
    /// pattern).
    ToMemory,
    /// Uniform random peer core.
    UniformCores,
    /// `mem_frac` of traffic to memory, the rest to random cores.
    Mixed {
        /// Fraction of packets that target memory controllers.
        mem_frac: f64,
    },
}

/// Traffic generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Expected packets injected per core per cycle (values above 1 model
    /// cores with multiple outstanding requests; must be ≤ 8).
    pub rate: f64,
    /// Destination pattern.
    pub pattern: Pattern,
    /// Packet size distribution.
    pub sizes: SizeMix,
}

/// Results of a testbench run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficReport {
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Delivered packets per cycle (the paper's throughput rate).
    pub throughput: f64,
    /// Mean end-to-end latency in cycles.
    pub mean_latency: f64,
    /// Max observed latency.
    pub max_latency: f64,
    /// Main-ring payload utilization.
    pub main_util: f64,
    /// Sub-ring payload utilization.
    pub sub_util: f64,
}

/// Closed harness: the chip's NoC, assembled as a [`Topology`] of the
/// backend `NocConfig::backend` selects, driven by per-core generators.
#[derive(Debug)]
pub struct Testbench {
    noc: Topology<()>,
    traffic: TrafficConfig,
    rng: SimRng,
    next_id: u64,
    injected: u64,
}

impl Testbench {
    /// Creates a testbench over `noc_config` with `traffic`.
    ///
    /// # Panics
    ///
    /// Panics if the injection rate is outside `[0, 8]`, or if the
    /// configuration is invalid.
    pub fn new(noc_config: NocConfig, traffic: TrafficConfig, seed: u64) -> Self {
        assert!(
            (0.0..=8.0).contains(&traffic.rate),
            "rate must be in [0, 8]"
        );
        Self {
            noc: Topology::new(noc_config),
            traffic,
            rng: SimRng::new(seed),
            next_id: 0,
            injected: 0,
        }
    }

    fn destination(&mut self, src: usize) -> NodeId {
        let cfg = self.noc.config();
        let mem = |rng: &mut SimRng| NodeId::MemCtrl(rng.gen_index(cfg.mem_ctrls));
        let peer = |rng: &mut SimRng, src: usize| {
            let mut d = rng.gen_index(cfg.cores());
            if d == src {
                d = (d + 1) % cfg.cores();
            }
            NodeId::Core(d)
        };
        match self.traffic.pattern {
            Pattern::ToMemory => mem(&mut self.rng),
            Pattern::UniformCores => peer(&mut self.rng, src),
            Pattern::Mixed { mem_frac } => {
                if self.rng.chance(mem_frac) {
                    mem(&mut self.rng)
                } else {
                    peer(&mut self.rng, src)
                }
            }
        }
    }

    /// Runs `cycles` cycles of injection, then drains in-flight packets
    /// for up to `drain` additional cycles, and reports.
    ///
    /// Throughput counts only deliveries *during the injection window* —
    /// the sustained rate the network keeps up with — while latency stats
    /// include drained packets.
    pub fn run(&mut self, cycles: Cycle, drain: Cycle) -> TrafficReport {
        for now in 0..cycles {
            for core in 0..self.noc.config().cores() {
                let whole = self.traffic.rate.floor() as u32;
                let frac = self.traffic.rate - f64::from(whole);
                let n = whole + u32::from(self.rng.chance(frac));
                for _ in 0..n {
                    let dst = self.destination(core);
                    let bytes = self.traffic.sizes.sample(&mut self.rng);
                    let id = self.next_id;
                    self.next_id += 1;
                    self.injected += 1;
                    let _ = self.noc.inject(
                        Packet::new(id, NodeId::Core(core), dst, bytes, now, ()),
                        now,
                    );
                }
            }
            let _ = self.noc.tick(now);
        }
        let delivered_in_window = self.noc.stats().delivered;
        let mut now = cycles;
        while !self.noc.is_idle() && now < cycles + drain {
            let _ = self.noc.tick(now);
            now += 1;
        }
        let stats = self.noc.stats();
        TrafficReport {
            injected: self.injected,
            delivered: stats.delivered,
            throughput: delivered_in_window as f64 / cycles as f64,
            mean_latency: stats.latency.mean(),
            max_latency: stats.latency.max(),
            main_util: self.noc.main_ring_utilization(),
            sub_util: self.noc.subring_utilization(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;

    fn bench(slice: Option<u32>, rate: f64) -> TrafficReport {
        let mut cfg = NocConfig::tiny();
        cfg.main_link = match slice {
            Some(s) => LinkConfig::main_ring().sliced(s),
            None => LinkConfig::main_ring().conventional(),
        };
        cfg.sub_link = match slice {
            Some(s) => LinkConfig::sub_ring().sliced(s),
            None => LinkConfig::sub_ring().conventional(),
        };
        let traffic = TrafficConfig {
            rate,
            pattern: Pattern::ToMemory,
            sizes: SizeMix::htc(),
        };
        Testbench::new(cfg, traffic, 7).run(2000, 4000)
    }

    /// A short Fig. 18 cell on the tiny chip: saturating injection toward
    /// memory with `slice`-byte channels (sub-rings capped at their width).
    fn fig18_cell(sizes: SizeMix, slice: u32) -> TrafficReport {
        let mut cfg = NocConfig::tiny();
        cfg.main_link = LinkConfig::main_ring().sliced(slice);
        cfg.sub_link =
            LinkConfig::sub_ring().sliced(slice.min(LinkConfig::sub_ring().max_capacity()));
        let traffic = TrafficConfig {
            rate: 4.0,
            pattern: Pattern::ToMemory,
            sizes,
        };
        Testbench::new(cfg, traffic, 18).run(400, 800)
    }

    /// Exact reports, floats included: any change to the NoC under
    /// `Testbench` that moves a Fig. 18 number fails here. The saturated
    /// cells stop draining at the cutoff, the others drain fully.
    #[test]
    fn fig18_reports_are_pinned() {
        let report = |injected, delivered, throughput, mean_latency, max_latency, utils| {
            let (main_util, sub_util) = utils;
            TrafficReport {
                injected,
                delivered,
                throughput,
                mean_latency,
                max_latency,
                main_util,
                sub_util,
            }
        };
        assert_eq!(
            fig18_cell(SizeMix::htc(), 16),
            report(
                25_600,
                13_121,
                10.725,
                488.379_315_600_945_06,
                1078.0,
                (0.235_974_934_895_833_32, 0.197_835_937_5)
            )
        );
        assert_eq!(
            fig18_cell(SizeMix::htc(), 2),
            report(
                25_600,
                25_600,
                29.6525,
                231.182_851_562_5,
                480.0,
                (0.576_374_305_951_025, 0.345_049_117_312_072_9)
            )
        );
        assert_eq!(
            fig18_cell(SizeMix::conventional(), 16),
            report(
                25_600,
                4_438,
                3.705,
                547.754_393_871_113_2,
                1183.0,
                (0.594_765_625, 0.541_052_083_333_333_3)
            )
        );
        assert_eq!(
            fig18_cell(SizeMix::conventional(), 2),
            report(
                25_600,
                4_871,
                4.08,
                544.003_284_746_458_7,
                1178.0,
                (0.654_466_145_833_333_3, 0.6)
            )
        );
        let mixed = TrafficConfig {
            rate: 1.0,
            pattern: Pattern::Mixed { mem_frac: 0.5 },
            sizes: SizeMix::htc(),
        };
        assert_eq!(
            Testbench::new(NocConfig::tiny(), mixed, 18).run(400, 800),
            report(
                6_400,
                6_400,
                15.7175,
                6.773_906_25,
                17.0,
                (0.286_610_401_459_854, 0.249_273_874_695_863_73)
            )
        );
    }

    #[test]
    fn packets_flow_and_mostly_arrive() {
        let r = bench(Some(2), 0.05);
        assert!(r.injected > 0);
        assert!(r.delivered as f64 >= r.injected as f64 * 0.95, "{r:?}");
        assert!(r.mean_latency > 0.0);
    }

    #[test]
    fn high_density_beats_conventional_on_small_packets() {
        // Saturating rate: conventional links burn a full cycle per tiny
        // packet; sliced links pack many per cycle.
        let conventional = bench(None, 0.9);
        let sliced = bench(Some(2), 0.9);
        assert!(
            sliced.throughput > conventional.throughput * 1.2,
            "sliced {:.3} vs conventional {:.3}",
            sliced.throughput,
            conventional.throughput
        );
    }

    #[test]
    fn narrower_slices_help_htc_mixes() {
        let s16 = bench(Some(16), 0.9);
        let s2 = bench(Some(2), 0.9);
        assert!(
            s2.throughput >= s16.throughput,
            "2B {:.3} should beat 16B {:.3}",
            s2.throughput,
            s16.throughput
        );
    }

    #[test]
    fn size_mix_sampling() {
        let m = SizeMix::htc();
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            let s = m.sample(&mut rng);
            assert!([1, 2, 4, 8, 16, 32].contains(&s));
        }
        assert!(m.mean_bytes() < SizeMix::conventional().mean_bytes());
    }

    #[test]
    fn mixed_pattern_reaches_cores_and_memory() {
        let mut cfg = NocConfig::tiny();
        cfg.main_link = LinkConfig::main_ring();
        let traffic = TrafficConfig {
            rate: 0.05,
            pattern: Pattern::Mixed { mem_frac: 0.5 },
            sizes: SizeMix::htc(),
        };
        let r = Testbench::new(cfg, traffic, 3).run(1000, 2000);
        assert!(r.delivered > 0);
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn bad_rate_rejected() {
        let traffic = TrafficConfig {
            rate: 9.0,
            pattern: Pattern::ToMemory,
            sizes: SizeMix::htc(),
        };
        let _ = Testbench::new(NocConfig::tiny(), traffic, 0);
    }

    #[test]
    fn rates_above_one_inject_multiple_per_core() {
        let traffic = TrafficConfig {
            rate: 2.0,
            pattern: Pattern::ToMemory,
            sizes: SizeMix::htc(),
        };
        let mut tb = Testbench::new(NocConfig::tiny(), traffic, 5);
        let r = tb.run(200, 0);
        // 16 cores × 2 pkts/cycle × 200 cycles.
        assert_eq!(r.injected, 16 * 2 * 200);
    }
}

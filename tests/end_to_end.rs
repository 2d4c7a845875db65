//! Cross-crate integration tests: the whole stack — workload generators,
//! cores, NoC, MACT, DRAM, runtime, power — wired together.

use smarco::baseline::{ConventionalSystem, XeonConfig};
use smarco::core::chip::SmarcoSystem;
use smarco::core::config::SmarcoConfig;
use smarco::power::{run_energy, TechNode};
use smarco::runtime::Threads;
use smarco::sim::rng::SimRng;
use smarco::workloads::{Benchmark, HtcStream};

fn loaded_chip(bench: Benchmark, ops: u64) -> SmarcoSystem {
    let cfg = SmarcoConfig::tiny();
    let mut sys = SmarcoSystem::builder().config(cfg.clone()).build().unwrap();
    let cps = cfg.noc.cores_per_subring;
    let team = (cps * 4) as u64;
    let mut seed = 1;
    for core in 0..sys.cores_len() {
        let sr = (core / cps) as u64;
        for t in 0..4 {
            let j = ((core % cps) * 4 + t) as u64;
            let p = bench.thread_params(
                0x100_0000 + sr * (64 << 20),
                4 << 20,
                0x8000_0000 + sr * (1 << 20),
                j,
                team,
                ops,
            );
            sys.attach(core, Box::new(HtcStream::new(p, SimRng::new(seed))))
                .expect("slot");
            seed += 1;
        }
    }
    sys
}

#[test]
fn full_stack_runs_every_benchmark_to_completion() {
    for bench in Benchmark::ALL {
        let mut sys = loaded_chip(bench, 400);
        let report = sys.run(100_000_000);
        assert!(sys.is_done(), "{bench} drained");
        assert_eq!(
            report.instructions,
            16 * 4 * 401,
            "{bench} instruction count"
        );
        assert!(report.ipc() > 0.0, "{bench}");
        // RNC is the only benchmark with real-time traffic, which bypasses
        // the MACT.
        if bench == Benchmark::Rnc {
            assert!(report.requests > 0);
        }
    }
}

#[test]
fn chip_is_deterministic_end_to_end() {
    let a = loaded_chip(Benchmark::WordCount, 300).run(100_000_000);
    let b = loaded_chip(Benchmark::WordCount, 300).run(100_000_000);
    assert_eq!(a, b, "two builds of the same chip diverged");
}

#[test]
fn threads_runtime_balances_and_joins() {
    let mut threads = Threads::new(
        SmarcoSystem::builder()
            .config(SmarcoConfig::tiny())
            .build()
            .unwrap(),
    );
    for i in 0..64 {
        let p = Benchmark::Search.thread_params(
            0x100_0000 + i * (1 << 20),
            1 << 20,
            0x8000_0000,
            0,
            1,
            300,
        );
        threads
            .create(Box::new(HtcStream::new(p, SimRng::new(i))), 300)
            .expect("capacity");
    }
    let report = threads.join_all(100_000_000);
    assert_eq!(report.instructions, 64 * 301);
    assert_eq!(threads.created(), 64);
}

#[test]
fn energy_model_composes_with_chip_runs() {
    let cfg = SmarcoConfig::tiny();
    let mut sys = loaded_chip(Benchmark::KMeans, 400);
    let report = sys.run(100_000_000);
    let energy = run_energy(&report, &cfg, TechNode::n32());
    assert!(energy.avg_power_w > 0.0);
    assert!(energy.energy_j > 0.0);
    assert!(energy.efficiency() > 0.0);
    // A tiny 16-core chip draws far less than the 256-core chip's 240 W.
    assert!(energy.avg_power_w < 60.0, "power {:.1}", energy.avg_power_w);
}

#[test]
fn smarco_and_xeon_run_the_same_benchmark_comparably() {
    // Same benchmark, both machines, end to end — the Fig. 22 plumbing.
    let mut xeon = ConventionalSystem::new(XeonConfig::small());
    for i in 0..8u64 {
        let mix = Benchmark::Kmp.mix(0x10_0000 + i * (1 << 22), 1 << 22);
        xeon.spawn(Box::new(smarco::isa::mix::SyntheticStream::new(
            mix,
            2_000,
            SimRng::new(i),
        )));
    }
    let xr = xeon.run(1_000_000_000);
    assert!(xeon.is_done());
    assert_eq!(xr.instructions, 8 * 2001);

    let sr = loaded_chip(Benchmark::Kmp, 400).run(100_000_000);
    // Throughput comparison is meaningful: both report instructions/s.
    assert!(sr.throughput(1.5) > 0.0);
    assert!(xr.throughput(2.2) > 0.0);
}

#[test]
fn in_pair_ablation_matters_at_chip_level() {
    // Search is latency-bound on this chip (few, expensive cold-table
    // misses rather than saturated bandwidth) — the regime where hiding
    // latency behind a friend thread pays.
    let run = |in_pair: bool| {
        let mut cfg = SmarcoConfig::tiny();
        cfg.tcg.in_pair = in_pair;
        let mut sys = SmarcoSystem::builder().config(cfg.clone()).build().unwrap();
        let cps = cfg.noc.cores_per_subring;
        let mut seed = 1;
        for core in 0..sys.cores_len() {
            let sr = (core / cps) as u64;
            for t in 0..8 {
                let j = ((core % cps) * 8 + t) as u64;
                let p = Benchmark::Search.thread_params(
                    0x100_0000 + sr * (64 << 20),
                    4 << 20,
                    0x8000_0000 + sr * (1 << 20),
                    j,
                    (cps * 8) as u64,
                    300,
                );
                sys.attach(core, Box::new(HtcStream::new(p, SimRng::new(seed))))
                    .expect("slot");
                seed += 1;
            }
        }
        sys.run(100_000_000).cycles
    };
    let with = run(true);
    let without = run(false);
    assert!(
        with < without,
        "in-pair should hide memory latency: {with} vs {without} cycles"
    );
}

#[test]
fn degraded_ring_channel_still_delivers_exactly_once() {
    use smarco::noc::link::{LinkConfig, Transmittable};
    use smarco::noc::ring::Ring;

    #[derive(Debug, Clone, PartialEq)]
    struct P(u32);
    impl Transmittable for P {
        fn bytes(&self) -> u32 {
            self.0
        }
    }

    let load = |ring: &mut Ring<P>| {
        let mut n = 0;
        for src in 0..8 {
            for dst in 0..8 {
                if src != dst {
                    for _ in 0..4 {
                        let _ = ring.inject(src, dst, P(8));
                        n += 1;
                    }
                }
            }
        }
        n
    };
    let drain = |ring: &mut Ring<P>| {
        let mut delivered = 0;
        let mut last = 0;
        for now in 0..50_000u64 {
            let d = ring.tick(now).len();
            delivered += d;
            if d > 0 {
                last = now;
            }
            if ring.is_idle() {
                break;
            }
        }
        (delivered, last)
    };

    let mut healthy: Ring<P> = Ring::new(8, LinkConfig::sub_ring());
    let n = load(&mut healthy);
    let (d_healthy, t_healthy) = drain(&mut healthy);
    assert_eq!(d_healthy, n);

    // Fault injection: one channel loses its bidirectional lanes (a third
    // of its bandwidth in each direction at peak).
    let mut degraded: Ring<P> = Ring::new(8, LinkConfig::sub_ring());
    degraded.set_channel_config(
        3,
        LinkConfig {
            lanes_bidir: 0,
            ..LinkConfig::sub_ring()
        },
    );
    let n = load(&mut degraded);
    let (d_degraded, t_degraded) = drain(&mut degraded);
    // Exactly-once delivery survives the fault; only time suffers.
    assert_eq!(d_degraded, n);
    assert!(
        t_degraded >= t_healthy,
        "degraded drain {t_degraded} vs healthy {t_healthy}"
    );
}

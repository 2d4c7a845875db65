//! The self-profiling contract: host-side profiling of the PDES engine is
//! pure observation. For every HTC benchmark, a profiled run produces a
//! bit-identical `SmarcoReport` to an unprofiled one — across worker
//! counts and with cycle skipping on or off — while the profile itself
//! accounts for every measured nanosecond (the named phase buckets plus
//! the remainder sum to the total exactly; checked on every profiled
//! point by `support`). The window telemetry agrees with the engine's own
//! counters, and the exports land next to the run.

mod support;

use smarco::core::chip::SmarcoSystem;
use smarco::core::config::{ProfConfig, SmarcoConfig};
use smarco::sim::rng::SimRng;
use smarco::workloads::{Benchmark, HtcStream};
use support::{at, check_against_canonical, LOAD, PROF, SKIP, WORKERS};

const INSTRS: u64 = 300;
const MAX_CYCLES: u64 = 10_000_000;

/// A small profiled chip on four workers, loaded with two
/// team-interleaved WordCount threads per core.
fn loaded() -> SmarcoSystem {
    let mut cfg = SmarcoConfig::tiny();
    cfg.workers = 4;
    cfg.prof = ProfConfig::on();
    let mut sys = SmarcoSystem::builder().config(cfg).build().unwrap();
    let (bench, teams) = (Benchmark::WordCount, (sys.cores_len() * 2) as u64);
    for lane in 0..teams {
        let p = bench.thread_params(0x100_0000, 1 << 22, 0x8000_0000, lane, teams, INSTRS);
        sys.attach(
            lane as usize / 2,
            Box::new(HtcStream::new(p, SimRng::new(11 + lane))),
        )
        .expect("vacant slot");
    }
    sys
}

#[test]
fn profiling_is_result_neutral_on_all_benchmarks() {
    check_against_canonical(Benchmark::ALL.iter().flat_map(|bench| {
        [("1", "off"), ("1", "on"), ("4", "off"), ("4", "on")].map(|(workers, skip)| {
            at(&[
                (LOAD, bench.name()),
                (WORKERS, workers),
                (SKIP, skip),
                (PROF, "on"),
            ])
        })
    }));
}

#[test]
fn profile_telemetry_matches_engine_counters() {
    let mut sys = loaded();
    let r = sys.run(MAX_CYCLES);
    assert!(sys.is_done());
    let report = sys.profile_report().expect("profile present");
    // Per-shard window counts partition the boundary count.
    for s in &report.shards {
        assert_eq!(
            s.windows_stepped + s.windows_skipped,
            report.telemetry.windows
        );
    }
    // Default stride samples every window, so the occupancy histogram
    // covers them all.
    assert_eq!(report.telemetry.sampled_windows, report.telemetry.windows);
    assert_eq!(
        report.telemetry.occupancy.iter().sum::<u64>(),
        report.telemetry.sampled_windows
    );
    // The facade substitutes the chip's shard names.
    assert_eq!(report.shard_names.len(), report.shards.len());
    assert!(report.shard_names.iter().any(|n| n == "hub"));
    assert!(report.shard_names.iter().any(|n| n == "sub-ring0"));
    // With 4 workers the run took the parallel path and measured
    // barrier-arrival spread.
    assert_eq!(report.parallel.windows, report.telemetry.windows);
    assert!(report.telemetry.spread.count() > 0);
    assert!(r.cycles > 0);
}

#[test]
fn profile_exports_are_written_alongside_the_run() {
    let dir = std::env::temp_dir().join(format!("smarco_prof_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("profile.json");
    let mut cfg = SmarcoConfig::tiny();
    cfg.workers = 2;
    let mut sys = SmarcoSystem::builder()
        .config(cfg)
        .profile_to(&json)
        .build()
        .unwrap();
    let teams = sys.cores_len();
    for core in 0..sys.cores_len() {
        let p = Benchmark::Kmp.thread_params(
            0x100_0000,
            1 << 22,
            0x8000_0000,
            core as u64,
            teams as u64,
            INSTRS,
        );
        sys.attach(
            core,
            Box::new(HtcStream::new(p, SimRng::new(core as u64 + 1))),
        )
        .expect("vacant slot");
    }
    let _ = sys.run(MAX_CYCLES);
    assert!(sys.is_done());
    let body = std::fs::read_to_string(&json).expect("JSON export written");
    assert!(
        body.starts_with('{') && body.contains("\"phases\""),
        "{body}"
    );
    let folded = std::fs::read_to_string(json.with_extension("folded")).expect("folded export");
    assert!(
        folded.lines().any(|l| l.starts_with("smarco-sim;")),
        "{folded}"
    );
    let trace = std::fs::read_to_string(json.with_extension("trace.json")).expect("chrome export");
    assert!(
        trace.contains("\"traceEvents\"") && trace.contains("host-workers"),
        "{trace}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

//! The observability layer captures a rich event trace and per-window
//! metrics. (That observing a run leaves its report bit-identical is
//! checked on every observed point of `tests/equivalence.rs`.)

use smarco::core::chip::SmarcoSystem;
use smarco::core::config::SmarcoConfig;
use smarco::sim::obs::ObsConfig;
use smarco::sim::rng::SimRng;
use smarco::workloads::{Benchmark, HtcStream};

const THREADS_PER_CORE: usize = 4;
const INSTRS: u64 = 400;

/// A small loaded chip; `obs` selects the observability configuration.
fn loaded(obs: ObsConfig) -> SmarcoSystem {
    let mut cfg = SmarcoConfig::tiny();
    cfg.obs = obs;
    let mut sys = SmarcoSystem::builder().config(cfg).build().unwrap();
    let teams = sys.cores_len() * THREADS_PER_CORE;
    let mut seed = 7u64;
    for core in 0..sys.cores_len() {
        for t in 0..THREADS_PER_CORE {
            let lane = (core * THREADS_PER_CORE + t) as u64;
            let p = Benchmark::WordCount.thread_params(
                0x100_0000,
                1 << 22,
                0x8000_0000,
                lane,
                teams as u64,
                INSTRS,
            );
            sys.attach(core, Box::new(HtcStream::new(p, SimRng::new(seed))))
                .expect("vacant slot");
            seed += 1;
        }
    }
    sys
}

#[test]
fn observed_run_captures_events_and_window_metrics() {
    let mut observed_sys = loaded(ObsConfig::full(5_000));
    let observed = observed_sys.run(10_000_000);
    assert!(
        observed.instructions > 0 && observed.requests > 0,
        "workload actually ran"
    );
    let trace = observed_sys.trace().expect("tracing enabled");
    assert!(trace.total() > 0, "events were captured");
    let kinds = trace.counts_by_kind();
    assert!(
        kinds.len() >= 6,
        "expected >= 6 distinct event types, got {}: {:?}",
        kinds.len(),
        kinds
    );
    let metrics = observed_sys.metrics().expect("sampling enabled");
    assert!(!metrics.windows().is_empty(), "windows were closed");
    let w = &metrics.windows()[0];
    for key in [
        "ipc",
        "subring_utilization",
        "mem_latency_p50",
        "mem_latency_p99",
        "mem_latency_p999",
    ] {
        assert!(w.stats.get(key).is_some(), "window missing {key}");
    }
}

#[test]
fn trace_export_is_loadable_chrome_json() {
    let mut sys = loaded(ObsConfig::tracing());
    let _ = sys.run(10_000_000);
    let json = sys.trace().expect("tracing enabled").to_chrome_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    // Track metadata names the units Perfetto groups by.
    assert!(json.contains("\"core0\"") && json.contains("\"sub-ring0\""));
}

#[test]
fn observed_tick_by_tick_run_flushes_explicitly() {
    let mut sys = loaded(ObsConfig::full(2_000));
    sys.advance_until(20_000);
    sys.flush_observations()
        .expect("no export paths set, nothing to write");
    let metrics = sys.metrics().expect("sampling enabled");
    // 20k cycles / 2k window = 9 full windows + the final partial flush.
    assert!(
        metrics.windows().len() >= 9,
        "got {} windows",
        metrics.windows().len()
    );
}

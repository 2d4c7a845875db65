//! The one chip loader and the per-point checks behind every equivalence
//! test: `tests/equivalence.rs` runs a pairwise-covering point set
//! through it, and the per-axis suites (`cycle_skip`, `parallel_determinism`,
//! `noc_backends`, `model_contract`, `fault_determinism`, `profiling`)
//! sweep their axis over every benchmark through it.
//!
//! A run is a point in a space of axes. Model axes (load, NoC backend,
//! fault plan) decide what the chip simulates, so
//! each model point has one canonical report: the run at value 0 of every
//! variant axis. Variant axes (PDES workers, cycle skipping,
//! observability, profiling, the horizon-contract checker, and how a
//! healthy chip's empty plan is written) are host-side options, and no
//! value of any of them may change a bit of that report.
//!
//! To add an axis, add its index constant and row to `AXES` and read
//! the value in `chip`.

use std::collections::BTreeMap;

use smarco::core::chip::SmarcoSystem;
use smarco::core::config::{ProfConfig, SmarcoConfig};
use smarco::core::fault::FaultPlan;
use smarco::core::report::SmarcoReport;
use smarco::noc::NocBackendKind;
use smarco::sched::TaskPriority;
use smarco::sim::obs::ObsConfig;
use smarco::sim::prof::HostPhase;
use smarco::sim::rng::SimRng;
use smarco::workloads::{Benchmark, HtcStream};

const MAX_CYCLES: u64 = 10_000_000;
const CHAOS_SEED: u64 = 23;
/// The load value after the six benchmarks: TeraSort through the
/// hardware dispatcher.
const DISPATCHED: usize = Benchmark::ALL.len();

pub const LOAD: usize = 0;
pub const BACKEND: usize = 1;
pub const FAULT: usize = 2;
/// The first variant axis; every axis from here on is one.
pub const WORKERS: usize = 3;
pub const SKIP: usize = 4;
pub const OBS: usize = 5;
pub const PROF: usize = 6;
pub const CHECKER: usize = 7;
pub const PLAN: usize = 8;

/// Each axis's name and value labels, indexed by the constants above.
/// Value 0 of a variant axis is its canonical setting. The first six
/// load labels are the `Benchmark::ALL` names, in order.
pub const AXES: [(&str, &[&str]); 9] = [
    (
        "load",
        &[
            "WordCount",
            "TeraSort",
            "Search",
            "K-means",
            "KMP",
            "RNC",
            "dispatched TeraSort",
        ],
    ),
    ("backend", &["ring", "mesh"]),
    ("fault", &["healthy", "chaos"]),
    ("workers", &["1", "2", "3", "4", "5", "16", "2x host CPUs"]),
    ("skip", &["off", "on"]),
    ("obs", &["off", "full"]),
    ("prof", &["off", "on"]),
    ("checker", &["on", "off"]),
    ("plan", &["no plan", "FaultPlan::none()"]),
];

/// One value index per axis.
pub type Point = [usize; AXES.len()];

/// The point with each `(axis, label)` setting applied and every other
/// axis at value 0, as in `at(&[(LOAD, "KMP"), (WORKERS, "4")])`.
pub fn at(settings: &[(usize, &str)]) -> Point {
    let mut p = [0; AXES.len()];
    for &(axis, label) in settings {
        let (name, labels) = AXES[axis];
        p[axis] = labels
            .iter()
            .position(|&l| l == label)
            .unwrap_or_else(|| panic!("axis {name} has no value {label}"));
    }
    p
}

/// The point's model: every variant axis at its canonical value.
fn canonical(p: &Point) -> Point {
    let mut c = *p;
    c[WORKERS..].fill(0);
    c
}

/// `axis=value` for every axis, for assertion messages.
fn describe(p: &Point) -> String {
    let fields: Vec<String> = AXES
        .iter()
        .zip(p)
        .map(|((name, labels), &v)| format!("{name}={}", labels[v]))
        .collect();
    fields.join(" ")
}

/// The one chip loader: builds the chip `p` describes and loads its
/// work. Each axis value turns into a setting on exactly one line.
fn chip(p: &Point) -> SmarcoSystem {
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let backends = [NocBackendKind::Ring, NocBackendKind::Mesh];
    let mut cfg = SmarcoConfig::tiny();
    cfg.noc = cfg.noc.with_backend(backends[p[BACKEND]]);
    cfg.fault = match (p[FAULT], p[PLAN]) {
        (1, _) => Some(FaultPlan::chaos(CHAOS_SEED, &cfg)),
        (_, 1) => Some(FaultPlan::none()),
        _ => None,
    };
    cfg.workers = [1, 2, 3, 4, 5, 16, 2 * host_cpus][p[WORKERS]];
    cfg.cycle_skip = p[SKIP] == 1;
    cfg.obs = [ObsConfig::off(), ObsConfig::full(5_000)][p[OBS]];
    cfg.prof = [ProfConfig::off(), ProfConfig::on()][p[PROF]];
    let mut sys = SmarcoSystem::builder()
        .config(cfg)
        .build()
        .expect("valid config");
    sys.set_contract_checking(p[CHECKER] == 0);
    let cores = sys.cores_len();
    if p[LOAD] == DISPATCHED {
        // Four tasks per core; the dispatcher re-dispatches a dead core's.
        let tasks = (cores * 4) as u64;
        for j in 0..tasks {
            let params =
                Benchmark::TeraSort.thread_params(0x100_0000, 16 << 20, 0x8000_0000, j, tasks, 200);
            let stream = HtcStream::new(params, SimRng::new(1 + j));
            sys.submit_task(Box::new(stream), 4_000_000, 800, TaskPriority::Normal);
        }
    } else {
        // Two team-interleaved threads per core, attached directly.
        let (bench, teams) = (Benchmark::ALL[p[LOAD]], (cores * 2) as u64);
        for lane in 0..teams {
            let params = bench.thread_params(0x100_0000, 1 << 22, 0x8000_0000, lane, teams, 300);
            let stream = HtcStream::new(params, SimRng::new(11 + lane));
            sys.attach(lane as usize / 2, Box::new(stream))
                .expect("vacant slot");
        }
    }
    sys
}

/// Runs `p` and checks everything a point promises besides its report.
fn run(p: &Point) -> SmarcoReport {
    let at = describe(p);
    let mut sys = chip(p);
    let report = sys.run(MAX_CYCLES);
    assert!(sys.is_done(), "chip did not drain at {at}");
    let shards = (sys.config().noc.subrings + 1) as u64;
    assert_eq!(
        sys.stepped_cycles() + sys.skipped_cycles(),
        shards * report.cycles,
        "stepped + skipped shard-cycles do not tile the run at {at}"
    );
    assert_eq!(
        sys.skipped_cycles() > 0,
        p[SKIP] == 1,
        "skipped {} shard-cycles at {at}",
        sys.skipped_cycles()
    );
    let profile = sys.profile_report();
    assert_eq!(profile.is_some(), p[PROF] == 1, "profile presence at {at}");
    if let Some(prof) = profile {
        assert_eq!(
            prof.phases().total(),
            prof.total_ns(),
            "phase buckets do not partition the profile at {at}"
        );
        for w in &prof.workers {
            assert_eq!(
                w.named_ns() + w.other_ns(),
                w.busy_ns,
                "worker split at {at}"
            );
        }
        assert!(
            prof.phases().get(HostPhase::Step) > 0,
            "no step time at {at}"
        );
    }
    if p[OBS] == 1 {
        assert!(
            sys.trace().is_some_and(|t| t.total() > 0),
            "empty trace at {at}"
        );
        assert!(
            sys.metrics().is_some_and(|m| !m.windows().is_empty()),
            "no metrics window closed at {at}"
        );
    }
    report
}

/// Runs a canonical point and checks that its work ran and that its
/// fault plan did exactly the damage the model promises.
fn run_canonical(model: &Point) -> SmarcoReport {
    let report = run(model);
    let d = &report.degradation;
    let at = describe(model);
    assert!(
        report.instructions > 0 && report.requests > 0,
        "no work ran at {at}"
    );
    if model[FAULT] == 1 {
        assert!(d.link_retries > 0, "chaos caused no retry at {at}: {d:?}");
        assert!(
            d.quarantined_cores > 0,
            "chaos killed no core at {at}: {d:?}"
        );
        if model[LOAD] == DISPATCHED {
            assert_eq!(d.lost_threads, 0, "dispatcher lost a thread at {at}");
        }
    } else {
        assert!(d.is_clean(), "healthy run degraded at {at}: {d:?}");
    }
    report
}

/// Runs every point, and each point's canonical point once per model,
/// and asserts that every point reproduces its canonical report.
pub fn check_against_canonical(points: impl IntoIterator<Item = Point>) {
    let mut canonicals = BTreeMap::new();
    for p in points {
        let model = canonical(&p);
        let expected = canonicals
            .entry(model)
            .or_insert_with(|| run_canonical(&model));
        if p != model {
            assert_eq!(
                &run(&p),
                expected,
                "report differs from the canonical run at {}",
                describe(&p)
            );
        }
    }
}

//! The metrics of a measured workload: medians over its passes, the
//! process's peak memory, the printed table and the JSON line.

use std::fmt::Write as _;

use smarco_core::SmarcoReport;
use smarco_sim::prof::HostPhase;
use smarco_sim::stats::MeanTracker;

use crate::layers::{Engine, Layers};
use crate::workloads::{Pass, Sim, Workload};

/// The end-to-end metrics of an untraced run's JSON line: the ones every
/// workload has, as `BENCHMARK.json` declares them.
pub const END_TO_END: [&str; 4] = ["sim_mips", "setup_s", "peak_rss_mb", "sim_ipc"];

/// The per-layer metrics of a traced run's JSON line: the ones every
/// workload has, as `BENCHMARK.json` declares them.
pub const PER_LAYER: [&str; 15] = [
    "workloads.gen_s",
    "workloads.share",
    "core.build_s",
    "core.idle_ratio",
    "core.ifetch_miss_ratio",
    "core.l1d_miss_ratio",
    "noc.requests",
    "noc.main_ring_util",
    "noc.subring_util",
    "mem.dram_requests",
    "mem.request_reduction",
    "mem.latency_mean_cycles",
    "cluster.backlog_max",
    "cluster.chip_imbalance",
    "trace_overhead",
];

/// One workload's measurement.
#[derive(Debug)]
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// The seed its inputs were made from.
    pub seed: u64,
    /// The untimed first pass, on one worker and untraced. It warms the
    /// host up, and every later pass must reproduce its [`Sim`].
    pub reference: Pass,
    /// Timed passes without tracing: the end-to-end numbers.
    pub untraced: Vec<Pass>,
    /// Timed passes with tracing: the per-layer numbers.
    pub traced: Vec<Pass>,
    /// Peak resident memory while the workload ran, in MiB.
    pub peak_rss_mb: Option<f64>,
}

impl Run {
    fn passes(&self) -> impl Iterator<Item = &Pass> {
        std::iter::once(&self.reference)
            .chain(&self.untraced)
            .chain(&self.traced)
    }

    /// Operations attempted over every pass.
    pub fn attempted(&self) -> u64 {
        self.passes().map(|p| p.ops).sum()
    }

    /// Operations whose checks failed, over every pass.
    pub fn failed(&self) -> u64 {
        self.passes().map(|p| p.failed).sum()
    }

    /// Median host seconds of the untraced passes' timed regions.
    pub fn median_run_s(&self) -> Option<f64> {
        median(&self.untraced.iter().map(|p| p.run_s).collect::<Vec<_>>())
    }
}

/// One metric: its median, and the per-pass values it came from. `None`
/// where the workload does not have the metric.
#[derive(Debug)]
pub struct Row {
    /// Metric name.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// The value.
    pub value: Option<f64>,
    /// Per-pass values, when the value is their median.
    pub samples: Vec<f64>,
}

impl Row {
    fn median(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Self {
            name,
            unit,
            value: median(&samples),
            samples,
        }
    }

    fn one(name: &'static str, unit: &'static str, value: Option<f64>) -> Self {
        Self {
            name,
            unit,
            value,
            samples: Vec::new(),
        }
    }
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The end-to-end metrics of `run`: host metrics are medians over the
/// untraced passes, simulated ones come from the reference pass, which
/// every pass reproduces.
pub fn end_to_end(run: &Run) -> Vec<Row> {
    let sim = &run.reference.sim;
    let rack = match sim {
        Sim::Rack(rack) => Some(rack),
        Sim::Chips(_) => None,
    };
    let per_pass = |f: &dyn Fn(&Pass) -> f64| run.untraced.iter().map(f).collect::<Vec<_>>();
    let instrs = sim.instructions() as f64;
    vec![
        Row::median(
            "sim_mips",
            "Minstr/s",
            per_pass(&|p| instrs / p.run_s / 1e6),
        ),
        Row::median(
            "req_per_s",
            "1/s",
            match rack {
                Some(r) => per_pass(&|p| r.completed as f64 / p.run_s),
                None => Vec::new(),
            },
        ),
        Row::median("setup_s", "s", per_pass(&|p| p.setup_s)),
        Row::one("peak_rss_mb", "MiB", run.peak_rss_mb),
        Row::one(
            "sim_ipc",
            "instr/cycle",
            Some(instrs / sim.cycles().max(1) as f64),
        ),
        Row::one("p50_cycles", "cycles", rack.map(|r| r.latency.p50())),
        Row::one("p999_cycles", "cycles", rack.map(|r| r.latency.p999())),
        Row::one("slo_miss_rate", "fraction", rack.map(|r| r.slo_miss_rate())),
        Row::one(
            "fail_rate",
            "fraction",
            Some(run.failed() as f64 / run.attempted().max(1) as f64),
        ),
    ]
}

/// Mean of `f` over `reports`, each weighted by its cycles.
fn cycle_weighted(reports: &[SmarcoReport], f: impl Fn(&SmarcoReport) -> f64) -> f64 {
    let cycles: u64 = reports.iter().map(|r| r.cycles).sum();
    reports.iter().map(|r| f(r) * r.cycles as f64).sum::<f64>() / cycles.max(1) as f64
}

/// The per-layer metrics of `run`. Host times are medians over the traced
/// passes (absent from an untraced run); simulated counts come from the
/// reference pass.
pub fn per_layer(run: &Run) -> Vec<Row> {
    let sim = &run.reference.sim;
    let reports = sim.chip_reports();
    let traced: Vec<(&Pass, &Layers)> = run
        .traced
        .iter()
        .filter_map(|p| p.layers.as_ref().map(|l| (p, l)))
        .collect();
    // Simulated counts are the same on every traced pass: read the first.
    let first = traced.first().map(|&(_, l)| l);
    let times = |f: &dyn Fn(&Pass, &Layers) -> Option<f64>| {
        traced
            .iter()
            .filter_map(|&(p, l)| f(p, l))
            .collect::<Vec<_>>()
    };
    let phase = |ph: HostPhase| times(&|_, l| l.engine.as_ref().map(|e| e.seconds(ph)));
    let engine_count = |f: &dyn Fn(&Engine) -> f64| first.and_then(|l| l.engine.as_ref()).map(f);
    let runtime = first.and_then(|l| l.runtime);
    let requests: u64 = reports.iter().map(|r| r.requests).sum();
    let dram_requests: u64 = reports.iter().map(|r| r.dram_requests).sum();
    let mut latency = MeanTracker::new();
    for r in reports {
        latency.merge(&r.mem_latency);
    }
    let chip_instrs: Vec<f64> = reports.iter().map(|r| r.instructions as f64).collect();
    let imbalance = match sim {
        Sim::Rack(_) => {
            let mean = chip_instrs.iter().sum::<f64>() / chip_instrs.len() as f64;
            chip_instrs.iter().copied().fold(0.0, f64::max) / mean
        }
        // One chip at a time: nothing to balance.
        Sim::Chips(_) => 1.0,
    };
    let backlog = match sim {
        Sim::Rack(_) => first.and_then(|l| l.backlog_max).map(|b| b as f64),
        // A closed batch offers nothing it has not yet served.
        Sim::Chips(_) => Some(0.0),
    };
    let overhead = match (median(&times(&|p, _| Some(p.run_s))), run.median_run_s()) {
        (Some(traced), Some(untraced)) => Some(traced / untraced),
        _ => None,
    };
    vec![
        Row::one("workloads.instrs", "count", Some(sim.instructions() as f64)),
        Row::median("workloads.gen_s", "s", times(&|_, l| Some(l.gen_s))),
        Row::median(
            "workloads.share",
            "fraction",
            times(&|p, l| Some(l.gen_s / p.run_s)),
        ),
        Row::median(
            "runtime.stream_build_s",
            "s",
            times(&|_, l| l.runtime.map(|r| r.stream_build_s)),
        ),
        Row::one(
            "runtime.map_cycles",
            "cycles",
            runtime.map(|r| r.map_cycles as f64),
        ),
        Row::one(
            "runtime.reduce_cycles",
            "cycles",
            runtime.map(|r| r.reduce_cycles as f64),
        ),
        Row::median("sim.step_s", "s", phase(HostPhase::Step)),
        Row::median("sim.skip_s", "s", phase(HostPhase::Skip)),
        Row::median("sim.route_s", "s", phase(HostPhase::Route)),
        Row::median("sim.barrier_wait_s", "s", phase(HostPhase::Barrier)),
        Row::median("sim.other_s", "s", phase(HostPhase::Other)),
        Row::one("sim.windows", "count", engine_count(&|e| e.windows as f64)),
        Row::one(
            "sim.stepped_cycles",
            "cycles",
            engine_count(&|e| e.stepped_cycles as f64),
        ),
        Row::one(
            "sim.skipped_cycles",
            "cycles",
            engine_count(&|e| e.skipped_cycles as f64),
        ),
        Row::one(
            "sim.skip_ratio",
            "fraction",
            engine_count(&|e| {
                e.skipped_cycles as f64 / (e.stepped_cycles + e.skipped_cycles).max(1) as f64
            }),
        ),
        Row::one(
            "sim.envelopes",
            "count",
            engine_count(&|e| e.envelopes as f64),
        ),
        Row::median(
            "sim.barrier_spread_p99_ns",
            "ns",
            times(&|_, l| {
                l.engine
                    .as_ref()
                    .filter(|e| e.spread.count() > 0)
                    .map(|e| e.spread.p99())
            }),
        ),
        Row::median(
            "shard.sub.step_s",
            "s",
            times(&|_, l| l.engine.as_ref().map(|e| e.sub_step_ns as f64 / 1e9)),
        ),
        Row::median(
            "shard.hub.step_s",
            "s",
            times(&|_, l| l.engine.as_ref().map(|e| e.hub_step_ns as f64 / 1e9)),
        ),
        Row::median("core.build_s", "s", times(&|_, l| Some(l.build_s))),
        Row::one(
            "core.idle_ratio",
            "fraction",
            Some(cycle_weighted(reports, |r| r.idle_ratio)),
        ),
        Row::one(
            "core.ifetch_miss_ratio",
            "fraction",
            Some(cycle_weighted(reports, |r| r.ifetch_miss_ratio)),
        ),
        Row::one(
            "core.l1d_miss_ratio",
            "fraction",
            Some(cycle_weighted(reports, |r| r.l1d_miss_ratio)),
        ),
        Row::one("noc.requests", "count", Some(requests as f64)),
        Row::one(
            "noc.main_ring_util",
            "fraction",
            Some(cycle_weighted(reports, |r| r.main_ring_utilization)),
        ),
        Row::one(
            "noc.subring_util",
            "fraction",
            Some(cycle_weighted(reports, |r| r.subring_utilization)),
        ),
        Row::one("mem.dram_requests", "count", Some(dram_requests as f64)),
        Row::one(
            "mem.request_reduction",
            "ratio",
            Some(if dram_requests == 0 {
                1.0
            } else {
                requests as f64 / dram_requests as f64
            }),
        ),
        Row::one(
            "mem.mact_batches",
            "count",
            Some(reports.iter().map(|r| r.mact_batches).sum::<u64>() as f64),
        ),
        Row::one(
            "mem.dram_util",
            "fraction",
            Some(cycle_weighted(reports, |r| r.dram_utilization)),
        ),
        Row::one("mem.latency_mean_cycles", "cycles", Some(latency.mean())),
        Row::one("cluster.backlog_max", "count", backlog),
        Row::one("cluster.chip_imbalance", "ratio", Some(imbalance)),
        Row::one("trace_overhead", "ratio", overhead),
    ]
}

fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.6}")
    }
}

fn render_rows(out: &mut String, rows: &[Row]) {
    for r in rows {
        let Some(v) = r.value else {
            let _ = writeln!(out, "    {:<26} {:>16} {}", r.name, "n/a", r.unit);
            continue;
        };
        let _ = write!(out, "    {:<26} {:>16} {:<12}", r.name, number(v), r.unit);
        if r.samples.len() > 1 {
            let all: Vec<String> = r.samples.iter().map(|&s| number(s)).collect();
            let _ = write!(out, " n={} [{}]", r.samples.len(), all.join(", "));
        }
        out.push('\n');
    }
}

/// The human-readable report of `run`.
pub fn render(run: &Run, host_cpus: usize) -> String {
    let w = run.workload;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: seed {}, {} untraced + {} traced timed passes after 1 reference pass, \
         {} worker(s) on {} host CPU(s)",
        w.name(),
        run.seed,
        run.untraced.len(),
        run.traced.len(),
        w.workers(),
        host_cpus,
    );
    let _ = writeln!(
        out,
        "  checks: {} of {} {} failed",
        run.failed(),
        run.attempted(),
        w.op_name()
    );
    if let Sim::Rack(rack) = &run.reference.sim {
        let _ = writeln!(out, "  latency samples per pass: {}", rack.latency.count());
    }
    out.push_str("  end to end\n");
    render_rows(&mut out, &end_to_end(run));
    out.push_str("  per layer\n");
    render_rows(&mut out, &per_layer(run));
    out
}

/// The JSON line of `run`: the end-to-end metrics, or with `traced` the
/// per-layer ones, that `BENCHMARK.json` declares.
pub fn json_line(run: &Run, traced: bool) -> String {
    let (rows, names): (Vec<Row>, &[&str]) = if traced {
        (per_layer(run), &PER_LAYER)
    } else {
        (end_to_end(run), &END_TO_END)
    };
    let metrics: Vec<String> = names
        .iter()
        .filter_map(|name| rows.iter().find(|r| r.name == *name))
        .filter_map(|r| {
            let v = r.value.filter(|v| v.is_finite())?;
            Some(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                r.name, r.unit
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed() == 0,
        run.attempted(),
        run.failed(),
        metrics.join(", ")
    )
}

/// Resets the kernel's peak-memory mark of this process, so the next
/// reading covers only what runs after. Returns whether it worked.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process in MiB, where `/proc` tells.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The `VmHWM` line of a `/proc/<pid>/status` file, in MiB.
fn parse_vm_hwm(status: &str) -> Option<f64> {
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_from_a_status_file() {
        let status = "Name:\tperf\nVmPeak:\t  900000 kB\nVmHWM:\t  524288 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(512.0));
        assert_eq!(parse_vm_hwm("Name:\tperf\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}

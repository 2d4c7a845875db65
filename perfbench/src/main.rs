//! `perf`: how fast the SmarCo simulator runs, end to end and per layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ```
//!
//! Each workload runs one untimed reference pass, then timed passes until
//! at least three have run and `--seconds` have passed. Every pass must
//! reproduce the reference pass's simulated reports exactly. The run
//! prints a table per workload, then one JSON line per workload: the
//! end-to-end metrics, or with `--trace` the per-layer ones, which come
//! from traced passes alternating with untraced ones. See `README.md`.

mod layers;
mod report;
mod workloads;

use std::time::Instant;

use report::{json_line, peak_rss_mb, render, reset_peak_rss, Run};
use workloads::{run_pass, Size, Workload};

const USAGE: &str =
    "usage: perf [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]";

/// The command line.
#[derive(Debug)]
struct Args {
    /// One workload, or all of them.
    workload: Option<Workload>,
    /// Seed of every input.
    seed: u64,
    /// Least host seconds of timed passes per workload.
    seconds: f64,
    /// Alternate traced passes with the untraced ones.
    trace: bool,
    /// Tiny inputs and one timed pass, for tests.
    smoke: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Args {
            workload: None,
            seed: 1,
            seconds: 0.0,
            trace: false,
            smoke: false,
        };
        let mut it = args.into_iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    let w = Workload::parse(&name).ok_or(format!("unknown workload {name}"))?;
                    out.workload = Some(w);
                }
                "--seed" => {
                    let v = value()?;
                    out.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    out.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or(format!("bad seconds {v}"))?;
                }
                "--trace" => {
                    out.trace = it
                        .next_if(|v| v == "0" || v == "1")
                        .is_none_or(|v| v == "1");
                }
                "--smoke" => out.smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(out)
    }
}

/// Measures one workload: a reference pass, then timed passes.
fn measure(w: Workload, size: &Size, args: &Args) -> Run {
    let min_passes = if args.smoke { 1 } else { 3 };
    let reference = run_pass(w, size, args.seed, 1, false);
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        let trace_next = args.trace && traced.len() < untraced.len();
        let mut pass = run_pass(w, size, args.seed, w.workers(), trace_next);
        if pass.sim != reference.sim {
            pass.failed = pass.ops;
        }
        if trace_next {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
        let enough = untraced.len() >= min_passes && (!args.trace || traced.len() >= min_passes);
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    Run {
        workload: w,
        seed: args.seed,
        reference,
        untraced,
        traced,
        peak_rss_mb: None,
    }
}

/// Measures the requested workloads. The peak-memory mark is reset
/// between workloads; where that fails, later workloads report none.
fn run_all(args: &Args) -> Vec<Run> {
    let size = if args.smoke {
        Size::smoke()
    } else {
        Size::full()
    };
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut runs: Vec<Run> = Vec::new();
    for w in workloads {
        let fresh = runs.is_empty() || reset_peak_rss();
        let mut run = measure(w, &size, args);
        run.peak_rss_mb = peak_rss_mb().filter(|_| fresh);
        runs.push(run);
    }
    runs
}

/// The tables, the 2-worker speedup when both MapReduce workloads ran,
/// and the JSON lines, last.
fn output(runs: &[Run], trace: bool) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out: String = runs.iter().map(|r| render(r, cpus)).collect();
    let find = |w: Workload| runs.iter().find(|r| r.workload == w);
    if let (Some(w1), Some(w2)) = (find(Workload::HtcMapreduce), find(Workload::HtcMapreduceW2)) {
        if let (Some(a), Some(b)) = (w1.median_run_s(), w2.median_run_s()) {
            out.push_str(&format!(
                "htc_mapreduce_w2 speedup over htc_mapreduce: {:.3}x on {cpus} host CPU(s)\n",
                a / b
            ));
        }
    }
    for r in runs {
        out.push_str(&json_line(r, trace));
        out.push('\n');
    }
    out
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    print!("{}", output(&run_all(&args), args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{end_to_end, per_layer, END_TO_END, PER_LAYER};

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line_takes_valued_and_bare_trace_flags() {
        let a = args("--workload mem_scan --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Workload::MemScan));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        assert!(args("--trace 1").unwrap().trace);
        assert!(args("--trace --smoke").unwrap().trace);
        assert!(args("--smoke --trace").unwrap().smoke);
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds -1").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus").is_err());
    }

    /// `--smoke --trace` on every workload: every metric prints with its
    /// unit, no check fails, and traced passes reproduce the untraced
    /// reports (a mismatch counts as failed). The JSON lines carry every
    /// metric `BENCHMARK.json` declares, with the unit it declares.
    #[test]
    fn smoke_run_prints_every_metric_and_passes_its_checks() {
        let a = args("--smoke --trace").unwrap();
        let runs = run_all(&a);
        assert_eq!(runs.len(), Workload::ALL.len());
        let text = output(&runs, true);
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for run in &runs {
            let name = run.workload.name();
            assert_eq!(run.failed(), 0, "{name} failed a check:\n{text}");
            assert_eq!((run.untraced.len(), run.traced.len()), (1, 1), "{name}");
            assert_eq!(
                declared.contains(&format!("\"name\": \"{name}\"")),
                Workload::DECLARED.contains(&run.workload),
                "{name}"
            );
            let rows: Vec<_> = end_to_end(run).into_iter().chain(per_layer(run)).collect();
            let table = render(run, 1);
            for r in &rows {
                let line = table
                    .lines()
                    .find(|l| l.split_whitespace().next() == Some(r.name))
                    .unwrap_or_else(|| panic!("{name}: {} not printed", r.name));
                assert!(line.contains(r.unit), "{name}: {line}");
                assert_eq!(line.contains("n/a"), r.value.is_none(), "{name}: {line}");
            }
            for metric in END_TO_END.iter().chain(&PER_LAYER) {
                let r = rows.iter().find(|r| r.name == *metric).expect("a row");
                assert!(r.value.is_some(), "{name} lacks {metric}");
                let entry = format!("\"name\": \"{metric}\", \"unit\": \"{}\"", r.unit);
                assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
        let json = text.lines().last().expect("output");
        assert!(json.starts_with("{\"correct\": true, "), "{json}");
        assert_eq!(json.matches("\"unit\"").count(), PER_LAYER.len(), "{json}");
        assert_eq!(
            declared.matches("\"name\":").count(),
            Workload::DECLARED.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}

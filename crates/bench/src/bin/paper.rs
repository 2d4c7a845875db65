//! `paper [<id>] [--scale quick|paper] [--parallel N]`: regenerates the
//! paper's evaluation.
//!
//! Runs the experiment registered under `<id>` (`table1`, `fig20`,
//! `ablation_spm_staging`, ...; see `smarco_bench::paper::EXPERIMENTS`),
//! or all 17 in order when no id is given. Each prints its table followed
//! by its claims; each experiment's host seconds go to stderr, so stdout
//! is deterministic. `--parallel N` drives Figs. 22 and 23 with N PDES
//! workers (bit-identical results).
//!
//! Exits 1 when a claim evaluates to anything other than its recorded
//! status, and 2 on an unknown id or flag.

use std::time::Instant;

use smarco_bench::harness::or_exit;
use smarco_bench::{paper, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let experiments = match args.out.as_deref() {
        Some(id) => std::slice::from_ref(or_exit(paper::find(id))),
        None => &paper::EXPERIMENTS[..],
    };
    let mut as_recorded = true;
    for (i, e) in experiments.iter().enumerate() {
        let start = Instant::now();
        let outcome = (e.run)(args.scale, args.parallel);
        eprintln!("{}: {:.1} s", e.id, start.elapsed().as_secs_f64());
        print!("{}{}", if i > 0 { "\n" } else { "" }, outcome.text);
        as_recorded &= outcome.as_recorded;
    }
    if !as_recorded {
        eprintln!("paper: a claim no longer has its recorded status");
        std::process::exit(1);
    }
}

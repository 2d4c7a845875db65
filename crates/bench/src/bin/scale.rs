//! The sharded simulator across PDES worker counts on Fig. 22's
//! workload, plus the cycle-skip study on the memory-intensive benchmark.
//! Every worker count must reproduce the first run's report and its
//! stepped and skipped shard-cycles. Pass `--scale paper` for the full
//! 256-core chip; `--parallel N` adds another worker count to the default
//! 1/2/4 sweep. Writes the per-run records to `BENCH_cycle_skip.json`,
//! or to `--json <path>`.
//!
//! Pass `--faults <seed>` to run chaos mode instead: TeraSort through the
//! hardware dispatcher, healthy and under a seeded fault plan, printing
//! the degradation counters and goodput retained. Exits non-zero if the
//! injected faults produced no recovery activity (the injection or
//! recovery path is then broken).

use smarco_bench::cycle_skip::BENCH_FILE;
use smarco_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse();
    if let Some(seed) = args.faults {
        let out = smarco_bench::chaos::run_chaos(seed, args.scale);
        println!("{out}");
        let d = &out.degraded.degradation;
        if d.link_retries == 0 {
            eprintln!("chaos run saw zero link retries: fault injection is inert");
            std::process::exit(3);
        }
        return;
    }
    let mut counts = vec![1, 2, 4];
    if !counts.contains(&args.parallel) {
        counts.push(args.parallel);
    }
    let report = smarco_bench::cycle_skip::run(args.scale, &counts);
    println!("{report}");
    let path = args.json.as_deref().unwrap_or(BENCH_FILE);
    match report.write(path.as_ref()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("smarco-bench: writing the cycle-skip records failed: {e}");
            std::process::exit(2);
        }
    }
}

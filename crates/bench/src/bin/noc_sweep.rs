//! NoC backend sweep: backends × HTC benchmarks.
//! Pass `--backend ring|mesh` to sweep one backend only and
//! `--json <path>` to choose the output file (default `BENCH_noc.json`).

use smarco_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse();
    let report = smarco_bench::noc_sweep::sweep_backend(args.scale, args.backend.as_deref());
    if report.entries.is_empty() {
        eprintln!(
            "smarco-bench: no such backend `{}` (known: ring, mesh)",
            args.backend.as_deref().unwrap_or(""),
        );
        std::process::exit(2);
    }
    for e in &report.entries {
        println!(
            "{}",
            smarco_bench::format_row(
                &format!("{}/{}", e.backend, e.bench),
                &[
                    ("ipc", e.ipc),
                    ("mem_lat", e.mem_latency),
                    ("main_util", e.main_ring_utilization),
                    ("sub_util", e.subring_utilization),
                ],
            )
        );
    }
    let outcome = match &args.json {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            report.write(&path).map(|()| path)
        }
        None => report.write_default(),
    };
    match outcome {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("smarco-bench: writing the sweep report failed: {e}");
            std::process::exit(2);
        }
    }
}

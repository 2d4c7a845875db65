//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§4).
//!
//! Each experiment is a library function in [`figures`] returning
//! structured rows, next to the paper's claims about it. The [`paper`]
//! registry runs them by id, and the `paper` binary prints each table
//! followed by its claims:
//!
//! ```text
//! cargo run --release -p smarco-bench --bin paper              # all 17
//! cargo run --release -p smarco-bench --bin paper -- fig17
//! cargo run --release -p smarco-bench --bin paper -- fig22 --scale paper
//! ```
//!
//! The [`Scale`] knob switches between `Quick` (seconds; CI and tests) and
//! `Paper` (minutes; fuller configurations).
//!
//! The `scale`, `noc_sweep` and `rack` binaries run the sweeps in
//! [`cycle_skip`], [`noc_sweep`] and [`rack`] and write only simulated
//! numbers to their `BENCH_*.json` files, so a rerun reproduces them byte
//! for byte. How fast the simulator runs on the host is measured in one
//! place, the `perf` benchmark in `perfbench/`.

#![warn(missing_docs)]

/// Returns `Err` with the formatted message from a claim's check when the
/// condition is false (see [`paper::Claim`]).
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    };
}

pub mod chaos;
pub mod cli;
pub mod cycle_skip;
pub mod figures;
pub mod harness;
pub mod noc_sweep;
pub mod paper;
pub mod rack;
pub mod scale;

pub use cli::BenchArgs;
pub use scale::Scale;

/// The fields a `BENCH_*.json` file opens with: the PDES worker counts
/// its sweep ran, whether cycle skipping was on, and the scale.
fn sweep_fields(worker_sweep: &[usize], cycle_skip: bool, scale: Scale) -> String {
    let sweep: Vec<String> = worker_sweep.iter().map(usize::to_string).collect();
    format!(
        "\"worker_sweep\":[{}],\"cycle_skip\":{cycle_skip},\"scale\":\"{}\"",
        sweep.join(","),
        scale.name()
    )
}

/// Formats a row of `(label, value)` pairs the way the binaries print.
pub fn format_row(label: &str, values: &[(&str, f64)]) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{label:<14}");
    for (name, v) in values {
        let _ = write!(s, " {name}={v:<10.4}");
    }
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn row_formatting() {
        let s = super::format_row("KMP", &[("speedup", 1.5), ("ee", 2.0)]);
        assert!(s.starts_with("KMP"));
        assert!(s.contains("speedup=1.5"));
        assert!(s.contains("ee=2.0"));
    }
}

//! Table 2: configuration comparison of the two machines.

use smarco_baseline::XeonConfig;
use smarco_core::config::SmarcoConfig;
use smarco_power::{estimate_smarco, TechNode};

use crate::paper::Claim;
use crate::Scale;

/// The rendered table.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// `(parameter, xeon value, smarco value)` rows.
    pub rows: Vec<(&'static str, String, String)>,
}

/// Builds the table from the two default configurations.
pub fn run(_scale: Scale) -> Table2 {
    let s = SmarcoConfig::smarco();
    let x = XeonConfig::e7_8890v4();
    let est = estimate_smarco(&s, TechNode::n32());
    let rows = vec![
        (
            "Core",
            format!("{} cores, {} threads", x.cores, x.contexts()),
            format!("{} cores, {} threads", s.noc.cores(), s.total_threads()),
        ),
        (
            "Clock",
            format!("{:.1} GHz", x.freq_ghz),
            format!("{:.1} GHz", s.freq_ghz),
        ),
        (
            "L1",
            format!(
                "{:.2} MB I$ + {:.2} MB D$",
                x.cores as f64 * x.l1i.size_bytes as f64 / (1 << 20) as f64,
                x.cores as f64 * x.l1d.size_bytes as f64 / (1 << 20) as f64
            ),
            format!(
                "{} MB I$ + {} MB D$",
                (s.noc.cores() as u64 * s.tcg.l1i.size_bytes) >> 20,
                (s.noc.cores() as u64 * s.tcg.l1d.size_bytes) >> 20
            ),
        ),
        (
            "L2/LLC or SPM",
            format!(
                "{} MB L2 + {} MB LLC",
                (x.cores as u64 * x.l2.size_bytes) >> 20,
                x.llc.size_bytes >> 20
            ),
            format!("{} MB SPM", (s.noc.cores() as u64 * (128 << 10)) >> 20),
        ),
        (
            "NoC",
            "QPI 9.6 GT/s".to_owned(),
            format!(
                "hierarchical ring, {}-bit main / {}-bit sub",
                (s.noc.main_link.lanes_fixed_per_dir * 2 + s.noc.main_link.lanes_bidir) as u32
                    * s.noc.main_link.lane_bytes
                    * 8,
                (s.noc.sub_link.lanes_fixed_per_dir * 2 + s.noc.sub_link.lanes_bidir) as u32
                    * s.noc.sub_link.lane_bytes
                    * 8
            ),
        ),
        (
            "Memory",
            format!(
                "{:.1} GB/s",
                x.dram.bytes_per_cycle * x.dram.channels as f64 * x.freq_ghz
            ),
            format!(
                "{:.1} GB/s",
                s.dram.bytes_per_cycle * s.dram.channels as f64 * s.freq_ghz
            ),
        ),
        ("Process", "14 nm".to_owned(), "32 nm".to_owned()),
        (
            "Power",
            "165 W".to_owned(),
            format!("{:.0} W", est.total_power_w()),
        ),
        (
            "Die area",
            "-".to_owned(),
            format!("{:.0} mm2", est.total_area_mm2()),
        ),
    ];
    Table2 { rows }
}

/// Table 2 comes from the two default configs, so it matches by
/// construction; the claim pins its headline entries.
pub const CLAIMS: &[Claim<Table2>] = &[Claim::new(
    "SmarCo's 2048 threads and 136.5 GB/s face the Xeon's 48 and 85 GB/s.",
    |t| {
        let text = t.to_string();
        for entry in ["256 cores, 2048 threads", "24 cores, 48 threads"] {
            ensure!(text.contains(entry), "no `{entry}`");
        }
        for entry in ["136.5 GB/s", "85.0 GB/s"] {
            ensure!(text.contains(entry), "no `{entry}`");
        }
        Ok(())
    },
)];

impl std::fmt::Display for Table2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 2: Xeon E7-8890 v4 vs SmarCo")?;
        writeln!(
            f,
            "  {:<14} {:<28} {:<30}",
            "parameter", "Xeon E7-8890v4", "SmarCo"
        )?;
        for (p, x, s) in &self.rows {
            writeln!(f, "  {p:<14} {x:<28} {s:<30}")?;
        }
        Ok(())
    }
}

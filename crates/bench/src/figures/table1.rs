//! Table 1: area and power of SmarCo at 32 nm.

use smarco_core::config::SmarcoConfig;
use smarco_power::{estimate_smarco, ChipEstimate, TechNode};

use crate::paper::Claim;
use crate::Scale;

/// Runs the estimate (scale-independent: the table is analytic).
pub fn run(_scale: Scale) -> ChipEstimate {
    estimate_smarco(&SmarcoConfig::smarco(), TechNode::n32())
}

/// Table 1's totals, which the analytic models are calibrated against.
pub const CLAIMS: &[Claim<ChipEstimate>] = &[Claim::new(
    "The chip takes 751 mm2 and 240.09 W, over 80% of both in the cores.",
    |est| {
        let (area, power) = (est.total_area_mm2(), est.total_power_w());
        ensure!((area - 751.0).abs() < 8.0, "area {area:.1} mm2");
        ensure!((power - 240.09).abs() < 2.5, "power {power:.2} W");
        let cores = est.component("Cores").ok_or("no Cores row")?;
        let shares = (cores.area_mm2 / area, cores.power_w / power);
        ensure!(shares.0 > 0.8 && shares.1 > 0.8, "core shares {shares:.2?}");
        Ok(())
    },
)];

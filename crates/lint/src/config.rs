//! Pass 4 — configuration validation.
//!
//! Re-states the chip's structural invariants as diagnostics instead of
//! panics: the `validate()` methods on the config structs abort the
//! simulator at construction, while this pass reports *every* violated
//! invariant of a candidate configuration at once, so sweeps and config
//! files can be vetted before a chip is ever built. A few soft
//! heuristics live only here (slice widths that do not tile the
//! guaranteed link capacity, MACT deadlines beyond the line capacity,
//! tasks that are already late when they arrive).

use smarco_core::config::{ProfConfig, SmarcoConfig, TcgConfig};
use smarco_core::fault::{Fault, FaultPlan};
use smarco_mem::mact::MactConfig;
use smarco_noc::direct::DirectPathConfig;
use smarco_noc::{LinkConfig, NocConfig};
use smarco_sched::Task;

use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::model::{check_partition_hierarchy, PartitionLevel};

fn zero(path: &str, what: &str) -> Diagnostic {
    Diagnostic::new(
        Code::ZeroField,
        Span::Field(path.to_string()),
        format!("{what} must be positive"),
    )
}

/// Lints one link geometry (`label` names it in spans, e.g. `noc.main_link`).
pub fn check_link(label: &str, link: &LinkConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if link.lanes_fixed_per_dir == 0 {
        out.push(zero(
            &format!("{label}.lanes_fixed_per_dir"),
            "each direction needs at least one dedicated lane",
        ));
    }
    if link.lane_bytes == 0 {
        out.push(zero(&format!("{label}.lane_bytes"), "lane width"));
    }
    if link.hop_latency == 0 {
        out.push(zero(&format!("{label}.hop_latency"), "hop latency"));
    }
    if let Some(s) = link.slice_bytes {
        let span = Span::Field(format!("{label}.slice_bytes"));
        if s == 0 || s > link.max_capacity() {
            out.push(
                Diagnostic::new(
                    Code::SliceWidth,
                    span,
                    format!(
                        "slice width {s} outside 1..={} (peak per-direction bytes/cycle)",
                        link.max_capacity(),
                    ),
                )
                .with_severity(Severity::Deny)
                .with_help("the greedy allocator packs packets into slices of the link width"),
            );
        } else if !link.min_capacity().is_multiple_of(s) {
            out.push(
                Diagnostic::new(
                    Code::SliceWidth,
                    span,
                    format!(
                        "slice width {s} does not tile the guaranteed capacity \
                         ({} B/cycle); the remainder lane fragment idles every cycle",
                        link.min_capacity(),
                    ),
                )
                .with_severity(Severity::Warn)
                .with_help("pick a slice width dividing the fixed-lane capacity"),
            );
        }
    }
    out
}

/// Lints the ring topology.
pub fn check_noc(noc: &NocConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if noc.subrings == 0 {
        out.push(zero("noc.subrings", "sub-ring count"));
    }
    if noc.cores_per_subring == 0 {
        out.push(zero("noc.cores_per_subring", "cores per sub-ring"));
    }
    if noc.mem_ctrls == 0 {
        out.push(zero("noc.mem_ctrls", "memory-controller count"));
    }
    if noc.junction_latency == 0 {
        out.push(zero("noc.junction_latency", "junction latency"));
    }
    if noc.mem_ctrls > 0 && noc.subrings > 0 && !noc.subrings.is_multiple_of(noc.mem_ctrls) {
        out.push(
            Diagnostic::new(
                Code::CtrlSpacing,
                Span::Field("noc.mem_ctrls".to_string()),
                format!(
                    "{} controllers cannot be spaced evenly among {} sub-rings",
                    noc.mem_ctrls, noc.subrings,
                ),
            )
            .with_help("controllers interleave the main ring at fixed stride"),
        );
    }
    out.extend(check_link("noc.main_link", &noc.main_link));
    out.extend(check_link("noc.sub_link", &noc.sub_link));
    out
}

/// Lints one core's TCG parameters.
pub fn check_tcg(tcg: &TcgConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if tcg.pairs == 0 {
        out.push(zero("tcg.pairs", "thread-pair count"));
    }
    if tcg.resident_threads == 0 {
        out.push(zero("tcg.resident_threads", "resident-thread count"));
    }
    for (path, what, v) in [
        ("tcg.pipeline_depth", "pipeline depth", tcg.pipeline_depth),
        ("tcg.spm_latency", "SPM latency", tcg.spm_latency),
        (
            "tcg.cache_hit_latency",
            "cache hit latency",
            tcg.cache_hit_latency,
        ),
    ] {
        if v == 0 {
            out.push(zero(path, what));
        }
    }
    if tcg.resident_threads > 2 * tcg.pairs {
        out.push(
            Diagnostic::new(
                Code::ThreadsExceedPairs,
                Span::Field("tcg.resident_threads".to_string()),
                format!(
                    "{} resident threads exceed the {} slots of {} pairs",
                    tcg.resident_threads,
                    2 * tcg.pairs,
                    tcg.pairs,
                ),
            )
            .with_help("each pair hosts one running thread plus one friend"),
        );
    }
    out
}

/// Lints a MACT geometry.
pub fn check_mact(mact: &MactConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if mact.lines == 0 {
        out.push(
            Diagnostic::new(
                Code::MactGeometry,
                Span::Field("mact.lines".to_string()),
                "a zero-line table collects nothing".to_string(),
            )
            .with_help("disable collection with `mact: None` instead"),
        );
    }
    if mact.line_bytes == 0 || mact.line_bytes > 64 {
        out.push(Diagnostic::new(
            Code::MactGeometry,
            Span::Field("mact.line_bytes".to_string()),
            format!(
                "line covers {} B but the byte bitmap is a 64-bit vector (1..=64)",
                mact.line_bytes,
            ),
        ));
    } else if !mact.line_bytes.is_power_of_two() {
        out.push(
            Diagnostic::new(
                Code::MactGeometry,
                Span::Field("mact.line_bytes".to_string()),
                format!(
                    "line width {} B is not a power of two; aligned requests will \
                     straddle lines and bypass collection",
                    mact.line_bytes,
                ),
            )
            .with_severity(Severity::Warn),
        );
    }
    if mact.threshold == 0 {
        out.push(
            Diagnostic::new(
                Code::MactGeometry,
                Span::Field("mact.threshold".to_string()),
                "a zero deadline flushes every line the cycle it opens".to_string(),
            )
            .with_help("Fig. 19 sweeps the threshold; 16 cycles is best overall"),
        );
    } else if mact.threshold > mact.line_bytes {
        out.push(
            Diagnostic::new(
                Code::MactThreshold,
                Span::Field("mact.threshold".to_string()),
                format!(
                    "deadline of {} cycles exceeds the {} B line capacity: even \
                     back-to-back single-byte requests fill the bitmap first, so the \
                     extra wait only adds latency",
                    mact.threshold, mact.line_bytes,
                ),
            )
            .with_help("keep the threshold at or below the line's byte count"),
        );
    }
    out
}

/// Lints the shard partition the PDES engine derives from a chip
/// configuration: `total_cores` cores cut into per-sub-ring shards of
/// `noc.cores_per_subring` plus one hub shard, driven by `workers` host
/// threads with the junction latency as lookahead. `host_cpus` pins the
/// host the oversubscription check (SL0450) judges against; `None`
/// detects the current machine.
pub fn check_shard_partition(
    total_cores: usize,
    noc: &NocConfig,
    direct: Option<&DirectPathConfig>,
    workers: usize,
    host_cpus: Option<usize>,
) -> Vec<Diagnostic> {
    // One level of the general hierarchy pass: the chip level is the
    // innermost (and, on today's single-chip fabric, only) level.
    let jl = noc.junction_latency;
    let level = PartitionLevel {
        label: "sub-ring".to_string(),
        units: total_cores,
        per_shard: noc.cores_per_subring,
        shards: noc.subrings + 1,
        lookahead: jl,
        min_boundary_latency: direct.map_or(jl, |d| d.latency.min(jl)),
        workers,
        host_cpus: Some(host_cpus.unwrap_or_else(crate::model::detected_host_cpus)),
    };
    check_partition_hierarchy(&[level])
}

/// Lints a fault plan against the chip geometry it targets (SL0414) and
/// its retransmission budget against the MACT collection deadline
/// (SL0415).
pub fn check_fault_plan(plan: &FaultPlan, cfg: &SmarcoConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let cores = cfg.noc.cores();
    let channels = cfg.dram.channels;
    let subrings = cfg.noc.subrings;
    for (i, f) in plan.faults().iter().enumerate() {
        let bad = match f {
            Fault::CoreDeath { core, .. } if *core >= cores => {
                Some(format!("core {core} outside the chip's 0..{cores}"))
            }
            Fault::DramStall { channel, .. } | Fault::DramChannelDeath { channel, .. }
                if *channel >= channels =>
            {
                Some(format!("DDR channel {channel} outside 0..{channels}"))
            }
            Fault::MactLockup { subring, .. } if *subring >= subrings => {
                Some(format!("sub-ring {subring} outside 0..{subrings}"))
            }
            _ => None,
        };
        if let Some(why) = bad {
            out.push(
                Diagnostic::new(
                    Code::FaultTargetOutOfRange,
                    Span::Plan(format!("fault {i} ({})", f.site().name())),
                    format!("{why}: this fault can never fire"),
                )
                .with_help("target a unit inside the chip geometry or drop the fault"),
            );
        }
    }
    if let Some(mact) = &cfg.mact {
        let worst = plan.retry().worst_case_delay();
        if worst >= mact.threshold {
            out.push(
                Diagnostic::new(
                    Code::RetryExceedsDeadline,
                    Span::Field("fault.retry".to_string()),
                    format!(
                        "worst-case retransmit delay {worst} cycles ({} retries, base \
                         backoff {}) reaches the {}-cycle MACT collection deadline: a \
                         fully-retried request always misses its batching window",
                        plan.retry().max_retries,
                        plan.retry().base_backoff,
                        mact.threshold,
                    ),
                )
                .with_help("shrink max_retries/base_backoff or raise the MACT threshold"),
            );
        }
    }
    out
}

/// Lints a whole-chip configuration (topology, core, MACT, fault plan,
/// and the cross-component agreement invariants).
pub fn check_config(cfg: &SmarcoConfig) -> Vec<Diagnostic> {
    let mut out = check_noc(&cfg.noc);
    out.extend(check_tcg(&cfg.tcg));
    if let Some(mact) = &cfg.mact {
        out.extend(check_mact(mact));
    }
    if cfg.freq_ghz <= 0.0 {
        out.push(zero("freq_ghz", "core clock"));
    }
    if cfg.dram.channels == 0 {
        out.push(zero("dram.channels", "DRAM channel count"));
    }
    if cfg.dram.channels != cfg.noc.mem_ctrls {
        out.push(
            Diagnostic::new(
                Code::DramChannelMismatch,
                Span::Field("dram.channels".to_string()),
                format!(
                    "{} DRAM channels but {} NoC memory controllers",
                    cfg.dram.channels, cfg.noc.mem_ctrls,
                ),
            )
            .with_help("each controller drives exactly one channel"),
        );
    }
    if let Some(direct) = &cfg.direct {
        if direct.subrings != cfg.noc.subrings {
            out.push(
                Diagnostic::new(
                    Code::DirectSpokeMismatch,
                    Span::Field("direct.subrings".to_string()),
                    format!(
                        "{} direct-datapath spokes but {} sub-rings",
                        direct.subrings, cfg.noc.subrings,
                    ),
                )
                .with_help("the direct network runs one spoke per sub-ring"),
            );
        }
    }
    out.extend(check_shard_partition(
        cfg.noc.cores(),
        &cfg.noc,
        cfg.direct.as_ref(),
        cfg.workers,
        None,
    ));
    if let Some(plan) = &cfg.fault {
        out.extend(check_fault_plan(plan, cfg));
    }
    if cfg.cycle_skip {
        if let Some(mact) = &cfg.mact {
            if mact.threshold == 1 {
                out.push(
                    Diagnostic::new(
                        Code::DegenerateHorizon,
                        Span::Field("mact.threshold".to_string()),
                        "a 1-cycle MACT deadline pins every open line's horizon to \
                         the next cycle, so shards with memory traffic can never \
                         fast-forward"
                            .to_string(),
                    )
                    .with_help(
                        "raise the threshold (16 is best overall) or disable \
                         cycle skipping if the sweep needs this point",
                    ),
                );
            }
        }
    }
    if cfg.prof.enabled && cfg.prof.sample_every > ProfConfig::DEGENERATE_SAMPLE_EVERY {
        out.push(
            Diagnostic::new(
                Code::DegenerateProfileSampling,
                Span::Field("prof.sample_every".to_string()),
                format!(
                    "profiling samples window telemetry every {} windows — \
                     short runs close few or no sampled windows, so the \
                     occupancy histogram and barrier-spread percentiles \
                     come back empty while the run still pays the \
                     profiling overhead",
                    cfg.prof.sample_every,
                ),
            )
            .with_help(format!(
                "keep the stride at or below {} (1 samples every window; \
                 the phase buckets are exact at any stride)",
                ProfConfig::DEGENERATE_SAMPLE_EVERY,
            )),
        );
    }
    out
}

/// Lints one scheduler task: a task whose laxity is already negative the
/// cycle it arrives can never meet its deadline.
pub fn check_task(task: &Task) -> Vec<Diagnostic> {
    if task.laxity(task.arrival) < 0 {
        vec![Diagnostic::new(
            Code::InfeasibleTask,
            Span::Field(format!("task {}", task.id)),
            format!(
                "deadline {} is infeasible: arrival {} + work {} already \
                     overshoots it by {} cycles",
                task.deadline,
                task.arrival,
                task.work,
                -task.laxity(task.arrival),
            ),
        )
        .with_help("stretch the deadline or shrink the work estimate")]
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_configs_are_clean() {
        for cfg in [
            SmarcoConfig::smarco(),
            SmarcoConfig::tiny(),
            SmarcoConfig::prototype_40nm(),
        ] {
            let ds = check_config(&cfg);
            assert!(ds.is_empty(), "{ds:?}");
        }
    }

    #[test]
    fn zero_fields_are_denied_with_sl0401() {
        let mut cfg = SmarcoConfig::tiny();
        cfg.noc.cores_per_subring = 0;
        cfg.freq_ghz = 0.0;
        let ds = check_config(&cfg);
        let zeros: Vec<_> = ds.iter().filter(|d| d.code.as_str() == "SL0401").collect();
        assert_eq!(zeros.len(), 2, "{ds:?}");
        assert!(zeros.iter().all(|d| d.severity == Severity::Deny));
    }

    #[test]
    fn too_many_threads_denied_with_sl0402() {
        let mut tcg = TcgConfig::smarco();
        tcg.resident_threads = 9;
        let ds = check_tcg(&tcg);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code.as_str(), "SL0402");
    }

    #[test]
    fn cross_component_mismatches_denied() {
        let mut cfg = SmarcoConfig::tiny();
        cfg.dram.channels = 9;
        cfg.direct.as_mut().unwrap().subrings = 7;
        let ds = check_config(&cfg);
        assert!(ds.iter().any(|d| d.code.as_str() == "SL0403"), "{ds:?}");
        assert!(ds.iter().any(|d| d.code.as_str() == "SL0404"), "{ds:?}");
    }

    #[test]
    fn uneven_controller_spacing_denied_with_sl0405() {
        let mut noc = NocConfig::smarco();
        noc.mem_ctrls = 3; // 16 % 3 != 0
        let ds = check_noc(&noc);
        assert!(ds.iter().any(|d| d.code.as_str() == "SL0405"), "{ds:?}");
    }

    #[test]
    fn slice_width_checked_with_sl0406() {
        let oversized = LinkConfig {
            slice_bytes: Some(64), // > 40 B peak
            ..LinkConfig::main_ring()
        };
        let ds = check_link("noc.main_link", &oversized);
        assert!(ds
            .iter()
            .any(|d| d.code.as_str() == "SL0406" && d.severity == Severity::Deny));
        let ragged = LinkConfig {
            slice_bytes: Some(7), // 24 % 7 != 0
            ..LinkConfig::main_ring()
        };
        let ds = check_link("noc.main_link", &ragged);
        assert!(ds
            .iter()
            .any(|d| d.code.as_str() == "SL0406" && d.severity == Severity::Warn));
    }

    #[test]
    fn mact_geometry_and_threshold_checked() {
        let wide = MactConfig {
            line_bytes: 128,
            ..MactConfig::default()
        };
        assert!(check_mact(&wide)
            .iter()
            .any(|d| d.code.as_str() == "SL0407"));
        let lax = MactConfig {
            threshold: 100, // > 64 B line
            ..MactConfig::default()
        };
        let ds = check_mact(&lax);
        assert!(
            ds.iter()
                .any(|d| d.code.as_str() == "SL0408" && d.severity == Severity::Warn),
            "{ds:?}"
        );
        assert!(check_mact(&MactConfig::default()).is_empty());
    }

    #[test]
    fn short_boundary_path_denied_with_sl0410() {
        let mut cfg = SmarcoConfig::tiny();
        cfg.noc.junction_latency = 20; // > the 8-cycle direct spoke
        let ds = check_config(&cfg);
        assert!(
            ds.iter()
                .any(|d| d.code.as_str() == "SL0410" && d.severity == Severity::Deny),
            "{ds:?}"
        );
        // Without a direct datapath every boundary crosses a junction,
        // so any positive lookahead is safe.
        cfg.direct = None;
        assert!(check_config(&cfg).is_empty());
    }

    #[test]
    fn ragged_core_partition_denied_with_sl0411() {
        let noc = NocConfig::tiny();
        let ds = check_shard_partition(noc.cores() + 1, &noc, None, 1, None);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code.as_str(), "SL0411");
        assert_eq!(ds[0].severity, Severity::Deny);
    }

    #[test]
    fn worker_count_sanity_with_sl0412() {
        let mut cfg = SmarcoConfig::tiny();
        cfg.workers = 16; // tiny has 4 sub-rings + hub = 5 shards
        let ds = check_config(&cfg);
        assert!(
            ds.iter()
                .any(|d| d.code.as_str() == "SL0412" && d.severity == Severity::Warn),
            "{ds:?}"
        );
        // The clean case pins an 8-CPU host so it holds on any machine
        // (check_config auto-detects and would add SL0450 on small hosts).
        let ds = check_shard_partition(cfg.noc.cores(), &cfg.noc, cfg.direct.as_ref(), 5, Some(8));
        assert!(ds.is_empty(), "{ds:?}");
        cfg.workers = 0;
        let ds = check_config(&cfg);
        assert!(ds.iter().any(|d| d.code.as_str() == "SL0401"), "{ds:?}");
    }

    #[test]
    fn oversubscribed_workers_warn_with_sl0450() {
        let cfg = SmarcoConfig::tiny();
        // 5 workers fill the tiny chip's 5 shards, but the pinned host
        // has only 2 CPUs.
        let ds = check_shard_partition(cfg.noc.cores(), &cfg.noc, cfg.direct.as_ref(), 5, Some(2));
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code.as_str(), "SL0450");
        assert_eq!(ds[0].severity, Severity::Warn);
        // Every shipped config runs a single worker, which no host can
        // oversubscribe — the ci lint sweep stays clean everywhere.
        let ds = check_shard_partition(cfg.noc.cores(), &cfg.noc, cfg.direct.as_ref(), 1, Some(1));
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn degenerate_horizon_warns_with_sl0413() {
        let mut cfg = SmarcoConfig::tiny();
        cfg.mact.as_mut().unwrap().threshold = 1;
        let ds = check_config(&cfg);
        assert!(
            ds.iter()
                .any(|d| d.code.as_str() == "SL0413" && d.severity == Severity::Warn),
            "{ds:?}"
        );
        // With skipping off the horizon quality is irrelevant.
        cfg.cycle_skip = false;
        assert!(check_config(&cfg).is_empty());
    }

    #[test]
    fn degenerate_profile_sampling_warns_with_sl0416() {
        let mut cfg = SmarcoConfig::tiny();
        cfg.prof = ProfConfig::on();
        cfg.prof.sample_every = ProfConfig::DEGENERATE_SAMPLE_EVERY + 1;
        let ds = check_config(&cfg);
        assert!(
            ds.iter()
                .any(|d| d.code.as_str() == "SL0416" && d.severity == Severity::Warn),
            "{ds:?}"
        );
        // At the boundary the stride is still considered usable.
        cfg.prof.sample_every = ProfConfig::DEGENERATE_SAMPLE_EVERY;
        assert!(check_config(&cfg).is_empty());
        // A sparse stride on *disabled* profiling is inert.
        cfg.prof = ProfConfig::off();
        cfg.prof.sample_every = u64::MAX;
        assert!(check_config(&cfg).is_empty());
    }

    #[test]
    fn fault_targets_outside_geometry_denied_with_sl0414() {
        use smarco_core::fault::Fault;
        let mut cfg = SmarcoConfig::tiny();
        let cores = cfg.noc.cores();
        cfg.fault = Some(
            FaultPlan::new(7)
                .with_fault(Fault::CoreDeath {
                    core: cores,
                    at: 100,
                })
                .with_fault(Fault::DramChannelDeath {
                    channel: cfg.dram.channels,
                    at: 100,
                })
                .with_fault(Fault::MactLockup {
                    subring: cfg.noc.subrings,
                    at: 100,
                    cycles: 10,
                }),
        );
        let ds = check_config(&cfg);
        let bad: Vec<_> = ds.iter().filter(|d| d.code.as_str() == "SL0414").collect();
        assert_eq!(bad.len(), 3, "{ds:?}");
        assert!(bad.iter().all(|d| d.severity == Severity::Deny));
        // In-range targets (and the chaos generator, which only draws
        // in-range ones) are clean.
        cfg.fault = Some(FaultPlan::chaos(7, &cfg));
        assert!(check_config(&cfg).is_empty());
    }

    #[test]
    fn retry_budget_past_mact_deadline_warns_with_sl0415() {
        use smarco_core::fault::RetryPolicy;
        let mut cfg = SmarcoConfig::tiny();
        // 4 retries from 4 cycles: 4 + 8 + 16 + 32 = 60 >= the 16-cycle
        // collection deadline.
        cfg.fault = Some(FaultPlan::new(1).with_retry(RetryPolicy {
            max_retries: 4,
            base_backoff: 4,
        }));
        let ds = check_config(&cfg);
        assert!(
            ds.iter()
                .any(|d| d.code.as_str() == "SL0415" && d.severity == Severity::Warn),
            "{ds:?}"
        );
        // The default budget (14 cycles) fits the default 16-cycle window.
        cfg.fault = Some(FaultPlan::new(1));
        assert!(check_config(&cfg).is_empty());
        // No MACT, no deadline to blow.
        cfg.fault = Some(FaultPlan::new(1).with_retry(RetryPolicy {
            max_retries: 9,
            base_backoff: 64,
        }));
        cfg.mact = None;
        assert!(check_config(&cfg)
            .iter()
            .all(|d| d.code.as_str() != "SL0415"));
    }

    #[test]
    fn infeasible_task_warns_with_sl0409() {
        let late = Task::new(1, 100, 150, 100); // needs 100, has 50
        let ds = check_task(&late);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code.as_str(), "SL0409");
        assert_eq!(ds[0].severity, Severity::Warn);
        assert!(check_task(&Task::new(2, 100, 300, 100)).is_empty());
    }
}

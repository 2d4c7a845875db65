//! Shape tests: every table, figure and ablation of the paper's
//! evaluation, regenerated at quick scale, must give each of its claims
//! (`smarco_bench::paper`, defined next to each figure) its recorded
//! status, a match or a recorded deviation. EXPERIMENTS.md must also
//! quote the run's output verbatim, so the doc cannot drift from the
//! model: after a change that moves a number, paste `paper <id>`'s stdout
//! into the block that starts with `$ paper <id>`.

use smarco_bench::paper;
use smarco_bench::Scale;

const EXPERIMENTS_MD: &str = include_str!("../EXPERIMENTS.md");

/// Trailing whitespace per line and trailing blank lines aside.
fn normalized(text: &str) -> String {
    let lines: Vec<&str> = text.lines().map(str::trim_end).collect();
    lines.join("\n").trim_end().to_string()
}

/// The fenced block of EXPERIMENTS.md that starts with `command`.
fn quoted_block(command: &str) -> Option<String> {
    let mut lines = EXPERIMENTS_MD.lines().skip_while(|l| *l != command);
    lines.next()?;
    let block: Vec<&str> = lines.take_while(|l| !l.starts_with("```")).collect();
    Some(normalized(&block.join("\n")))
}

/// Runs experiment `id`, checks every claim's status against its record
/// and the run's output against EXPERIMENTS.md's block for it.
fn check(id: &str, scale: Scale) {
    let outcome = (paper::find(id).expect("registered experiment").run)(scale, 1);
    let printed = outcome.text;
    assert!(
        outcome.as_recorded,
        "a claim of `{id}` no longer has its recorded status:\n{printed}"
    );
    let command = match scale {
        Scale::Quick => format!("$ paper {id}"),
        Scale::Paper => format!("$ paper {id} --scale paper"),
    };
    let quoted =
        quoted_block(&command).unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{command}` block"));
    assert_eq!(
        quoted,
        normalized(&printed),
        "EXPERIMENTS.md's `{command}` block differs from the run's output"
    );
}

/// One test per experiment at quick scale, under the names the shape
/// tests have always had.
macro_rules! shape_tests {
    ($($name:ident => $id:literal,)*) => {$(
        #[test]
        fn $name() {
            check($id, Scale::Quick);
        }
    )*};
}

shape_tests! {
    table1_matches_paper_totals => "table1",
    table2_lists_both_machines => "table2",
    fig01_starvation_rises_and_caches_miss => "fig01",
    fig02_cdn_is_nic_bound_and_cache_hostile => "fig02",
    fig08_htc_granularity_is_finer_than_conventional => "fig08",
    fig17_ipc_scales_linearly_to_four_then_slowly => "fig17",
    fig18_slicing_helps_most_where_packets_are_smallest => "fig18",
    fig19_threshold_sweet_spot_is_interior => "fig19",
    fig20_mact_wins_where_requests_are_small_and_dense => "fig20",
    fig21_laxity_scheduler_tightens_exits_and_meets_deadlines => "fig21",
    fig22_smarco_beats_xeon_on_performance_and_efficiency => "fig22",
    fig23_xeon_peaks_then_declines_and_smarco_crosses => "fig23",
    fig26_prototype_is_efficient_but_less_than_full_chip => "fig26",
    ablation_ring_is_more_predictable_than_mesh => "ablation_mesh_vs_ring",
    ablation_inpair_always_helps_memory_bound_threads => "ablation_inpair",
    ablation_pim_offload_wins_on_streaming_matches => "ablation_pim_matching",
    ablation_spm_staging_pays_for_most_benchmarks => "ablation_spm_staging",
}

/// The three figures EXPERIMENTS.md quotes at paper scale. About 2 min in
/// a release build, so it runs only on request (`scripts/ci.sh` does).
#[test]
#[ignore = "paper scale: run with --release -- --ignored"]
fn paper_scale_blocks_match_figs_22_23_26() {
    for id in ["fig22", "fig23", "fig26"] {
        check(id, Scale::Paper);
    }
}

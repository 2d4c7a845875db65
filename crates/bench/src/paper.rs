//! The paper's evaluation as one registry of experiments and claims.
//!
//! Each of the 17 [`EXPERIMENTS`] runs one table, figure or ablation,
//! prints its table exactly as the figure's `Display` does, and checks
//! the figure's `CLAIMS` against the run. A [`Claim`] pairs the paper's
//! statement with a predicate over the figure's data and a recorded
//! [`Status`] per scale. The `paper` binary exits non-zero when a claim
//! evaluates to anything other than its recorded status, so a model change
//! that fixes (or breaks) a result has to flip the record in the same
//! change. `tests/paper_shapes.rs` runs the same experiments and checks
//! that EXPERIMENTS.md quotes their output verbatim.

use std::fmt::{Display, Write as _};

use crate::figures::{
    ablations, fig01, fig02, fig08, fig17, fig18, fig19, fig20, fig21, fig22, fig23, fig26, table1,
    table2,
};
use crate::Scale;

/// A claim's recorded standing against the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The model reproduces the statement.
    Match,
    /// The model departs from the statement, for the given reason.
    Deviation(&'static str),
}

/// One statement of the paper about a figure, checked against a run.
pub struct Claim<T: ?Sized> {
    /// What the paper states (or the shape the reproduction commits to).
    pub statement: &'static str,
    /// Recorded status at quick scale.
    pub quick: Status,
    /// Recorded status at paper scale.
    pub paper: Status,
    /// The predicate: `Err` names the measured values that break it.
    pub check: fn(&T) -> Result<(), String>,
}

impl<T: ?Sized> Claim<T> {
    /// A claim recorded as a match at both scales.
    pub const fn new(statement: &'static str, check: fn(&T) -> Result<(), String>) -> Self {
        Self {
            statement,
            quick: Status::Match,
            paper: Status::Match,
            check,
        }
    }

    /// Records a deviation, for the given reason, at both scales.
    pub const fn deviates(self, why: &'static str) -> Self {
        self.deviates_at_quick(why).deviates_at_paper(why)
    }

    /// Records a deviation, for the given reason, at quick scale.
    pub const fn deviates_at_quick(mut self, why: &'static str) -> Self {
        self.quick = Status::Deviation(why);
        self
    }

    /// Records a deviation, for the given reason, at paper scale.
    pub const fn deviates_at_paper(mut self, why: &'static str) -> Self {
        self.paper = Status::Deviation(why);
        self
    }
}

/// One experiment's run, as `paper` prints it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The table, a blank line, then one entry per claim.
    pub text: String,
    /// Whether every claim evaluated to its recorded status.
    pub as_recorded: bool,
}

impl Outcome {
    /// Evaluates `claims` on `data`, whose table is `table`.
    pub fn new<T: ?Sized>(scale: Scale, table: &str, data: &T, claims: &[Claim<T>]) -> Self {
        let mut text = format!(
            "{}\n\nclaims at {} scale:\n",
            table.trim_end_matches('\n'),
            scale.name()
        );
        let mut as_recorded = true;
        for c in claims {
            let recorded = match scale {
                Scale::Quick => c.quick,
                Scale::Paper => c.paper,
            };
            let failure = (c.check)(data).err();
            let (holds, expected) = (failure.is_none(), recorded == Status::Match);
            as_recorded &= holds == expected;
            let label = match (holds, expected) {
                (true, true) => "match",
                (false, false) => "deviation",
                (false, true) => "FAILED",
                (true, false) => "HOLDS NOW",
            };
            let _ = writeln!(text, "  {label:<10} {}", c.statement);
            if let Some(measured) = failure {
                let _ = writeln!(text, "             measured: {measured}");
            }
            if let Status::Deviation(why) = recorded {
                let _ = writeln!(text, "             reason: {why}");
            }
        }
        Self { text, as_recorded }
    }
}

/// One registered experiment.
pub struct Experiment {
    /// The id `paper <id>` selects it by.
    pub id: &'static str,
    /// Runs it at a scale with the given PDES worker count (only Figs.
    /// 22, 23 and 26 use the workers; results are bit-identical for any).
    pub run: fn(Scale, usize) -> Outcome,
}

impl Experiment {
    const fn new(id: &'static str, run: fn(Scale, usize) -> Outcome) -> Self {
        Self { id, run }
    }
}

/// Evaluates a figure whose table is its `Display` output.
fn shown<T: Display>(scale: Scale, fig: &T, claims: &[Claim<T>]) -> Outcome {
    Outcome::new(scale, &fig.to_string(), fig, claims)
}

/// Every experiment, in the order `paper` runs them.
pub const EXPERIMENTS: [Experiment; 17] = [
    Experiment::new("table1", |s, _| shown(s, &table1::run(s), table1::CLAIMS)),
    Experiment::new("table2", |s, _| shown(s, &table2::run(s), table2::CLAIMS)),
    Experiment::new("fig01", |s, _| shown(s, &fig01::run(s), fig01::CLAIMS)),
    Experiment::new("fig02", |s, _| shown(s, &fig02::run(s), fig02::CLAIMS)),
    Experiment::new("fig08", |s, _| shown(s, &fig08::run(s), fig08::CLAIMS)),
    Experiment::new("fig17", |s, _| shown(s, &fig17::run(s), fig17::CLAIMS)),
    Experiment::new("fig18", |s, _| shown(s, &fig18::run(s), fig18::CLAIMS)),
    Experiment::new("fig19", |s, _| shown(s, &fig19::run(s), fig19::CLAIMS)),
    Experiment::new("fig20", |s, _| shown(s, &fig20::run(s), fig20::CLAIMS)),
    Experiment::new("fig21", |s, _| shown(s, &fig21::run(s), fig21::CLAIMS)),
    Experiment::new("fig22", |s, w| {
        shown(s, &fig22::run_with(s, w), fig22::CLAIMS)
    }),
    Experiment::new("fig23", |s, w| {
        shown(s, &fig23::run_with(s, w), fig23::CLAIMS)
    }),
    // The prototype is judged against the full design at the same scale,
    // so Fig. 22 runs too; only Fig. 26's table is printed.
    Experiment::new("fig26", |s, w| {
        let runs = (fig26::run(s), fig22::run_with(s, w));
        Outcome::new(s, &runs.0.to_string(), &runs, fig26::CLAIMS)
    }),
    Experiment::new("ablation_mesh_vs_ring", |s, _| {
        shown(s, &ablations::mesh_vs_ring(s), ablations::RING_CLAIMS)
    }),
    Experiment::new("ablation_inpair", |s, _| {
        let rows = ablations::inpair_ablation(s);
        let table = ablations::format_inpair(&rows);
        Outcome::new(s, &table, &rows[..], ablations::INPAIR_CLAIMS)
    }),
    Experiment::new("ablation_pim_matching", |s, _| {
        shown(s, &ablations::pim_matching(s), ablations::PIM_CLAIMS)
    }),
    Experiment::new("ablation_spm_staging", |s, _| {
        let rows = ablations::staging_ablation(s);
        let table = ablations::format_staging(&rows);
        Outcome::new(s, &table, &rows[..], ablations::STAGING_CLAIMS)
    }),
];

/// The experiment registered under `id`.
///
/// # Errors
///
/// Returns a message listing the known ids when `id` is not one of them.
pub fn find(id: &str) -> Result<&'static Experiment, String> {
    EXPERIMENTS.iter().find(|e| e.id == id).ok_or_else(|| {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        format!("unknown experiment `{id}` (known: {})", ids.join(", "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_each_experiment_once_and_rejects_unknown_ids() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        let expected = "table1 table2 fig01 fig02 fig08 fig17 fig18 fig19 fig20 fig21 fig22 \
                        fig23 fig26 ablation_mesh_vs_ring ablation_inpair \
                        ablation_pim_matching ablation_spm_staging";
        assert_eq!(ids.join(" "), expected);
        assert!(ids.iter().all(|&id| find(id).is_ok_and(|e| e.id == id)));
        let err = find("fig99").map(|e| e.id).unwrap_err();
        assert!(err.contains("fig99") && err.contains("fig20"), "{err}");
    }

    #[test]
    fn a_claim_off_its_record_fails_the_outcome() {
        let odd = |n: &u32| {
            ensure!(n % 2 == 1, "{n} is even");
            Ok(())
        };
        let claims = [
            Claim::new("odd", odd),
            Claim::new("odd", odd).deviates("even"),
        ];
        let out = Outcome::new(Scale::Quick, "T", &2, &claims);
        assert!(!out.as_recorded);
        assert!(out
            .text
            .contains("FAILED     odd\n             measured: 2 is even"));
        let out = Outcome::new(Scale::Quick, "T", &3, &claims);
        assert!(!out.as_recorded);
        assert!(out
            .text
            .contains("HOLDS NOW  odd\n             reason: even"));
    }
}

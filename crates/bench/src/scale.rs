//! Experiment scale selection.

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Seconds-scale runs: small chip configurations and short streams.
    /// Used by tests and CI; preserves every qualitative shape.
    #[default]
    Quick,
    /// Fuller configurations closer to the paper's setup (full 256-core
    /// chip where feasible). Minutes-scale.
    Paper,
}

impl Scale {
    /// The name `--scale` takes: `"quick"` or `"paper"`.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    /// Multiplies a quick-scale quantity up for paper scale.
    pub fn scaled(&self, quick: u64, paper: u64) -> u64 {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_picks_by_variant() {
        assert_eq!(Scale::Quick.scaled(10, 100), 10);
        assert_eq!(Scale::Paper.scaled(10, 100), 100);
        assert_eq!(Scale::default(), Scale::Quick);
        assert_eq!(Scale::Paper.name(), "paper");
    }
}

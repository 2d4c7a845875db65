//! One flag parser for every bench binary.
//!
//! The bench binaries used to hand-roll the same `std::env::args()`
//! window-scanning, each with slightly different fallback rules.
//! [`BenchArgs`] is the union of their flags with one set of rules,
//! parsed once:
//!
//! * value flags keep the legacy *lenient value* semantics — an
//!   unparsable `--parallel zero` falls back to the default instead of
//!   erroring, so scripted invocations keep working byte for byte;
//! * unknown `--flags`, and a flag missing its value, are an error (exit
//!   2 via [`crate::harness::or_exit`], the bench crate's one error
//!   surface);
//! * one bare (non-`--`) token is accepted: `inspect <out-dir>` takes it
//!   as the output directory and `paper <id>` as the experiment id.
//!
//! Each binary reads the subset of fields it documents.

use crate::Scale;

/// Parsed bench-binary arguments: the union of every binary's flags,
/// with per-binary defaults where the old scanners had them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--scale quick|paper` (any other value falls back to quick).
    pub scale: Scale,
    /// `--parallel N`: PDES workers; zero/garbage falls back to 1.
    pub parallel: usize,
    /// `--faults <seed>`: chaos-plan seed; unparsable means absent.
    pub faults: Option<u64>,
    /// `--backend <name>`: restrict a sweep to one NoC backend.
    pub backend: Option<String>,
    /// `--json <path>`: machine-readable report destination.
    pub json: Option<String>,
    /// `--deny-warnings`: treat warn findings as fatal (lint).
    pub deny_warnings: bool,
    /// `--corpus`: run the negative-config corpus (lint).
    pub corpus: bool,
    /// `--explain SLxxxx`: print a diagnostic code's rationale (lint).
    pub explain: Option<String>,
    /// `--smoke`: CI smoke mode — tiny run, assert liveness, exit 0.
    pub smoke: bool,
    /// `--chips N`: cluster size for the rack bench; zero/garbage
    /// falls back to 4.
    pub chips: usize,
    /// `--ops N`: instructions per thread (lint/inspect workloads).
    pub ops: u64,
    /// `--threads N`: threads per core (lint/inspect workloads).
    pub threads: usize,
    /// `--window N`: metrics sampling window in cycles (inspect).
    pub window: u64,
    /// One bare token: the output directory of `inspect target/out`,
    /// or the experiment id of `paper fig20`.
    pub out: Option<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            scale: Scale::Quick,
            parallel: 1,
            faults: None,
            backend: None,
            json: None,
            deny_warnings: false,
            corpus: false,
            explain: None,
            smoke: false,
            chips: 4,
            ops: 600,
            threads: 8,
            window: 10_000,
            out: None,
        }
    }
}

impl BenchArgs {
    /// Parses the process arguments, exiting with code 2 (through
    /// [`crate::harness::or_exit`]) on an unknown flag or a flag missing
    /// its value.
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        crate::harness::or_exit(Self::parse_from(&argv))
    }

    /// The testable core of [`BenchArgs::parse`]: strict about unknown
    /// flags, lenient about unparsable values (legacy fallback rules).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown flag, or the flag left
    /// without its value.
    pub fn parse_from(argv: &[String]) -> Result<Self, String> {
        let mut out = Self::default();
        let mut i = 0;
        macro_rules! value {
            ($flag:expr) => {
                argv.get(i + 1)
                    .ok_or_else(|| format!("{} needs a value", $flag))?
            };
        }
        while i < argv.len() {
            match argv[i].as_str() {
                "--scale" => {
                    out.scale = match value!("--scale").as_str() {
                        "paper" => Scale::Paper,
                        _ => Scale::Quick,
                    };
                    i += 2;
                }
                "--parallel" => {
                    out.parallel = value!("--parallel")
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .unwrap_or(1);
                    i += 2;
                }
                "--faults" => {
                    out.faults = value!("--faults").parse().ok();
                    i += 2;
                }
                "--backend" => {
                    out.backend = Some(value!("--backend").clone());
                    i += 2;
                }
                "--json" => {
                    out.json = Some(value!("--json").clone());
                    i += 2;
                }
                "--explain" => {
                    out.explain = Some(value!("--explain").clone());
                    i += 2;
                }
                "--chips" => {
                    out.chips = value!("--chips")
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .unwrap_or(out.chips);
                    i += 2;
                }
                "--ops" => {
                    out.ops = value!("--ops").parse().ok().unwrap_or(out.ops);
                    i += 2;
                }
                "--threads" => {
                    out.threads = value!("--threads").parse().ok().unwrap_or(out.threads);
                    i += 2;
                }
                "--window" => {
                    out.window = value!("--window").parse().ok().unwrap_or(out.window);
                    i += 2;
                }
                "--deny-warnings" => {
                    out.deny_warnings = true;
                    i += 1;
                }
                "--corpus" => {
                    out.corpus = true;
                    i += 1;
                }
                "--smoke" => {
                    out.smoke = true;
                    i += 1;
                }
                bare if !bare.starts_with("--") => {
                    out.out = Some(bare.to_string());
                    i += 1;
                }
                other => {
                    return Err(format!(
                        "unknown argument `{other}` (see the binary's \
                         doc comment for its flags)"
                    ));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn defaults_match_the_old_per_binary_scanners() {
        let a = BenchArgs::parse_from(&argv(&[])).unwrap();
        assert_eq!(a, BenchArgs::default());
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.parallel, 1);
        assert_eq!(a.chips, 4);
        assert_eq!(a.ops, 600);
        assert_eq!(a.threads, 8);
        assert_eq!(a.window, 10_000);
    }

    #[test]
    fn the_union_of_flags_parses_in_any_order() {
        let a = BenchArgs::parse_from(&argv(&[
            "--parallel",
            "4",
            "--scale",
            "paper",
            "--faults",
            "42",
            "--backend",
            "mesh",
            "--json",
            "out.json",
            "--deny-warnings",
            "--corpus",
            "--smoke",
            "--chips",
            "8",
            "--ops",
            "100",
            "--threads",
            "2",
            "--window",
            "5000",
        ]))
        .unwrap();
        assert_eq!(a.parallel, 4);
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.faults, Some(42));
        assert_eq!(a.backend.as_deref(), Some("mesh"));
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert!(a.deny_warnings && a.corpus && a.smoke);
        assert_eq!(a.chips, 8);
        assert_eq!(a.ops, 100);
        assert_eq!(a.threads, 2);
        assert_eq!(a.window, 5_000);
    }

    #[test]
    fn legacy_value_fallbacks_survive_the_consolidation() {
        // Exactly the old scanners' behavior: garbage values fall back,
        // they do not error.
        let a = BenchArgs::parse_from(&argv(&[
            "--parallel",
            "zero",
            "--faults",
            "nope",
            "--scale",
            "huge",
            "--chips",
            "0",
        ]))
        .unwrap();
        assert_eq!(a.parallel, 1);
        assert_eq!(a.faults, None);
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.chips, 4);
        // Zero workers falls back to sequential too.
        let b = BenchArgs::parse_from(&argv(&["--parallel", "0"])).unwrap();
        assert_eq!(b.parallel, 1);
    }

    #[test]
    fn strict_mode_rejects_unknown_flags_and_dangling_values() {
        assert!(BenchArgs::parse_from(&argv(&["--bogus"])).is_err());
        assert!(BenchArgs::parse_from(&argv(&["--json"])).is_err());
        let e = BenchArgs::parse_from(&argv(&["--explai", "SL0420"])).unwrap_err();
        assert!(e.contains("--explai"), "{e}");
    }

    #[test]
    fn a_bare_token_is_the_output_path() {
        let a = BenchArgs::parse_from(&argv(&["target/inspect", "--window", "100"])).unwrap();
        assert_eq!(a.out.as_deref(), Some("target/inspect"));
        assert_eq!(a.window, 100);
    }

    #[test]
    fn explain_carries_its_value() {
        let a = BenchArgs::parse_from(&argv(&["--explain", "SL0460"])).unwrap();
        assert_eq!(a.explain.as_deref(), Some("SL0460"));
    }
}

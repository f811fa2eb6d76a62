//! The property runner: seeded cases, greedy shrinking, replayable
//! failures.
//!
//! Every case `i` of a run draws its input from a *case seed* derived
//! from `(base seed, i)`. When a property fails, the engine greedily
//! shrinks the counterexample along its [`Shrink`] tree
//! and reports the case seed; re-running with `CAFC_CHECK_SEED=<seed>`
//! regenerates the identical input and replays the identical shrink
//! path, byte for byte.
//!
//! Environment variables:
//! * `CAFC_CHECK_SEED` — replay exactly one case with this case seed.
//! * `CAFC_CHECK_BASE_SEED` — override the base seed for full runs (the
//!   CI randomized leg sets this and prints it in the log).
//! * `CAFC_CHECK_CASES` — override the number of cases per property.
//!
//! All three accept decimal or `0x`-prefixed hex.

use crate::gen::{Gen, Shrink};
use crate::rng::Seed;
use std::fmt;

/// Runner configuration. `#[non_exhaustive]` — construct with
/// [`CheckConfig::new`] (which honours the `CAFC_CHECK_*` environment)
/// and chain `with_*` setters.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CheckConfig {
    /// Cases per property (default 64, or `CAFC_CHECK_CASES`).
    pub cases: u32,
    /// Base seed for deriving case seeds (default `0xCAFC`, or
    /// `CAFC_CHECK_BASE_SEED`).
    pub seed: u64,
    /// Shrink-candidate budget per failure (default 4096).
    pub max_shrink_steps: u32,
    /// Replay exactly this case seed instead of running `cases` cases
    /// (default `CAFC_CHECK_SEED` when set).
    pub replay: Option<u64>,
}

fn parse_seed(var: &str, raw: &str) -> u64 {
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(v) => v,
        // A mistyped replay seed silently running 64 unrelated cases
        // would defeat the whole replay contract — fail loudly instead.
        Err(_) => panic!("cafc-check: {var}={raw:?} is not a u64 (decimal or 0x-hex)"),
    }
}

impl CheckConfig {
    /// The default configuration, with `CAFC_CHECK_SEED`,
    /// `CAFC_CHECK_BASE_SEED` and `CAFC_CHECK_CASES` applied.
    pub fn new() -> CheckConfig {
        let seed = match std::env::var("CAFC_CHECK_BASE_SEED") {
            Ok(raw) => parse_seed("CAFC_CHECK_BASE_SEED", &raw),
            Err(_) => 0xCAFC,
        };
        let cases = match std::env::var("CAFC_CHECK_CASES") {
            Ok(raw) => parse_seed("CAFC_CHECK_CASES", &raw) as u32,
            Err(_) => 64,
        };
        let replay = std::env::var("CAFC_CHECK_SEED")
            .ok()
            .map(|raw| parse_seed("CAFC_CHECK_SEED", &raw));
        CheckConfig {
            cases,
            seed,
            max_shrink_steps: 4096,
            replay,
        }
    }

    /// Set the number of cases.
    pub fn with_cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Set the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the shrink-candidate budget.
    pub fn with_max_shrink_steps(mut self, steps: u32) -> Self {
        self.max_shrink_steps = steps;
        self
    }

    /// Set (or clear) the replay case seed.
    pub fn with_replay(mut self, replay: Option<u64>) -> Self {
        self.replay = replay;
        self
    }

    /// The case seed for case index `i` under this base seed.
    pub fn case_seed(&self, i: u32) -> u64 {
        Seed::new(self.seed).derive(u64::from(i)).value()
    }
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig::new()
    }
}

/// A property failure: the minimal counterexample plus everything needed
/// to reproduce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Property name (as passed to [`check_result`]).
    pub name: String,
    /// The case seed that produced the counterexample — feed it back via
    /// `CAFC_CHECK_SEED` to replay.
    pub case_seed: u64,
    /// Case index within the run (`None` for a replay run).
    pub case_index: Option<u32>,
    /// `Debug` rendering of the originally generated counterexample.
    pub original: String,
    /// `Debug` rendering of the minimal counterexample after shrinking.
    pub minimal: String,
    /// The property's error for the minimal counterexample.
    pub error: String,
    /// Shrink candidates evaluated.
    pub shrink_steps: u32,
    /// Shrink candidates accepted (still-failing simplifications).
    pub shrink_accepted: u32,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "property '{}' failed", self.name)?;
        if let Some(i) = self.case_index {
            writeln!(f, "  case: {i}")?;
        }
        writeln!(
            f,
            "  minimal counterexample ({} shrinks, {} candidates tried):",
            self.shrink_accepted, self.shrink_steps
        )?;
        writeln!(f, "    {}", self.minimal)?;
        if self.minimal != self.original {
            writeln!(f, "  originally:")?;
            writeln!(f, "    {}", self.original)?;
        }
        writeln!(f, "  error: {}", self.error)?;
        write!(
            f,
            "  replay: CAFC_CHECK_SEED={:#x} (or {})",
            self.case_seed, self.case_seed
        )
    }
}

/// The result a property body returns: `Ok(())` to pass, `Err(message)`
/// to fail. Build failures ergonomically with [`crate::require!`] and
/// [`crate::require_eq!`].
pub type CaseResult = Result<(), String>;

/// Run `prop` against `config.cases` generated inputs (or replay one
/// seed), returning the first [`Failure`] after shrinking, or the number
/// of cases that passed.
pub fn check_result<T, F>(
    name: &str,
    config: &CheckConfig,
    gen: &Gen<T>,
    prop: F,
) -> Result<u32, Box<Failure>>
where
    T: fmt::Debug + Clone + 'static,
    F: Fn(&T) -> CaseResult,
{
    if let Some(case_seed) = config.replay {
        run_case(name, config, gen, &prop, case_seed, None)?;
        return Ok(1);
    }
    for i in 0..config.cases {
        run_case(name, config, gen, &prop, config.case_seed(i), Some(i))?;
    }
    Ok(config.cases)
}

/// Run a property and panic with the full [`Failure`] report when it
/// fails — the usual entry point for tests (see the [`crate::check!`]
/// macro).
pub fn check_named<T, F>(name: &str, config: &CheckConfig, gen: &Gen<T>, prop: F)
where
    T: fmt::Debug + Clone + 'static,
    F: Fn(&T) -> CaseResult,
{
    if let Err(failure) = check_result(name, config, gen, prop) {
        panic!("{failure}");
    }
}

fn run_case<T, F>(
    name: &str,
    config: &CheckConfig,
    gen: &Gen<T>,
    prop: &F,
    case_seed: u64,
    case_index: Option<u32>,
) -> Result<(), Box<Failure>>
where
    T: fmt::Debug + Clone + 'static,
    F: Fn(&T) -> CaseResult,
{
    let mut rng = Seed::new(case_seed).rng();
    let tree = gen.sample(&mut rng);
    let Err(first_error) = prop(tree.value()) else {
        return Ok(());
    };
    let original = format!("{:?}", tree.value());
    let (minimal, error, steps, accepted) =
        shrink_greedy(tree, prop, config.max_shrink_steps, first_error);
    Err(Box::new(Failure {
        name: name.to_owned(),
        case_seed,
        case_index,
        original,
        minimal: format!("{minimal:?}"),
        error,
        shrink_steps: steps,
        shrink_accepted: accepted,
    }))
}

/// Greedy descent: at each node, move to the first child that still
/// fails; stop when no child fails or the candidate budget is spent.
/// Deterministic — candidate order is fixed by the tree and the property
/// is pure, so a replayed seed shrinks along the identical path.
fn shrink_greedy<T, F>(
    tree: Shrink<T>,
    prop: &F,
    max_steps: u32,
    first_error: String,
) -> (T, String, u32, u32)
where
    T: Clone + 'static,
    F: Fn(&T) -> CaseResult,
{
    let mut cur = tree;
    let mut err = first_error;
    let mut steps = 0u32;
    let mut accepted = 0u32;
    'outer: loop {
        for child in cur.children() {
            if steps >= max_steps {
                break 'outer;
            }
            steps += 1;
            if let Err(e) = prop(child.value()) {
                cur = child;
                err = e;
                accepted += 1;
                continue 'outer;
            }
        }
        break;
    }
    (cur.value().clone(), err, steps, accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{i64s, vecs};

    fn quiet() -> CheckConfig {
        // Env-independent config so `cargo test` with CAFC_CHECK_* set
        // doesn't perturb the engine's own tests.
        CheckConfig::new()
            .with_seed(0xCAFC)
            .with_cases(64)
            .with_replay(None)
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let ran = check_result("bounds", &quiet(), &i64s(0, 9), |&v| {
            if (0..=9).contains(&v) {
                Ok(())
            } else {
                Err(format!("{v} out of range"))
            }
        })
        .expect("property holds");
        assert_eq!(ran, 64);
    }

    #[test]
    fn failing_property_reports_a_replayable_seed() {
        let gen = vecs(&i64s(0, 100), 0, 10);
        let prop = |v: &Vec<i64>| {
            if v.iter().all(|&x| x < 50) {
                Ok(())
            } else {
                Err("element >= 50".to_owned())
            }
        };
        let failure =
            check_result("no-big-elements", &quiet(), &gen, prop).expect_err("property must fail");
        // Replaying the reported seed must reproduce the identical
        // minimal counterexample.
        let replay_cfg = quiet().with_replay(Some(failure.case_seed));
        let replayed = check_result("no-big-elements", &replay_cfg, &gen, prop)
            .expect_err("replay must fail too");
        assert_eq!(replayed.minimal, failure.minimal);
        assert_eq!(replayed.original, failure.original);
        assert_eq!(replayed.error, failure.error);
        assert_eq!(replayed.case_index, None);
        // And the minimal witness is minimal: exactly one element, 50.
        assert_eq!(failure.minimal, "[50]");
    }

    #[test]
    fn failure_display_contains_the_seed_recipe() {
        let failure = check_result("always-fails", &quiet(), &i64s(0, 9), |_| {
            Err("nope".to_owned())
        })
        .expect_err("fails");
        let rendered = failure.to_string();
        assert!(rendered.contains("CAFC_CHECK_SEED="), "{rendered}");
        assert!(
            rendered.contains(&format!("{:#x}", failure.case_seed)),
            "{rendered}"
        );
        assert!(rendered.contains("minimal counterexample"), "{rendered}");
    }

    #[test]
    fn seed_parsing_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("X", "123"), 123);
        assert_eq!(parse_seed("X", "0xCAFC"), 0xCAFC);
        assert_eq!(parse_seed("X", " 0Xff "), 255);
    }

    #[test]
    #[should_panic(expected = "is not a u64")]
    fn seed_parsing_rejects_garbage() {
        parse_seed("X", "not-a-seed");
    }

    #[test]
    fn case_seeds_differ_per_index_but_are_stable() {
        let cfg = quiet();
        assert_eq!(cfg.case_seed(3), cfg.case_seed(3));
        assert_ne!(cfg.case_seed(3), cfg.case_seed(4));
    }
}

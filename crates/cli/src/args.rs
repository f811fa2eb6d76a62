//! A small flag parser: `--key value`, `--switch`, and positionals.
//!
//! Deliberately dependency-free: five subcommands with a handful of flags
//! do not justify pulling in a CLI framework (see DESIGN.md's dependency
//! policy). Unknown `--flags` are rejected outright — a typo like
//! `--algoritm hac` must fail loudly instead of silently becoming a
//! boolean switch that drops its value on the floor.

use std::collections::HashMap;
use std::fmt;

/// A numeric-flag validation failure. Every accessor that parses a number
/// routes through this type, so the flag name is always part of the
/// message and tests can match on the failure kind instead of substrings.
#[derive(Debug, Clone, PartialEq)]
pub enum FlagError {
    /// The value did not parse as a number of the expected shape.
    NotANumber {
        /// Flag name, without the leading `--`.
        flag: String,
        /// The offending value, verbatim.
        value: String,
    },
    /// A count flag (budgets, cadences, thread counts) was zero.
    ZeroCount {
        /// Flag name, without the leading `--`.
        flag: String,
    },
    /// A probability flag fell outside `[0, 1]`.
    RateOutOfRange {
        /// Flag name, without the leading `--`.
        flag: String,
        /// The parsed, out-of-range value.
        value: f64,
    },
    /// A magnitude flag (offered load, throughput) was zero, negative or
    /// non-finite.
    NotPositive {
        /// Flag name, without the leading `--`.
        flag: String,
        /// The parsed, non-positive value.
        value: f64,
    },
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::NotANumber { flag, value } => {
                write!(f, "--{flag} expects a number, got {value:?}")
            }
            FlagError::ZeroCount { flag } => {
                write!(f, "--{flag} expects a count of at least 1, got 0")
            }
            FlagError::RateOutOfRange { flag, value } => {
                write!(f, "--{flag} expects a rate in [0, 1], got {value}")
            }
            FlagError::NotPositive { flag, value } => {
                write!(f, "--{flag} expects a positive number, got {value}")
            }
        }
    }
}

impl From<FlagError> for String {
    fn from(e: FlagError) -> String {
        e.to_string()
    }
}

/// Parsed command-line arguments.
#[derive(Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

/// Known flag names that take a value.
const VALUE_FLAGS: &[&str] = &[
    "out",
    "input",
    "clusters",
    "k",
    "seed",
    "pages",
    "algorithm",
    "report",
    "min-cardinality",
    "limit",
    "features",
    // crawl
    "corpus-seed",
    "fault-rate",
    "permanent-rate",
    "truncate-rate",
    "redirect-rate",
    "max-retries",
    "breaker-threshold",
    "breaker-cooldown-ms",
    "max-pages",
    "max-depth",
    // torture
    "mutations",
    "mutations-per-page",
    // fuzz
    "budget-iters",
    "budget-ms",
    "corpus",
    "regressions",
    "replay",
    "max-input-len",
    // checkpointing
    "checkpoint-dir",
    "checkpoint-every",
    // crash-test
    "points",
    // execution layer
    "threads",
    // bench
    "sizes",
    "shard-pages",
    "hac-sample",
    "max-corpus-bytes",
    // daemon
    "warmup",
    "refresh-every",
    "repair-every",
    "drift-threshold",
    "assignments",
    "interval-ms",
    // serve / loadgen / search
    "port",
    "rate",
    "duration-ms",
    "budget",
    "workers",
    "backlog",
    "vocab",
    "rank",
    "json",
    "digest",
    // observability
    "metrics",
];

/// Known boolean switches (present or absent, no value).
const SWITCH_FLAGS: &[&str] = &["auto-k", "sweep", "trace", "write-seeds", "ab", "resume"];

impl Args {
    /// Parse a raw argument list (without the program/subcommand names).
    /// Flags not in [`VALUE_FLAGS`] or [`SWITCH_FLAGS`] are an error.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = raw.into_iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if VALUE_FLAGS.contains(&name) {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("flag --{name} expects a value"))?;
                    args.flags.insert(name.to_owned(), value);
                } else if SWITCH_FLAGS.contains(&name) {
                    args.switches.push(name.to_owned());
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    /// String flag value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Required string flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// The one numeric parse in the crate: absent flag means `default`,
    /// anything unparseable is a [`FlagError::NotANumber`] carrying the
    /// flag name. All `get_*` numeric accessors route through here.
    fn parse_flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, FlagError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| FlagError::NotANumber {
                flag: name.to_owned(),
                value: v.to_owned(),
            }),
        }
    }

    /// [`Args::parse_flag`] plus a zero check: an explicit `0` is a
    /// [`FlagError::ZeroCount`] — a zero budget or cadence runs nothing,
    /// and silently accepting it would mask the typo. (`T::default()` is
    /// zero for every unsigned type this is instantiated with.)
    fn parse_count<T>(&self, name: &str, default: T) -> Result<T, FlagError>
    where
        T: std::str::FromStr + PartialEq + Default,
    {
        let explicit = self.get(name).is_some();
        let count = self.parse_flag(name, default)?;
        if explicit && count == T::default() {
            return Err(FlagError::ZeroCount {
                flag: name.to_owned(),
            });
        }
        Ok(count)
    }

    /// Parsed numeric flag with a default.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        self.parse_flag(name, default).map_err(Into::into)
    }

    /// Parsed u64 flag with a default.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        self.parse_flag(name, default).map_err(Into::into)
    }

    /// Parsed u32 flag with a default.
    pub fn get_u32(&self, name: &str, default: u32) -> Result<u32, String> {
        self.parse_flag(name, default).map_err(Into::into)
    }

    /// Parsed probability flag (f64 in [0, 1]) with a default.
    pub fn get_rate(&self, name: &str, default: f64) -> Result<f64, String> {
        let value = self.parse_flag(name, default)?;
        if !(0.0..=1.0).contains(&value) {
            return Err(FlagError::RateOutOfRange {
                flag: name.to_owned(),
                value,
            }
            .into());
        }
        Ok(value)
    }

    /// Parsed port number (u16) with a default; out-of-range values fail
    /// as [`FlagError::NotANumber`] with the flag name attached.
    pub fn get_u16(&self, name: &str, default: u16) -> Result<u16, String> {
        self.parse_flag(name, default).map_err(Into::into)
    }

    /// Parsed strictly-positive f64 flag (offered load and the like);
    /// zero, negative and non-finite values are a
    /// [`FlagError::NotPositive`] carrying the flag name.
    pub fn get_positive_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        let value: f64 = self.parse_flag(name, default)?;
        if !(value.is_finite() && value > 0.0) {
            return Err(FlagError::NotPositive {
                flag: name.to_owned(),
                value,
            }
            .into());
        }
        Ok(value)
    }

    /// Parsed u64 flag that must be at least 1 (budgets, sizes, cadences).
    pub fn get_count_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        self.parse_count(name, default).map_err(Into::into)
    }

    /// [`Args::get_count_u64`] for `usize`-shaped flags.
    pub fn get_count_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        self.parse_count(name, default).map_err(Into::into)
    }

    /// The `--threads` flag as an execution policy: absent means `Auto`,
    /// `N ≥ 1` means that many worker threads. Zero and non-numeric values
    /// are rejected — "no threads" cannot execute anything, and silently
    /// mapping it to serial would mask the typo.
    pub fn get_threads(&self) -> Result<cafc::ExecPolicy, String> {
        match self.get("threads") {
            None => Ok(cafc::ExecPolicy::Auto),
            Some(_) => {
                let threads = self.parse_count("threads", 1)?;
                Ok(cafc::ExecPolicy::Parallel { threads })
            }
        }
    }

    /// Boolean switch presence.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse(args.iter().map(|s| (*s).to_owned())).expect("parses")
    }

    #[test]
    fn flags_switches_positionals() {
        let a = parse(&["--k", "8", "--auto-k", "cheap flights", "--seed", "3"]);
        assert_eq!(a.get("k"), Some("8"));
        assert_eq!(a.get_u64("seed", 0).expect("number"), 3);
        assert!(a.has("auto-k"));
        assert!(!a.has("missing"));
        assert_eq!(a.positional(), ["cheap flights"]);
    }

    #[test]
    fn defaults_and_errors() {
        let a = parse(&[]);
        assert_eq!(a.get_usize("k", 8).expect("default"), 8);
        assert!(a.require("input").is_err());
        let a = parse(&["--k", "many"]);
        assert!(a.get_usize("k", 8).is_err());
    }

    #[test]
    fn value_flag_without_value_errors() {
        assert!(Args::parse(vec!["--out".to_owned()]).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = Args::parse(vec!["--algoritm".to_owned(), "hac".to_owned()])
            .expect_err("typoed flag must not parse");
        assert!(err.contains("--algoritm"), "{err}");
        assert!(Args::parse(vec!["--frobnicate".to_owned()]).is_err());
    }

    #[test]
    fn threads_flag_validates() {
        let a = parse(&[]);
        assert_eq!(a.get_threads().expect("default"), cafc::ExecPolicy::Auto);
        let a = parse(&["--threads", "4"]);
        assert_eq!(
            a.get_threads().expect("count"),
            cafc::ExecPolicy::Parallel { threads: 4 }
        );
        let a = parse(&["--threads", "0"]);
        let err = a.get_threads().expect_err("zero threads cannot execute");
        assert!(err.contains("at least 1"), "{err}");
        let a = parse(&["--threads", "plenty"]);
        let err = a.get_threads().expect_err("non-numeric must not parse");
        assert!(err.contains("expects a number"), "{err}");
    }

    #[test]
    fn count_flags_validate() {
        let a = parse(&[]);
        assert_eq!(a.get_count_u64("budget-iters", 500).expect("default"), 500);
        let a = parse(&["--budget-iters", "200"]);
        assert_eq!(a.get_count_u64("budget-iters", 500).expect("count"), 200);
        let a = parse(&["--budget-iters", "0"]);
        let err = a
            .get_count_u64("budget-iters", 500)
            .expect_err("zero budget runs nothing");
        assert!(err.contains("at least 1"), "{err}");
        let a = parse(&["--budget-ms", "soon"]);
        let err = a
            .get_count_u64("budget-ms", 0)
            .expect_err("non-numeric must not parse");
        assert!(err.contains("expects a number"), "{err}");
        let a = parse(&["--max-input-len", "0"]);
        assert!(a.get_count_usize("max-input-len", 1).is_err());
    }

    #[test]
    fn flag_errors_are_typed_and_carry_the_flag_name() {
        let a = parse(&["--checkpoint-every", "often"]);
        assert_eq!(
            a.parse_count::<u64>("checkpoint-every", 64)
                .expect_err("non-numeric must not parse"),
            FlagError::NotANumber {
                flag: "checkpoint-every".to_owned(),
                value: "often".to_owned(),
            }
        );
        let a = parse(&["--checkpoint-every", "0"]);
        assert_eq!(
            a.parse_count::<u64>("checkpoint-every", 64)
                .expect_err("zero cadence never checkpoints"),
            FlagError::ZeroCount {
                flag: "checkpoint-every".to_owned(),
            }
        );
        // Every variant renders the flag name, so the user always learns
        // which flag to fix.
        for err in [
            FlagError::NotANumber {
                flag: "points".to_owned(),
                value: "x".to_owned(),
            },
            FlagError::ZeroCount {
                flag: "points".to_owned(),
            },
            FlagError::RateOutOfRange {
                flag: "points".to_owned(),
                value: 2.0,
            },
        ] {
            assert!(String::from(err).contains("--points"));
        }
    }

    #[test]
    fn serve_and_loadgen_flags_validate() {
        // --port must fit u16 and carry the flag name on failure.
        let a = parse(&["--port", "8080"]);
        assert_eq!(a.get_u16("port", 7700).expect("port"), 8080);
        let a = parse(&["--port", "70000"]);
        let err = a.get_u16("port", 7700).expect_err("u16 overflow");
        assert!(err.contains("--port"), "{err}");
        // --rate is an offered load: any positive float, not a [0,1]
        // probability.
        let a = parse(&["--rate", "350.5"]);
        assert_eq!(a.get_positive_f64("rate", 200.0).expect("rate"), 350.5);
        for bad in ["0", "-3", "inf", "much"] {
            let a = parse(&["--rate", bad]);
            let err = a
                .get_positive_f64("rate", 200.0)
                .expect_err("non-positive rate");
            assert!(err.contains("--rate"), "{bad}: {err}");
        }
        // --duration-ms and --budget are counts: zero is rejected with the
        // flag name attached.
        let a = parse(&["--duration-ms", "0"]);
        let err = a.get_count_u64("duration-ms", 1000).expect_err("zero run");
        assert!(err.contains("--duration-ms"), "{err}");
        let a = parse(&["--budget", "512"]);
        assert_eq!(a.get_count_usize("budget", 1).expect("budget"), 512);
        let a = parse(&["--budget", "many"]);
        let err = a.get_count_usize("budget", 1).expect_err("non-numeric");
        assert!(err.contains("--budget"), "{err}");
    }

    #[test]
    fn rate_flags_validate_range() {
        let a = parse(&["--fault-rate", "0.25"]);
        assert_eq!(a.get_rate("fault-rate", 0.0).expect("rate"), 0.25);
        assert_eq!(a.get_rate("truncate-rate", 0.1).expect("default"), 0.1);
        let a = parse(&["--fault-rate", "1.5"]);
        assert!(a.get_rate("fault-rate", 0.0).is_err());
        let a = parse(&["--fault-rate", "lots"]);
        assert!(a.get_rate("fault-rate", 0.0).is_err());
    }
}

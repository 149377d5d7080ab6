//! Minimal `--key value` / `--flag` argument parser (no external
//! dependencies, per the workspace policy).

use std::collections::BTreeMap;
use std::fmt;

/// Argument parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--key` had no value.
    MissingValue(String),
    /// A positional argument appeared where none is accepted.
    UnexpectedPositional(String),
    /// A value failed to parse.
    BadValue {
        /// Offending key.
        key: String,
        /// Raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A required key was absent.
    Required(String),
    /// A `--key` that no command reads.
    UnknownOption(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "--{k} needs a value"),
            ArgError::UnexpectedPositional(p) => write!(f, "unexpected argument: {p}"),
            ArgError::BadValue { key, value, expected } => {
                write!(f, "--{key} {value}: expected {expected}")
            }
            ArgError::Required(k) => write!(f, "missing required option --{k}"),
            ArgError::UnknownOption(k) => write!(f, "unknown option --{k} (see `kpm help`)"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed `--key value` options plus boolean flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Keys that are boolean flags (no value).
const FLAGS: &[&str] = &["help", "no-locality", "no-tune", "once", "quiet", "stats"];

/// Keys that take a value: every `--key` some command reads. A `--key` in
/// neither list is rejected, so a misspelt or removed option stops the run
/// instead of leaving it on its defaults.
const KEYS: &[&str] = &[
    "addr",
    "alpha",
    "backoff-ms",
    "bc",
    "beta",
    "bounds",
    "cache-capacity",
    "cache-dir",
    "device",
    "disorder",
    "dseed",
    "exec",
    "format",
    "hopping",
    "inventory-cap",
    "jobs",
    "journal",
    "kernel",
    "kill-after",
    "lambda",
    "lattice",
    "listen",
    "local-workers",
    "max-inflight",
    "metrics-every-secs",
    "momenta",
    "moments",
    "out",
    "profile-store",
    "queue",
    "random",
    "realizations",
    "refine",
    "resolution",
    "retries",
    "seed",
    "sets",
    "shards",
    "site",
    "spec",
    "steps",
    "storage",
    "stream",
    "threads",
    "time",
    "timeout-secs",
    "trace",
    "workers",
];

impl Args {
    /// Parses raw arguments (after the subcommand).
    ///
    /// # Errors
    /// [`ArgError`] on malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let (args, positionals) = Self::parse_with_positionals(raw)?;
        match positionals.into_iter().next() {
            None => Ok(args),
            Some(p) => Err(ArgError::UnexpectedPositional(p)),
        }
    }

    /// Like [`Args::parse`], but collects bare (non `--key`) arguments
    /// instead of rejecting them — for commands that take positionals, like
    /// `kpm batch <jobs-file>`.
    ///
    /// # Errors
    /// [`ArgError`] on malformed `--key` options, and
    /// [`ArgError::UnknownOption`] on a key no command reads.
    pub fn parse_with_positionals<I: IntoIterator<Item = String>>(
        raw: I,
    ) -> Result<(Self, Vec<String>), ArgError> {
        let mut out = Args::default();
        let mut positionals = Vec::new();
        let mut iter = raw.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                if FLAGS.contains(&key) {
                    out.flags.push(key.to_string());
                } else if KEYS.contains(&key) {
                    let v = iter.next().ok_or_else(|| ArgError::MissingValue(key.into()))?;
                    out.values.insert(key.to_string(), v);
                } else {
                    return Err(ArgError::UnknownOption(key.into()));
                }
            } else {
                positionals.push(a);
            }
        }
        Ok((out, positionals))
    }

    /// Raw string value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// Sets (or overwrites) a value — for commands that fold a positional
    /// argument into a keyed option, like `kpm tune <lattice>`.
    pub fn set(&mut self, key: &str, value: &str) {
        self.values.insert(key.to_string(), value.to_string());
    }

    /// `true` if the flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Parsed value, or `None` if absent.
    ///
    /// # Errors
    /// [`ArgError::BadValue`] carrying `expected`, the accepted values, if
    /// present but unparsable.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        expected: &'static str,
    ) -> Result<Option<T>, ArgError> {
        self.get(key)
            .map(|v| {
                v.parse().map_err(|_| ArgError::BadValue {
                    key: key.into(),
                    value: v.into(),
                    expected,
                })
            })
            .transpose()
    }

    /// Parsed value with a default.
    ///
    /// # Errors
    /// [`ArgError::BadValue`] if present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        Ok(self.get_parsed(key, std::any::type_name::<T>())?.unwrap_or(default))
    }

    /// Required parsed value.
    ///
    /// # Errors
    /// [`ArgError::Required`] if absent, [`ArgError::BadValue`] if
    /// unparsable.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        self.get_parsed(key, std::any::type_name::<T>())?
            .ok_or_else(|| ArgError::Required(key.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, ArgError> {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_key_values_and_flags() {
        let a = parse(&["--moments", "256", "--stats", "--seed", "7"]).unwrap();
        assert_eq!(a.get("moments"), Some("256"));
        assert!(a.flag("stats"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.get_or::<usize>("seed", 0).unwrap(), 7);
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.get_or::<usize>("moments", 128).unwrap(), 128);
        assert_eq!(a.get_or::<f64>("padding", 0.01).unwrap(), 0.01);
    }

    #[test]
    fn missing_value_rejected() {
        match parse(&["--moments"]) {
            Err(ArgError::MissingValue(k)) => assert_eq!(k, "moments"),
            other => panic!("expected MissingValue, got {other:?}"),
        }
    }

    #[test]
    fn positional_rejected() {
        assert!(matches!(parse(&["oops"]), Err(ArgError::UnexpectedPositional(_))));
    }

    #[test]
    fn positionals_collected_when_requested() {
        let raw = ["jobs.txt", "--workers", "2", "more"].iter().map(|s| s.to_string());
        let (args, positionals) = Args::parse_with_positionals(raw).unwrap();
        assert_eq!(positionals, vec!["jobs.txt".to_string(), "more".to_string()]);
        assert_eq!(args.get("workers"), Some("2"));
    }

    #[test]
    fn bad_value_reports_key() {
        let a = parse(&["--moments", "many"]).unwrap();
        let e = a.require::<usize>("moments").unwrap_err();
        assert!(matches!(e, ArgError::BadValue { .. }));
        assert!(e.to_string().contains("moments"));
    }

    #[test]
    fn unknown_options_are_rejected() {
        // A typo, an option that no longer exists, and a near miss of
        // `--moments`: each used to run the defaults without a word.
        for words in [
            ["--lattice", "chain:16", "--exce", "rows"],
            ["--lattice", "chain:16", "--precision", "mixed"],
            ["--lattice", "chain:16", "--moments-count", "64"],
        ] {
            let key = words[2].trim_start_matches("--");
            match parse(&words) {
                Err(ArgError::UnknownOption(k)) => assert_eq!(k, key),
                other => panic!("{words:?}: expected UnknownOption, got {other:?}"),
            }
            let with_positionals =
                Args::parse_with_positionals(words.iter().map(|s| s.to_string()));
            assert!(matches!(with_positionals, Err(ArgError::UnknownOption(_))), "{words:?}");
        }
        let e = ArgError::UnknownOption("exce".into());
        assert!(e.to_string().contains("--exce"), "{e}");
    }

    #[test]
    fn every_option_in_usage_parses() {
        let usage = crate::commands::USAGE;
        let mut seen = 0;
        for word in usage.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
            // `[--key value ...]` in the synopsis is a placeholder.
            let Some(key) = word.strip_prefix("--").filter(|k| !k.is_empty() && *k != "key") else {
                continue;
            };
            let parsed = if FLAGS.contains(&key) {
                parse(&[word]).map(|a| assert!(a.flag(key), "--{key}"))
            } else {
                parse(&[word, "1"]).map(|a| assert_eq!(a.get(key), Some("1"), "--{key}"))
            };
            assert!(parsed.is_ok(), "--{key} from USAGE: {parsed:?}");
            seen += 1;
        }
        assert!(seen > 40, "USAGE names its options: found {seen}");
    }

    #[test]
    fn required_missing_reports() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.require::<usize>("site").unwrap_err(), ArgError::Required("site".into()));
    }
}

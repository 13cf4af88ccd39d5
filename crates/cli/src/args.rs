//! A small, dependency-free argument parser: positional arguments plus
//! `--flag value` and `--switch` options.

use std::collections::BTreeMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// An option was given without a value.
    MissingValue(String),
    /// A required option was absent.
    MissingOption(String),
    /// A value failed to parse.
    BadValue {
        /// Option name.
        option: String,
        /// Offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A required positional argument was absent.
    MissingPositional(&'static str),
    /// An option or switch that the command does not read.
    Unknown(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(o) => write!(f, "option --{o} needs a value"),
            ArgError::MissingOption(o) => write!(f, "required option --{o} missing"),
            ArgError::BadValue {
                option,
                value,
                expected,
            } => {
                write!(f, "--{option}={value}: expected {expected}")
            }
            ArgError::MissingPositional(name) => {
                write!(f, "missing required argument <{name}>")
            }
            ArgError::Unknown(o) => write!(f, "unknown option --{o}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Option names that are boolean switches (take no value).
const SWITCHES: &[&str] = &[
    "quick",
    "json",
    "list",
    "no-cache",
    "keep-going",
    "github",
    "warm",
    "stats",
];

impl Args {
    /// Parse a raw argument list (without the program/subcommand names),
    /// rejecting any option or switch not named in `accepted`.
    pub fn parse(raw: &[String], accepted: &[&str]) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let (key, inline) = name
                    .split_once('=')
                    .map_or((name, None), |(key, value)| (key, Some(value)));
                if !accepted.contains(&key) {
                    return Err(ArgError::Unknown(key.to_string()));
                }
                if let Some(value) = inline {
                    args.options.insert(key.to_string(), value.to_string());
                } else if SWITCHES.contains(&name) {
                    args.switches.push(name.to_string());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
                    args.options.insert(name.to_string(), value.clone());
                }
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    /// The `i`-th positional argument, or an error naming it.
    pub fn positional(&self, i: usize, name: &'static str) -> Result<&str, ArgError> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or(ArgError::MissingPositional(name))
    }

    /// All positional arguments.
    pub fn positionals(&self) -> &[String] {
        &self.positional
    }

    /// An optional string option.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A required string option.
    pub fn required(&self, name: &str) -> Result<&str, ArgError> {
        self.opt(name)
            .ok_or_else(|| ArgError::MissingOption(name.to_string()))
    }

    /// An optional parsed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.opt(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                option: name.to_string(),
                value: v.to_string(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// A comma-separated list option (e.g. `--nodes 1,2,4`).
    pub fn list_or(&self, name: &str, default: &[usize]) -> Result<Vec<usize>, ArgError> {
        match self.opt(name) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim().parse().map_err(|_| ArgError::BadValue {
                        option: name.to_string(),
                        value: v.to_string(),
                        expected: "comma-separated integers",
                    })
                })
                .collect(),
        }
    }

    /// Whether a boolean switch is present.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCEPTED: &[&str] = &["batch", "image", "quick", "json", "nodes", "data"];

    fn parse(v: &[&str]) -> Args {
        Args::parse(
            &v.iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>(),
            ACCEPTED,
        )
        .unwrap()
    }

    #[test]
    fn positionals_and_options_mix() {
        let a = parse(&["resnet50", "--batch", "64", "--image=128", "--quick"]);
        assert_eq!(a.positional(0, "model").unwrap(), "resnet50");
        assert_eq!(a.get_or("batch", 1usize).unwrap(), 64);
        assert_eq!(a.get_or("image", 224usize).unwrap(), 128);
        assert!(a.switch("quick"));
        assert!(!a.switch("json"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["x"]);
        assert_eq!(a.get_or("batch", 7usize).unwrap(), 7);
        assert_eq!(a.list_or("nodes", &[1, 2]).unwrap(), vec![1, 2]);
    }

    #[test]
    fn lists_parse() {
        let a = parse(&["--nodes", "1,2, 4,8"]);
        assert_eq!(a.list_or("nodes", &[]).unwrap(), vec![1, 2, 4, 8]);
    }

    #[test]
    fn missing_value_is_error() {
        let raw = vec!["--batch".to_string()];
        assert_eq!(
            Args::parse(&raw, ACCEPTED).unwrap_err(),
            ArgError::MissingValue("batch".into())
        );
    }

    #[test]
    fn unaccepted_names_are_errors_in_either_form() {
        for (raw, name) in [
            (["--imagee", "64"], "imagee"),
            (["--imagee=64", "x"], "imagee"),
            (["--perf", "x"], "perf"),
        ] {
            let raw: Vec<String> = raw.iter().map(|s| (*s).to_string()).collect();
            assert_eq!(
                Args::parse(&raw, ACCEPTED).unwrap_err(),
                ArgError::Unknown(name.into())
            );
        }
    }

    #[test]
    fn bad_value_is_error() {
        let a = parse(&["--batch", "abc"]);
        assert!(matches!(
            a.get_or("batch", 1usize),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn required_option_errors_when_absent() {
        let a = parse(&[]);
        assert_eq!(
            a.required("data").unwrap_err(),
            ArgError::MissingOption("data".into())
        );
    }
}

//! Minimal `--key value` argument parsing (no external dependency).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub(crate) command: String,
    /// `--key value` pairs.
    options: BTreeMap<String, String>,
}

/// Errors from argument parsing and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    NoCommand,
    /// A `--flag` without a value, or a stray positional argument.
    Malformed(String),
    /// A required option is missing.
    Missing(&'static str),
    /// An option failed to parse as the expected type.
    Invalid {
        /// The option name.
        key: &'static str,
        /// The rejected value.
        value: String,
    },
    /// An option the command does not read.
    Unknown {
        /// The subcommand.
        command: String,
        /// The option name.
        key: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::NoCommand => write!(f, "no subcommand given"),
            ArgError::Malformed(tok) => write!(f, "malformed argument near '{tok}'"),
            ArgError::Missing(key) => write!(f, "missing required option --{key}"),
            ArgError::Invalid { key, value } => {
                write!(f, "invalid value '{value}' for --{key}")
            }
            ArgError::Unknown { command, key } => {
                write!(f, "`{command}` has no option --{key}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse an iterator of arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, ArgError> {
        let mut it = argv.into_iter();
        let mut command = it.next().ok_or(ArgError::NoCommand)?;
        if command == "--help" || command == "-h" {
            command = "help".to_string();
        }
        if command.starts_with("--") {
            return Err(ArgError::Malformed(command));
        }
        let mut options = BTreeMap::new();
        while let Some(tok) = it.next() {
            let key = tok.strip_prefix("--").ok_or_else(|| ArgError::Malformed(tok.clone()))?;
            let value = it.next().ok_or_else(|| ArgError::Malformed(tok.clone()))?;
            options.insert(key.to_string(), value);
        }
        Ok(Self { command, options })
    }

    /// Reject the first option (in name order) that is not in `known`.
    pub(crate) fn only(&self, known: &[&str]) -> Result<(), ArgError> {
        match self.options.keys().find(|key| !known.contains(&key.as_str())) {
            Some(key) => Err(ArgError::Unknown { command: self.command.clone(), key: key.clone() }),
            None => Ok(()),
        }
    }

    /// A string option.
    pub(crate) fn get(&self, key: &'static str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A required string option.
    pub(crate) fn require(&self, key: &'static str) -> Result<&str, ArgError> {
        self.get(key).ok_or(ArgError::Missing(key))
    }

    /// A typed option with a default.
    pub(crate) fn get_or<T: std::str::FromStr>(
        &self,
        key: &'static str,
        default: T,
    ) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::Invalid { key, value: v.to_string() }),
        }
    }

    /// A required typed option.
    pub(crate) fn require_parsed<T: std::str::FromStr>(
        &self,
        key: &'static str,
    ) -> Result<T, ArgError> {
        let v = self.require(key)?;
        v.parse().map_err(|_| ArgError::Invalid { key, value: v.to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse("train --clusters 5 --out model.json").unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.get("clusters"), Some("5"));
        assert_eq!(a.require("out").unwrap(), "model.json");
        assert_eq!(a.get_or("clusters", 3usize).unwrap(), 5);
        assert_eq!(a.get_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn rejects_empty_and_malformed() {
        assert_eq!(parse(""), Err(ArgError::NoCommand));
        assert!(matches!(parse("--train"), Err(ArgError::Malformed(_))));
        assert!(matches!(parse("train --flag"), Err(ArgError::Malformed(_))));
        assert!(matches!(parse("train stray"), Err(ArgError::Malformed(_))));
    }

    #[test]
    fn reports_missing_and_invalid() {
        let a = parse("predict --cap twenty").unwrap();
        assert_eq!(a.require("model"), Err(ArgError::Missing("model")));
        assert!(matches!(
            a.require_parsed::<f64>("cap"),
            Err(ArgError::Invalid { key: "cap", .. })
        ));
        assert!(matches!(a.get_or::<u64>("cap", 1), Err(ArgError::Invalid { .. })));
    }

    #[test]
    fn errors_display() {
        assert!(ArgError::Missing("x").to_string().contains("--x"));
        assert!(ArgError::Invalid { key: "k", value: "v".into() }.to_string().contains("'v'"));
    }
}

//! A small dependency-free argument parser: `--key value` options,
//! `--flag` booleans, and free-standing positionals (verbs like
//! `cluster status`) after a subcommand. Each subcommand declares the
//! options and flags it reads ([`Args::accept`]); anything else on its
//! command line is an error, never silently ignored.

use std::collections::HashMap;

/// Parsed command line: the subcommand and its options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first free-standing argument).
    pub command: String,
    /// Free-standing arguments after the subcommand, in order.
    /// Subcommands that take none reject leftovers at dispatch.
    pub positionals: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the program name).
    ///
    /// # Errors
    ///
    /// Rejects missing subcommands and options without values.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let mut iter = argv.into_iter().peekable();
        let command = iter.next().ok_or("missing subcommand; try `noceas help`")?;
        if command.starts_with('-') {
            return Err(format!("expected a subcommand before `{command}`"));
        }
        let mut args = Args {
            command,
            ..Args::default()
        };
        while let Some(token) = iter.next() {
            let Some(key) = token.strip_prefix("--") else {
                args.positionals.push(token);
                continue;
            };
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    args.options.insert(key.to_owned(), value);
                }
                _ => args.flags.push(key.to_owned()),
            }
        }
        Ok(args)
    }

    /// The value of `--key`, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// The value of `--key` or a default.
    #[must_use]
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// The value of `--key`, or an error naming the option.
    ///
    /// # Errors
    ///
    /// When the option is absent.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// A numeric option with a default.
    ///
    /// # Errors
    ///
    /// When present but unparsable.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key} has invalid value `{v}`")),
        }
    }

    /// `true` if `--key` appeared without a value.
    #[must_use]
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Checks the command line against what `command` reads:
    /// `options` (space-separated names) take a value, `flags` take
    /// none. Subcommands call this before reading a file or binding a
    /// socket.
    ///
    /// # Errors
    ///
    /// Names the first offending option and `command`: an option the
    /// subcommand does not read, a known option without a value, or a
    /// flag given a value.
    pub fn accept(&self, command: &str, options: &str, flags: &str) -> Result<(), String> {
        let is_option = |key: &str| options.split_whitespace().any(|k| k == key);
        let is_flag = |key: &str| flags.split_whitespace().any(|k| k == key);
        let mut valued: Vec<&String> = self.options.keys().collect();
        valued.sort(); // the error must not depend on hash order
        for key in valued {
            if is_flag(key) {
                return Err(format!(
                    "--{key} takes no value, got `{}` (noceas {command})",
                    self.options[key]
                ));
            }
            if !is_option(key) {
                return Err(unknown_option(key, command));
            }
        }
        for key in &self.flags {
            if is_option(key) {
                return Err(format!("option --{key} needs a value (noceas {command})"));
            }
            if !is_flag(key) {
                return Err(unknown_option(key, command));
            }
        }
        Ok(())
    }
}

fn unknown_option(key: &str, command: &str) -> String {
    format!("unknown option --{key} for `noceas {command}`; try `noceas help`")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse(tokens.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["schedule", "--graph", "g.json", "--gantt", "--seed", "7"]).unwrap();
        assert_eq!(a.command, "schedule");
        assert_eq!(a.get("graph"), Some("g.json"));
        assert_eq!(a.get_num::<u64>("seed", 0).unwrap(), 7);
        assert!(a.has_flag("gantt"));
        assert!(!a.has_flag("csv"));
    }

    #[test]
    fn missing_subcommand_is_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--graph", "x"]).is_err());
    }

    #[test]
    fn positional_arguments_are_collected_in_order() {
        let a = parse(&["cluster", "trace", "00c0ffee", "--nodes", "a,b"]).unwrap();
        assert_eq!(a.positionals, vec!["trace", "00c0ffee"]);
        assert_eq!(a.get("nodes"), Some("a,b"));
        // Commands that take no positionals reject them at dispatch,
        // not here; the parser just carries them through.
        let b = parse(&["schedule", "stray"]).unwrap();
        assert_eq!(b.positionals, vec!["stray"]);
    }

    #[test]
    fn require_and_defaults() {
        let a = parse(&["run", "--x", "1"]).unwrap();
        assert_eq!(a.require("x").unwrap(), "1");
        assert!(a.require("y").is_err());
        assert_eq!(a.get_or("z", "fallback"), "fallback");
        assert!(a.get_num::<u32>("x", 9).unwrap() == 1);
        let bad = parse(&["run", "--x", "NaNsense"]).unwrap();
        assert!(bad.get_num::<u32>("x", 0).is_err());
    }

    #[test]
    fn accept_rejects_undeclared_and_misused_options() {
        let a = parse(&["schedule", "--graph", "g.json", "--gantt"]).unwrap();
        assert!(a.accept("schedule", "graph out", "gantt json").is_ok());
        let err = a.accept("schedule", "graph", "").unwrap_err();
        assert!(
            err.contains("--gantt") && err.contains("noceas schedule"),
            "{err}"
        );
        let typo = parse(&["schedule", "--schedular", "edf"]).unwrap();
        let err = typo.accept("schedule", "scheduler", "").unwrap_err();
        assert!(
            err.contains("unknown option --schedular for `noceas schedule`"),
            "{err}"
        );
        let dangling = parse(&["schedule", "--out"]).unwrap();
        assert!(dangling
            .accept("schedule", "out", "")
            .unwrap_err()
            .contains("--out needs a value"));
        let valued_flag = parse(&["schedule", "--json", "yes"]).unwrap();
        assert!(valued_flag
            .accept("schedule", "", "json")
            .unwrap_err()
            .contains("--json takes no value"));
    }

    #[test]
    fn trailing_flag_parses() {
        let a = parse(&["validate", "--strict"]).unwrap();
        assert!(a.has_flag("strict"));
    }
}

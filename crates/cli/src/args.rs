//! Tiny flag parser: `--name value` pairs plus switches, checked
//! against the flags a subcommand reads.

use std::collections::HashMap;

use totem_rrp::ReplicationStyle;

/// The flags one subcommand reads. Any other flag is refused.
#[derive(Debug)]
pub struct Spec {
    /// The subcommand, as typed after `totem`.
    pub command: &'static str,
    /// Flags that take one value (`--name value`).
    pub values: &'static [&'static str],
    /// Flags that take none (`--name`).
    pub switches: &'static [&'static str],
}

/// Parsed flags of one subcommand.
#[derive(Debug)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `args` as the flags `spec` names.
    ///
    /// # Errors
    ///
    /// Rejects positional arguments, a flag `spec` does not name (the
    /// message names the flag and the command), and a value flag
    /// without a value.
    pub fn parse(spec: &Spec, args: &[String]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}` (flags are --name value)"));
            };
            if spec.switches.contains(&name) {
                switches.push(name.to_string());
            } else if spec.values.contains(&name) {
                let value = args.next().ok_or_else(|| format!("--{name} needs a value"))?;
                values.insert(name.to_string(), value.clone());
            } else {
                return Err(format!("unknown flag `{arg}` for `totem {}`", spec.command));
            }
        }
        Ok(Flags { values, switches })
    }

    /// A value flag parsed into `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Reports unparsable values with the flag name.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("invalid value `{raw}` for --{name}")),
        }
    }

    /// Whether a switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|b| b == name)
    }

    /// The replication style from `--replication`, defaulting to
    /// `active`.
    ///
    /// # Errors
    ///
    /// Rejects unknown style names.
    pub fn style(&self) -> Result<ReplicationStyle, String> {
        self.values.get("replication").map_or("active", String::as_str).parse()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        command: "test",
        values: &["nodes", "size", "window-ms", "replication"],
        switches: &["quick"],
    };

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_values_and_bools() {
        let f = Flags::parse(&SPEC, &argv(&["--nodes", "6", "--quick", "--size", "1000"])).unwrap();
        assert_eq!(f.get("nodes", 4usize).unwrap(), 6);
        assert_eq!(f.get("size", 0usize).unwrap(), 1000);
        assert!(f.has("quick"));
        assert!(!f.has("verbose"));
        assert_eq!(f.get("window-ms", 500u64).unwrap(), 500);
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(Flags::parse(&SPEC, &argv(&["bare"])).is_err());
    }

    #[test]
    fn rejects_a_value_flag_without_a_value() {
        let err = Flags::parse(&SPEC, &argv(&["--quick", "--nodes"])).unwrap_err();
        assert!(err.contains("--nodes"), "{err}");
    }

    #[test]
    fn rejects_bad_values() {
        let f = Flags::parse(&SPEC, &argv(&["--nodes", "many"])).unwrap();
        assert!(f.get("nodes", 4usize).is_err());
    }

    #[test]
    fn styles_parse() {
        let style =
            |raw: &str| Flags::parse(&SPEC, &argv(&["--replication", raw])).unwrap().style();
        assert_eq!(style("single").unwrap(), ReplicationStyle::Single);
        assert_eq!(style("active").unwrap(), ReplicationStyle::Active);
        assert_eq!(style("passive").unwrap(), ReplicationStyle::Passive);
        assert_eq!(style("ap:2").unwrap(), ReplicationStyle::ActivePassive { copies: 2 });
        assert_eq!(style("k-of-n:2").unwrap(), ReplicationStyle::KOfN { copies: 2 });
        assert!(style("none").is_err());
        assert!(style("turbo").is_err());
        assert!(style("ap:x").is_err());
        assert!(style("k-of-n:x").is_err());
    }

    #[test]
    fn replication_flag_selects_the_style() {
        let f = Flags::parse(&SPEC, &argv(&["--replication", "k-of-n:2"])).unwrap();
        assert_eq!(f.style().unwrap(), ReplicationStyle::KOfN { copies: 2 });
        let f = Flags::parse(&SPEC, &argv(&[])).unwrap();
        assert_eq!(f.style().unwrap(), ReplicationStyle::Active);
    }
}

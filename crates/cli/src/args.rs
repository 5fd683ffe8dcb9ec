//! Tiny flag parser: `--name value` pairs plus boolean flags.

use std::collections::HashMap;

use totem_cluster::BackendKind;
use totem_rrp::ReplicationStyle;

/// Parsed flags of one subcommand.
#[derive(Debug)]
pub struct Flags {
    values: HashMap<String, String>,
    bools: Vec<String>,
}

impl Flags {
    /// Parses `--name value` pairs; a `--name` followed by another
    /// flag (or nothing) is a boolean flag.
    ///
    /// # Errors
    ///
    /// Rejects positional arguments and non-`--` tokens.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut bools = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}` (flags are --name value)"));
            };
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                values.insert(name.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                bools.push(name.to_string());
                i += 1;
            }
        }
        Ok(Flags { values, bools })
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

    /// Whether a boolean flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }

    /// The replication style from `--replication`, defaulting to
    /// `active`.
    ///
    /// # Errors
    ///
    /// Rejects unknown style names.
    pub fn style(&self) -> Result<ReplicationStyle, String> {
        parse_style(self.values.get("replication").map_or("active", String::as_str))
    }

    /// The atomic-broadcast backend from `--backend`, defaulting to
    /// Totem.
    ///
    /// # Errors
    ///
    /// Rejects unknown backend names.
    pub fn backend(&self) -> Result<BackendKind, String> {
        match self.values.get("backend").map(String::as_str) {
            None | Some("totem") => Ok(BackendKind::Totem),
            Some("ring-paxos") => Ok(BackendKind::RingPaxos),
            Some(other) => Err(format!("unknown backend `{other}` (use totem or ring-paxos)")),
        }
    }
}

/// Parses `single`, `active`, `passive`, `ap:K` or `k-of-n:K`.
///
/// # Errors
///
/// Returns a description of valid styles for anything else.
pub fn parse_style(raw: &str) -> Result<ReplicationStyle, String> {
    match raw {
        "single" | "none" => Ok(ReplicationStyle::Single),
        "active" => Ok(ReplicationStyle::Active),
        "passive" => Ok(ReplicationStyle::Passive),
        other => {
            if let Some(k) = other.strip_prefix("ap:") {
                let copies: u8 = k.parse().map_err(|_| format!("invalid K in `ap:{k}`"))?;
                Ok(ReplicationStyle::ActivePassive { copies })
            } else if let Some(k) = other.strip_prefix("k-of-n:") {
                let copies: u8 = k.parse().map_err(|_| format!("invalid K in `k-of-n:{k}`"))?;
                Ok(ReplicationStyle::KOfN { copies })
            } else {
                Err(format!(
                    "unknown style `{other}` (use single, active, passive, ap:K, or k-of-n:K)"
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_values_and_bools() {
        let f = Flags::parse(&argv(&["--nodes", "6", "--quick", "--size", "1000"])).unwrap();
        assert_eq!(f.get("nodes", 4usize).unwrap(), 6);
        assert_eq!(f.get("size", 0usize).unwrap(), 1000);
        assert!(f.has("quick"));
        assert!(!f.has("verbose"));
        assert_eq!(f.get("window-ms", 500u64).unwrap(), 500);
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(Flags::parse(&argv(&["bare"])).is_err());
    }

    #[test]
    fn rejects_bad_values() {
        let f = Flags::parse(&argv(&["--nodes", "many"])).unwrap();
        assert!(f.get("nodes", 4usize).is_err());
    }

    #[test]
    fn styles_parse() {
        assert_eq!(parse_style("single").unwrap(), ReplicationStyle::Single);
        assert_eq!(parse_style("active").unwrap(), ReplicationStyle::Active);
        assert_eq!(parse_style("passive").unwrap(), ReplicationStyle::Passive);
        assert_eq!(parse_style("ap:2").unwrap(), ReplicationStyle::ActivePassive { copies: 2 });
        assert_eq!(parse_style("k-of-n:2").unwrap(), ReplicationStyle::KOfN { copies: 2 });
        assert!(parse_style("turbo").is_err());
        assert!(parse_style("ap:x").is_err());
        assert!(parse_style("k-of-n:x").is_err());
    }

    #[test]
    fn backends_parse() {
        let f = Flags::parse(&argv(&[])).unwrap();
        assert_eq!(f.backend().unwrap(), BackendKind::Totem);
        let f = Flags::parse(&argv(&["--backend", "ring-paxos"])).unwrap();
        assert_eq!(f.backend().unwrap(), BackendKind::RingPaxos);
        let f = Flags::parse(&argv(&["--backend", "totem"])).unwrap();
        assert_eq!(f.backend().unwrap(), BackendKind::Totem);
        let f = Flags::parse(&argv(&["--backend", "multi-paxos"])).unwrap();
        assert!(f.backend().is_err());
    }

    #[test]
    fn replication_flag_selects_the_style() {
        let f = Flags::parse(&argv(&["--replication", "k-of-n:2"])).unwrap();
        assert_eq!(f.style().unwrap(), ReplicationStyle::KOfN { copies: 2 });
        let f = Flags::parse(&argv(&[])).unwrap();
        assert_eq!(f.style().unwrap(), ReplicationStyle::Active);
    }
}

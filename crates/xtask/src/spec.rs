//! Schema for `spec/protocol.toml`, the machine-readable protocol
//! state-machine specification, read with the shared TOML-subset
//! reader (`totem_cluster::toml`):
//!
//! * `[machine.<name>]` tables with a `states = ["..", ...]` array;
//! * `[[transition.<name>]]` array-of-tables entries with `from`,
//!   `event` and `to` string keys plus an optional free-text `paper`
//!   provenance key.
//!
//! Every parsed entity keeps its 1-based source line so conformance
//! diagnostics can point back into the spec file.

use std::collections::BTreeMap;
use std::path::Path;

use totem_cluster::toml;

/// One declared state machine.
#[derive(Debug)]
pub struct Machine {
    /// Declared state names.
    pub states: Vec<String>,
    /// Line of the `[machine.<name>]` header.
    pub line: u32,
}

/// One documented transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecTransition {
    /// The machine this edge belongs to.
    pub machine: String,
    /// Source state.
    pub from: String,
    /// Event name.
    pub event: String,
    /// Destination state.
    pub to: String,
    /// Line of the `[[transition.<name>]]` header.
    pub line: u32,
}

impl SpecTransition {
    /// The `(machine, from, event, to)` identity of this edge.
    pub fn key(&self) -> (&str, &str, &str, &str) {
        (&self.machine, &self.from, &self.event, &self.to)
    }
}

/// The parsed specification.
#[derive(Debug, Default)]
pub struct Spec {
    /// Machines by name.
    pub machines: BTreeMap<String, Machine>,
    /// Every documented transition, in file order.
    pub transitions: Vec<SpecTransition>,
}

/// Parses the spec, validating internal consistency (machines exist,
/// states are declared, no duplicate edges).
///
/// # Errors
///
/// Returns a `"line N: reason"` description of the first problem.
pub fn parse(text: &str) -> Result<Spec, String> {
    let doc = toml::parse(text)?;
    if let Some(e) = doc.top.entries.first() {
        return Err(format!("line {}: `{}` outside any section", e.line, e.key));
    }
    let mut spec = Spec::default();
    for t in &doc.tables {
        match (t.array, t.name.split_once('.')) {
            (false, Some(("machine", name))) => {
                t.only(&["states"], "machine")?;
                let states: Vec<String> = t.get("states")?;
                if states.is_empty() {
                    return Err(t.error("states", "must not be empty"));
                }
                spec.machines.insert(name.to_string(), Machine { states, line: t.line });
            }
            (true, Some(("transition", machine))) => {
                t.only(&["from", "event", "to", "paper"], "transition")?;
                // Free-text provenance: checked to be a string, not kept.
                t.get_opt::<&str>("paper")?;
                let (Some(from), Some(event), Some(to)) = (
                    t.get_opt::<&str>("from")?,
                    t.get_opt::<&str>("event")?,
                    t.get_opt::<&str>("to")?,
                ) else {
                    return Err(format!(
                        "line {}: transition needs `from`, `event` and `to`",
                        t.line
                    ));
                };
                spec.transitions.push(SpecTransition {
                    machine: machine.to_string(),
                    from: from.to_string(),
                    event: event.to_string(),
                    to: to.to_string(),
                    line: t.line,
                });
            }
            _ => return Err(format!("line {}: unrecognized section header `{}`", t.line, t.name)),
        }
    }
    validate(&spec)?;
    Ok(spec)
}

/// Loads and parses `spec/protocol.toml` under the workspace root.
///
/// # Errors
///
/// Returns a description of the I/O or parse failure.
pub fn load(root: &Path) -> Result<Spec, String> {
    let path = root.join("spec").join("protocol.toml");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn validate(spec: &Spec) -> Result<(), String> {
    let mut seen: BTreeMap<(&str, &str, &str, &str), u32> = BTreeMap::new();
    for t in &spec.transitions {
        let Some(machine) = spec.machines.get(&t.machine) else {
            return Err(format!(
                "line {}: transition for undeclared machine `{}`",
                t.line, t.machine
            ));
        };
        for state in [&t.from, &t.to] {
            if !machine.states.contains(state) {
                return Err(format!(
                    "line {}: state `{state}` is not declared for machine `{}`",
                    t.line, t.machine
                ));
            }
        }
        if let Some(first) = seen.insert(t.key(), t.line) {
            return Err(format!(
                "line {}: duplicate transition (first declared on line {first})",
                t.line
            ));
        }
    }
    for (name, machine) in &spec.machines {
        if !spec.transitions.iter().any(|t| &t.machine == name) {
            return Err(format!("line {}: machine `{name}` declares no transitions", machine.line));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# comment
[machine.m1]
states = ["A", "B"]

[[transition.m1]]
from = "A"
event = "Go"
to = "B"
paper = "provenance"

[[transition.m1]]
from = "B"
event = "Back"
to = "A"
"#;

    #[test]
    fn parses_machines_and_transitions_with_lines() {
        let spec = parse(GOOD).unwrap();
        assert_eq!(spec.machines.len(), 1);
        assert_eq!(spec.machines["m1"].states, vec!["A", "B"]);
        assert_eq!(spec.transitions.len(), 2);
        assert_eq!(spec.transitions[0].key(), ("m1", "A", "Go", "B"));
        assert_eq!(spec.transitions[0].line, 6);
        assert_eq!(spec.transitions[1].line, 12);
    }

    #[test]
    fn rejects_undeclared_state() {
        let bad = "[machine.m]\nstates = [\"A\"]\n[[transition.m]]\nfrom = \"A\"\nevent = \"E\"\nto = \"Z\"\n";
        let err = parse(bad).unwrap_err();
        assert!(err.contains("state `Z`"), "{err}");
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn rejects_duplicate_transition() {
        let bad = "[machine.m]\nstates = [\"A\"]\n[[transition.m]]\nfrom = \"A\"\nevent = \"E\"\nto = \"A\"\n[[transition.m]]\nfrom = \"A\"\nevent = \"E\"\nto = \"A\"\n";
        let err = parse(bad).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn rejects_unknown_machine_and_missing_fields() {
        let err =
            parse("[[transition.ghost]]\nfrom = \"A\"\nevent = \"E\"\nto = \"A\"\n").unwrap_err();
        assert!(err.contains("undeclared machine"), "{err}");
        let err =
            parse("[machine.m]\nstates = [\"A\"]\n[[transition.m]]\nfrom = \"A\"\n").unwrap_err();
        assert!(err.contains("needs `from`, `event` and `to`"), "{err}");
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        let err = parse("[machine.m]\nstates = [\"A\"]\nbogus = \"x\"\n").unwrap_err();
        assert!(err.contains("unknown machine key"), "{err}");
        let err = parse("[machine.m]\nstates = \"A\"\n").unwrap_err();
        assert!(err.contains("must be ["), "{err}");
    }

    #[test]
    fn real_spec_file_parses() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .expect("workspace root");
        let spec = load(root).expect("spec/protocol.toml must parse");
        assert!(spec.machines.contains_key("srp-membership"));
        assert!(spec.transitions.len() >= 24);
    }
}

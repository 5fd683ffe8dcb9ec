//! In-process integration tests of the `totem` subcommands.

use totem_cli::args::Flags;
use totem_cli::commands;

fn argv(s: &[&str]) -> Vec<String> {
    s.iter().map(|x| x.to_string()).collect()
}

#[test]
fn throughput_runs_for_every_style() {
    for style in ["single", "active", "passive", "ap:2"] {
        commands::throughput(&argv(&[
            "--replication",
            style,
            "--size",
            "700",
            "--window-ms",
            "150",
        ]))
        .unwrap_or_else(|e| panic!("{style}: {e}"));
    }
}

#[test]
fn throughput_rejects_nonsense() {
    assert!(commands::throughput(&argv(&["--replication", "warp"])).is_err());
    assert!(commands::throughput(&argv(&["--size", "tiny"])).is_err());
    assert!(commands::throughput(&argv(&["positional"])).is_err());
}

#[test]
fn failover_verifies_transparency() {
    commands::failover(&argv(&["--replication", "active", "--nodes", "3"])).unwrap();
}

#[test]
fn failover_rejects_single_network() {
    assert!(commands::failover(&argv(&["--replication", "single"])).is_err());
}

#[test]
fn soak_verifies_safety_under_loss() {
    commands::soak(&argv(&["--seconds", "2", "--loss", "1.5", "--seed", "7"])).unwrap();
    // Three-network styles: the lossy simulator gets every network the
    // style provisions.
    for style in ["ap:2", "k-of-n:3"] {
        commands::soak(&argv(&[
            "--seconds",
            "2",
            "--loss",
            "1.5",
            "--seed",
            "7",
            "--replication",
            style,
        ]))
        .unwrap_or_else(|e| panic!("{style}: {e}"));
    }
}

#[test]
fn compare_prints_all_styles() {
    commands::compare(&argv(&["--size", "500"])).unwrap();
}

#[test]
fn scale_sweeps_ring_sizes() {
    commands::scale(&argv(&["--replication", "passive", "--max-nodes", "4"])).unwrap();
}

#[test]
fn a_misspelled_flag_is_refused() {
    let err = commands::throughput(&argv(&[
        "--nodse",
        "3",
        "--window-ms",
        "50",
        "--replication",
        "single",
    ]))
    .unwrap_err();
    assert!(err.contains("--nodse") && err.contains("totem throughput"), "{err}");
    let err = commands::compare(&argv(&["--nodes", "3", "--window-ms", "50"])).unwrap_err();
    assert!(err.contains("--window-ms") && err.contains("totem compare"), "{err}");
}

#[test]
fn the_backend_flag_is_refused() {
    type Command = fn(&[String]) -> Result<(), String>;
    let run: [(&str, Command); 3] = [
        ("throughput", commands::throughput),
        ("scale", commands::scale),
        ("soak", commands::soak),
    ];
    for (name, command) in run {
        let err = command(&argv(&["--backend", "ring-paxos", "--replication", "single"]))
            .expect_err(name);
        assert!(err.contains("--backend") && err.contains(name), "{name}: {err}");
    }
}

/// The flags `USAGE` lists under each command, read off its
/// `totem <command> [--flag VALUE] [--switch]` lines and their
/// bracketed continuation lines: `(command, flag, takes a value)`.
fn usage_flags() -> Vec<(String, String, bool)> {
    let mut flags = Vec::new();
    let mut command = None;
    for line in commands::USAGE.lines().map(str::trim) {
        if let Some(rest) = line.strip_prefix("totem ") {
            command = rest.split_whitespace().next().map(str::to_string);
        } else if !line.starts_with('[') {
            command = None;
        }
        let Some(command) = &command else { continue };
        for group in line.split('[').skip(1) {
            let mut words = group.trim_end_matches([']', ' ']).split_whitespace();
            if let Some(flag) = words.next() {
                flags.push((command.clone(), flag.to_string(), words.next().is_some()));
            }
        }
    }
    flags
}

#[test]
fn every_usage_flag_is_accepted_by_its_command() {
    let listed = usage_flags();
    assert!(listed.len() > 20, "USAGE reading found only {listed:?}");
    for (command, flag, takes_value) in &listed {
        let spec = commands::COMMANDS
            .iter()
            .find(|s| s.command == command)
            .unwrap_or_else(|| panic!("USAGE lists `totem {command}`, which has no flag spec"));
        let args = if *takes_value { argv(&[flag, "1"]) } else { argv(&[flag]) };
        if let Err(e) = Flags::parse(spec, &args) {
            panic!("USAGE lists {flag} under `totem {command}`: {e}");
        }
    }
    // And the converse: a command reads no flag USAGE does not list.
    for spec in &commands::COMMANDS {
        for (flag, takes_value) in
            spec.values.iter().map(|f| (f, true)).chain(spec.switches.iter().map(|f| (f, false)))
        {
            let entry = (spec.command.to_string(), format!("--{flag}"), takes_value);
            assert!(
                listed.contains(&entry),
                "`totem {}` reads --{flag}, USAGE omits it",
                spec.command
            );
        }
    }
}

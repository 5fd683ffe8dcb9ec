//! In-process integration tests of the `totem` subcommands.

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

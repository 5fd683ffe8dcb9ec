//! Bounded model-checker integration tests.
//!
//! Two concerns live here:
//!
//! * **Counterexample pipeline, end to end** — exploring under a
//!   deliberately-too-strong oracle must find a violation at small
//!   depth, minimize it with the chaos shrinker, and emit a repro TOML
//!   that replays deterministically to the same violation kind through
//!   the standard `chaos::run_with` path (the exact pipeline `cargo
//!   xtask chaos --replay` uses).
//! * **Determinism regressions** — the explored-state count and the
//!   order-independent state-space digest for fixed `(nodes, depth)`
//!   configurations are pinned. These numbers move only when the
//!   protocol stack, the simulator's event ordering, or the explorer's
//!   action alphabet changes — all of which deserve a deliberate,
//!   reviewed update of the pins.

use totem_cluster::chaos::{self, oracle, ChaosSchedule};
use totem_cluster::mc::{explore, McOptions};

/// The too-strong oracle finds a violation (EVS only guarantees
/// prefix equality on common messages, not whole-log prefix equality
/// across a partition), the shrinker minimizes it, and the emitted
/// TOML replays to the same violation kind.
#[test]
fn weakened_oracle_counterexample_shrinks_and_replays() {
    let mut opts = McOptions::new(2, 3);
    opts.crashes = 0; // focus the search: partitions alone break prefix equality
    opts.partitions = 1;
    opts.oracle = oracle::check_prefix_equality;

    let report = explore(&opts);
    let ce = report
        .counterexample
        .expect("prefix-equality oracle must be violated by a partition at depth <= 3");
    assert!(
        ce.violations.iter().any(|v| v.kind() == "prefix-equality"),
        "unexpected violation kinds: {:?}",
        ce.violations
    );
    assert!(
        ce.actions.iter().any(|a| format!("{a}").starts_with("partition")),
        "counterexample path should carry the partition: {:?}",
        ce.actions
    );

    // The schedule in the counterexample is already shrunk; it must
    // still reproduce, and survive a TOML round trip byte-for-byte.
    let toml = ce.schedule.to_toml();
    let parsed = ChaosSchedule::from_toml(&toml).expect("emitted repro TOML must parse");
    assert_eq!(ce.schedule, parsed, "repro TOML must round-trip exactly");

    let replay = chaos::run_with(&parsed, oracle::check_prefix_equality);
    assert!(
        replay.violations.iter().any(|v| v.kind() == "prefix-equality"),
        "replayed repro must reproduce the prefix-equality violation, got {:?}",
        replay.violations
    );

    // Under the real EVS oracle the same schedule is clean: the
    // "violation" exists only under the deliberately-too-strong check.
    let honest = chaos::run_with(&parsed, oracle::check_safety);
    assert!(
        honest.passed(),
        "the weakened-oracle counterexample must not violate real EVS safety: {:?}",
        honest.violations
    );
}

/// Replaying the shrunk schedule twice yields identical reports — the
/// repro file is deterministic, not merely flaky-reproducing.
#[test]
fn counterexample_replay_is_deterministic() {
    let mut opts = McOptions::new(2, 3);
    opts.crashes = 0;
    opts.partitions = 1;
    opts.oracle = oracle::check_prefix_equality;
    let ce = explore(&opts).counterexample.expect("violation at depth <= 3");

    let a = chaos::run_with(&ce.schedule, oracle::check_prefix_equality);
    let b = chaos::run_with(&ce.schedule, oracle::check_prefix_equality);
    assert_eq!(a.submitted, b.submitted);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(
        a.violations.iter().map(|v| v.kind()).collect::<Vec<_>>(),
        b.violations.iter().map(|v| v.kind()).collect::<Vec<_>>()
    );
}

/// Pinned state-space numbers for fixed configurations. The digest is
/// a toolchain-independent FNV-1a fold, so a pin failure always means
/// a real behavior change somewhere under the explorer. (Every node's
/// fingerprint leads with a zero engine tag, kept by
/// `SimCluster::state_fingerprint` so these digests hold.)
#[test]
fn explored_state_space_is_pinned() {
    let shallow = explore(&McOptions::new(2, 2));
    assert!(shallow.passed());
    assert_eq!(
        (shallow.states, shallow.digest),
        (58, 0xb719_0d72_0c9f_5de3),
        "state space changed for (nodes=2, depth=2); if intentional, update the pin"
    );

    let deeper = explore(&McOptions::new(2, 3));
    assert!(deeper.passed());
    assert_eq!(
        (deeper.states, deeper.digest),
        (166, 0xf8c4_bee5_baa9_95fa),
        "state space changed for (nodes=2, depth=3); if intentional, update the pin"
    );
}

/// Two runs of the same configuration agree exactly — state count,
/// digest, edge coverage, and first-seen depths.
#[test]
fn exploration_is_self_deterministic() {
    let opts = McOptions::new(2, 3);
    let a = explore(&opts);
    let b = explore(&opts);
    assert_eq!(a.states, b.states);
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.pruned, b.pruned);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.edges, b.edges);
}

/// The membership machine's core reformation cycle is exercised even
/// at a shallow bound: losing the token must drive
/// Operational -> Gather -> Commit -> Recovery -> Operational.
#[test]
fn shallow_bound_reaches_the_reformation_cycle() {
    let report = explore(&McOptions::new(2, 3));
    assert!(report.passed());
    for (from, event, to) in [
        ("Operational", "TokenLoss", "Gather"),
        ("Gather", "ConsensusReached", "Commit"),
        ("Commit", "RoundComplete", "Recovery"),
        ("Recovery", "RecoveryComplete", "Operational"),
    ] {
        assert!(
            report.edges.contains_key(&(from.to_string(), event.to_string(), to.to_string())),
            "edge {from} --{event}--> {to} not reached; got {:?}",
            report.edges.keys().collect::<Vec<_>>()
        );
    }
}

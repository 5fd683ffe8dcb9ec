//! `cargo xtask mc` — the bounded model-checking gate.
//!
//! Drives `totem_cluster::mc::explore` over the SRP membership machine
//! up to `--depth` quiet steps with the configured fault budgets,
//! checks the EVS oracle plus per-state invariants at every explored
//! state, and diffs the exercised `srp-membership` transitions against
//! `spec/protocol.toml`. Unreached spec edges at the bound are listed
//! explicitly — never silently dropped — and `--expect-edges N` turns
//! the reached-edge count into a CI regression gate. On a violation
//! the minimized counterexample is written as a chaos repro TOML that
//! `cargo xtask chaos --replay` runs back.

use std::path::PathBuf;
use std::process::ExitCode;

use totem_cluster::mc::{explore, McOptions, McReport};

use crate::{append_file, spec, unknown, usage_error, workspace_root, Flags};

struct Options {
    mc: McOptions,
    markdown: Option<PathBuf>,
    repro_dir: PathBuf,
    expect_edges: Option<usize>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        mc: McOptions::new(3, 8),
        markdown: None,
        repro_dir: PathBuf::from("."),
        expect_edges: None,
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--nodes" => opts.mc.nodes = flags.parse(flag, "an integer")?,
            "--depth" => opts.mc.depth = flags.parse(flag, "an integer")?,
            "--crashes" => opts.mc.crashes = flags.parse(flag, "an integer")?,
            "--partitions" => opts.mc.partitions = flags.parse(flag, "an integer")?,
            "--drops" => opts.mc.drops = flags.parse(flag, "an integer")?,
            "--dups" => opts.mc.dups = flags.parse(flag, "an integer")?,
            "--step-ms" => opts.mc.step_ms = flags.parse(flag, "an integer")?,
            "--seed" => opts.mc.seed = flags.parse(flag, "an integer")?,
            // Places the bootstrapped ring's sequence space just below
            // u64::MAX so exploration crosses the RFC 1982 wrap and
            // the reserved-zero skip within the first quiet step.
            "--start-near-wrap" => opts.mc.start_seq = u64::MAX - 2,
            "--backend" => opts.mc.backend = flags.value(flag)?.parse()?,
            "--markdown" => opts.markdown = Some(flags.value(flag)?.into()),
            "--repro-dir" => opts.repro_dir = flags.value(flag)?.into(),
            "--expect-edges" => opts.expect_edges = Some(flags.parse(flag, "an integer")?),
            _ => return Err(unknown(flag)),
        }
    }
    if opts.mc.nodes < 2 {
        return Err("--nodes must be at least 2".to_string());
    }
    if opts.mc.depth == 0 {
        return Err("--depth must be at least 1".to_string());
    }
    if opts.mc.step_ms == 0 || !opts.mc.step_ms.is_multiple_of(5) {
        return Err("--step-ms must be a positive multiple of 5".to_string());
    }
    Ok(opts)
}

/// Entry point for `cargo xtask mc`.
pub fn run(args: &[String]) -> ExitCode {
    let opts = match parse_options(args) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let Some(root) = workspace_root() else {
        eprintln!("error: cannot locate the workspace root (no Cargo.toml with [workspace])");
        return ExitCode::from(2);
    };
    let spec = match spec::load(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "mc: {} backend, {} nodes, depth {} ({}ms steps), budgets: {} crash(es), \
         {} partition(s), {} drop(s), {} dup(s), seed {}",
        opts.mc.backend,
        opts.mc.nodes,
        opts.mc.depth,
        opts.mc.step_ms,
        opts.mc.crashes,
        opts.mc.partitions,
        opts.mc.drops,
        opts.mc.dups,
        opts.mc.seed
    );
    if opts.mc.start_seq != 0 {
        println!("mc: start_seq {} (exploring across the serial wrap)", opts.mc.start_seq);
    }
    let report = explore(&opts.mc);
    println!(
        "mc: {} state(s) explored ({} execution(s), {} pruned), deepest {} step(s), \
         digest {:016x}",
        report.states, report.executions, report.pruned, report.deepest, report.digest
    );
    if report.transitions_dropped > 0 {
        println!(
            "mc: warning: {} transition record(s) dropped (trace capacity too small; \
             edge coverage below is a lower bound)",
            report.transitions_dropped
        );
    }

    let machines = opts.mc.tracked_machines();
    let (reached, unreached) = diff_spec(&spec, &report, machines);
    println!(
        "mc: {}/{} {} spec edge(s) reached at this bound",
        reached.len(),
        reached.len() + unreached.len(),
        machines.join("+")
    );
    println!("{:<14} {:>24} {:<14} {:>11}", "from", "event", "to", "first depth");
    for (t, depth) in &reached {
        println!("{:<14} {:>24} {:<14} {:>11}", t.from, t.event, t.to, depth);
    }
    for t in &unreached {
        println!("{:<14} {:>24} {:<14} {:>11}", t.from, t.event, t.to, "unreached");
    }
    for ((from, event, to), depth) in &report.edges {
        let documented = spec.transitions.iter().any(|t| {
            machines.contains(&t.machine.as_str())
                && t.from == *from
                && t.event == *event
                && t.to == *to
        });
        if !documented {
            println!(
                "mc: warning: exercised edge {from} --{event}--> {to} (first at depth \
                 {depth}) is not in spec/protocol.toml"
            );
        }
    }

    if let Some(path) = &opts.markdown {
        let md = markdown(&opts, &report, &reached, &unreached);
        if let Err(e) = append_file(path, &md) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if let Some(ce) = &report.counterexample {
        println!("mc: VIOLATION after {} action(s):", ce.actions.len());
        for (i, a) in ce.actions.iter().enumerate() {
            println!("    {i:>3}. {a}");
        }
        for v in &ce.violations {
            println!("    violation: {v}");
        }
        let path = opts.repro_dir.join(format!("mc-repro-seed{}.toml", opts.mc.seed));
        if let Err(e) = std::fs::write(&path, ce.schedule.to_toml()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "mc: minimized repro written to {} (replay: cargo xtask chaos --replay {})",
            path.display(),
            path.display()
        );
        return ExitCode::from(1);
    }

    if let Some(expect) = opts.expect_edges {
        if reached.len() < expect {
            println!(
                "mc: edge-coverage regression: {} reached, expected at least {expect}",
                reached.len()
            );
            return ExitCode::from(1);
        }
    }
    println!("mc: bounded state space exhausted with zero violations");
    ExitCode::SUCCESS
}

/// Splits the spec's edges for the tracked machines into (reached with
/// first depth, unreached), both in spec file order.
fn diff_spec<'s>(
    spec: &'s spec::Spec,
    report: &McReport,
    machines: &[&str],
) -> (Vec<(&'s spec::SpecTransition, u64)>, Vec<&'s spec::SpecTransition>) {
    let mut reached = Vec::new();
    let mut unreached = Vec::new();
    for t in spec.transitions.iter().filter(|t| machines.contains(&t.machine.as_str())) {
        match report.edges.get(&(t.from.clone(), t.event.clone(), t.to.clone())) {
            Some(depth) => reached.push((t, *depth)),
            None => unreached.push(t),
        }
    }
    (reached, unreached)
}

/// GitHub job-summary markdown: the run parameters, state-space
/// numbers, and the full edge table with unreached edges listed
/// explicitly.
fn markdown(
    opts: &Options,
    report: &McReport,
    reached: &[(&spec::SpecTransition, u64)],
    unreached: &[&spec::SpecTransition],
) -> String {
    use std::fmt::Write as _;
    let mut md = String::new();
    let _ = writeln!(md, "## Model checking (`cargo xtask mc`)\n");
    let _ = writeln!(
        md,
        "{} nodes, depth {} ({} ms steps), budgets: {} crash(es), {} partition(s), \
         {} drop(s), {} dup(s), seed {}\n",
        opts.mc.nodes,
        opts.mc.depth,
        opts.mc.step_ms,
        opts.mc.crashes,
        opts.mc.partitions,
        opts.mc.drops,
        opts.mc.dups,
        opts.mc.seed
    );
    let _ = writeln!(
        md,
        "{} states explored ({} executions, {} pruned), deepest {} steps, digest \
         `{:016x}`, **{}/{} spec edges reached**\n",
        report.states,
        report.executions,
        report.pruned,
        report.deepest,
        report.digest,
        reached.len(),
        reached.len() + unreached.len()
    );
    let _ = writeln!(md, "| from | event | to | first depth |");
    let _ = writeln!(md, "|------|-------|----|-------------|");
    for (t, depth) in reached {
        let _ = writeln!(md, "| {} | {} | {} | {depth} |", t.from, t.event, t.to);
    }
    for t in unreached {
        let _ = writeln!(md, "| {} | {} | {} | **unreached** |", t.from, t.event, t.to);
    }
    if !unreached.is_empty() {
        let _ = writeln!(
            md,
            "\nUnreached edges require fault alignments outside this bound \
             (deeper exploration or mid-reformation injections)."
        );
    }
    match &report.counterexample {
        Some(ce) => {
            let _ = writeln!(
                md,
                "\n**VIOLATION** after {} action(s); minimized repro uploaded as an \
                 artifact.",
                ce.actions.len()
            );
        }
        None => {
            let _ = writeln!(md, "\nBounded state space exhausted with zero violations.");
        }
    }
    md
}

//! `cargo xtask chaos` — the chaos schedule fuzzing gate.
//!
//! Fans seed-deterministic fault schedules (crashes, restarts,
//! partitions, network kills, send/receive fault bursts) across the
//! replication styles — including K-of-N, whose schedules also flip
//! the replication degree K mid-run — running each against the EVS
//! invariant oracle in `totem_cluster::chaos`. On a violation, optionally
//! minimizes the schedule with the built-in shrinker and always writes
//! a replayable TOML repro file; `--replay <file>` runs such a file
//! back, and runs a soak repro as the soak that wrote it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use totem_cluster::chaos::{self, ChaosReport, ChaosSchedule, Harness, Replay, ReplicationStyle};
use totem_cluster::BackendKind;

use crate::{par, unknown, usage_error, Flags};

const STYLES: [ReplicationStyle; 4] = [
    ReplicationStyle::Single,
    ReplicationStyle::Active,
    ReplicationStyle::Passive,
    ReplicationStyle::KOfN { copies: 2 },
];

struct Options {
    seeds: u64,
    seed_base: u64,
    steps: u64,
    nodes: usize,
    jobs: usize,
    corrupt: u64,
    minimize: bool,
    replay: Option<PathBuf>,
    repro_dir: PathBuf,
    backend: BackendKind,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seeds: 10,
        seed_base: 0,
        steps: 200,
        nodes: 4,
        jobs: par::default_jobs(),
        corrupt: 0,
        minimize: false,
        replay: None,
        repro_dir: PathBuf::from("."),
        backend: BackendKind::Totem,
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--seeds" => opts.seeds = flags.parse(flag, "an integer")?,
            "--seed-base" => opts.seed_base = flags.parse(flag, "an integer")?,
            "--steps" => opts.steps = flags.parse(flag, "an integer")?,
            "--nodes" => opts.nodes = flags.parse(flag, "an integer")?,
            "--jobs" => opts.jobs = flags.parse(flag, "an integer")?,
            "--corrupt" => opts.corrupt = flags.parse(flag, "a percentage")?,
            "--backend" => opts.backend = flags.value(flag)?.parse()?,
            "--minimize" => opts.minimize = true,
            "--replay" => opts.replay = Some(flags.value(flag)?.into()),
            "--repro-dir" => opts.repro_dir = flags.value(flag)?.into(),
            _ => return Err(unknown(flag)),
        }
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    if opts.nodes < 2 {
        return Err("--nodes must be at least 2".to_string());
    }
    if opts.steps < 16 {
        return Err("--steps must be at least 16".to_string());
    }
    if opts.jobs == 0 {
        return Err("--jobs must be at least 1".to_string());
    }
    if opts.corrupt > 100 {
        return Err("--corrupt is a percentage (0-100)".to_string());
    }
    Ok(opts)
}

/// Entry point for `cargo xtask chaos`.
pub fn run(args: &[String]) -> ExitCode {
    let opts = match parse_options(args) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };

    if let Some(path) = &opts.replay {
        return replay(&opts, path);
    }
    fuzz(&opts)
}

/// Replays one previously written repro file under the harness that
/// wrote it; with `--minimize`, a still-failing chaos or mc replay is
/// shrunk and written back out.
fn replay(opts: &Options, path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let schedule = match ChaosSchedule::from_toml(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    if opts.minimize && schedule.harness == Harness::Soak {
        eprintln!(
            "error: {} is a soak repro; --minimize shrinks chaos and mc repros only",
            path.display()
        );
        return ExitCode::from(2);
    }
    println!(
        "chaos: replaying {} ({} nodes, {}, seed {}, {} steps, {} commands)",
        path.display(),
        schedule.nodes,
        schedule.style,
        schedule.seed,
        schedule.steps,
        schedule.commands.len()
    );
    let violations: Vec<String> = match chaos::replay(&schedule) {
        Replay::Chaos(report) => report.violations.iter().map(ToString::to_string).collect(),
        Replay::Soak(report) => {
            println!(
                "soak: submitted {}, delivered {}, {} corruption(s), {} kflip(s)",
                report.submitted,
                report.delivered,
                report.corruptions.iter().sum::<u64>(),
                report.kflips
            );
            report.violations
        }
    };
    for v in &violations {
        println!("    violation: {v}");
    }
    if violations.is_empty() {
        println!("chaos: replay passed (the repro no longer violates the oracle)");
        ExitCode::SUCCESS
    } else {
        println!("chaos: replay reproduced {} violation(s)", violations.len());
        if opts.minimize {
            if let Err(e) = write_repro(opts, &schedule, schedule.style, schedule.seed) {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
        ExitCode::from(1)
    }
}

/// Builds the schedule for one (style, seed) cell. With `--corrupt P`,
/// `P`% of the seeds (chosen deterministically by the seed value, not
/// by position) additionally carry a burst of state corruptions; the
/// base fault plane is bit-identical either way, so a corrupting run's
/// commands match the plain run for the same seed.
fn make_schedule(opts: &Options, style: ReplicationStyle, seed: u64) -> ChaosSchedule {
    // Knuth-style multiplicative hash so `--corrupt 30` spreads over
    // the seed space instead of corrupting only seeds 0..30.
    let schedule = if opts.corrupt > 0 && seed.wrapping_mul(2654435761) % 100 < opts.corrupt {
        chaos::generate_corrupting(seed, style, opts.nodes, opts.steps, 3)
    } else {
        chaos::generate(seed, style, opts.nodes, opts.steps)
    };
    // `with_backend` also retargets coordinator crashes off node 0 for
    // Ring Paxos (fixed coordinator, no failover — by design).
    schedule.with_backend(opts.backend)
}

/// Fans `seeds` schedules across every replication style, running
/// `--jobs` cells concurrently. Each cell is an independent
/// deterministic simulation, so the report is printed in (style, seed)
/// order and is bit-identical for any job count.
fn fuzz(opts: &Options) -> ExitCode {
    println!(
        "chaos: {} backend, {} seed(s) x {} style(s), {} nodes, {} traffic ticks of {}ms, {} job(s)",
        opts.backend,
        opts.seeds,
        if opts.backend == BackendKind::RingPaxos { 1 } else { STYLES.len() },
        opts.nodes,
        opts.steps,
        chaos::TICK.as_nanos() / 1_000_000,
        opts.jobs
    );
    println!(
        "{:<10} {:>6} {:>9} {:>8} {:>8} {:>10} {:>11}  result",
        "style", "seed", "commands", "crashes", "corrupt", "submitted", "delivered"
    );

    // Ring Paxos never touches the RRP replication plane, so fanning
    // it across styles would run the same engine four times; one cell
    // per seed suffices.
    let styles: &[ReplicationStyle] =
        if opts.backend == BackendKind::RingPaxos { &[ReplicationStyle::Active] } else { &STYLES };
    let cells: Vec<(ReplicationStyle, u64)> = styles
        .iter()
        .flat_map(|style| {
            (opts.seed_base..opts.seed_base + opts.seeds).map(move |seed| (*style, seed))
        })
        .collect();
    let results = par::fan_out(opts.jobs, cells.len(), |i| {
        let (style, seed) = cells[i];
        let schedule = make_schedule(opts, style, seed);
        let report = chaos::run(&schedule);
        (schedule, report)
    });

    let mut failures = 0u64;
    for ((style, seed), (schedule, report)) in cells.iter().zip(&results) {
        let delivered = format!(
            "{}..{}",
            report.delivered.iter().min().copied().unwrap_or(0),
            report.delivered.iter().max().copied().unwrap_or(0)
        );
        println!(
            "{:<10} {:>6} {:>9} {:>8} {:>8} {:>10} {:>11}  {}",
            style.spelling(),
            seed,
            schedule.commands.len(),
            report.crashes,
            schedule.corruptions.len(),
            report.submitted,
            delivered,
            if report.passed() { "ok" } else { "VIOLATION" }
        );
        if !report.passed() {
            failures += 1;
            print_violations(report);
            if let Err(e) = write_repro(opts, schedule, *style, *seed) {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if failures == 0 {
        println!("chaos: all {} schedule(s) passed the EVS oracle", cells.len());
        ExitCode::SUCCESS
    } else {
        println!("chaos: {failures} schedule(s) violated the oracle");
        ExitCode::from(1)
    }
}

fn print_violations(report: &ChaosReport) {
    for v in &report.violations {
        println!("    violation: {v}");
    }
}

/// Writes the (optionally minimized) repro TOML next to the repo root
/// so CI can upload it as an artifact.
fn write_repro(
    opts: &Options,
    schedule: &ChaosSchedule,
    style: ReplicationStyle,
    seed: u64,
) -> Result<(), String> {
    let repro = if opts.minimize {
        println!("    minimizing (delta debugging over {} commands)...", schedule.commands.len());
        let shrunk = chaos::shrink(schedule, chaos::oracle::check_safety);
        println!(
            "    minimized: {} -> {} commands, {} -> {} steps",
            schedule.commands.len(),
            shrunk.commands.len(),
            schedule.steps,
            shrunk.steps
        );
        shrunk
    } else {
        schedule.clone()
    };
    let tag = match schedule.backend {
        BackendKind::Totem => String::new(),
        other => format!("{other}-"),
    };
    // CI uploads repros as artifacts, whose names may not hold a `:`.
    let label = style.spelling().replace(':', "-");
    let path = opts.repro_dir.join(format!("chaos-repro-{tag}{label}-{seed}.toml"));
    std::fs::write(&path, repro.to_toml())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("    repro written to {}", path.display());
    Ok(())
}

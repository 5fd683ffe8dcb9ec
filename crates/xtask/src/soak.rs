//! `cargo xtask soak` — the long-horizon self-stabilization gate.
//!
//! Runs the soak engine in `totem_cluster::chaos::soak` over a fan-out
//! of seeds: each seed is hours-to-minutes of simulated time of
//! replicated-KV traffic under diurnal load, with a slow drip of chaos
//! faults, state corruptions, and (for K-of-N) runtime K
//! reconfigurations. The rolling-window EVS oracle checks safety with
//! bounded memory the whole way, and the reconvergence oracle requires
//! every corruption to stabilize back into an agreed regular
//! membership within its bound. Failing seeds write a repro TOML that
//! `cargo xtask chaos --replay` runs back as the same soak.
//!
//! Seeds fan across `--jobs` threads (shared machinery with
//! `cargo xtask chaos --jobs`); reports print in seed order and are
//! bit-identical for any job count.

use std::path::PathBuf;
use std::process::ExitCode;

use totem_cluster::chaos::soak::{self, SoakOptions};
use totem_cluster::chaos::CorruptionTarget;

use crate::{par, unknown, usage_error, Flags};

struct Options {
    soak: SoakOptions,
    seeds: u64,
    seed_base: u64,
    jobs: usize,
    repro_dir: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        soak: SoakOptions::default(),
        seeds: 8,
        seed_base: 0,
        jobs: par::default_jobs(),
        repro_dir: PathBuf::from("."),
    };
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--seeds" => opts.seeds = flags.parse(flag, "an integer")?,
            "--seed-base" => opts.seed_base = flags.parse(flag, "an integer")?,
            "--jobs" => opts.jobs = flags.parse(flag, "an integer")?,
            "--minutes" => opts.soak.seconds = flags.parse::<u64>(flag, "an integer")? * 60,
            "--nodes" => opts.soak.nodes = flags.parse(flag, "an integer")?,
            "--style" => opts.soak.style = flags.value(flag)?.parse()?,
            "--corrupt" => opts.soak.corrupt_pct = flags.parse(flag, "a percentage")?,
            "--repro-dir" => opts.repro_dir = flags.value(flag)?.into(),
            _ => return Err(unknown(flag)),
        }
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    if opts.soak.nodes < 2 {
        return Err("--nodes must be at least 2".to_string());
    }
    if opts.soak.seconds == 0 {
        return Err("--minutes must be at least 1".to_string());
    }
    if opts.jobs == 0 {
        return Err("--jobs must be at least 1".to_string());
    }
    if opts.soak.corrupt_pct > 100 {
        return Err("--corrupt is a percentage (0-100)".to_string());
    }
    Ok(opts)
}

/// Entry point for `cargo xtask soak`.
pub fn run(args: &[String]) -> ExitCode {
    let opts = match parse_options(args) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let sopts = &opts.soak;

    println!(
        "soak: {} seed(s) x {} simulated minute(s), {} nodes, {}, corrupt {}%, {} job(s)",
        opts.seeds,
        sopts.seconds / 60,
        sopts.nodes,
        sopts.style,
        sopts.corrupt_pct,
        opts.jobs
    );
    println!(
        "{:>6} {:>7} {:>8} {:>7} {:>10} {:>10} {:>9}  result",
        "seed", "faults", "corrupt", "kflips", "submitted", "delivered", "retained"
    );

    let reports = par::fan_out(opts.jobs, opts.seeds as usize, |i| {
        soak::run(&soak::plan(opts.seed_base + i as u64, sopts))
    });

    let mut failures = 0u64;
    let mut coverage = [0u64; 5];
    for (i, report) in reports.iter().enumerate() {
        let seed = opts.seed_base + i as u64;
        for (total, n) in coverage.iter_mut().zip(report.corruptions) {
            *total += n;
        }
        println!(
            "{seed:>6} {:>7} {:>8} {:>7} {:>10} {:>10} {:>9}  {}",
            report.faults,
            report.corruptions.iter().sum::<u64>(),
            report.kflips,
            report.submitted,
            report.delivered,
            report.peak_retained,
            if report.passed() { "ok" } else { "VIOLATION" }
        );
        if !report.passed() {
            failures += 1;
            for v in report.violations.iter().take(10) {
                println!("    violation: {v}");
            }
            if report.violations.len() > 10 {
                println!("    ... and {} more", report.violations.len() - 10);
            }
            let path = opts.repro_dir.join(format!("soak-repro-{seed}.toml"));
            if let Err(e) = std::fs::write(&path, report.schedule.to_toml()) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!(
                "    repro written to {} (replay: cargo xtask chaos --replay)",
                path.display()
            );
        }
    }

    let coverage_line = CorruptionTarget::ALL
        .iter()
        .zip(coverage)
        .map(|(t, n)| format!("{t}={n}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("soak: corruption coverage: {coverage_line}");
    if sopts.corrupt_pct > 0 {
        if let Some(missing) =
            CorruptionTarget::ALL.iter().zip(coverage).find(|(_, n)| *n == 0).map(|(t, _)| t)
        {
            println!(
                "soak: note: target `{missing}` was never drawn — widen --seeds or --minutes \
                 for full per-variant coverage"
            );
        }
    }

    if failures == 0 {
        println!("soak: all {} seed(s) stabilized and passed the rolling EVS oracle", opts.seeds);
        ExitCode::SUCCESS
    } else {
        println!("soak: {failures} seed(s) failed");
        ExitCode::from(1)
    }
}

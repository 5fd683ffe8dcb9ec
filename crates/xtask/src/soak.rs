//! `cargo xtask soak` — the long-horizon self-stabilization gate.
//!
//! Runs the soak engine in `totem_cluster::chaos::soak` over a fan-out
//! of seeds: each seed is hours-to-minutes of simulated time of
//! replicated-KV traffic under diurnal load, with a slow drip of chaos
//! faults, state corruptions, and (for K-of-N) runtime K
//! reconfigurations. The rolling-window EVS oracle checks safety with
//! bounded memory the whole way, and the reconvergence oracle requires
//! every corruption to stabilize back into an agreed regular
//! membership within its bound. Failing seeds write a standard chaos
//! repro TOML replayable via `cargo xtask chaos --replay`.
//!
//! Seeds fan across `--jobs` threads (shared machinery with
//! `cargo xtask chaos --jobs`); reports print in seed order and are
//! bit-identical for any job count.

use std::path::PathBuf;
use std::process::ExitCode;

use totem_cluster::chaos::soak::{self, SoakOptions};
use totem_cluster::chaos::{CorruptionTarget, ReplicationStyle};

use crate::{par, USAGE};

struct Options {
    seeds: u64,
    seed_base: u64,
    jobs: usize,
    minutes: u64,
    nodes: usize,
    style: ReplicationStyle,
    corrupt: u64,
    window: usize,
    repro_dir: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seeds: 8,
        seed_base: 0,
        jobs: par::default_jobs(),
        minutes: 30,
        nodes: 4,
        style: ReplicationStyle::Active,
        corrupt: 50,
        window: 256,
        repro_dir: PathBuf::from("."),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value =
            |flag: &str| iter.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--seeds" => {
                opts.seeds = value("--seeds")?
                    .parse()
                    .map_err(|_| "--seeds needs an integer".to_string())?;
            }
            "--seed-base" => {
                opts.seed_base = value("--seed-base")?
                    .parse()
                    .map_err(|_| "--seed-base needs an integer".to_string())?;
            }
            "--jobs" => {
                opts.jobs =
                    value("--jobs")?.parse().map_err(|_| "--jobs needs an integer".to_string())?;
            }
            "--minutes" => {
                opts.minutes = value("--minutes")?
                    .parse()
                    .map_err(|_| "--minutes needs an integer".to_string())?;
            }
            "--nodes" => {
                opts.nodes = value("--nodes")?
                    .parse()
                    .map_err(|_| "--nodes needs an integer".to_string())?;
            }
            "--style" => opts.style = value("--style")?.parse()?,
            "--corrupt" => {
                opts.corrupt = value("--corrupt")?
                    .parse()
                    .map_err(|_| "--corrupt needs a percentage".to_string())?;
            }
            "--window" => {
                opts.window = value("--window")?
                    .parse()
                    .map_err(|_| "--window needs an integer".to_string())?;
            }
            "--repro-dir" => opts.repro_dir = PathBuf::from(value("--repro-dir")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    if opts.nodes < 2 {
        return Err("--nodes must be at least 2".to_string());
    }
    if opts.minutes == 0 {
        return Err("--minutes must be at least 1".to_string());
    }
    if opts.jobs == 0 {
        return Err("--jobs must be at least 1".to_string());
    }
    if opts.corrupt > 100 {
        return Err("--corrupt is a percentage (0-100)".to_string());
    }
    Ok(opts)
}

/// Entry point for `cargo xtask soak`.
pub fn run(args: &[String]) -> ExitCode {
    let opts = match parse_options(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sopts = SoakOptions {
        nodes: opts.nodes,
        style: opts.style,
        seconds: opts.minutes * 60,
        corrupt_pct: opts.corrupt,
        window: opts.window,
        loss_pct: 0.0,
    };

    println!(
        "soak: {} seed(s) x {} simulated minute(s), {} nodes, {}, corrupt {}%, window {}, {} job(s)",
        opts.seeds, opts.minutes, opts.nodes, opts.style, opts.corrupt, opts.window, opts.jobs
    );
    println!(
        "{:>6} {:>7} {:>8} {:>7} {:>10} {:>10} {:>9}  result",
        "seed", "faults", "corrupt", "kflips", "submitted", "delivered", "retained"
    );

    let reports = par::fan_out(opts.jobs, opts.seeds as usize, |i| {
        soak::run(opts.seed_base + i as u64, &sopts)
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
    if opts.corrupt > 0 {
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

//! `totem-benchmark`: one benchmark for the whole Totem stack.
//!
//! ```text
//! totem-benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced]
//!                 [--quick] [--out FILE]
//! totem-benchmark --compare A.json B.json
//! totem-benchmark --list
//! ```
//!
//! One run of one workload prints a table for people on stderr and, as
//! the last line of stdout, one JSON object with exactly `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric when
//! untraced, every per-layer metric when traced. Without `--workload`
//! all six run in turn and the last line holds one such object per
//! workload. See `benchmark/README.md`.

mod alloc;
mod compare;
mod json;
mod metrics;
mod mirror;
mod oracle;
mod procfs;
mod report;
mod rng;
mod simhost;
mod simrun;
mod simtrace;
mod stats;
mod trace;
mod udprun;
mod wire;
mod workloads;

use json::Json;
use report::WorkloadResult;
use workloads::{Kind, Workload};

#[global_allocator]
static GLOBAL: alloc::ThreadCountingAlloc = alloc::ThreadCountingAlloc;

/// `run_seconds` of `BENCHMARK.json`: what a run measures for unless
/// told otherwise.
const DEFAULT_SECONDS: u64 = 15;
/// `--quick`: the same schema from all six workloads in under 15 s.
const QUICK_SECONDS: u64 = 2;
/// Record one simulator event in this many in a traced sim pass.
const SIM_SAMPLING: u64 = 32;

const USAGE: &str = "\
usage: totem-benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced]
                       [--quick] [--out FILE]
       totem-benchmark --compare A.json B.json
       totem-benchmark --list       (workloads and metric glossary)
workloads: sim-sat-small sim-sat-large sim-lossy-passive sim-failover udp-sat udp-paced";

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
    list: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        compare: None,
        list: false,
    };
    let mut it = argv.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(flag, &mut it)?;
                args.workload =
                    Some(workloads::by_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let v = value(flag, &mut it)?;
                args.seed = v.parse().map_err(|_| format!("--seed: `{v}` is not a number"))?;
            }
            "--seconds" => {
                let v = value(flag, &mut it)?;
                args.seconds = match v.parse() {
                    Ok(n @ 1..=60) => n,
                    _ => {
                        return Err(format!("--seconds: `{v}` is not a whole number from 1 to 60"))
                    }
                };
            }
            "--trace" => {
                args.traced = match value(flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is neither 0 nor 1")),
                };
            }
            "--traced" => args.traced = true,
            "--quick" => args.seconds = QUICK_SECONDS,
            "--out" => args.out = Some(value(flag, &mut it)?),
            "--compare" => {
                args.compare = Some((value(flag, &mut it)?, value(flag, &mut it)?));
            }
            "--list" => args.list = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.trace.jsonl"))
}

fn run_workload(w: &'static Workload, args: &Args) -> Result<WorkloadResult, String> {
    match (&w.kind, args.traced) {
        (Kind::Sim(spec), false) => Ok(report::sim(w, &simrun::run(spec, args.seed, args.seconds))),
        (Kind::Sim(spec), true) => {
            trace::set_sampling(SIM_SAMPLING);
            let run = simrun::run_traced(spec, args.seed, args.seconds);
            trace::set_sampling(1);
            report::write_trace_file(&trace_path(w.name), &run.pass_b.tracer, run.pass_b.overhead)?;
            Ok(report::sim_traced(w, &run))
        }
        (Kind::Udp(spec), false) => {
            Ok(report::udp(w, &udprun::run(spec, args.seed, args.seconds, false)?))
        }
        (Kind::Udp(spec), true) => {
            // Half the budget untraced for the baseline, half traced.
            let half = (args.seconds / 2).max(1);
            let base = udprun::run(spec, args.seed, half, false)?;
            let traced = udprun::run(spec, args.seed, half, true)?;
            if let Some(first) = traced.trace.as_ref().and_then(|s| s.tracers.first()) {
                report::write_trace_file(&trace_path(w.name), first, trace::calibrate())?;
            }
            Ok(report::udp_traced(w, &base, &traced))
        }
    }
}

/// `--list`: the workloads and every metric, from the same tables the
/// reports use.
fn print_glossary() {
    use std::fmt::Write as _;
    let mut out = String::from("workloads:\n");
    for w in &workloads::ALL {
        let _ = writeln!(out, "  {:<18} {}", w.name, w.why);
    }
    out.push_str(
        "\nend-to-end metrics (bounds: sim / udp at one seed, then the bound of BENCHMARK.json):\n",
    );
    for m in metrics::END_TO_END {
        let _ = writeln!(
            out,
            "  {:<22} {:<6} {:<7} {:>5.1}% / {:>4.1}% / {:>4.1}%  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound_sim * 100.0,
            m.bound_udp * 100.0,
            m.bound * 100.0,
            m.what
        );
    }
    out.push_str("\nper-layer metrics (traced run; no bound):\n");
    for m in metrics::PER_LAYER {
        let on = match m.on {
            metrics::On::All => "all",
            metrics::On::Sim => "sim-*",
            metrics::On::Udp => "udp-*",
        };
        let _ = writeln!(
            out,
            "  {:<40} {:<6} {:<7} {:<6} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            on,
            m.what
        );
    }
    // A closed pipe (`| head`) is not an error worth a panic.
    let _ = std::io::Write::write_all(&mut std::io::stdout().lock(), out.as_bytes());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("totem-benchmark: {msg}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if args.list {
        print_glossary();
        return;
    }
    if let Some((a, b)) = &args.compare {
        match compare::run(a, b) {
            Ok(t) => std::process::exit(i32::from(t.regression > 0)),
            Err(e) => {
                eprintln!("totem-benchmark: {e}");
                std::process::exit(2);
            }
        }
    }

    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => workloads::ALL.iter().collect(),
    };
    let mut results = Vec::new();
    for w in selected {
        eprintln!(
            "totem-benchmark: {} seed {} for {} s, {} ({} cores)",
            w.name,
            args.seed,
            args.seconds,
            if args.traced { "traced" } else { "untraced" },
            std::thread::available_parallelism().map_or(1, usize::from),
        );
        match run_workload(w, &args) {
            Ok(r) => {
                report::print_table(&r);
                results.push(r);
            }
            Err(e) => {
                eprintln!("totem-benchmark: {}: {e}", w.name);
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = &args.out {
        let file = Json::obj([
            ("schema", Json::Str("totem-benchmark-v1".into())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds as f64)),
            ("traced", Json::Bool(args.traced)),
            ("workloads", Json::obj(results.iter().map(|r| (r.workload, report::result_entry(r))))),
        ]);
        if let Err(e) = std::fs::write(path, file.to_line() + "\n") {
            eprintln!("totem-benchmark: {path}: {e}");
            std::process::exit(1);
        }
    }

    // The contract's last line.
    let last = match results.as_slice() {
        [one] => report::contract_result(one),
        many => Json::obj(many.iter().map(|r| (r.workload, report::contract_result(r)))),
    };
    println!("{}", last.to_line());
    std::process::exit(i32::from(results.iter().any(|r| !r.correct())));
}

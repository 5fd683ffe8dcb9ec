//! Workspace automation for the Totem RRP reproduction.
//!
//! `cargo xtask lint` runs the totem-lint protocol-invariant pass over
//! every first-party crate (see [`rules`] for what each rule checks
//! and why). `cargo xtask conformance` checks the implemented state
//! machines against `spec/protocol.toml` and runs the deterministic
//! transition-coverage scenarios (see [`conformance`]). `cargo xtask
//! chaos` fuzzes seeded fault schedules against the EVS invariant
//! oracle, with delta-debugging minimization of failures (see
//! [`chaos`]). `cargo xtask soak` runs the long-horizon
//! self-stabilization soak: seeded replicated-KV workloads under a
//! slow drip of chaos and state-corruption faults, checked by the
//! rolling-window EVS oracle and the reconvergence oracle, fanned
//! across cores (see [`soak`]). `cargo xtask mc` exhaustively explores every fault
//! interleaving up to a bounded depth, checking the same oracle plus
//! per-state invariants at every explored state and reporting spec-edge
//! coverage (see [`mc`]).
//!
//! Diagnostics are `file:line: rule: message`, one per line on stdout,
//! so editors and CI can jump straight to the site.
//!
//! Exit codes are machine-readable for every subcommand:
//!
//! * `0` — clean (lint: zero findings; conformance: zero
//!   undocumented, zero unimplemented, every spec transition
//!   exercised; chaos: every schedule passed the oracle),
//! * `1` — at least one violation,
//! * `2` — usage or I/O error (bad arguments, unreadable files,
//!   malformed `spec/protocol.toml`).

mod chaos;
mod conformance;
mod lexer;
mod mc;
mod par;
mod rules;
mod soak;
mod spec;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rules::{Finding, Rule};

const USAGE: &str = "usage: cargo xtask <command>

commands:
  lint [--stats]
      Run the totem-lint static analysis pass over the workspace.
        --stats   also print per-crate violation counts

  conformance [--markdown <path>]
      Check note_transition call sites against spec/protocol.toml and
      run the deterministic transition-coverage scenarios.
        --markdown <path>   also write the coverage table as GitHub
                            markdown (append to $GITHUB_STEP_SUMMARY)

  chaos [--seeds N] [--seed-base B] [--steps S] [--nodes K]
        [--jobs J] [--corrupt PCT] [--minimize] [--replay <file>]
        [--repro-dir <dir>]
      Fuzz seed-deterministic fault schedules (crashes, restarts,
      partitions, network kills, fault bursts) across all three
      replication styles and check the EVS invariant oracle.
        --seeds N           schedules per style (default 10)
        --seed-base B       first seed (default 0) — lets CI shards
                            fuzz disjoint seed windows
        --steps S           traffic ticks per schedule (default 200)
        --nodes K           cluster size (default 4)
        --jobs J            concurrent schedules (default: available
                            cores); output is bit-identical for any J
        --corrupt PCT       give PCT% of seeds an additional burst of
                            state corruptions; the base fault plane
                            stays bit-identical (default 0)
        --minimize          shrink a violating schedule before writing
                            its repro file (chaos and mc repros only)
        --replay <file>     re-run a previously written repro TOML
                            under the harness that wrote it (chaos,
                            mc, or soak)
        --repro-dir <dir>   where repro files go (default .)

  soak [--seeds N] [--seed-base B] [--jobs J] [--minutes M]
       [--nodes K] [--style S] [--corrupt PCT] [--repro-dir <dir>]
      Long-horizon self-stabilization soak: per seed, M simulated
      minutes of replicated-KV traffic under diurnal load with a slow
      drip of chaos faults, state corruptions, and (k-of-n) runtime K
      reconfigurations. Safety is checked by the rolling-window EVS
      oracle (256 deliveries per node); every corruption must
      reconverge to an agreed regular membership within the
      stabilization bound. Failing seeds write soak-repro-<seed>.toml,
      which `cargo xtask chaos --replay` runs back as the same soak.
        --seeds N           soak seeds (default 8)
        --seed-base B       first seed (default 0)
        --jobs J            concurrent seeds (default: available
                            cores); output is bit-identical for any J
        --minutes M         simulated minutes per seed (default 30)
        --nodes K           cluster size (default 4)
        --style S           single | active | passive | ap:K |
                            k-of-n:K (default active)
        --corrupt PCT       chance each corruption slot fires
                            (default 50)
        --repro-dir <dir>   where repro files go (default .)

  mc [--nodes N] [--depth D] [--crashes K] [--partitions P]
     [--drops R] [--dups U] [--step-ms MS] [--seed S]
     [--markdown <path>] [--repro-dir <dir>] [--expect-edges E]
      Bounded exhaustive model checking: explore every fault
      interleaving (crashes, restarts, partitions, drop/dup windows)
      up to D quiet steps, run the EVS oracle plus per-state
      invariants at every explored state, and report which
      spec/protocol.toml srp-membership edges were exercised.
        --nodes N           cluster size (default 3)
        --depth D           quiet steps per path (default 8)
        --crashes K         crash budget per path (default 1)
        --partitions P      partition budget per path (default 1)
        --drops R           one-step recv-blackout budget (default 0)
        --dups U            one-step net-duplication budget (default 0)
        --step-ms MS        virtual time per quiet step (default 400)
        --seed S            simulation seed (default 0)
        --markdown <path>   append the edge table as GitHub markdown
        --repro-dir <dir>   where counterexample TOMLs go (default .)
        --expect-edges E    fail unless at least E spec edges reached";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("conformance") => run_conformance(&args[1..]),
        Some("chaos") => chaos::run(&args[1..]),
        Some("soak") => soak::run(&args[1..]),
        Some("mc") => mc::run(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Reads one subcommand's arguments front to back: the caller matches
/// each flag from [`Flags::next`] and takes its value, if it has one,
/// with [`Flags::value`] or [`Flags::parse`].
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags(args.iter())
    }

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The argument after `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The argument after `flag`, parsed; `what` names the expected
    /// kind in the error (`--seeds needs an integer`).
    fn parse<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> Result<T, String> {
        self.value(flag)?.parse().map_err(|_| format!("{flag} needs {what}"))
    }
}

fn unknown(arg: &str) -> String {
    format!("unknown argument `{arg}`")
}

/// Prints a usage error and returns exit code 2.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n{USAGE}");
    ExitCode::from(2)
}

/// The arguments of a subcommand whose only flag is `--markdown <path>`.
fn markdown_flag(args: &[String]) -> Result<Option<PathBuf>, String> {
    let mut flags = Flags::new(args);
    let mut path = None;
    while let Some(flag) = flags.next() {
        match flag {
            "--markdown" => {
                path = Some(flags.next().ok_or("--markdown needs a path")?.into());
            }
            _ => return Err(unknown(flag)),
        }
    }
    Ok(path)
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut stats = false;
    for arg in args {
        match arg.as_str() {
            "--stats" => stats = true,
            other => return usage_error(&unknown(other)),
        }
    }

    let Some(root) = workspace_root() else {
        eprintln!("error: cannot locate the workspace root (no Cargo.toml with [workspace])");
        return ExitCode::from(2);
    };

    let findings = match rules::analyze_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &findings {
        println!("{f}");
    }
    if stats {
        print_stats(&findings);
    }
    if findings.is_empty() {
        if !stats {
            println!("totem-lint: workspace clean");
        }
        ExitCode::SUCCESS
    } else {
        println!("totem-lint: {} violation(s)", findings.len());
        ExitCode::from(1)
    }
}

fn run_conformance(args: &[String]) -> ExitCode {
    let markdown_path = match markdown_flag(args) {
        Ok(path) => path,
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
    let report = match conformance::analyze(&root, &spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = markdown_path {
        let md = conformance::markdown(&report);
        if let Err(e) = append_file(&path, &md) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    conformance::print_diagnostics(&report, "spec/protocol.toml");
    let exercised = report.rows.iter().filter(|(_, _, n)| *n > 0).count();
    println!(
        "conformance: {} spec transitions, {} exercised by {} scenario(s)",
        report.rows.len(),
        exercised,
        report.scenarios.len()
    );
    if report.is_clean() {
        println!("conformance: spec and implementation agree");
        ExitCode::SUCCESS
    } else {
        println!(
            "conformance: {} violation(s)",
            report.undocumented.len() + report.unimplemented.len() + report.uncovered.len()
        );
        ExitCode::from(1)
    }
}

/// Appends to `path` (creating it if missing), matching how CI job
/// summaries expect `$GITHUB_STEP_SUMMARY` to be written.
fn append_file(path: &Path, text: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(text.as_bytes())
}

/// Walks up from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`; falls back to the location this binary was
/// compiled in.
fn workspace_root() -> Option<PathBuf> {
    if let Ok(mut dir) = std::env::current_dir() {
        loop {
            let manifest = dir.join("Cargo.toml");
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
            if !dir.pop() {
                break;
            }
        }
    }
    let compiled = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?.parent()?;
    compiled.exists().then(|| compiled.to_path_buf())
}

/// `--stats`: per-crate, per-rule violation counts.
fn print_stats(findings: &[Finding]) {
    let crates: Vec<String> = {
        let mut names: Vec<String> = findings.iter().map(|f| f.krate.clone()).collect();
        names.sort();
        names.dedup();
        names
    };
    println!();
    println!("totem-lint stats");
    println!("{:<18} {:>22} {:>12}", "crate", "rule", "violations");
    for krate in &crates {
        for rule in Rule::all() {
            let open = findings.iter().filter(|f| f.krate == *krate && f.rule == rule).count();
            if open > 0 {
                println!("{krate:<18} {:>22} {open:>12}", rule.name());
            }
        }
    }
    if findings.is_empty() {
        println!("(no open violations)");
    }
}

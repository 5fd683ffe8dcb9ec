//! `totem` — command-line driver for the Totem redundant ring
//! protocol reproduction.
//!
//! ```text
//! totem throughput [--nodes N] [--replication S] [--size BYTES] [--window-ms MS]
//! totem compare    [--nodes N] [--size BYTES]
//! totem figures    [--quick]
//! totem failover   [--replication S] [--nodes N]
//! totem soak       [--seconds S] [--loss PCT] [--replication S] [--seed X]
//! totem scale      [--replication S] [--size BYTES] [--max-nodes N]
//! totem udp        [--nodes N] [--networks M] [--replication S] [--msgs K]
//!                  [--size BYTES]
//! ```
//!
//! A flag the subcommand does not read is an error.
//!
//! Replication styles: `single`, `active`, `passive`, `ap:K`
//! (active-passive with K copies), `k-of-n:K` (the unified engine at
//! degree K), selected with `--replication`.
//! Everything except `udp` runs on the deterministic simulator (same
//! arguments → same output, bit for bit); `udp` exercises the same
//! stack over real loopback sockets under the threaded runtime.

use std::process::ExitCode;

use totem_cli::commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "throughput" => commands::throughput(rest),
        "compare" => commands::compare(rest),
        "figures" => commands::figures(rest),
        "failover" => commands::failover(rest),
        "soak" => commands::soak(rest),
        "scale" => commands::scale(rest),
        "udp" => commands::udp(rest),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

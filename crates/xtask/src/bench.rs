//! `cargo xtask bench` — the wall-clock benchmark gate.
//!
//! Runs the criterion micro-benches (wire codec, packing, window,
//! RRP) and the `bench_gate` macro binary from `totem-bench`, then
//! merges the gate's output with the committed pre-change baseline
//! (`crates/bench/baseline/pr4_*.json`) into `BENCH_PR4.json` at the
//! workspace root:
//!
//! ```json
//! { "baseline": {...}, "current": {...},
//!   "speedup": { "fig6_wall_clock": 2.4, "macro_events_per_sec": 2.1 },
//!   "determinism": { "ok": true, ... } }
//! ```
//!
//! Exit codes follow the xtask convention: `0` clean, `1` the gate
//! failed (determinism drift between baseline and current, or a
//! diverging repeat run), `2` usage/build/I/O error.
//!
//! `--quick` shortens the measured windows (and criterion via
//! `TOTEM_QUICK=1`) for CI smoke runs; determinism digests are
//! mode-independent, so drift detection is as strong in quick mode.

use std::path::Path;
use std::process::{Command, ExitCode};

pub fn run(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut skip_micro = false;
    let mut skip_h2h = false;
    let mut capture = false;
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--skip-micro" => skip_micro = true,
            "--skip-h2h" => skip_h2h = true,
            "--capture-baseline" => capture = true,
            other => return super::usage_error(&super::unknown(other)),
        }
    }

    let Some(root) = super::workspace_root() else {
        eprintln!("error: cannot locate the workspace root (no Cargo.toml with [workspace])");
        return ExitCode::from(2);
    };

    // 1. Criterion micro-benches (wire encode/decode, packing
    //    boundaries, window, RRP). `TOTEM_QUICK=1` shrinks criterion's
    //    measurement windows for smoke runs.
    if !skip_micro {
        println!("bench: running criterion micro-benches (micro)...");
        let mut cmd = Command::new("cargo");
        cmd.current_dir(&root).args(["bench", "-p", "totem-bench", "--bench", "micro"]);
        if quick {
            cmd.env("TOTEM_QUICK", "1");
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("error: criterion micro-benches failed ({s})");
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("error: cannot run cargo bench: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // 2. The macro gate binary (release build: wall-clock numbers in
    //    debug would be meaningless).
    let current = match run_gate(&root, "bench_gate", quick) {
        Ok(json) => json,
        Err(code) => return code,
    };

    // 3. The backend head-to-head gate (Totem vs Ring Paxos on the
    //    identical saturating workload; all metrics are sim-time
    //    derived, so its output is bit-stable across machines).
    let h2h_current = if skip_h2h {
        None
    } else {
        match run_gate(&root, "h2h_gate", quick) {
            Ok(json) => Some(json),
            Err(code) => return code,
        }
    };

    if capture {
        return match capture_baseline(&root, quick) {
            Ok(()) => {
                println!(
                    "bench: captured baseline crates/bench/baseline/pr4_{}.json",
                    if quick { "quick" } else { "full" }
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: cannot capture baseline: {e}");
                ExitCode::from(2)
            }
        };
    }

    // 4. Merge with the committed pre-change baseline.
    let baseline_name = if quick { "pr4_quick.json" } else { "pr4_full.json" };
    let baseline_path = root.join("crates/bench/baseline").join(baseline_name);
    let baseline = std::fs::read_to_string(&baseline_path).ok();
    if baseline.is_none() {
        println!(
            "bench: no baseline at {} (first run?); writing current only",
            baseline_path.display()
        );
    }

    let report = merge_report(baseline.as_deref(), &current);
    let bench_json = root.join("BENCH_PR4.json");
    if let Err(e) = std::fs::write(&bench_json, &report.json) {
        eprintln!("error: cannot write {}: {e}", bench_json.display());
        return ExitCode::from(2);
    }
    println!("bench: wrote {}", bench_json.display());
    for line in &report.summary {
        println!("bench: {line}");
    }

    // 5. The head-to-head report: the gate binary already performed
    //    its repeat-determinism self-check (non-zero exit on
    //    divergence); here the fresh grid digest is compared against
    //    the committed file when the modes match, then the file is
    //    refreshed.
    let mut h2h_ok = true;
    if let Some(h2h) = &h2h_current {
        let h2h_json = root.join("BENCH_PR10.json");
        if let Ok(committed) = std::fs::read_to_string(&h2h_json) {
            if field(&committed, "quick") == field(h2h, "quick") {
                let b = field(&committed, "grid_digest");
                let c = field(h2h, "grid_digest");
                if b.is_some() && b != c {
                    println!(
                        "bench: h2h determinism: FAIL (grid digest drifted: \
                         committed {} != current {})",
                        b.unwrap_or("?"),
                        c.unwrap_or("?")
                    );
                    h2h_ok = false;
                }
            }
        }
        if let Err(e) = std::fs::write(&h2h_json, h2h) {
            eprintln!("error: cannot write {}: {e}", h2h_json.display());
            return ExitCode::from(2);
        }
        println!("bench: wrote {}", h2h_json.display());
    }

    if report.ok && h2h_ok {
        println!("bench: gate passed");
        ExitCode::SUCCESS
    } else {
        println!("bench: gate FAILED");
        ExitCode::from(1)
    }
}

/// Runs one gate binary of `totem-bench` in release mode, writing to
/// `target/<bin>_current.json`, and returns what it wrote. The error
/// is the exit code to stop with: `1` when the gate itself failed, `2`
/// when it could not be run or its output could not be read.
fn run_gate(root: &Path, bin: &str, quick: bool) -> Result<String, ExitCode> {
    println!("bench: running {bin} (release)...");
    let out_path = root.join("target").join(format!("{bin}_current.json"));
    let status = Command::new("cargo")
        .current_dir(root)
        .args(["run", "--release", "-q", "-p", "totem-bench", "--bin", bin, "--"])
        .args(if quick { &["--quick"][..] } else { &[][..] })
        .args(["--out"])
        .arg(&out_path)
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("error: {bin} failed ({s})");
            return Err(ExitCode::from(1));
        }
        Err(e) => {
            eprintln!("error: cannot run {bin}: {e}");
            return Err(ExitCode::from(2));
        }
    }
    std::fs::read_to_string(&out_path).map_err(|e| {
        eprintln!("error: cannot read {}: {e}", out_path.display());
        ExitCode::from(2)
    })
}

struct Report {
    json: String,
    summary: Vec<String>,
    ok: bool,
}

/// Extracts `"key": value` (number or string) from the gate's known,
/// hand-rolled JSON layout. Not a general JSON parser — both sides of
/// the comparison are emitted by `bench_gate` itself.
fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    let end = rest.find([',', '\n', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

fn field_f64(json: &str, key: &str) -> Option<f64> {
    field(json, key)?.parse().ok()
}

/// Indents a complete JSON object two spaces for embedding.
fn indent(json: &str) -> String {
    json.trim_end().lines().map(|l| format!("  {l}")).collect::<Vec<_>>().join("\n")
}

fn merge_report(baseline: Option<&str>, current: &str) -> Report {
    let mut summary = Vec::new();
    let mut ok = true;

    let repeat_ok = field(current, "repeat_identical") == Some("true");
    if !repeat_ok {
        summary.push("determinism: FAIL (repeated fixed-seed runs diverged)".to_string());
        ok = false;
    }

    let mut speedup_fig6 = None;
    let mut speedup_events = None;
    let mut drift = false;
    if let Some(base) = baseline {
        for key in ["scenario_digest", "chaos_digest", "ap_digest"] {
            let b = field(base, key);
            let c = field(current, key);
            if b.is_some() && b != c {
                summary.push(format!(
                    "determinism: FAIL ({key} drifted: baseline {} != current {})",
                    b.unwrap_or("?"),
                    c.unwrap_or("?")
                ));
                drift = true;
                ok = false;
            }
        }
        if !drift && repeat_ok {
            summary.push("determinism: ok (digests match the pre-change baseline)".to_string());
        }
        if let (Some(b), Some(c)) =
            (field_f64(base, "total_wall_ms"), field_f64(current, "total_wall_ms"))
        {
            if c > 0.0 {
                let s = b / c;
                summary.push(format!("fig6 sweep wall-clock: {b:.0} ms -> {c:.0} ms ({s:.2}x)"));
                speedup_fig6 = Some(s);
            }
        }
        if let (Some(b), Some(c)) =
            (field_f64(base, "events_per_sec"), field_f64(current, "events_per_sec"))
        {
            if b > 0.0 {
                let s = c / b;
                summary.push(format!("macro events/sec: {b:.0} -> {c:.0} ({s:.2}x)"));
                speedup_events = Some(s);
            }
        }
        if let (Some(b), Some(c)) =
            (field_f64(base, "allocs_per_frame"), field_f64(current, "allocs_per_frame"))
        {
            summary.push(format!("allocs/frame: {b:.1} -> {c:.1}"));
        }
    }

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"totem-bench-pr4-v1\",\n");
    j.push_str("  \"issue\": \"zero-copy data plane (PR 4)\",\n");
    match (speedup_fig6, speedup_events) {
        (None, None) => j.push_str("  \"speedup\": null,\n"),
        (f, e) => {
            j.push_str("  \"speedup\": {\n");
            j.push_str(&format!(
                "    \"fig6_wall_clock\": {},\n",
                f.map_or("null".into(), |v| format!("{v:.3}"))
            ));
            j.push_str(&format!(
                "    \"macro_events_per_sec\": {}\n",
                e.map_or("null".into(), |v| format!("{v:.3}"))
            ));
            j.push_str("  },\n");
        }
    }
    j.push_str(&format!(
        "  \"determinism_ok\": {},\n",
        if baseline.is_some() { (!drift && repeat_ok).to_string() } else { repeat_ok.to_string() }
    ));
    match baseline {
        Some(base) => {
            j.push_str("  \"baseline\":\n");
            j.push_str(&indent(base));
            j.push_str(",\n");
        }
        None => j.push_str("  \"baseline\": null,\n"),
    }
    j.push_str("  \"current\":\n");
    j.push_str(&indent(current));
    j.push_str("\n}\n");

    Report { json: j, summary, ok }
}

/// Copies the gate's current output into the committed baseline slot.
/// Used once, before a perf change lands, to record the numbers the
/// change is judged against (`cargo xtask bench --capture-baseline`
/// is intentionally not exposed in USAGE: refreshing the baseline is
/// a deliberate, reviewed act).
pub fn capture_baseline(root: &Path, quick: bool) -> std::io::Result<()> {
    let dir = root.join("crates/bench/baseline");
    std::fs::create_dir_all(&dir)?;
    let out = root.join("target").join("bench_gate_current.json");
    let name = if quick { "pr4_quick.json" } else { "pr4_full.json" };
    std::fs::copy(&out, dir.join(name))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "totem-bench-gate-v1",
  "quick": true,
  "fig6": {
    "window_ms": 60,
    "total_wall_ms": 1234.500,
    "points": [
      {"style": "single", "size": 100, "wall_ms": 10.000, "msgs_per_sec": 5000.000}
    ]
  },
  "macro": {
    "window_ms": 250,
    "wall_ms": 400.000,
    "frames": 1000,
    "deliveries": 3000,
    "sim_msgs": 900,
    "events_per_sec": 10000.000
  },
  "allocs": {
    "allocs_per_frame": 12.500,
    "alloc_bytes_per_frame": 800.000
  },
  "determinism": {
    "scenario_digest": "00000000deadbeef",
    "chaos_digest": "00000000cafebabe",
    "ap_digest": "00000000feedface",
    "repeat_identical": true
  }
}
"#;

    #[test]
    fn field_extraction() {
        assert_eq!(field(SAMPLE, "total_wall_ms"), Some("1234.500"));
        assert_eq!(field(SAMPLE, "scenario_digest"), Some("00000000deadbeef"));
        assert_eq!(field(SAMPLE, "repeat_identical"), Some("true"));
        assert_eq!(field_f64(SAMPLE, "events_per_sec"), Some(10000.0));
    }

    #[test]
    fn merge_without_baseline_passes_when_repeatable() {
        let r = merge_report(None, SAMPLE);
        assert!(r.ok);
        assert!(r.json.contains("\"baseline\": null"));
        assert!(r.json.contains("\"determinism_ok\": true"));
    }

    #[test]
    fn merge_detects_digest_drift() {
        let drifted = SAMPLE.replace("00000000deadbeef", "1111111111111111");
        let r = merge_report(Some(SAMPLE), &drifted);
        assert!(!r.ok);
        assert!(r.summary.iter().any(|l| l.contains("drifted")));
        assert!(r.json.contains("\"determinism_ok\": false"));
    }

    #[test]
    fn merge_computes_speedups() {
        let faster = SAMPLE
            .replace("\"total_wall_ms\": 1234.500", "\"total_wall_ms\": 500.000")
            .replace("\"events_per_sec\": 10000.000", "\"events_per_sec\": 25000.000");
        let r = merge_report(Some(SAMPLE), &faster);
        assert!(r.ok);
        assert!(r.json.contains("\"fig6_wall_clock\": 2.469"));
        assert!(r.json.contains("\"macro_events_per_sec\": 2.500"));
    }

    #[test]
    fn merge_fails_when_repeat_diverges() {
        let bad = SAMPLE.replace("\"repeat_identical\": true", "\"repeat_identical\": false");
        let r = merge_report(None, &bad);
        assert!(!r.ok);
    }
}

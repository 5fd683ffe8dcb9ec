//! `--compare A.json B.json`: two result files, metric by metric.
//!
//! For every workload × end-to-end metric it prints both medians, their
//! ratio with its base, and a verdict under the metric's bound:
//!
//! * `PASS` — B is no worse than A by more than the bound, and both
//!   files' own spread (interquartile distance over median) is inside
//!   the bound;
//! * `REGRESSION` — B is worse than A by more than the bound and by
//!   more than the spread;
//! * `UNRESOLVED` — the spread is wider than the bound, so the pair
//!   can show neither.
//!
//! Two files of the same seed are held to the per-clock bounds (the
//! simulated clock repeats exactly, so 1 % there is a real signal);
//! files of different seeds to the across-seed bound that
//! `BENCHMARK.json` carries. Per-layer metrics have no bound and are
//! listed with their ratio only.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::workloads::{self, Kind};

/// One side of a comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// What a pair shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows, and resolved.
    Pass,
    /// Worse by more than the bound and the spread.
    Regression,
    /// Spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// By how much `new` is worse than `base`, as a share of `base`
/// (negative = better).
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// The verdict on one pair under `bound`.
pub fn judge(base: Side, new: Side, better: Better, bound: f64) -> Verdict {
    let spread = base.spread().max(new.spread());
    let worse = worse_by(base.value, new.value, better);
    if worse > bound {
        if worse > spread {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    }
}

fn side(metric: &Json) -> Option<Side> {
    let value = metric.get("value")?.as_f64()?;
    Some(Side {
        value,
        q1: metric.get("q1").and_then(Json::as_f64).unwrap_or(value),
        q3: metric.get("q3").and_then(Json::as_f64).unwrap_or(value),
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Tally of a comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Pairs that passed.
    pub pass: usize,
    /// Pairs that regressed.
    pub regression: usize,
    /// Pairs the spread leaves open.
    pub unresolved: usize,
}

/// Compares two parsed result files, writing the table to `out`.
pub fn compare(a: &Json, b: &Json, out: &mut dyn std::io::Write) -> std::io::Result<Tally> {
    let same_seed = a.get("seed").and_then(Json::as_f64) == b.get("seed").and_then(Json::as_f64);
    writeln!(
        out,
        "bounds: {}",
        if same_seed {
            "same seed in both files: per-clock bounds (sim / udp)"
        } else {
            "different seeds: the across-seed bounds of BENCHMARK.json"
        }
    )?;
    let mut tally = Tally::default();
    let empty = std::collections::BTreeMap::new();
    let wa = a.get("workloads").and_then(Json::as_obj).unwrap_or(&empty);
    let wb = b.get("workloads").and_then(Json::as_obj).unwrap_or(&empty);
    for w in &workloads::ALL {
        let (Some(ea), Some(eb)) = (wa.get(w.name), wb.get(w.name)) else { continue };
        writeln!(out, "\n== {} ==", w.name)?;
        writeln!(
            out,
            "  {:<40} {:>16} {:>16} {:>10} {:>8} {:>8}  verdict",
            "metric", "A (base)", "B", "B/A", "spread", "bound"
        )?;
        let mut record = |v: Verdict| match v {
            Verdict::Pass => tally.pass += 1,
            Verdict::Regression => tally.regression += 1,
            Verdict::Unresolved => tally.unresolved += 1,
        };
        // The two correctness figures first: absolute rules.
        let num = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let (fa, fb) = (num(ea, "failed_ops_share"), num(eb, "failed_ops_share"));
        let v = if fb > fa + 0.001 { Verdict::Regression } else { Verdict::Pass };
        record(v);
        writeln!(
            out,
            "  {:<40} {:>16.6} {:>16.6} {:>10} {:>8} {:>8}  {}",
            "failed_ops_share",
            fa,
            fb,
            "-",
            "-",
            "+0.001",
            v.as_str()
        )?;
        let (oa, ob) = (num(ea, "order_violations"), num(eb, "order_violations"));
        let v = if ob > 0.0 { Verdict::Regression } else { Verdict::Pass };
        record(v);
        writeln!(
            out,
            "  {:<40} {:>16} {:>16} {:>10} {:>8} {:>8}  {}",
            "order_violations",
            oa,
            ob,
            "-",
            "-",
            "0",
            v.as_str()
        )?;

        let (Some(ma), Some(mb)) = (ea.get("metrics"), eb.get("metrics")) else { continue };
        for m in END_TO_END {
            let (Some(sa), Some(sb)) =
                (ma.get(m.name).and_then(side), mb.get(m.name).and_then(side))
            else {
                continue;
            };
            let bound = match (same_seed, &w.kind) {
                (false, _) => m.bound,
                (true, Kind::Sim(_)) => m.bound_sim,
                (true, Kind::Udp(_)) => m.bound_udp,
            };
            let v = judge(sa, sb, m.better, bound);
            record(v);
            writeln!(
                out,
                "  {:<40} {:>16.4} {:>16.4} {:>10.4} {:>7.2}% {:>7.2}%  {}",
                m.name,
                sa.value,
                sb.value,
                if sa.value == 0.0 { 0.0 } else { sb.value / sa.value },
                sa.spread().max(sb.spread()) * 100.0,
                bound * 100.0,
                v.as_str()
            )?;
        }
        // (The ungated end-to-end metrics are listed under `per_layer`
        // too; they were judged above.)
        for m in PER_LAYER.iter().filter(|m| END_TO_END.iter().all(|e| e.name != m.name)) {
            let (Some(sa), Some(sb)) =
                (ma.get(m.name).and_then(side), mb.get(m.name).and_then(side))
            else {
                continue;
            };
            writeln!(
                out,
                "  {:<40} {:>16.4} {:>16.4} {:>10.4} {:>8} {:>8}  (no bound)",
                m.name,
                sa.value,
                sb.value,
                if sa.value == 0.0 { 0.0 } else { sb.value / sa.value },
                "-",
                "-"
            )?;
        }
    }
    writeln!(
        out,
        "\n{} PASS, {} REGRESSION, {} UNRESOLVED",
        tally.pass, tally.regression, tally.unresolved
    )?;
    Ok(tally)
}

/// `--compare A B`: prints the table to stdout.
///
/// # Errors
///
/// Returns a description when a file cannot be read or parsed.
pub fn run(path_a: &str, path_b: &str) -> Result<Tally, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("A (base): {path_a}\nB:        {path_b}");
    compare(&a, &b, &mut std::io::stdout().lock()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(v: f64) -> Side {
        Side { value: v, q1: v, q3: v }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        // Exact values: only the bound matters.
        assert_eq!(judge(exact(100.0), exact(100.9), Better::Lower, 0.01), Verdict::Pass);
        assert_eq!(judge(exact(100.0), exact(101.1), Better::Lower, 0.01), Verdict::Regression);
        assert_eq!(judge(exact(100.0), exact(80.0), Better::Lower, 0.01), Verdict::Pass);
        assert_eq!(judge(exact(100.0), exact(80.0), Better::Higher, 0.08), Verdict::Regression);
        // A spread wider than the bound resolves nothing …
        let noisy = Side { value: 100.0, q1: 90.0, q3: 110.0 };
        assert_eq!(judge(noisy, exact(101.0), Better::Lower, 0.08), Verdict::Unresolved);
        assert_eq!(judge(noisy, exact(115.0), Better::Lower, 0.08), Verdict::Unresolved);
        // … unless the change is wider still.
        assert_eq!(judge(noisy, exact(130.0), Better::Lower, 0.08), Verdict::Regression);
        // A spread inside the bound is resolved.
        let steady = Side { value: 100.0, q1: 98.0, q3: 102.0 };
        assert_eq!(judge(steady, exact(105.0), Better::Lower, 0.08), Verdict::Pass);
    }

    fn file(seed: f64, rate: f64, violations: f64) -> Json {
        let metric = |v: f64| {
            Json::obj([("value", Json::Num(v)), ("q1", Json::Num(v)), ("q3", Json::Num(v))])
        };
        Json::obj([
            ("seed", Json::Num(seed)),
            (
                "workloads",
                Json::obj([(
                    "sim-sat-small",
                    Json::obj([
                        ("failed_ops_share", Json::Num(0.0)),
                        ("order_violations", Json::Num(violations)),
                        ("metrics", Json::obj([("delivered_msgs_per_s", metric(rate))])),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compare_tallies_and_picks_bounds_by_seed() {
        let mut sink = Vec::new();
        // Same seed: sim bound is 1 %, so -2 % throughput regresses.
        let t = compare(&file(1.0, 49_000.0, 0.0), &file(1.0, 48_000.0, 0.0), &mut sink)
            .expect("writes");
        assert_eq!(t, Tally { pass: 2, regression: 1, unresolved: 0 });
        // Different seeds: the across-seed bound is looser.
        let t = compare(&file(1.0, 49_000.0, 0.0), &file(2.0, 48_000.0, 0.0), &mut sink)
            .expect("writes");
        assert_eq!(t.regression, 0);
        // An order violation always regresses.
        let t = compare(&file(1.0, 49_000.0, 0.0), &file(1.0, 49_000.0, 1.0), &mut sink)
            .expect("writes");
        assert_eq!(t.regression, 1);
        let text = String::from_utf8(sink).expect("utf-8");
        assert!(text.contains("REGRESSION") && text.contains("sim-sat-small"));
    }
}

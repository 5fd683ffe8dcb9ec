//! Long-horizon soak harness: a replicated-KV workload under diurnal
//! load, with a slow drip of chaos faults, state corruptions, and
//! runtime K reconfigurations, checked continuously by the
//! rolling-window EVS oracle ([`RollingOracle`]) and by the
//! **reconvergence oracle**: after every injected corruption, all
//! correct nodes must reach an agreed regular membership and resume
//! totally-ordered delivery within a bounded stabilization window
//! (60 simulated seconds — thousands of token rotations at the default
//! timers; generous, but finite).
//!
//! [`plan`] lays a seed's whole drip out up front as a
//! [`ChaosSchedule`] marked [`Harness::Soak`], and [`run`] executes it
//! tick by tick through the shared executor. The report is a function
//! of the schedule alone, so a failing seed's repro TOML replays the
//! soak itself through `cargo xtask chaos --replay`, and re-running a
//! seed — on any number of worker threads — produces a bit-identical
//! [`SoakReport`].
//!
//! Memory stays bounded on arbitrarily long horizons: the rolling
//! oracle consumes and prunes the per-node delivery logs as it goes,
//! so peak retained state is O(nodes × [`WINDOW`]), not O(run length).

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use totem_sim::{CorruptionTarget, SimTime};
use totem_wire::NodeId;

use super::exec::Execution;
use super::oracle::RollingOracle;
use super::{
    draw_fault_pair, networks_for, ChaosSchedule, Harness, KFlip, ReplicationStyle,
    ScheduledCorruption, TICK,
};

const NS: u64 = 1_000_000_000;

/// Rolling-oracle window: deliveries retained per node. A duplicate or
/// divergence further apart than this is invisible to the scans.
pub const WINDOW: usize = 256;

/// One drip round: a fault burst in the first half, a corruption slot
/// in the second, spaced so stabilization windows never overlap the
/// next injection.
const ROUND_NS: u64 = 240 * NS;

/// The reconvergence bound: after a corruption fires, every correct
/// node must be back in an agreed regular membership within this much
/// simulated time (thousands of token rotations).
const STABILIZE_NS: u64 = 60 * NS;

/// Rolling-oracle scan cadence.
const SCAN_NS: u64 = 10 * NS;

/// Diurnal load period (one compressed "day").
const PERIOD_NS: u64 = 600 * NS;

/// The shape of one seed's drip, as [`plan`] lays it out.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Cluster size.
    pub nodes: usize,
    /// Replication style under test.
    pub style: ReplicationStyle,
    /// Simulated run length in seconds.
    pub seconds: u64,
    /// Percent chance that each corruption slot fires (0 disables the
    /// corruption plane entirely).
    pub corrupt_pct: u64,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions { nodes: 4, style: ReplicationStyle::Active, seconds: 1800, corrupt_pct: 50 }
    }
}

/// What one soak seed observed.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Every violation, as a display string (empty = the seed passed).
    pub violations: Vec<String>,
    /// Messages accepted for submission.
    pub submitted: u64,
    /// Deliveries consumed by the rolling oracle, summed over nodes.
    pub delivered: u64,
    /// Fault commands in the drip (injections and their heals).
    pub faults: u64,
    /// Corruption injections per target, in [`CorruptionTarget::ALL`]
    /// order.
    pub corruptions: [u64; 5],
    /// Runtime K reconfigurations applied.
    pub kflips: u64,
    /// Rolling-oracle scans performed.
    pub scans: u64,
    /// Peak retained deliveries (oracle tails + pruned cluster logs) —
    /// the O([`WINDOW`]) bound.
    pub peak_retained: usize,
    /// The full drip, replayable via `cargo xtask chaos --replay`.
    pub schedule: ChaosSchedule,
}

impl SoakReport {
    /// `true` when every oracle held for the whole horizon.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lays out the whole drip for one seed: per 4-minute round, one
/// transient fault (healed within the round's first half), an optional
/// K reconfiguration, and — with probability `corrupt_pct`% — one
/// state corruption in the second half, far enough from every fault
/// that its stabilization window is undisturbed. Runs shorter than one
/// round get a single mid-run corruption slot so even smoke horizons
/// exercise the corruption plane.
pub fn plan(seed: u64, opts: &SoakOptions) -> ChaosSchedule {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x50AC_0DD5_50AC_0DD5);
    let networks = networks_for(opts.style);
    let total_ns = opts.seconds * NS;
    let steps = total_ns / TICK.as_nanos();
    let mut commands = Vec::new();
    let mut kflips = Vec::new();
    let mut corruptions = Vec::new();

    let rounds = total_ns / ROUND_NS;
    for r in 0..rounds {
        let base = r * ROUND_NS;
        let at = base + rng.gen_range(0..60 * NS);
        let dur = rng.gen_range(5 * NS..45 * NS);
        draw_fault_pair(&mut commands, &mut rng, at, dur, opts.nodes, networks);

        if matches!(opts.style, ReplicationStyle::KOfN { .. }) {
            let at = base + rng.gen_range(30 * NS..90 * NS);
            let node = NodeId::new(rng.gen_range(0..opts.nodes as u64) as u16);
            let k = rng.gen_range(1..networks as u64 + 1) as usize;
            kflips.push(KFlip { at_ns: at, node, k });
        }

        // Corruption slot: second half of the round, after every fault
        // in this round has healed (fault ends by base+105s, slot
        // opens at base+120s) and with the 60s stabilization window
        // closing before the next round's first injection.
        let roll = rng.gen_range(0..100);
        let at = base + 120 * NS + rng.gen_range(0..30 * NS);
        let node = NodeId::new(rng.gen_range(0..opts.nodes as u64) as u16);
        let salt = rng.gen_range(0..u64::MAX);
        if roll < opts.corrupt_pct {
            // Cycle the target by (seed + round) so every variant is
            // exercised across a seed fan-out even at one round/seed.
            let target = CorruptionTarget::ALL[((seed.wrapping_add(r)) % 5) as usize];
            corruptions.push(ScheduledCorruption { at_ns: at, node, target, salt });
        }
    }

    if rounds == 0 && opts.corrupt_pct > 0 && total_ns >= 30 * NS {
        // Smoke-length fallback: one mid-run corruption slot.
        let roll = rng.gen_range(0..100);
        let at = total_ns * 2 / 5;
        let node = NodeId::new(rng.gen_range(0..opts.nodes as u64) as u16);
        let salt = rng.gen_range(0..u64::MAX);
        if roll < opts.corrupt_pct {
            let target = CorruptionTarget::ALL[(seed % 5) as usize];
            corruptions.push(ScheduledCorruption { at_ns: at, node, target, salt });
        }
    }

    commands.sort_by_key(|c| c.at_ns);
    kflips.sort_by_key(|f| f.at_ns);
    corruptions.sort_by_key(|c| c.at_ns);
    ChaosSchedule {
        seed,
        nodes: opts.nodes,
        style: opts.style,
        steps,
        commands,
        kflips,
        corruptions,
        start_seq: 0,
        backend: crate::backend::BackendKind::Totem,
        harness: Harness::Soak,
    }
}

/// The diurnal submission gap, in ticks: a triangle wave between a
/// quiet trough (one message per 100 ticks) and a busy peak (one per
/// 5 ticks) over each [`PERIOD_NS`] "day". Integer arithmetic only, so
/// the waveform is identical on every platform.
fn diurnal_gap_ticks(now_ns: u64) -> u64 {
    const GAP_MAX: u64 = 100;
    const GAP_MIN: u64 = 5;
    let pos = now_ns % PERIOD_NS;
    let half = PERIOD_NS / 2;
    let tri = if pos < half { pos } else { PERIOD_NS - pos };
    GAP_MAX - tri * (GAP_MAX - GAP_MIN) / half
}

/// Executes one soak schedule — from [`plan`], or read back from its
/// repro — end to end. See the module docs for the oracle regime; the
/// returned report is a pure function of the schedule.
pub fn run(schedule: &ChaosSchedule) -> SoakReport {
    let nodes = schedule.nodes;
    let mut exec = Execution::new(schedule, None);
    let mut oracle = RollingOracle::new(nodes, WINDOW);
    let mut violations: Vec<String> = Vec::new();
    let mut scans = 0u64;
    let mut peak_retained = 0usize;
    let mut key_rng = SmallRng::seed_from_u64(schedule.seed ^ 0x4B5E_ED00_4B5E_ED00);

    let tick = TICK.as_nanos();
    let mut corrupt_times = schedule.corruptions.iter().map(|c| c.at_ns).peekable();
    let mut kflips = 0u64;
    // While `Some(deadline)`: a corruption fired; scanning is paused
    // and the cluster must reconverge before the deadline, at which
    // point the oracle re-arms (everything delivered meanwhile is the
    // exempt stabilization interval).
    let mut stabilizing: Option<u64> = None;
    let mut next_scan = SCAN_NS;
    let mut next_submit = 0u64;

    for step in 0..schedule.steps {
        let now = (step + 1) * tick;
        exec.cluster.run_until(SimTime::from_nanos(now));
        kflips += exec.apply_flips_until(now);

        while let Some(at) = corrupt_times.next_if(|&t| t <= now) {
            let deadline = at + STABILIZE_NS;
            stabilizing = Some(stabilizing.map_or(deadline, |d| d.max(deadline)));
        }

        if let Some(deadline) = stabilizing {
            // Convergence polls are cheap but not free; every 100
            // ticks (500ms simulated) is plenty of resolution against
            // a 60s bound.
            if step % 100 == 0 || now >= deadline {
                if exec.converged() {
                    oracle.rearm(&mut exec.cluster);
                    stabilizing = None;
                } else if now >= deadline {
                    violations.push(format!(
                        "reconvergence: cluster not back in an agreed regular membership \
                         within {}s of a state corruption (t={}ns)",
                        STABILIZE_NS / NS,
                        now
                    ));
                    oracle.rearm(&mut exec.cluster);
                    stabilizing = None;
                }
            }
        }

        if now >= next_submit {
            let sender = (step as usize) % nodes;
            if exec.cluster.is_alive(sender) {
                let key = key_rng.gen_range(0..64);
                let payload =
                    format!("k{key}=v{}:s{sender}-{}", exec.submitted, exec.counters[sender]);
                exec.submit(sender, Bytes::from(payload));
            }
            next_submit = now + diurnal_gap_ticks(now) * tick;
        }

        if now >= next_scan {
            if stabilizing.is_none() {
                for v in oracle.scan(&mut exec.cluster) {
                    violations.push(format!("evs: {v}"));
                }
                scans += 1;
                peak_retained = peak_retained.max(oracle.retained(&exec.cluster));
            }
            next_scan = now + SCAN_NS;
        }
    }

    // End of horizon: the cluster must settle into (or still hold) an
    // agreed regular membership, then prove it resumed totally-ordered
    // delivery with one probe per node reaching every node.
    match exec.await_convergence(schedule.steps * tick) {
        None => violations.push(
            "reconvergence: no agreed regular membership 30s after the end of the horizon".into(),
        ),
        Some(now) => {
            if stabilizing.take().is_some() {
                // A corruption landed near the end of the window; the
                // cluster did reconverge, so exempt the stabilization
                // interval and resume checking.
                oracle.rearm(&mut exec.cluster);
            }
            let failures = exec.probe_round(now, "probe:");
            violations.extend(failures.into_iter().map(|v| format!("liveness: {v}")));
        }
    }
    if stabilizing.is_none() {
        for v in oracle.scan(&mut exec.cluster) {
            violations.push(format!("evs: {v}"));
        }
        scans += 1;
        peak_retained = peak_retained.max(oracle.retained(&exec.cluster));
    }

    let mut corruption_counts = [0u64; 5];
    for c in &schedule.corruptions {
        let idx = CorruptionTarget::ALL
            .iter()
            .position(|t| *t == c.target)
            .expect("target is one of ALL");
        corruption_counts[idx] += 1;
    }
    SoakReport {
        violations,
        submitted: exec.submitted,
        delivered: oracle.total_consumed(),
        faults: schedule.commands.len() as u64,
        corruptions: corruption_counts,
        kflips,
        scans,
        peak_retained,
        schedule: schedule.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_spaces_corruptions_safely() {
        let opts = SoakOptions { seconds: 1200, corrupt_pct: 100, ..SoakOptions::default() };
        let a = plan(9, &opts);
        assert_eq!(a, plan(9, &opts));
        assert_eq!(a.corruptions.len(), 5, "one corruption per round at 100%");
        // Every fault in a round heals before that round's corruption
        // slot opens, and each stabilization window ends before the
        // next round's first possible injection.
        for c in &a.corruptions {
            let round = c.at_ns / ROUND_NS;
            assert!(c.at_ns >= round * ROUND_NS + 120 * NS);
            for sc in &a.commands {
                if sc.at_ns / ROUND_NS == round {
                    assert!(
                        sc.at_ns < c.at_ns,
                        "fault at {} overlaps corruption at {}",
                        sc.at_ns,
                        c.at_ns
                    );
                }
            }
            assert!(c.at_ns + STABILIZE_NS <= (round + 1) * ROUND_NS + 60 * NS);
        }
        // Zero percent really disables the plane.
        let clean = plan(9, &SoakOptions { corrupt_pct: 0, ..opts });
        assert!(clean.corruptions.is_empty());
    }

    fn smoke_opts() -> SoakOptions {
        SoakOptions { seconds: 120, corrupt_pct: 100, ..SoakOptions::default() }
    }

    #[test]
    fn smoke_soak_with_corruption_passes_and_is_deterministic() {
        let opts = smoke_opts();
        let report = run(&plan(1, &opts));
        assert_eq!(
            report.schedule.corruptions.len(),
            1,
            "smoke horizon gets the fallback corruption slot"
        );
        assert!(report.passed(), "soak seed 1 violated:\n{}", report.violations.join("\n"));
        assert!(report.submitted > 0 && report.delivered > 0);
        // Bit-identical on re-run (this is what lets the seed fan-out
        // run on any number of threads) is `a_soak_repro_replays_the_soak`.
        // O(window): retained state never exceeded tails + pruned logs.
        assert!(report.peak_retained <= opts.nodes * 2 * WINDOW);
    }

    /// A soak repro names its harness, so replaying it runs the soak —
    /// its traffic, oracles and report — not a chaos run of the same
    /// faults.
    #[test]
    fn a_soak_repro_replays_the_soak() {
        let report = run(&plan(1, &smoke_opts()));
        let text = report.schedule.to_toml();
        assert!(text.contains("harness = \"soak\""), "{text}");
        let repro = ChaosSchedule::from_toml(&text).expect("soak repro parses");
        match super::super::replay(&repro) {
            super::super::Replay::Soak(replayed) => assert_eq!(replayed, report),
            other => panic!("a soak repro replayed as {other:?}"),
        }
    }

    #[test]
    fn diurnal_wave_cycles_between_trough_and_peak() {
        assert_eq!(diurnal_gap_ticks(0), 100);
        assert_eq!(diurnal_gap_ticks(PERIOD_NS / 2), 5);
        assert_eq!(diurnal_gap_ticks(PERIOD_NS), 100);
        let quarter = diurnal_gap_ticks(PERIOD_NS / 4);
        assert!(quarter > 5 && quarter < 100);
    }
}

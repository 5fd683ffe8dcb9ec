//! The simulated workloads, untraced and traced.
//!
//! An untraced run is one *recording* pass — the product `SimCluster`
//! with delivery logs, which gives every simulated-clock metric and
//! feeds the oracle — followed by as many *host-cost* passes as the
//! wall budget allows: the same inputs through a `counters_only`
//! cluster, nothing of the benchmark's running inside the window, CPU
//! and allocations of the one simulation thread sampled at its edges.
//! Both kinds must deliver the same number of messages.
//!
//! A traced run adds pass A (product node under the traced host) and
//! pass B (mirror node), and both must reproduce the recording pass's
//! delivery digest.

use std::time::{Duration, Instant};

use crate::mirror::Engine;
use crate::simhost::{
    ProductHost, Recorder, Schedule, SimHost, Verdict, WindowOutcome, KILLED_NET,
};
use crate::simtrace::{KernelCounts, TracedHost};
use crate::stats::Histogram;
use crate::trace::{self, Overhead, Tracer};
use crate::wire::{self, WireReplay};
use crate::workloads::SimSpec;

/// At least this many set-ups and host-cost passes per run, whatever
/// the budget.
const MIN_PASSES: usize = 3;
/// Set-up is timed at least this many times: a set-up is a few
/// milliseconds, so its timing is noisy and its median needs samples.
const MIN_SETUPS: usize = 15;

/// What the recording pass established.
#[derive(Debug)]
pub struct Recording {
    /// The window's counts.
    pub window: WindowOutcome,
    /// Submit (open loop: due) → delivery over all nodes, simulated ns.
    pub latency: Histogram,
    /// Longest gap between deliveries at one node, simulated ns.
    pub gap_max_ns: u64,
    /// Kill → last node's fault report for the killed network.
    pub fault_report_ns: Option<u64>,
    /// Fault reports raised, all nodes.
    pub fault_reports: u64,
    /// The oracle's verdict.
    pub verdict: Verdict,
}

/// One host-cost pass.
#[derive(Debug, Clone)]
pub struct CostPass {
    /// The window's counts (with CPU and allocations that mean
    /// something: nothing else ran on the thread).
    pub window: WindowOutcome,
}

/// An untraced run.
#[derive(Debug)]
pub struct SimRun {
    /// Simulated length of the measured window.
    pub window_ns: u64,
    /// Wall seconds of each set-up (build, form ring, warm up).
    pub setup_s: Vec<f64>,
    /// The recording pass.
    pub recording: Recording,
    /// The host-cost passes.
    pub cost: Vec<CostPass>,
    /// Recording and host-cost passes delivered the same counts.
    pub passes_agree: bool,
}

/// Measured window of `spec` for `--seconds`, simulated nanoseconds.
pub fn window_ns(spec: &SimSpec, seconds: u64) -> u64 {
    (spec.sim_ms_per_second * seconds).max(50) * 1_000_000
}

fn record_pass(spec: &SimSpec, seed: u64, window_ns: u64) -> Recording {
    let mut host = ProductHost::new(spec, seed, true);
    let mut sched = Schedule::new(spec, seed, window_ns);
    let mut rec = Recorder::new(spec);
    sched.warm_up(&mut host, Some(&mut rec));
    let window = sched.window(&mut host, Some(&mut rec));
    let verdict = sched.drain(&mut host, &mut rec);
    let (fault_report_ns, fault_reports) = fault_report(&host, spec, &sched);
    Recording {
        window,
        latency: rec.latency.clone(),
        gap_max_ns: rec.gap_max_ns,
        fault_report_ns,
        fault_reports,
        verdict,
    }
}

/// Kill → the last node's report for the killed network, and how many
/// reports there were in all.
fn fault_report<H: SimHost>(host: &H, spec: &SimSpec, sched: &Schedule) -> (Option<u64>, u64) {
    let mut total = 0u64;
    let mut last: Option<u64> = Some(0);
    for node in 0..spec.nodes {
        let reports = host.fault_reports(node);
        total += reports.len() as u64;
        let first_for_killed =
            reports.iter().filter(|(net, _)| *net == KILLED_NET).map(|(_, at)| *at).min();
        last = match (last, first_for_killed) {
            (Some(l), Some(at)) => Some(l.max(at)),
            _ => None, // some node never reported it
        };
    }
    let latency = match (sched.killed_at_ns, last) {
        (Some(killed), Some(at)) => Some(at.saturating_sub(killed)),
        _ => None,
    };
    (latency, total)
}

/// One host-cost pass and its set-up time.
fn cost_pass(spec: &SimSpec, seed: u64, window_ns: u64) -> (CostPass, f64) {
    let (setup, mut host, mut sched) = timed_setup(spec, seed, window_ns);
    let window = sched.window(&mut host, None);
    (CostPass { window }, setup)
}

/// Builds the cluster and warms it up; returns how long that took.
fn timed_setup(spec: &SimSpec, seed: u64, window_ns: u64) -> (f64, ProductHost, Schedule) {
    let t = Instant::now();
    let mut host = ProductHost::new(spec, seed, false);
    let mut sched = Schedule::new(spec, seed, window_ns);
    sched.warm_up(&mut host, None);
    (t.elapsed().as_secs_f64(), host, sched)
}

/// Runs `spec` untraced within about `seconds` of wall time.
pub fn run(spec: &SimSpec, seed: u64, seconds: u64) -> SimRun {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let window_ns = window_ns(spec, seconds);
    let recording = record_pass(spec, seed, window_ns);
    let mut setup_s = Vec::new();
    let mut cost = Vec::new();
    let mut passes_agree = true;
    loop {
        let started = Instant::now();
        let (pass, setup) = cost_pass(spec, seed, window_ns);
        passes_agree &= pass.window.delivered == recording.window.delivered
            && pass.window.frames == recording.window.frames;
        setup_s.push(setup);
        cost.push(pass);
        // Stop when another pass of the same length would overrun.
        if cost.len() >= MIN_PASSES && Instant::now() + started.elapsed() > deadline {
            break;
        }
    }
    while setup_s.len() < MIN_SETUPS {
        setup_s.push(timed_setup(spec, seed, window_ns).0);
    }
    SimRun { window_ns, setup_s, recording, cost, passes_agree }
}

/// One traced pass.
#[derive(Debug)]
pub struct TracedPass {
    /// The window's counts (CPU includes the spans).
    pub window: WindowOutcome,
    /// Kernel-side counts over the window.
    pub kernel: KernelCounts,
    /// The spans of the window (warm-up and drain discarded).
    pub tracer: Tracer,
    /// The oracle's verdict on this pass.
    pub verdict: Verdict,
    /// What a span cost, calibrated just before this pass.
    pub overhead: Overhead,
    /// RRP counters summed over nodes, whole run.
    pub rrp: RrpTotals,
    /// Packets fed to the nodes and the outputs they produced, whole
    /// run.
    pub packet_outputs: (u64, u64),
}

/// RRP counters summed over the nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct RrpTotals {
    /// Packets received, all networks.
    pub received: u64,
    /// Message-class copies sent.
    pub message_copies_sent: u64,
    /// Token-class copies sent.
    pub token_copies_sent: u64,
    /// Tokens released by timer expiry.
    pub tokens_timer_released: u64,
    /// Tokens buffered behind a gap.
    pub tokens_buffered: u64,
}

impl RrpTotals {
    /// Adds one node's counters.
    pub fn add(&mut self, s: &totem_rrp::RrpStats) {
        self.received += s.received.iter().sum::<u64>();
        self.message_copies_sent += s.message_copies_sent;
        self.token_copies_sent += s.token_copies_sent;
        self.tokens_timer_released += s.tokens_timer_released;
        self.tokens_buffered += s.tokens_buffered;
    }
}

fn traced_pass<B: Engine>(
    mut host: TracedHost<B>,
    spec: &SimSpec,
    seed: u64,
    window_ns: u64,
) -> (TracedPass, TracedHost<B>) {
    let overhead = trace::calibrate();
    let mut sched = Schedule::new(spec, seed, window_ns);
    let mut rec = Recorder::new(spec);
    sched.warm_up(&mut host, Some(&mut rec));
    let _ = trace::take(); // warm-up spans
    let kernel0 = host.kernel;
    let window = sched.window(&mut host, Some(&mut rec));
    let tracer = trace::take();
    let kernel = KernelCounts {
        events: host.kernel.events - kernel0.events,
        pending_max: host.kernel.pending_max,
    };
    let verdict = sched.drain(&mut host, &mut rec);
    let _ = trace::take(); // drain spans
    let mut rrp = RrpTotals::default();
    for n in 0..spec.nodes {
        rrp.add(&host.rrp_stats(n));
    }
    let packet_outputs = host.packet_outputs();
    (TracedPass { window, kernel, tracer, verdict, overhead, rrp, packet_outputs }, host)
}

/// A traced run.
#[derive(Debug)]
pub struct SimTracedRun {
    /// Simulated length of the measured window.
    pub window_ns: u64,
    /// The untraced recording pass over the same window (digest,
    /// counts).
    pub recording: Recording,
    /// One untraced host-cost pass over the same window (the baseline
    /// the spans are compared with).
    pub cost: CostPass,
    /// Pass A: product node.
    pub pass_a: TracedPass,
    /// Pass B: mirror node.
    pub pass_b: TracedPass,
    /// The workload's frames through the codec.
    pub wire: Option<WireReplay>,
    /// Every pass delivered the same counts and digest.
    pub passes_agree: bool,
}

/// Runs `spec` traced within about `seconds` of wall time.
pub fn run_traced(spec: &SimSpec, seed: u64, seconds: u64) -> SimTracedRun {
    let window_ns = window_ns(spec, seconds);
    let recording = record_pass(spec, seed, window_ns);
    let (cost, _) = cost_pass(spec, seed, window_ns);
    let host_a = TracedHost::product_node(spec, seed, crate::simhost::WARMUP_NS);
    let (pass_a, host_a) = traced_pass(host_a, spec, seed, window_ns);
    let wire = wire::replay_packets(&host_a.captured_frames());
    drop(host_a);
    let (pass_b, _) = traced_pass(TracedHost::mirror_node(spec, seed), spec, seed, window_ns);
    let same = |p: &TracedPass| {
        p.verdict.digest == recording.verdict.digest
            && p.window.delivered == recording.window.delivered
            && p.window.frames == recording.window.frames
    };
    let passes_agree =
        same(&pass_a) && same(&pass_b) && cost.window.delivered == recording.window.delivered;
    SimTracedRun { window_ns, recording, cost, pass_a, pass_b, wire, passes_agree }
}

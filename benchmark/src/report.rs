//! From raw runs to named metrics, and from named metrics to the
//! contract's result line, the human-readable table, the result file
//! and the trace file.

use std::io::Write as _;

use crate::json::Json;
use crate::metrics::{Measured, On, END_TO_END, PER_LAYER};
use crate::procfs;
use crate::simrun::{SimRun, SimTracedRun, TracedPass};
use crate::stats::{median, Summary};
use crate::trace::{Layer, Overhead, Span, Tracer};
use crate::udprun::UdpRun;
use crate::wire::{self, WireReplay};
use crate::workloads::{Kind, Workload};

/// The generator may lag its schedule by this much at the 99th
/// percentile before the run is void.
const LATE_P99_LIMIT_NS: f64 = 1_000_000.0;
/// The generator may use this share of the process's CPU …
const GENERATOR_SHARE_LIMIT: f64 = 0.30;
/// … once the process as a whole uses this share of the machine: below
/// it there are idle cores, and the generator's cycles were not taken
/// from the product (udp-paced: the product idles at a quarter of a
/// core, so a polling collector is "41 % of the process" while the
/// machine is 85 % idle).
const MACHINE_BUSY_SHARE: f64 = 0.75;

/// One workload's outcome.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload's name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Application messages that entered the run.
    pub attempted: u64,
    /// Refused, or not delivered everywhere by the drain deadline.
    pub failed: u64,
    /// Nodes disagreeing on the delivered sequence, duplicates,
    /// per-sender gaps, corrupt payloads.
    pub order_violations: u64,
    /// What was delivered, in one number (sim only).
    pub digest: Option<u64>,
    /// Why the run is void, if it is.
    pub flags: Vec<String>,
    /// The contract's metrics for this mode: every end-to-end metric
    /// (untraced) or every per-layer metric (traced).
    pub metrics: Vec<Measured>,
    /// Counts and diagnostics printed alongside.
    pub extras: Vec<(&'static str, f64)>,
}

impl WorkloadResult {
    /// Delivered what it should, in one agreed order, and the
    /// measurement itself is sound (no flag raised).
    pub fn correct(&self) -> bool {
        self.order_violations == 0 && self.flags.is_empty()
    }

    /// `failed / attempted`.
    pub fn failed_ops_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric, absent unless `fill` supplies it.
fn per_layer(kind: &Kind, mut fill: impl FnMut(&'static str) -> Option<Measured>) -> Vec<Measured> {
    PER_LAYER
        .iter()
        .map(|m| {
            let applies = match (m.on, kind) {
                (On::All, _) | (On::Sim, Kind::Sim(_)) | (On::Udp, Kind::Udp(_)) => true,
                (On::Sim, Kind::Udp(_)) | (On::Udp, Kind::Sim(_)) => false,
            };
            if !applies {
                let why = if m.on == On::Sim {
                    "only the simulated workloads have this layer"
                } else {
                    "only the UDP workloads have this layer"
                };
                return Measured::absent(m.name, why);
            }
            fill(m.name).unwrap_or_else(|| Measured::absent(m.name, "not produced by this run"))
        })
        .collect()
}

/// A lower-is-better host time sampled over repetitions of identical
/// work (set-ups, host-cost passes). On a shared machine interference
/// can only add to a repetition — this one flips for tens of seconds at
/// a time into a state 25–55 % slower — so the first quartile is
/// reported as the value, with the quartiles and the count as usual.
fn best_quartile(name: &'static str, samples: &[f64]) -> Measured {
    let s = Summary::of(samples);
    Measured { name, value: Ok(Summary { value: s.q1, ..s }) }
}

/// An untraced simulated run.
pub fn sim(w: &'static Workload, run: &SimRun) -> WorkloadResult {
    let rec = &run.recording;
    let msgs = rec.window.delivered_everywhere() as f64;
    let window_s = run.window_ns as f64 / 1e9;
    let per_msg = |f: &dyn Fn(&crate::simhost::WindowOutcome) -> f64| -> Vec<f64> {
        run.cost.iter().map(|c| ratio(f(&c.window), msgs)).collect()
    };
    let metrics = vec![
        best_quartile("setup_s", &run.setup_s),
        Measured::exact("delivered_msgs_per_s", msgs / window_s),
        Measured::exact("latency_p50_us", rec.latency.percentile(0.50) / 1e3),
        best_quartile("cpu_ns_per_msg", &per_msg(&|w| w.cpu_ns as f64)),
        Measured::of("allocs_per_msg", &per_msg(&|w| w.allocs.allocs as f64)),
        Measured::of("alloc_bytes_per_msg", &per_msg(&|w| w.allocs.bytes as f64)),
        Measured::exact("peak_rss_mb", procfs::peak_rss_mb()),
    ];
    let cost0 = &run.cost[0].window;
    let busiest = rec.window.wire_bytes.iter().copied().max().unwrap_or(0) as f64;
    let mut extras = vec![
        ("latency_p90_us", rec.latency.percentile(0.90) / 1e3),
        ("latency_p99_us", rec.latency.percentile(0.99) / 1e3),
        ("sim.service_gap_max_ms", rec.gap_max_ns as f64 / 1e6),
        ("latency_samples", rec.latency.count() as f64),
        ("host_cost_passes", run.cost.len() as f64),
        ("frames", rec.window.frames as f64),
        ("srp.msgs_per_packet", ratio(msgs, rec.window.srp.packets_sent as f64)),
        ("srp.token_visits_per_s", rec.window.srp.token_visits as f64 / window_s),
        (
            "srp.packets_per_visit",
            ratio(rec.window.srp.packets_sent as f64, rec.window.srp.token_visits as f64),
        ),
        ("srp.retransmissions", rec.window.srp.retransmissions as f64),
        ("srp.retrans_requested", rec.window.srp.retrans_requested as f64),
        ("srp.token_retransmits", rec.window.srp.token_retransmits as f64),
        ("srp.gathers", rec.window.srp.gathers as f64),
        ("srp.submit_refused", rec.verdict.refused as f64),
        ("rrp.fault_reports", rec.fault_reports as f64),
        ("sim.net_utilization", busiest * 8.0 / (window_s * 100e6)),
        ("sim.allocs_per_wire_frame", ratio(cost0.allocs.allocs as f64, cost0.frames_sent as f64)),
        ("allocs_per_frame", ratio(cost0.allocs.allocs as f64, cost0.frames as f64)),
    ];
    if let Some(ns) = rec.fault_report_ns {
        extras.push(("rrp.fault_report_ms", ns as f64 / 1e6));
    }
    let mut flags = Vec::new();
    if !run.passes_agree {
        flags.push("recording and counters-only passes delivered different counts".to_string());
    }
    WorkloadResult {
        workload: w.name,
        traced: false,
        attempted: rec.verdict.attempted,
        failed: rec.verdict.failed,
        order_violations: rec.verdict.order_violations,
        digest: Some(rec.verdict.digest),
        flags,
        metrics,
        extras,
    }
}

/// Scaled, overhead-corrected self time of `layer` in `t`.
fn layer_ns(t: &Tracer, layer: Layer, o: Overhead) -> f64 {
    t.layer_self_ns(layer, o) * t.scale()
}

const NODE_SPANS: [Span; 6] = [
    Span::NodeStart,
    Span::NodeOnPacket,
    Span::NodeOnTimer,
    Span::NodeSubmit,
    Span::NodeArm,
    Span::NodeAdmin,
];

/// Scaled, overhead-corrected total of the node-call spans.
fn node_total_ns(t: &Tracer, o: Overhead) -> f64 {
    NODE_SPANS.iter().map(|s| t.agg(*s).corrected(o).total_ns).sum::<f64>() * t.scale()
}

fn wire_metric(name: &'static str, wire: Option<&WireReplay>) -> Option<Measured> {
    let w = wire?;
    Some(Measured::exact(
        name,
        match name {
            "wire.encode_ns_per_frame" => w.encode_ns_per_frame,
            "wire.decode_ns_per_frame" => w.decode_ns_per_frame,
            "wire.allocs_per_decode" => w.allocs_per_decode,
            "wire.bytes_per_frame" => w.bytes_per_frame,
            _ => return None,
        },
    ))
}

/// A traced simulated run.
pub fn sim_traced(w: &'static Workload, run: &SimTracedRun) -> WorkloadResult {
    let rec = &run.recording;
    let (a, b) = (&run.pass_a, &run.pass_b);
    let (oa, ob) = (a.tracer.in_situ(a.overhead), b.tracer.in_situ(b.overhead));
    let frames = rec.window.frames as f64;
    let msgs = rec.window.delivered_everywhere() as f64;
    let window_s = run.window_ns as f64 / 1e9;
    let untraced_cpu = run.cost.window.cpu_ns as f64;

    let node_total = node_total_ns(&a.tracer, oa);
    let rrp_self = layer_ns(&b.tracer, Layer::Rrp, ob);
    let srp_self = layer_ns(&b.tracer, Layer::Srp, ob);
    let layer_sum: f64 = [Layer::Sim, Layer::SimHost, Layer::ClusterNode, Layer::Rrp, Layer::Srp]
        .iter()
        .map(|l| layer_ns(&b.tracer, *l, ob))
        .sum();
    let busiest = rec.window.wire_bytes.iter().copied().max().unwrap_or(0) as f64;
    let overhead_share = |p: &TracedPass| p.window.cpu_ns as f64 / untraced_cpu - 1.0;
    // Work the spans account for (overhead-corrected, scaled back from
    // the sample) against the pass's busy time net of what recording
    // itself cost.
    let unattributed = |p: &TracedPass, o: Overhead| -> f64 {
        let attributed: f64 =
            Span::ALL.iter().map(|s| p.tracer.agg(*s).corrected(o).self_ns).sum::<f64>()
                * p.tracer.scale();
        1.0 - attributed / (p.window.cpu_ns as f64 - p.tracer.recording_cost_ns(o))
    };
    let b_allocs =
        |layer: Layer| b.tracer.layer_self_allocs(layer) as f64 * b.tracer.scale() / frames;
    let sent = (b.rrp.message_copies_sent + b.rrp.token_copies_sent) as f64;

    let metrics = per_layer(&w.kind, |name| {
        let v = match name {
            n if n.starts_with("wire.") => return wire_metric(n, run.wire.as_ref()),
            "rrp.self_ns_per_frame" => rrp_self / frames,
            "rrp.allocs_per_frame" => b_allocs(Layer::Rrp),
            // Token visits each send one token; everything else the
            // SRP asked for is a data packet (first sends plus
            // retransmissions). Whole run, pass B.
            "rrp.copies_per_packet" => ratio(sent, srp_sends(b)),
            "rrp.tokens_timer_released" => b.rrp.tokens_timer_released as f64,
            "rrp.tokens_buffered" => b.rrp.tokens_buffered as f64,
            "rrp.fault_reports" => rec.fault_reports as f64,
            "rrp.fault_report_ms" => match rec.fault_report_ns {
                Some(ns) => ns as f64 / 1e6,
                None => {
                    return Some(Measured::absent(name, "no network is killed on this workload"))
                }
            },
            "srp.self_ns_per_frame" => srp_self / frames,
            "srp.allocs_per_frame" => b_allocs(Layer::Srp),
            "srp.msgs_per_packet" => ratio(msgs, rec.window.srp.packets_sent as f64),
            "srp.token_visits_per_s" => rec.window.srp.token_visits as f64 / window_s,
            "srp.packets_per_visit" => {
                ratio(rec.window.srp.packets_sent as f64, rec.window.srp.token_visits as f64)
            }
            "srp.retransmissions" => rec.window.srp.retransmissions as f64,
            "srp.retrans_requested" => rec.window.srp.retrans_requested as f64,
            "srp.token_retransmits" => rec.window.srp.token_retransmits as f64,
            "srp.gathers" => rec.window.srp.gathers as f64,
            "srp.submit_refused" | "generator.refused" => rec.verdict.refused as f64,
            "cluster.node.total_ns_per_frame" => node_total / frames,
            "cluster.node.self_ns_per_frame" => (node_total - rrp_self - srp_self) / frames,
            "cluster.node.allocs_per_frame" => b_allocs(Layer::ClusterNode),
            "cluster.node.outputs_per_frame" => {
                ratio(a.packet_outputs.1 as f64, a.packet_outputs.0 as f64)
            }
            "cpu_ns_per_msg" => untraced_cpu / msgs,
            "latency_p90_us" => rec.latency.percentile(0.90) / 1e3,
            "latency_p99_us" => rec.latency.percentile(0.99) / 1e3,
            "sim.service_gap_max_ms" => rec.gap_max_ns as f64 / 1e6,
            "sim.host_ns_per_frame" => (untraced_cpu - node_total) / frames,
            "sim.kernel_ns_per_event" => {
                layer_ns(&a.tracer, Layer::Sim, oa) / a.kernel.events as f64
            }
            "sim.events_per_frame" => a.kernel.events as f64 / frames,
            "sim.events_per_wall_s" => {
                a.kernel.events as f64 / (run.cost.window.wall_ns as f64 / 1e9)
            }
            "sim.pending_events_max" => a.kernel.pending_max as f64,
            "sim.net_utilization" => busiest * 8.0 / (window_s * 100e6),
            "sim.allocs_per_wire_frame" => {
                ratio(run.cost.window.allocs.allocs as f64, run.cost.window.frames_sent as f64)
            }
            "trace.overhead_share" => overhead_share(a).max(overhead_share(b)),
            "trace.unattributed_share" => unattributed(a, oa).max(unattributed(b, ob)),
            "trace.layer_sum_share" => layer_sum / untraced_cpu,
            "trace.mirror_cost_ratio" => ratio(node_total_ns(&b.tracer, ob), node_total),
            _ => return None,
        };
        Some(Measured::exact(name, v))
    });

    let extras = vec![
        ("frames", frames),
        ("untraced_cpu_ns_per_frame", untraced_cpu / frames),
        ("pass_a.cpu_ns_per_frame", a.window.cpu_ns as f64 / frames),
        ("pass_b.cpu_ns_per_frame", b.window.cpu_ns as f64 / frames),
        ("pass_a.overhead_share", overhead_share(a)),
        ("pass_b.overhead_share", overhead_share(b)),
        ("pass_a.span_ns", oa.inside_ns + oa.outside_ns),
        ("pass_b.span_ns", ob.inside_ns + ob.outside_ns),
        ("sampling.scale", b.tracer.scale()),
        ("sim.actor_glue_ns_per_frame", layer_ns(&a.tracer, Layer::SimHost, oa) / frames),
    ];
    let mut flags = Vec::new();
    if !run.passes_agree {
        flags.push(format!(
            "traced passes did not reproduce the untraced delivery digest \
             (product {:016x}, pass A {:016x}, pass B {:016x}): \
             benchmark/src/mirror.rs or simtrace.rs has drifted from \
             crates/cluster/src/node.rs or sim_cluster.rs",
            rec.verdict.digest, a.verdict.digest, b.verdict.digest
        ));
    }
    let violations =
        rec.verdict.order_violations + a.verdict.order_violations + b.verdict.order_violations;
    WorkloadResult {
        workload: w.name,
        traced: true,
        attempted: rec.verdict.attempted,
        failed: rec.verdict.failed,
        order_violations: violations,
        digest: Some(rec.verdict.digest),
        flags,
        metrics,
        extras,
    }
}

/// Packets the SRP asked the RRP to route over a traced pass's whole
/// run: data packets first-sent and retransmitted, plus one token per
/// visit.
fn srp_sends(p: &TracedPass) -> f64 {
    // The window's SRP counters cover the window only and the RRP's the
    // whole run; scale the former by the frame ratio of run to window.
    // (Warm-up and drain are a few percent of a run.)
    let s = &p.window.srp;
    let in_window = (s.packets_sent + s.retransmissions + s.token_visits) as f64;
    in_window * ratio(p.rrp.received as f64, p.window.frames as f64)
}

fn slice_values(run: &UdpRun, f: impl Fn(&crate::udprun::Slice) -> f64) -> Vec<f64> {
    run.slices.iter().map(f).collect()
}

fn udp_flags(run: &UdpRun, spec: &crate::workloads::UdpSpec) -> Vec<String> {
    let mut flags = Vec::new();
    if run.drivers != spec.nodes || run.readers != spec.nodes * spec.networks {
        flags.push(format!(
            "found {} totem-<node> and {} totem-udp-* threads, expected {} and {}: \
             the product's thread names have drifted from benchmark/src/procfs.rs",
            run.drivers,
            run.readers,
            spec.nodes,
            spec.nodes * spec.networks
        ));
    }
    if run.slices.len() != crate::udprun::SLICES {
        flags.push(format!(
            "only {} of {} slices completed",
            run.slices.len(),
            crate::udprun::SLICES
        ));
    }
    let late = late_p99_ns(run);
    if late > LATE_P99_LIMIT_NS {
        flags.push(format!(
            "generator_bound: submits ran {:.0} us late at p99 in the median slice",
            late / 1e3
        ));
    }
    let (share, machine) = generator_share(run);
    if share > GENERATOR_SHARE_LIMIT && machine > MACHINE_BUSY_SHARE {
        flags.push(format!(
            "generator_bound: the generator used {:.0} % of the process's CPU on a machine {:.0} % busy",
            share * 100.0,
            machine * 100.0
        ));
    }
    flags
}

/// How late submits ran at the 99th percentile, median over slices (0
/// for a closed loop, which has no schedule to be late against).
fn late_p99_ns(run: &UdpRun) -> f64 {
    let per_slice: Vec<f64> =
        run.lateness.iter().filter(|h| h.count() > 0).map(|h| h.percentile(0.99)).collect();
    median(&per_slice)
}

/// Generator CPU as a share of process CPU, and process CPU as a share
/// of the machine, over the window.
fn generator_share(run: &UdpRun) -> (f64, f64) {
    let gen: u64 = run.slices.iter().map(|s| s.generator_cpu_ns).sum();
    let product: u64 = run.slices.iter().map(|s| s.driver_cpu_ns + s.transport_cpu_ns).sum();
    let wall: u64 = run.slices.iter().map(|s| s.wall_ns).sum();
    let cores = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    (ratio(gen as f64, (gen + product) as f64), ratio((gen + product) as f64, wall as f64 * cores))
}

fn udp_end_to_end(run: &UdpRun) -> Vec<Measured> {
    let per_msg = |f: &dyn Fn(&crate::udprun::Slice) -> f64| -> Vec<f64> {
        slice_values(run, |s| ratio(f(s), s.delivered_everywhere() as f64))
    };
    vec![
        best_quartile("setup_s", &run.setup_s),
        Measured::of(
            "delivered_msgs_per_s",
            &slice_values(run, |s| s.delivered_everywhere() as f64 / (s.wall_ns as f64 / 1e9)),
        ),
        Measured::of("latency_p50_us", &slice_values(run, |s| s.latency.percentile(0.50) / 1e3)),
        Measured::of(
            "cpu_ns_per_msg",
            &per_msg(&|s| (s.driver_cpu_ns + s.transport_cpu_ns) as f64),
        ),
        Measured::of(
            "allocs_per_msg",
            &per_msg(&|s| (s.driver_allocs.allocs + s.transport_allocs.allocs) as f64),
        ),
        Measured::of(
            "alloc_bytes_per_msg",
            &per_msg(&|s| (s.driver_allocs.bytes + s.transport_allocs.bytes) as f64),
        ),
        Measured::exact("peak_rss_mb", procfs::peak_rss_mb()),
    ]
}

fn udp_extras(run: &UdpRun) -> Vec<(&'static str, f64)> {
    let t = run.transport;
    let datagrams = (t.datagrams_in + t.datagrams_out) as f64;
    let product_allocs: u64 =
        run.slices.iter().map(|s| s.driver_allocs.allocs + s.transport_allocs.allocs).sum();
    let (share, machine) = generator_share(run);
    vec![
        ("latency_p90_us", median(&slice_values(run, |s| s.latency.percentile(0.90) / 1e3))),
        ("latency_p99_us", median(&slice_values(run, |s| s.latency.percentile(0.99) / 1e3))),
        (
            "cluster.runtime.service_gap_max_ms",
            median(&slice_values(run, |s| s.gap_max_ns as f64 / 1e6)),
        ),
        ("latency_samples", run.slices.iter().map(|s| s.latency.count()).sum::<u64>() as f64),
        ("frames", t.datagrams_in as f64),
        ("transport.syscalls_per_datagram", ratio((t.submits + t.completions) as f64, datagrams)),
        ("allocs_per_datagram", ratio(product_allocs as f64, datagrams)),
        ("srp.msgs_per_packet", ratio(run.submitted as f64, run.srp.packets_sent as f64)),
        ("srp.token_visits_per_s", run.srp.token_visits as f64 / run.lifetime_s),
        ("srp.retransmissions", run.srp.retransmissions as f64),
        ("srp.token_retransmits", run.srp.token_retransmits as f64),
        ("srp.gathers", run.srp.gathers as f64),
        ("rrp.fault_reports", run.fault_reports as f64),
        ("rrp.tokens_timer_released", run.rrp.tokens_timer_released as f64),
        ("generator.late_p99_us", late_p99_ns(run) / 1e3),
        ("generator.cpu_share", share),
        ("machine_busy_share", machine),
    ]
}

/// An untraced UDP run.
pub fn udp(w: &'static Workload, run: &UdpRun) -> WorkloadResult {
    let Kind::Udp(spec) = &w.kind else { unreachable!("udp() is given UDP workloads") };
    WorkloadResult {
        workload: w.name,
        traced: false,
        attempted: run.submitted,
        failed: run.undelivered,
        order_violations: run.order_violations,
        digest: None,
        flags: udp_flags(run, spec),
        metrics: udp_end_to_end(run),
        extras: udp_extras(run),
    }
}

/// A traced UDP run: an untraced half for the baseline, then the traced
/// half.
pub fn udp_traced(w: &'static Workload, base: &UdpRun, traced: &UdpRun) -> WorkloadResult {
    let Kind::Udp(spec) = &w.kind else { unreachable!("udp_traced() is given UDP workloads") };
    let tight_loop = crate::trace::calibrate();
    let empty = crate::udprun::TraceSink::default();
    let sink = traced.trace.as_ref().unwrap_or(&empty);
    let mut all = Tracer::empty();
    for t in &sink.tracers {
        all.absorb(t);
    }
    let o = all.in_situ(tight_loop);
    let t = traced.transport;
    let frames = t.datagrams_in as f64;
    let wall_ns: f64 = traced.slices.iter().map(|s| s.wall_ns as f64).sum();
    let wall_s = wall_ns / 1e9;
    let driver_cpu: f64 = traced.slices.iter().map(|s| s.driver_cpu_ns as f64).sum();
    let reader_cpu: f64 = traced.slices.iter().map(|s| s.transport_cpu_ns as f64).sum();
    let reader_allocs: f64 = traced.slices.iter().map(|s| s.transport_allocs.allocs as f64).sum();
    let node_total = node_total_ns(&all, o);
    let rrp_self = layer_ns(&all, Layer::Rrp, o);
    let srp_self = layer_ns(&all, Layer::Srp, o);
    let send_total = all.agg(Span::TransportSend).corrected(o).total_ns * all.scale();
    let recv_total = all.agg(Span::TransportRecv).corrected(o).total_ns * all.scale();
    let runtime_self = driver_cpu - node_total - send_total;
    let wire = wire::replay_datagrams(&sink.captured);
    let cpu_per_msg = |r: &UdpRun| {
        median(&slice_values(r, |s| {
            ratio((s.driver_cpu_ns + s.transport_cpu_ns) as f64, s.delivered_everywhere() as f64)
        }))
    };
    let allocs = |layer: Layer| all.layer_self_allocs(layer) as f64 * all.scale() / frames;
    let (share, _) = generator_share(traced);
    let sent = (traced.rrp.message_copies_sent + traced.rrp.token_copies_sent) as f64;
    let srp_asked =
        (traced.srp.packets_sent + traced.srp.retransmissions + traced.srp.token_visits) as f64;

    let metrics = per_layer(&w.kind, |name| {
        let v = match name {
            n if n.starts_with("wire.") => return wire_metric(n, wire.as_ref()),
            "rrp.self_ns_per_frame" => rrp_self / frames,
            "rrp.allocs_per_frame" => allocs(Layer::Rrp),
            "rrp.copies_per_packet" => ratio(sent, srp_asked),
            "rrp.tokens_timer_released" => traced.rrp.tokens_timer_released as f64,
            "rrp.tokens_buffered" => traced.rrp.tokens_buffered as f64,
            "rrp.fault_reports" => traced.fault_reports as f64,
            "srp.self_ns_per_frame" => srp_self / frames,
            "srp.allocs_per_frame" => allocs(Layer::Srp),
            "srp.msgs_per_packet" => ratio(traced.submitted as f64, traced.srp.packets_sent as f64),
            "srp.token_visits_per_s" => traced.srp.token_visits as f64 / traced.lifetime_s,
            "srp.packets_per_visit" => {
                ratio(traced.srp.packets_sent as f64, traced.srp.token_visits as f64)
            }
            "srp.retransmissions" => traced.srp.retransmissions as f64,
            "srp.retrans_requested" => traced.srp.retrans_requested as f64,
            "srp.token_retransmits" => traced.srp.token_retransmits as f64,
            "srp.gathers" => traced.srp.gathers as f64,
            // RuntimeHandle::submit never refuses: the driver queues.
            "srp.submit_refused" | "generator.refused" => 0.0,
            "cluster.node.total_ns_per_frame" => node_total / frames,
            "cluster.node.self_ns_per_frame" => layer_ns(&all, Layer::ClusterNode, o) / frames,
            "cluster.node.allocs_per_frame" => allocs(Layer::ClusterNode),
            "cluster.node.outputs_per_frame" => {
                ratio(traced.packet_outputs.1 as f64, traced.packet_outputs.0 as f64)
            }
            "cluster.runtime.self_ns_per_datagram" => runtime_self / frames,
            "cluster.runtime.wakeups_per_s" => sink.recv_calls as f64 / wall_s,
            "cluster.runtime.frames_per_wakeup" => ratio(frames, sink.recv_calls as f64),
            "cpu_ns_per_msg" => cpu_per_msg(base),
            "latency_p90_us" => median(&slice_values(traced, |s| s.latency.percentile(0.90) / 1e3)),
            "latency_p99_us" => median(&slice_values(traced, |s| s.latency.percentile(0.99) / 1e3)),
            "cluster.runtime.service_gap_max_ms" => {
                median(&slice_values(traced, |s| s.gap_max_ns as f64 / 1e6))
            }
            "transport.send_ns_per_datagram" => ratio(send_total, t.datagrams_out as f64),
            "transport.recv_blocked_share" => ratio(recv_total, wall_ns * spec.nodes as f64),
            "transport.reader_cpu_ns_per_datagram" => reader_cpu / frames,
            "transport.reader_allocs_per_datagram" => reader_allocs / frames,
            "transport.syscalls_per_datagram" => {
                ratio((t.submits + t.completions) as f64, (t.datagrams_in + t.datagrams_out) as f64)
            }
            "transport.datagrams_per_send_batch" => ratio(t.datagrams_out as f64, t.submits as f64),
            "transport.datagrams_per_recv_batch" => {
                ratio(t.datagrams_in as f64, t.completions as f64)
            }
            "generator.late_p99_us" => late_p99_ns(traced) / 1e3,
            "generator.cpu_share" => share,
            "trace.overhead_share" => cpu_per_msg(traced) / cpu_per_msg(base) - 1.0,
            // The driver loop carries no span, so what no span covers
            // *is* cluster.runtime's self time: on UDP nothing can be
            // left over and the layers add up by construction.
            "trace.unattributed_share" | "trace.layer_sum_share" => return Some(Measured::absent(
                name,
                "the runtime's driver loop is the residual on UDP, so this holds by construction",
            )),
            _ => return None,
        };
        Some(Measured::exact(name, v))
    });

    let mut extras = udp_extras(traced);
    extras.push(("span.inside_ns", o.inside_ns));
    extras.push(("span.outside_ns", o.outside_ns));
    extras.push(("sampling.scale", all.scale()));
    extras.push(("untraced.cpu_ns_per_msg", cpu_per_msg(base)));
    extras.push(("traced.cpu_ns_per_msg", cpu_per_msg(traced)));
    let mut flags = udp_flags(base, spec);
    flags.extend(udp_flags(traced, spec));
    WorkloadResult {
        workload: w.name,
        traced: true,
        attempted: base.submitted + traced.submitted,
        failed: base.undelivered + traced.undelivered,
        order_violations: base.order_violations + traced.order_violations,
        digest: None,
        flags,
        metrics,
        extras,
    }
}

/// The contract's result object (printed on one line): exactly `correct`, `attempted`,
/// `failed`, `metrics`; an absent per-layer metric reads 0.
pub fn contract_result(r: &WorkloadResult) -> Json {
    let ungated = |name: &str| END_TO_END.iter().any(|d| d.name == name && !d.gated);
    let metrics = r.metrics.iter().filter(|m| r.traced || !ungated(m.name)).map(|m| {
        let value = m.value.as_ref().map_or(0.0, |s| s.value);
        (
            m.name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(crate::metrics::unit_of(m.name).into())),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The result-file entry of one workload (`--out`, read by
/// `--compare`).
pub fn result_entry(r: &WorkloadResult) -> Json {
    let metrics = r.metrics.iter().map(|m| {
        let body = match &m.value {
            Ok(s) => Json::obj([
                ("value", Json::Num(s.value)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("n", Json::Num(s.n as f64)),
                ("unit", Json::Str(crate::metrics::unit_of(m.name).into())),
            ]),
            Err(why) => Json::obj([("absent", Json::Str((*why).into()))]),
        };
        (m.name, body)
    });
    Json::obj([
        ("traced", Json::Bool(r.traced)),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.attempted.max(1) as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("failed_ops_share", Json::Num(r.failed_ops_share())),
        ("order_violations", Json::Num(r.order_violations as f64)),
        ("digest", r.digest.map_or(Json::Null, |d| Json::Str(format!("{d:016x}")))),
        ("flags", Json::Arr(r.flags.iter().cloned().map(Json::Str).collect())),
        ("metrics", Json::obj(metrics)),
        ("extras", Json::obj(r.extras.iter().map(|(k, v)| (*k, Json::Num(*v))))),
    ])
}

/// The table a person reads, on stderr.
pub fn print_table(r: &WorkloadResult) {
    let mut e = std::io::stderr().lock();
    let _ = writeln!(
        e,
        "\n== {} ({}) ==  correct: {}  ops attempted: {}  failed: {}  failed_ops_share: {:.6}  order_violations: {}{}",
        r.workload,
        if r.traced { "traced" } else { "untraced" },
        r.correct(),
        r.attempted,
        r.failed,
        r.failed_ops_share(),
        r.order_violations,
        r.digest.map_or(String::new(), |d| format!("  digest: {d:016x}")),
    );
    for f in &r.flags {
        let _ = writeln!(e, "  VOID: {f}");
    }
    let _ = writeln!(
        e,
        "  {:<40} {:>16} {:<6} {:>33} {:>4}  {:<6} bound",
        "metric", "value", "unit", "[q1 .. q3]", "n", "better"
    );
    for m in &r.metrics {
        let (better, bound) = match END_TO_END.iter().find(|d| d.name == m.name) {
            Some(d) => (d.better, format!("{:.1} %", d.bound * 100.0)),
            None => (
                PER_LAYER
                    .iter()
                    .find(|d| d.name == m.name)
                    .map_or(crate::metrics::Better::Lower, |d| d.better),
                "-".to_string(),
            ),
        };
        match &m.value {
            Ok(Summary { value, q1, q3, n }) => {
                let _ = writeln!(
                    e,
                    "  {:<40} {:>16.4} {:<6} [{:>14.4} .. {:>14.4}] {:>4}  {:<6} {}",
                    m.name,
                    value,
                    crate::metrics::unit_of(m.name),
                    q1,
                    q3,
                    n,
                    better.as_str(),
                    bound
                );
            }
            Err(why) => {
                let _ = writeln!(e, "  {:<40} {:>16} absent: {why}", m.name, "-");
            }
        }
    }
    if !r.extras.is_empty() {
        let _ = writeln!(e, "  -- counts and diagnostics --");
        for (k, v) in &r.extras {
            let _ = writeln!(e, "  {k:<40} {v:>16.4}");
        }
    }
}

/// Writes the kept spans and the per-name aggregates as JSON lines.
///
/// # Errors
///
/// Returns the I/O error with the path it concerns.
pub fn write_trace_file(
    path: &std::path::Path,
    tracer: &Tracer,
    o: Overhead,
) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(err)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    let head = Json::obj([
        ("trace", Json::Str("totem-benchmark-v1".into())),
        ("sampling_scale", Json::Num(tracer.scale())),
        ("frames_recorded", Json::Num(tracer.frames() as f64)),
        ("span_inside_ns", Json::Num(o.inside_ns)),
        ("span_outside_ns", Json::Num(o.outside_ns)),
    ]);
    writeln!(f, "{}", head.to_line()).map_err(err)?;
    for k in tracer.kept() {
        let line = Json::obj([
            ("span", Json::Str(k.span.name().into())),
            ("id", Json::Num(k.id as f64)),
            ("parent", Json::Num(k.parent as f64)),
            ("frame", Json::Num(k.frame as f64)),
            ("start_ns", Json::Num(k.start_ns as f64)),
            ("end_ns", Json::Num(k.end_ns as f64)),
        ]);
        writeln!(f, "{}", line.to_line()).map_err(err)?;
    }
    for s in Span::ALL {
        let a = tracer.agg(*s);
        if a.count == 0 {
            continue;
        }
        let c = a.corrected(o);
        let hist = a
            .hist
            .nonzero_buckets()
            .into_iter()
            .map(|(lo, n)| Json::Arr(vec![Json::Num(lo as f64), Json::Num(n as f64)]))
            .collect();
        let line = Json::obj([
            ("aggregate", Json::Str(s.name().into())),
            ("count", Json::Num(a.count as f64)),
            ("total_ns", Json::Num(a.total_ns as f64)),
            ("self_ns", Json::Num(a.self_ns as f64)),
            ("corrected_total_ns", Json::Num(c.total_ns)),
            ("corrected_self_ns", Json::Num(c.self_ns)),
            ("total_allocs", Json::Num(a.total_allocs as f64)),
            ("self_allocs", Json::Num(a.self_allocs as f64)),
            ("duration_histogram_ns", Json::Arr(hist)),
        ]);
        writeln!(f, "{}", line.to_line()).map_err(err)?;
    }
    f.flush().map_err(err)
}

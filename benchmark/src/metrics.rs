//! Every metric the benchmark reports, by name: the one table the
//! report, the result files, `--compare`, the README glossary and
//! `BENCHMARK.json` agree on (a unit test holds the last to it).

use crate::stats::Summary;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, measured with
/// tracing off, reported on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// The fixed name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound on the simulated workloads, as a share of the
    /// baseline's median, for `--compare` of two sets at the *same*
    /// seed (simulated-clock figures and allocation counts repeat
    /// exactly there; host CPU does not).
    pub bound_sim: f64,
    /// Regression bound on the UDP workloads.
    pub bound_udp: f64,
    /// The one bound `BENCHMARK.json` carries. It has to hold on every
    /// workload at once and across seeds, so the noisiest workload sets
    /// it: about twice the run-to-run spread of the UDP workloads on
    /// this 2-core machine (README, "Run-to-run spread").
    pub bound: f64,
    /// What it is, on which clock.
    pub what: &'static str,
    /// Whether `BENCHMARK.json` lists it under `end_to_end`, which
    /// makes the driver hold every later change to its bound — and
    /// refuse the benchmark if ten runs of any workload spread wider
    /// than that. An ungated metric is reported, filed and compared
    /// all the same.
    pub gated: bool,
}

/// All end-to-end metrics, in report order.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound_sim: 0.25,
        bound_udp: 0.25,
        bound: 0.25,
        what: "wall: build the cluster, form the ring, warm up to the start of the measured window; first quartile of at least 15 set-ups per run (identical work, so interference can only add)",
        gated: true,
    },
    EndToEnd {
        name: "delivered_msgs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound_sim: 0.01,
        bound_udp: 0.15,
        bound: 0.25,
        what: "distinct application messages delivered at every node per second of the workload's clock (simulated on sim-*, wall on udp-*; udp: median of 20 slices)",
        gated: true,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound_sim: 0.01,
        bound_udp: 0.15,
        bound: 0.25,
        what: "submit (open loop: due time) to delivery over all receiving nodes, median; workload's clock (udp: median of 20 slices)",
        gated: true,
    },
    EndToEnd {
        name: "cpu_ns_per_msg",
        unit: "ns",
        better: Better::Lower,
        bound_sim: 0.08,
        bound_udp: 0.20,
        bound: 0.25,
        what: "host CPU over the measured window / distinct messages delivered: the one simulation thread on sim-* (first quartile of the host-cost passes: the passes do identical work, so interference can only add), the product's totem-* threads only on udp-* (median of 20 slices)",
        gated: false,
    },
    EndToEnd {
        name: "allocs_per_msg",
        unit: "count",
        better: Better::Lower,
        bound_sim: 0.005,
        bound_udp: 0.10,
        bound: 0.25,
        what: "heap allocations on product threads / distinct messages delivered (thread-scoped allocator; generator and collector never counted)",
        gated: true,
    },
    EndToEnd {
        name: "alloc_bytes_per_msg",
        unit: "bytes",
        better: Better::Lower,
        bound_sim: 0.005,
        bound_udp: 0.15,
        bound: 0.25,
        what: "as allocs_per_msg, bytes requested",
        gated: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound_sim: 0.10,
        bound_udp: 0.10,
        bound: 0.20,
        what: "VmHWM of the benchmark process at the end of the run",
        gated: true,
    },
];

/// A per-layer metric: one layer's work, time, waiting or retries.
/// No bound; a performance issue cites these to say where a saving
/// should appear.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// The fixed name, prefixed with the layer (a module of the repo).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Which workloads can produce it.
    pub on: On,
    /// What it is.
    pub what: &'static str,
}

/// Where a per-layer metric exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    /// Every workload.
    All,
    /// The simulated workloads.
    Sim,
    /// The UDP workloads.
    Udp,
}

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident, $on:ident, $what:literal) => {
        PerLayer { name: $name, unit: $unit, better: Better::$better, on: On::$on, what: $what }
    };
}

/// All per-layer metrics, in report order. *frame* = one datagram
/// handed to one node.
pub const PER_LAYER: &[PerLayer] = &[
    layer!("cpu_ns_per_msg", "ns", Lower, All, "end to end, not a layer, and the host-cost figure: see the end-to-end table. Not gated: the host this was built on flips into a state 25-55 % slower for minutes at a time, and ten runs straddling both spread by 28-30 %"),
    layer!("latency_p90_us", "us", Lower, All, "end to end, not a layer: as latency_p50_us, 90th percentile. Not gated: on loopback UDP its run-to-run spread reaches 46 % when the machine is busy"),
    layer!("latency_p99_us", "us", Lower, All, "end to end, not a layer: 99th percentile (sim: whole window, so sim-failover's includes the kill; udp: median of the slices' p99). Not gated, for the same reason"),
    layer!("wire.encode_ns_per_frame", "ns", Lower, All, "replay of up to 4096 of the workload's own frames through Packet::encode_shared"),
    layer!("wire.decode_ns_per_frame", "ns", Lower, All, "the same frames through SharedPacket::from_datagram"),
    layer!("wire.allocs_per_decode", "count", Lower, All, "allocations per decoded frame in that replay (exact)"),
    layer!("wire.bytes_per_frame", "bytes", Lower, All, "mean encoded size of those frames"),
    layer!("rrp.self_ns_per_frame", "ns", Lower, All, "self time of the spans around every RrpLayer call (mirror node), per frame"),
    layer!("rrp.allocs_per_frame", "count", Lower, All, "allocations inside those spans, per frame"),
    layer!("rrp.copies_per_packet", "count", Lower, All, "RrpStats: (message + token copies sent) / packets the SRP asked to send"),
    layer!("rrp.tokens_timer_released", "count", Lower, All, "RrpStats: tokens released by the token timer rather than by completion"),
    layer!("rrp.tokens_buffered", "count", Lower, All, "RrpStats: tokens held behind a gap (passive)"),
    layer!("rrp.fault_reports", "count", Lower, All, "FaultReports raised, all nodes"),
    layer!("rrp.fault_report_ms", "ms", Lower, Sim, "sim-failover: network kill to the last node's FaultReport for that network (simulated clock)"),
    layer!("srp.self_ns_per_frame", "ns", Lower, All, "self time of the spans around every SrpNode call (mirror node), per frame"),
    layer!("srp.allocs_per_frame", "count", Lower, All, "allocations inside those spans, per frame"),
    layer!("srp.msgs_per_packet", "count", Higher, All, "packing ratio: distinct messages delivered / data packets first-sent (<1 means fragmentation)"),
    layer!("srp.token_visits_per_s", "1/s", Higher, All, "SrpStats.tokens_handled summed over nodes, per second of the workload's clock"),
    layer!("srp.packets_per_visit", "count", Higher, All, "data packets first-sent / token visits"),
    layer!("srp.retransmissions", "count", Lower, All, "SrpStats: data packets rebroadcast on request"),
    layer!("srp.retrans_requested", "count", Lower, All, "SrpStats: retransmission requests placed on the token"),
    layer!("srp.token_retransmits", "count", Lower, All, "SrpStats: tokens re-sent to the successor"),
    layer!("srp.gathers", "count", Lower, All, "SrpStats: membership episodes entered (0 on every workload: no ring reforms)"),
    layer!("srp.submit_refused", "count", Lower, All, "ops refused with SubmitError (each is a failed op)"),
    layer!("cluster.node.total_ns_per_frame", "ns", Lower, All, "spans around the product node's on_packet_into/on_timer_into/submit_into/next_deadline, per frame (sim: product BackendNode, pass A)"),
    layer!("cluster.node.self_ns_per_frame", "ns", Lower, All, "cluster.node.total - rrp.self - srp.self: TotemNode's own glue"),
    layer!("cluster.node.allocs_per_frame", "count", Lower, All, "allocations in the node spans outside rrp and srp spans, per frame"),
    layer!("cluster.node.outputs_per_frame", "count", Lower, All, "NodeOutputs produced per received frame"),
    layer!("cluster.runtime.self_ns_per_datagram", "ns", Lower, Udp, "driver-thread CPU - node spans - transport send spans, per datagram in: the loop, the codec, the event channel, and the CPU inside recv_batch"),
    layer!("cluster.runtime.wakeups_per_s", "1/s", Lower, Udp, "recv_batch calls per second, all drivers"),
    layer!("cluster.runtime.frames_per_wakeup", "count", Higher, Udp, "datagrams in / recv_batch calls"),
    layer!("cluster.runtime.service_gap_max_ms", "ms", Lower, Udp, "longest gap between deliveries at one node, median of 20 slices (diagnostic)"),
    layer!("transport.send_ns_per_datagram", "ns", Lower, Udp, "wall time inside send_batch per datagram out (syscalls included)"),
    layer!("transport.recv_blocked_share", "ratio", Lower, Udp, "share of the drivers' wall time spent inside recv_batch (waiting, mostly)"),
    layer!("transport.reader_cpu_ns_per_datagram", "ns", Lower, Udp, "CPU of the totem-udp-* reader threads per datagram in"),
    layer!("transport.reader_allocs_per_datagram", "count", Lower, Udp, "allocations on the reader threads per datagram in"),
    layer!("transport.syscalls_per_datagram", "count", Lower, Udp, "CountingTransport: logical syscalls / datagrams, both directions"),
    layer!("transport.datagrams_per_send_batch", "count", Higher, Udp, "CountingTransport: datagrams out / submissions"),
    layer!("transport.datagrams_per_recv_batch", "count", Higher, Udp, "CountingTransport: datagrams in / completions"),
    layer!("sim.service_gap_max_ms", "ms", Lower, Sim, "longest gap between consecutive deliveries at any one node in the window (simulated clock)"),
    layer!("sim.host_ns_per_frame", "ns", Lower, Sim, "untraced product SimCluster CPU per frame - cluster.node.total: kernel + actor glue + pump"),
    layer!("sim.kernel_ns_per_event", "ns", Lower, Sim, "self time of the span around SimWorld::step, per event (same event mix: it is the workload's own run)"),
    layer!("sim.events_per_frame", "count", Lower, Sim, "kernel events / frames"),
    layer!("sim.events_per_wall_s", "1/s", Higher, Sim, "kernel events per wall second of the untraced run"),
    layer!("sim.pending_events_max", "count", Lower, Sim, "deepest the event queue got"),
    layer!("sim.net_utilization", "ratio", Higher, Sim, "NetStats.wire_bytes of the busiest network / (window x 100 Mbit/s)"),
    layer!("sim.allocs_per_wire_frame", "count", Lower, Sim, "allocations of the untraced run / frames put on a medium (the denominator bench_gate and ROADMAP use)"),
    layer!("generator.late_p99_us", "us", Lower, Udp, "open loop: how late submits ran against their due time, 99th percentile, median of 20 slices"),
    layer!("generator.cpu_share", "ratio", Lower, Udp, "CPU of the benchmark's own threads / CPU of the whole process"),
    layer!("generator.refused", "count", Lower, All, "ops the product refused at submit"),
    layer!("trace.overhead_share", "ratio", Lower, All, "traced cpu_ns_per_msg / untraced - 1 (the costlier traced pass)"),
    layer!("trace.unattributed_share", "ratio", Lower, All, "share of the traced run's busy time covered by no span"),
    layer!("trace.layer_sum_share", "ratio", Higher, All, "sum of overhead-corrected layer self times / untraced product CPU (1 = the layers add up)"),
    layer!("trace.mirror_cost_ratio", "ratio", Lower, Sim, "mirror node's total / product node's total under the same host (1 = the mirror costs what the product does)"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// A name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value (median, quartiles, sample count), or why there is
    /// none.
    pub value: Result<Summary, &'static str>,
}

impl Measured {
    /// A value with its spread.
    pub fn of(name: &'static str, samples: &[f64]) -> Measured {
        Measured { name, value: Ok(Summary::of(samples)) }
    }

    /// A single exact value.
    pub fn exact(name: &'static str, v: f64) -> Measured {
        Measured { name, value: Ok(Summary::exact(v)) }
    }

    /// No value, and why.
    pub fn absent(name: &'static str, why: &'static str) -> Measured {
        Measured { name, value: Err(why) }
    }
}

/// Unit of a metric by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .filter(|m| m.gated)
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in END_TO_END {
            assert!(
                m.bound <= 0.25 && m.bound >= m.bound_sim.max(m.bound_udp).min(0.25),
                "{}",
                m.name
            );
        }
    }

    /// `BENCHMARK.json` at the repository root is the contract other
    /// changes are held to; these tables are what the program reports.
    /// They must say the same thing.
    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        use crate::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().expect("object").keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
            "exactly the contract's keys"
        );
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect("array").to_vec();
        let str_of = |v: &Json, key: &str| {
            v.get(key).and_then(Json::as_str).map(str::to_owned).expect("string member")
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workloads::ALL.len());
        for (j, w) in workloads.iter().zip(&crate::workloads::ALL) {
            assert_eq!(str_of(j, "name"), w.name);
            assert_eq!(str_of(j, "why"), w.why);
        }

        let e2e = list("end_to_end");
        let gated: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.gated).collect();
        assert_eq!(e2e.len(), gated.len());
        for (j, m) in e2e.iter().zip(gated) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(str_of(j, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(str_of(j, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(j.as_obj().expect("object").len(), 3, "{}: no bound on a layer", m.name);
        }

        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(15.0));
        assert_eq!(
            list("paths").iter().filter_map(Json::as_str).collect::<Vec<_>>(),
            ["benchmark"]
        );
    }
}

//! The loopback-UDP workloads: the threaded runtime over real sockets.
//!
//! The load generator is this process with two threads of its own: the
//! main thread submits (closed loop against a window, or open loop on a
//! schedule, each op timed from its due time) and one collector thread
//! drains every node's event channel, feeds the oracle, and cuts the
//! measured window into equal slices. A run is [`SEGMENTS`] clusters
//! one after another, each measured for a quarter of the time in
//! [`SLICES_PER_SEGMENT`] slices: how the kernel happens to place
//! eleven threads on two cores is sticky for a cluster's life and
//! moves throughput by ±10 %, so a run samples four placements. Every
//! noisy metric is computed per slice and reported as the median over
//! all slices, so one scheduler hiccup costs one slice, not the run.
//!
//! Product CPU and allocations are those of the product's own threads
//! (`totem-<node>` drivers, `totem-udp-<net>` readers), sampled from
//! `/proc/self/task` and the thread-scoped allocator at slice edges;
//! the generator's never enter a per-message figure.
//!
//! The traced run swaps in [`Spanned`]`<`[`MirrorNode`]`>` and stacks
//! [`TracedTransport`] on the `CountingTransport`, both under the
//! unchanged `spawn_node_with`.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, TryRecvError};

use totem_cluster::{
    spawn_node_with, RuntimeConfig, RuntimeEvent, RuntimeHandle, StartMode, TotemNode,
};
use totem_rrp::RrpConfig;
use totem_srp::SrpConfig;
use totem_transport::{
    CountingTransport, Destination, RecvBatch, SendBatch, Transport, TransportCounters,
    UdpTopology, UdpTransport,
};
use totem_wire::{NetworkId, NodeId};

use crate::mirror::{Engine, MirrorNode, Spanned};
use crate::oracle::{self, make_op, NodeOracle, Observed};
use crate::procfs::{ThreadClass, ThreadSample};
use crate::rng::Rng;
use crate::simrun::RrpTotals;
use crate::simtrace::CAPTURE_FRAMES;
use crate::stats::Histogram;
use crate::trace::{self, span, Span, Tracer};
use crate::workloads::{UdpLoad, UdpSpec};

/// Clusters a run builds, measures and tears down in turn.
pub const SEGMENTS: usize = 4;
/// Slices each cluster's window is cut into.
pub const SLICES_PER_SEGMENT: usize = 5;
/// Slices of a whole run.
pub const SLICES: usize = SEGMENTS * SLICES_PER_SEGMENT;
/// Wall time after the last submit by which every op must be
/// everywhere.
const DRAIN: Duration = Duration::from_secs(2);
/// How long the ring may take to form and deliver the warm-up message.
const FORMATION: Duration = Duration::from_secs(30);
/// Sequential round trips that end a cluster's set-up.
const WARMUP_ROUND_TRIPS: usize = 50;
/// The collector naps this long when every channel is empty.
const COLLECTOR_NAP: Duration = Duration::from_micros(20);
/// Record one root span in this many on the driver threads.
pub const UDP_SAMPLING: u64 = 4;

/// What the traced transport hands back when its driver thread ends.
#[derive(Debug, Default)]
pub struct TraceSink {
    /// One tracer per driver thread.
    pub tracers: Vec<Tracer>,
    /// Datagrams the drivers received, for the wire replay.
    pub captured: Vec<Bytes>,
    /// Calls to `recv_batch` inside the window (wake-ups of the driver
    /// loop), exact.
    pub recv_calls: u64,
    /// Calls to `send_batch` inside the window, exact.
    pub send_calls: u64,
}

/// A `Transport` decorator with a span around each batch call. It is
/// dropped on the driver thread (the runtime's closure owns it), which
/// is where it hands the thread's tracer to the shared sink.
#[derive(Debug)]
pub struct TracedTransport<T> {
    inner: T,
    sink: Arc<Mutex<TraceSink>>,
    captured: Mutex<Vec<Bytes>>,
    recv_calls: AtomicU64,
    send_calls: AtomicU64,
}

impl<T: Transport> TracedTransport<T> {
    /// Wraps `inner`; results land in `sink` when the transport drops.
    pub fn new(inner: T, sink: Arc<Mutex<TraceSink>>) -> Self {
        TracedTransport {
            inner,
            sink,
            captured: Mutex::new(Vec::new()),
            recv_calls: AtomicU64::new(0),
            send_calls: AtomicU64::new(0),
        }
    }

    fn in_window() -> bool {
        trace::WINDOW_OPEN.load(Ordering::Relaxed)
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn networks(&self) -> usize {
        self.inner.networks()
    }

    fn send(&self, net: NetworkId, dst: Destination, payload: Bytes) -> io::Result<()> {
        let _s = span(Span::TransportSend);
        self.inner.send(net, dst, payload)
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<(NetworkId, Bytes)> {
        let _s = span(Span::TransportRecv);
        self.inner.recv_timeout(timeout)
    }

    fn send_batch(&self, batch: &mut SendBatch) -> io::Result<usize> {
        if Self::in_window() {
            self.send_calls.fetch_add(1, Ordering::Relaxed);
        }
        let _s = span(Span::TransportSend);
        self.inner.send_batch(batch)
    }

    fn recv_batch(&self, out: &mut RecvBatch, timeout: Duration) -> usize {
        if Self::in_window() {
            self.recv_calls.fetch_add(1, Ordering::Relaxed);
        }
        let before = out.len();
        let got = {
            let _s = span(Span::TransportRecv);
            self.inner.recv_batch(out, timeout)
        };
        if got > 0 && Self::in_window() {
            let mut cap = self.captured.lock().expect("capture buffer");
            if cap.len() < CAPTURE_FRAMES {
                let room = CAPTURE_FRAMES - cap.len();
                cap.extend(out.iter().skip(before).take(room).map(|(_, b)| b.clone()));
            }
        }
        got
    }
}

impl<T> Drop for TracedTransport<T> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned sink only loses the trace.
        if let Ok(mut sink) = self.sink.lock() {
            sink.tracers.push(trace::take());
            if let Ok(mut cap) = self.captured.lock() {
                sink.captured.append(&mut cap);
            }
            sink.recv_calls += self.recv_calls.load(Ordering::Relaxed);
            sink.send_calls += self.send_calls.load(Ordering::Relaxed);
        }
    }
}

/// A running cluster.
struct Cluster<B: Engine> {
    handles: Vec<RuntimeHandle<B>>,
    counters: Vec<Arc<TransportCounters>>,
}

fn members(spec: &UdpSpec) -> Vec<NodeId> {
    (0..spec.nodes as u16).map(NodeId::new).collect()
}

fn start_mode(i: usize) -> StartMode {
    if i == 0 {
        StartMode::Representative
    } else {
        StartMode::Member
    }
}

/// Binds the sockets and spawns one runtime per node: `node` makes the
/// engine, `wrap` stacks whatever decorator the run wants on the
/// counting transport. Everything else is the same for the product and
/// the traced cluster.
fn build<B, T>(
    spec: &UdpSpec,
    node: impl Fn(NodeId, &[NodeId], SrpConfig, RrpConfig) -> B,
    wrap: impl Fn(CountingTransport<UdpTransport>) -> T,
) -> io::Result<Cluster<B>>
where
    B: Engine + Send + 'static,
    T: Transport + 'static,
{
    let transports = UdpTopology::bind_ephemeral(spec.nodes, spec.networks)?.into_transports()?;
    let members = members(spec);
    let mut counters = Vec::new();
    let handles = transports
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let counted = CountingTransport::new(t, spec.nodes - 1);
            counters.push(counted.counters());
            let engine = node(
                members[i],
                &members,
                SrpConfig::default(),
                RrpConfig::new(spec.style, spec.networks),
            );
            spawn_node_with(engine, wrap(counted), start_mode(i), RuntimeConfig::default())
        })
        .collect();
    Ok(Cluster { handles, counters })
}

fn build_product(spec: &UdpSpec) -> io::Result<Cluster<TotemNode>> {
    build(spec, |me, members, srp, rrp| TotemNode::new_operational(me, members, srp, rrp, 0), |t| t)
}

fn build_traced(
    spec: &UdpSpec,
    sink: &Arc<Mutex<TraceSink>>,
) -> io::Result<Cluster<Spanned<MirrorNode>>> {
    build(
        spec,
        |me, members, srp, rrp| Spanned::new(MirrorNode::new_operational(me, members, srp, rrp, 0)),
        |t| TracedTransport::new(t, sink.clone()),
    )
}

/// Set-up's tail: [`WARMUP_ROUND_TRIPS`] messages one after another,
/// each submitted only when every node has delivered the one before —
/// the ring is formed, every buffer and arena has grown to its working
/// size, and what is timed is fifty idle round trips, not one thread
/// wake-up.
fn warm_up<B: Engine>(cluster: &Cluster<B>) -> Result<(), String> {
    let deadline = Instant::now() + FORMATION;
    for _ in 0..WARMUP_ROUND_TRIPS {
        cluster.handles[0].submit(Bytes::from_static(b"warmup"));
        for (i, h) in cluster.handles.iter().enumerate() {
            loop {
                match h.next_event(Duration::from_millis(100)) {
                    Some(RuntimeEvent::Delivered(d)) if &d.data[..] == b"warmup" => break,
                    _ if Instant::now() > deadline => {
                        return Err(format!(
                            "node {i} did not deliver the warm-up messages in 30 s"
                        ));
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

/// One slice of the measured window.
#[derive(Debug, Clone)]
pub struct Slice {
    /// Wall length.
    pub wall_ns: u64,
    /// Ops delivered in the slice, per node.
    pub delivered: Vec<u64>,
    /// Due time → delivery, all nodes.
    pub latency: Histogram,
    /// Longest gap between consecutive deliveries at one node.
    pub gap_max_ns: u64,
    /// CPU of the driver threads.
    pub driver_cpu_ns: u64,
    /// CPU of the reader threads.
    pub transport_cpu_ns: u64,
    /// CPU of the benchmark's own threads.
    pub generator_cpu_ns: u64,
    /// Allocations on driver threads.
    pub driver_allocs: crate::alloc::AllocCount,
    /// Allocations on reader threads.
    pub transport_allocs: crate::alloc::AllocCount,
}

impl Slice {
    /// Ops delivered at every node in the slice.
    pub fn delivered_everywhere(&self) -> u64 {
        self.delivered.iter().copied().min().unwrap_or(0)
    }
}

/// What the collector thread saw.
#[derive(Debug)]
struct Collected {
    slices: Vec<Slice>,
    oracles: Vec<NodeOracle>,
    fault_reports: u64,
    /// Threads of each class alive at both ends of the window.
    drivers: usize,
    readers: usize,
}

struct Shared {
    /// Ops node 0 has delivered (closes the closed loop).
    delivered_at_sender: AtomicU64,
    /// Ops submitted; final once `submitting_done` is set.
    submitted: AtomicU64,
    submitting_done: AtomicBool,
}

fn collect(
    receivers: Vec<Receiver<RuntimeEvent>>,
    shared: Arc<Shared>,
    epoch: Instant,
    window: Duration,
) -> Collected {
    let nodes = receivers.len();
    let slice_len = window / SLICES_PER_SEGMENT as u32;
    let mut oracles = vec![NodeOracle::new(nodes, false); nodes];
    let mut slices: Vec<Slice> = Vec::with_capacity(SLICES_PER_SEGMENT);
    let blank = |nodes: usize| Slice {
        wall_ns: 0,
        delivered: vec![0; nodes],
        latency: Histogram::new(),
        gap_max_ns: 0,
        driver_cpu_ns: 0,
        transport_cpu_ns: 0,
        generator_cpu_ns: 0,
        driver_allocs: Default::default(),
        transport_allocs: Default::default(),
    };
    let mut current = blank(nodes);
    let mut last_delivery: Vec<Option<Instant>> = vec![None; nodes];
    let mut fault_reports = 0u64;

    let first_sample = ThreadSample::take();
    let mut slice_sample = first_sample.clone();
    let mut slice_start = Instant::now();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let mut idle = true;
        for (node, rx) in receivers.iter().enumerate() {
            // Bounded per visit, so one busy channel cannot starve the
            // others' timestamps. The clock is read when a visit finds
            // something and again every 32 events: everything dequeued
            // in between was already waiting, and a read costs as much
            // as the rest of an event's handling.
            let mut now: Option<Instant> = None;
            for i in 0..256 {
                match rx.try_recv() {
                    Ok(RuntimeEvent::Delivered(d)) => {
                        idle = false;
                        if i % 32 == 0 {
                            now = None;
                        }
                        let now = *now.get_or_insert_with(Instant::now);
                        let observed =
                            oracles[node].observe(d.sender.as_u16(), d.seq.as_u64(), &d.data);
                        let Observed::Op { due_ns } = observed else { continue };
                        if node == 0 {
                            shared.delivered_at_sender.fetch_add(1, Ordering::Relaxed);
                        }
                        if slices.len() < SLICES_PER_SEGMENT {
                            let at_ns = now.duration_since(epoch).as_nanos() as u64;
                            current.latency.record(at_ns.saturating_sub(due_ns));
                            current.delivered[node] += 1;
                            let prev = last_delivery[node].unwrap_or(slice_start).max(slice_start);
                            let gap = now.duration_since(prev).as_nanos() as u64;
                            current.gap_max_ns = current.gap_max_ns.max(gap);
                            last_delivery[node] = Some(now);
                        }
                    }
                    Ok(RuntimeEvent::Fault(_)) => fault_reports += 1,
                    Ok(_) => {}
                    Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                }
            }
        }
        let now = Instant::now();
        if slices.len() < SLICES_PER_SEGMENT && now.duration_since(slice_start) >= slice_len {
            let sample = ThreadSample::take();
            let (driver_cpu_ns, driver_allocs) = sample.since(&slice_sample, ThreadClass::Driver);
            let (transport_cpu_ns, transport_allocs) =
                sample.since(&slice_sample, ThreadClass::Transport);
            let (generator_cpu_ns, _) = sample.since(&slice_sample, ThreadClass::Generator);
            let done = std::mem::replace(&mut current, blank(nodes));
            slices.push(Slice {
                wall_ns: now.duration_since(slice_start).as_nanos() as u64,
                driver_cpu_ns,
                transport_cpu_ns,
                generator_cpu_ns,
                driver_allocs,
                transport_allocs,
                ..done
            });
            slice_sample = sample;
            slice_start = now;
        }
        if shared.submitting_done.load(Ordering::Acquire) {
            let submitted = shared.submitted.load(Ordering::Acquire);
            let everywhere = oracles.iter().all(|o| o.ops_from(0) >= submitted);
            let deadline = *drain_deadline.get_or_insert(now + DRAIN);
            if (everywhere && slices.len() == SLICES_PER_SEGMENT) || now >= deadline {
                break;
            }
        }
        if idle {
            std::thread::sleep(COLLECTOR_NAP);
        }
    }
    let last = ThreadSample::take();
    let alive = |class| {
        let (a, b) = (first_sample.count(class), last.count(class));
        a.min(b)
    };
    Collected {
        slices,
        oracles,
        fault_reports,
        drivers: alive(ThreadClass::Driver),
        readers: alive(ThreadClass::Transport),
    }
}

/// Transport-API counts over the window, summed over nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportWindow {
    /// Logical submission syscalls.
    pub submits: u64,
    /// Logical completion syscalls.
    pub completions: u64,
    /// Datagrams out.
    pub datagrams_out: u64,
    /// Datagrams in: the benchmark's *frames* on UDP.
    pub datagrams_in: u64,
}

fn transport_totals(counters: &[Arc<TransportCounters>]) -> TransportWindow {
    let mut t = TransportWindow::default();
    for c in counters {
        t.submits += c.submits.load(Ordering::Relaxed);
        t.completions += c.completions.load(Ordering::Relaxed);
        t.datagrams_out += c.datagrams_out.load(Ordering::Relaxed);
        t.datagrams_in += c.datagrams_in.load(Ordering::Relaxed);
    }
    t
}

/// SRP counters summed over nodes, whole life of the cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct SrpTotals {
    /// Data packets first-transmitted.
    pub packets_sent: u64,
    /// Token visits.
    pub token_visits: u64,
    /// Data packets rebroadcast on request.
    pub retransmissions: u64,
    /// Retransmission requests placed on the token.
    pub retrans_requested: u64,
    /// Tokens re-sent to the successor.
    pub token_retransmits: u64,
    /// Membership (gather) episodes.
    pub gathers: u64,
}

/// One UDP run's raw results.
#[derive(Debug)]
pub struct UdpRun {
    /// Wall seconds of each set-up (bind, spawn, form ring, warm-up
    /// round trip).
    pub setup_s: Vec<f64>,
    /// The window's slices.
    pub slices: Vec<Slice>,
    /// Ops submitted.
    pub submitted: u64,
    /// Ops not delivered at every node by the drain deadline.
    pub undelivered: u64,
    /// See [`oracle::CrossCheck`].
    pub order_violations: u64,
    /// Fault reports raised (none expected).
    pub fault_reports: u64,
    /// How late each submit ran against its due time (open loop), one
    /// histogram per slice of due time: a single stall of the machine
    /// lands in one slice, a generator that cannot keep up in all.
    pub lateness: Vec<Histogram>,
    /// Transport-API counts over the window.
    pub transport: TransportWindow,
    /// SRP counters, cluster lifetime.
    pub srp: SrpTotals,
    /// RRP counters, cluster lifetime.
    pub rrp: RrpTotals,
    /// Seconds the cluster lived (for lifetime-counter rates).
    pub lifetime_s: f64,
    /// Product threads found alive through the window.
    pub drivers: usize,
    /// Reader threads found alive through the window.
    pub readers: usize,
    /// The trace, on a traced run.
    pub trace: Option<TraceSink>,
    /// Packets fed to the nodes and the outputs they produced (traced
    /// run only).
    pub packet_outputs: (u64, u64),
}

fn drive_window<B: Engine + Send + 'static>(
    cluster: Cluster<B>,
    spec: &UdpSpec,
    seed: u64,
    window: Duration,
    born: Instant,
) -> Result<UdpRun, String> {
    let epoch = Instant::now();
    let shared = Arc::new(Shared {
        delivered_at_sender: AtomicU64::new(0),
        submitted: AtomicU64::new(0),
        submitting_done: AtomicBool::new(false),
    });
    let receivers: Vec<Receiver<RuntimeEvent>> =
        cluster.handles.iter().map(|h| h.events().clone()).collect();
    let before = transport_totals(&cluster.counters);
    trace::WINDOW_OPEN.store(true, Ordering::Relaxed);
    let collector = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("bench-collect".into())
            .spawn(move || collect(receivers, shared, epoch, window))
            .map_err(|e| format!("cannot spawn the collector: {e}"))?
    };

    // The submitter. Ops carry their due time on the run's epoch.
    let mut payload = Rng::new(seed, 3);
    let mut lateness = vec![Histogram::new(); SLICES_PER_SEGMENT];
    let slice_ns = (window.as_nanos() as u64 / SLICES_PER_SEGMENT as u64).max(1);
    let mut seq = 0u64;
    let end = epoch + window;
    let sender = &cluster.handles[0];
    match spec.load {
        UdpLoad::Window(in_flight) => loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            let due = now.duration_since(epoch).as_nanos() as u64;
            // Top the window up in one burst, then nap: polling for
            // every single completion would make the generator the
            // busiest thread of the process.
            let room = (shared.delivered_at_sender.load(Ordering::Relaxed) + in_flight as u64)
                .saturating_sub(seq);
            for _ in 0..room {
                sender.submit(make_op(&mut payload, 0, seq, due, spec.msg_size));
                seq += 1;
            }
            if room < in_flight as u64 / 8 {
                std::thread::sleep(Duration::from_micros(200));
            }
        },
        UdpLoad::Paced(rate) => {
            let gap_ns = (1e9 / rate) as u64;
            let mut due_ns = 0u64;
            let window_ns = window.as_nanos() as u64;
            while due_ns < window_ns {
                let now_ns = epoch.elapsed().as_nanos() as u64;
                if now_ns < due_ns {
                    std::thread::sleep(Duration::from_nanos(due_ns - now_ns));
                    continue;
                }
                // Everything due by now goes out, each timed from when
                // it *should* have gone.
                let slice = ((due_ns / slice_ns) as usize).min(SLICES_PER_SEGMENT - 1);
                lateness[slice].record(now_ns - due_ns);
                sender.submit(make_op(&mut payload, 0, seq, due_ns, spec.msg_size));
                seq += 1;
                due_ns += gap_ns;
            }
        }
    }
    shared.submitted.store(seq, Ordering::Release);
    shared.submitting_done.store(true, Ordering::Release);
    let collected = collector.join().map_err(|_| "the collector thread panicked".to_string())?;
    trace::WINDOW_OPEN.store(false, Ordering::Relaxed);
    let after = transport_totals(&cluster.counters);

    let lifetime_s = born.elapsed().as_secs_f64();
    let mut srp = SrpTotals::default();
    let mut rrp = RrpTotals::default();
    let mut packet_outputs = (0u64, 0u64);
    for h in cluster.handles {
        let node = h.shutdown();
        let (p, o) = node.packet_outputs();
        packet_outputs = (packet_outputs.0 + p, packet_outputs.1 + o);
        let s = node.srp_stats();
        srp.packets_sent += s.packets_sent;
        srp.token_visits += s.tokens_handled;
        srp.retransmissions += s.retransmissions;
        srp.retrans_requested += s.retrans_requested;
        srp.token_retransmits += s.token_retransmits;
        srp.gathers += s.gathers;
        rrp.add(&node.rrp_stats());
    }

    let check = oracle::cross_check(&collected.oracles);
    let everywhere = collected.oracles.iter().map(|o| o.ops_from(0)).min().unwrap_or(0);
    Ok(UdpRun {
        setup_s: Vec::new(),
        slices: collected.slices,
        submitted: seq,
        undelivered: seq.saturating_sub(everywhere),
        order_violations: check.order_violations,
        fault_reports: collected.fault_reports,
        lateness,
        transport: TransportWindow {
            submits: after.submits - before.submits,
            completions: after.completions - before.completions,
            datagrams_out: after.datagrams_out - before.datagrams_out,
            datagrams_in: after.datagrams_in - before.datagrams_in,
        },
        srp,
        rrp,
        lifetime_s,
        drivers: collected.drivers,
        readers: collected.readers,
        trace: None,
        packet_outputs,
    })
}

impl UdpRun {
    /// Folds the next segment's results into this one's.
    fn absorb(&mut self, next: UdpRun) {
        self.setup_s.extend(next.setup_s);
        self.slices.extend(next.slices);
        self.submitted += next.submitted;
        self.undelivered += next.undelivered;
        self.order_violations += next.order_violations;
        self.fault_reports += next.fault_reports;
        self.lateness.extend(next.lateness);
        self.transport.submits += next.transport.submits;
        self.transport.completions += next.transport.completions;
        self.transport.datagrams_out += next.transport.datagrams_out;
        self.transport.datagrams_in += next.transport.datagrams_in;
        self.srp.packets_sent += next.srp.packets_sent;
        self.srp.token_visits += next.srp.token_visits;
        self.srp.retransmissions += next.srp.retransmissions;
        self.srp.retrans_requested += next.srp.retrans_requested;
        self.srp.token_retransmits += next.srp.token_retransmits;
        self.srp.gathers += next.srp.gathers;
        self.rrp.received += next.rrp.received;
        self.rrp.message_copies_sent += next.rrp.message_copies_sent;
        self.rrp.token_copies_sent += next.rrp.token_copies_sent;
        self.rrp.tokens_timer_released += next.rrp.tokens_timer_released;
        self.rrp.tokens_buffered += next.rrp.tokens_buffered;
        self.lifetime_s += next.lifetime_s;
        self.drivers = self.drivers.min(next.drivers);
        self.readers = self.readers.min(next.readers);
        self.packet_outputs.0 += next.packet_outputs.0;
        self.packet_outputs.1 += next.packet_outputs.1;
        if let (Some(mine), Some(theirs)) = (self.trace.as_mut(), next.trace) {
            mine.tracers.extend(theirs.tracers);
            let room = CAPTURE_FRAMES.saturating_sub(mine.captured.len());
            mine.captured.extend(theirs.captured.into_iter().take(room));
            mine.recv_calls += theirs.recv_calls;
            mine.send_calls += theirs.send_calls;
        }
    }
}

/// Set-up is timed at least this many times per run.
const MIN_SETUPS: usize = 15;

/// One cluster: bind, spawn, form the ring, measure, tear down.
fn segment(spec: &UdpSpec, seed: u64, window: Duration, traced: bool) -> Result<UdpRun, String> {
    let born = Instant::now();
    let bind = |e: io::Error| format!("cannot bind loopback: {e}");
    if traced {
        let sink = Arc::new(Mutex::new(TraceSink::default()));
        let cluster = build_traced(spec, &sink).map_err(bind)?;
        warm_up(&cluster)?;
        let setup = born.elapsed().as_secs_f64();
        let mut run = drive_window(cluster, spec, seed, window, born)?;
        run.setup_s.push(setup);
        let sink = std::mem::take(&mut *sink.lock().map_err(|_| "trace sink poisoned")?);
        run.trace = Some(sink);
        Ok(run)
    } else {
        let cluster = build_product(spec).map_err(bind)?;
        warm_up(&cluster)?;
        let setup = born.elapsed().as_secs_f64();
        let mut run = drive_window(cluster, spec, seed, window, born)?;
        run.setup_s.push(setup);
        Ok(run)
    }
}

/// Runs `spec` for `seconds` of wall time, [`SEGMENTS`] clusters in
/// turn.
///
/// # Errors
///
/// Returns a description when sockets cannot be bound, the ring does
/// not form, or a thread cannot be spawned.
pub fn run(spec: &UdpSpec, seed: u64, seconds: u64, traced: bool) -> Result<UdpRun, String> {
    let window = Duration::from_secs(seconds) / SEGMENTS as u32;
    trace::WINDOW_OPEN.store(false, Ordering::Relaxed);
    trace::set_default_sampling(if traced { UDP_SAMPLING } else { 1 });
    let mut result: Option<UdpRun> = None;
    for s in 0..SEGMENTS as u64 {
        // Each segment draws its own payloads; a lingering reader
        // thread of the previous cluster exits within its 50 ms read
        // timeout and is counted in no slice (it is not alive at both
        // of any slice's edges).
        let seed = seed.wrapping_mul(SEGMENTS as u64).wrapping_add(s);
        let next = segment(spec, seed, window, traced)?;
        match result.as_mut() {
            None => result = Some(next),
            Some(r) => r.absorb(next),
        }
    }
    trace::set_default_sampling(1);
    trace::WINDOW_OPEN.store(true, Ordering::Relaxed);
    let mut result = result.ok_or("no segment ran")?;
    while result.setup_s.len() < MIN_SETUPS {
        let t = Instant::now();
        let cluster = build_product(spec).map_err(|e| format!("cannot bind loopback: {e}"))?;
        warm_up(&cluster)?;
        result.setup_s.push(t.elapsed().as_secs_f64());
        for h in cluster.handles {
            h.shutdown();
        }
    }
    Ok(result)
}

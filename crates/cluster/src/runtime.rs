//! Threaded real-time host: one driver thread per node over a real
//! [`Transport`].
//!
//! The driver loop waits on the transport with a timeout equal to the
//! node's next protocol deadline, decodes packets, feeds the state
//! machine, puts its sends back on the wire, and forwards deliveries,
//! configuration changes and fault reports to the application through
//! a channel.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};

use totem_rrp::FaultReport;
use totem_srp::{ConfigChange, Delivered};
use totem_transport::{Destination, RecvBatch, SendBatch, Transport};
use totem_wire::NetworkId;

use crate::backend::Broadcast;
use crate::node::{NodeOutput, TotemNode};

/// How the driver waits for traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PollMode {
    /// Block in the transport until traffic or the next protocol
    /// deadline (the default; zero CPU while idle).
    #[default]
    Wait,
    /// Spin on zero-timeout drains for up to `spin_us` microseconds
    /// before blocking for the remainder of the deadline. Shaves the
    /// wake-up latency off the token hot path at the cost of burning
    /// a core while traffic is expected momentarily.
    BusyPoll {
        /// Spin budget per wait, in microseconds.
        spin_us: u64,
    },
}

/// Tuning knobs for the driver loop (see [`spawn_node_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Use the batched transport fast path: drain a whole
    /// [`RecvBatch`] per wake, feed every frame, and flush all
    /// resulting sends as one [`SendBatch`]. On a batch-aware
    /// transport (UDP) this amortizes submission/completion syscalls
    /// across the batch; on any other transport the trait's default
    /// loops make it behave exactly like the single-shot path.
    pub batch: bool,
    /// How to wait for traffic.
    pub poll: PollMode,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { batch: true, poll: PollMode::Wait }
    }
}

/// How a node enters the ring at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartMode {
    /// Statically bootstrapped member that waits for the token.
    Member,
    /// Statically bootstrapped representative: injects the initial
    /// token.
    Representative,
    /// Cold start through the membership protocol.
    Joining,
}

/// Events forwarded to the application.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeEvent {
    /// A totally ordered application message.
    Delivered(Delivered),
    /// A membership change.
    Config(ConfigChange),
    /// A network fault report (paper §3).
    Fault(FaultReport),
    /// A previously faulty network was put back in service.
    Reinstated {
        /// The repaired network.
        net: NetworkId,
        /// When, in nanoseconds of protocol time.
        at: u64,
    },
}

#[derive(Debug)]
enum Cmd {
    Submit(Bytes),
    Reinstate(NetworkId),
    SetK(usize),
    Shutdown,
}

/// Handle to a running node. Generic over the broadcast engine the
/// driver thread hosts; defaults to [`TotemNode`], so existing Totem
/// call sites never spell the parameter.
#[derive(Debug)]
pub struct RuntimeHandle<B: Broadcast = TotemNode> {
    cmd_tx: Sender<Cmd>,
    events_rx: Receiver<RuntimeEvent>,
    join: Option<std::thread::JoinHandle<B>>,
}

impl<B: Broadcast> RuntimeHandle<B> {
    /// Queues an application message for ordered broadcast. The driver
    /// retries internally on flow-control backpressure.
    pub fn submit(&self, data: Bytes) {
        let _ = self.cmd_tx.send(Cmd::Submit(data));
    }

    /// Administrative repair: puts a faulty network back in service on
    /// this node (see [`totem_rrp::RrpLayer::reinstate`]).
    pub fn reinstate(&self, net: NetworkId) {
        let _ = self.cmd_tx.send(Cmd::Reinstate(net));
    }

    /// Operator reconfiguration: changes this node's replication
    /// degree K on the fly (see [`totem_rrp::RrpLayer::set_k`]).
    pub fn set_k(&self, k: usize) {
        let _ = self.cmd_tx.send(Cmd::SetK(k));
    }

    /// The stream of deliveries, configuration changes and fault
    /// reports.
    pub fn events(&self) -> &Receiver<RuntimeEvent> {
        &self.events_rx
    }

    /// Convenience: waits up to `timeout` for the next event.
    pub fn next_event(&self, timeout: Duration) -> Option<RuntimeEvent> {
        self.events_rx.recv_timeout(timeout).ok()
    }

    /// Stops the driver and returns the final node state.
    pub fn shutdown(mut self) -> B {
        let _ = self.cmd_tx.send(Cmd::Shutdown);
        self.join.take().expect("not yet joined").join().expect("driver thread panicked")
    }
}

impl<B: Broadcast> Drop for RuntimeHandle<B> {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            let _ = self.cmd_tx.send(Cmd::Shutdown);
            let _ = join.join();
        }
    }
}

/// Drains [`RuntimeEvent::Delivered`] payloads from every handle until
/// each node has `want` deliveries or `timeout` elapses, whichever
/// comes first. Returns the per-node delivery orders and the elapsed
/// wall time (measured here so callers that must stay free of
/// wall-clock reads — everything outside the real-time crates — can
/// still report throughput).
pub fn collect_deliveries<B: Broadcast>(
    handles: &[RuntimeHandle<B>],
    want: usize,
    timeout: Duration,
) -> (Vec<Vec<Bytes>>, Duration) {
    let started = Instant::now();
    let deadline = started + timeout;
    let mut orders: Vec<Vec<Bytes>> = vec![Vec::new(); handles.len()];
    while orders.iter().any(|o| o.len() < want) && Instant::now() < deadline {
        for (i, h) in handles.iter().enumerate() {
            while let Some(ev) = h.next_event(Duration::from_millis(10)) {
                if let RuntimeEvent::Delivered(d) = ev {
                    orders[i].push(d.data);
                }
            }
        }
    }
    (orders, started.elapsed())
}

/// Spawns the driver thread for `node` over `transport`.
///
/// # Example
///
/// A two-node cluster over the in-memory transport:
///
/// ```
/// # use totem_cluster::{spawn_node, RuntimeEvent, StartMode, TotemNode};
/// # use totem_rrp::{ReplicationStyle, RrpConfig};
/// # use totem_srp::SrpConfig;
/// # use totem_transport::InMemoryHub;
/// # use totem_wire::NodeId;
/// # use std::time::Duration;
/// let members = [NodeId::new(0), NodeId::new(1)];
/// let handles: Vec<_> = InMemoryHub::new(2, 2)
///     .into_iter()
///     .enumerate()
///     .map(|(i, t)| {
///         let node = TotemNode::new_operational(
///             NodeId::new(i as u16), &members,
///             SrpConfig::default(), RrpConfig::new(ReplicationStyle::Active, 2), 0);
///         let mode = if i == 0 { StartMode::Representative } else { StartMode::Member };
///         spawn_node(node, t, mode)
///     })
///     .collect();
/// handles[0].submit(bytes::Bytes::from_static(b"hello"));
/// let mut got = false;
/// for _ in 0..200 {
///     if let Some(RuntimeEvent::Delivered(d)) = handles[1].next_event(Duration::from_millis(50)) {
///         got = d.data == b"hello"[..];
///         if got { break; }
///     }
/// }
/// assert!(got);
/// # for h in handles { h.shutdown(); }
/// ```
pub fn spawn_node<B, T>(node: B, transport: T, start: StartMode) -> RuntimeHandle<B>
where
    B: Broadcast + Send + 'static,
    T: Transport + 'static,
{
    spawn_node_with(node, transport, start, RuntimeConfig::default())
}

/// Like [`spawn_node`], with explicit [`RuntimeConfig`] tuning.
pub fn spawn_node_with<B, T>(
    mut node: B,
    transport: T,
    start: StartMode,
    config: RuntimeConfig,
) -> RuntimeHandle<B>
where
    B: Broadcast + Send + 'static,
    T: Transport + 'static,
{
    let (cmd_tx, cmd_rx) = unbounded();
    let (events_tx, events_rx) = unbounded();
    let join = std::thread::Builder::new()
        .name(format!("totem-{}", node.id()))
        .spawn(move || {
            drive(&mut node, &transport, start, config, &cmd_rx, &events_tx);
            node
        })
        .expect("spawn totem driver thread");
    RuntimeHandle { cmd_tx, events_rx, join: Some(join) }
}

fn drive<B: Broadcast, T: Transport>(
    node: &mut B,
    transport: &T,
    start: StartMode,
    config: RuntimeConfig,
    cmd_rx: &Receiver<Cmd>,
    events_tx: &Sender<RuntimeEvent>,
) {
    let mut driver = Driver::new(node, transport, config, cmd_rx, events_tx);
    driver.start(start);
    // Batched mode drains every wake's receptions into this and feeds
    // them all before anything is sent.
    let mut in_batch = RecvBatch::new();
    while driver.settle() {
        let timeout = driver.wait_budget();
        if config.batch {
            if recv_wait(transport, &mut in_batch, timeout, config.poll) > 0 {
                let when = driver.now();
                for (net, datagram) in in_batch.drain() {
                    driver.feed(when, net, datagram);
                }
            }
        } else if let Some((net, datagram)) = transport.recv_timeout(timeout) {
            driver.feed(driver.now(), net, datagram);
        }
    }
}

/// One node's driver loop between two waits on the transport: the
/// state it carries from wake to wake and the steps of a wake.
struct Driver<'a, B, T> {
    node: &'a mut B,
    transport: &'a T,
    config: RuntimeConfig,
    cmd_rx: &'a Receiver<Cmd>,
    events_tx: &'a Sender<RuntimeEvent>,
    epoch: Instant,
    /// Submissions the node has not accepted yet (flow control),
    /// retried every wake.
    pending: VecDeque<Bytes>,
    /// Batched mode: sends staged since the last flush; everything a
    /// wake produces goes to the kernel in one submission.
    out_batch: SendBatch,
    /// One recycled output buffer serves the whole loop.
    outputs: Vec<NodeOutput>,
}

impl<'a, B: Broadcast, T: Transport> Driver<'a, B, T> {
    fn new(
        node: &'a mut B,
        transport: &'a T,
        config: RuntimeConfig,
        cmd_rx: &'a Receiver<Cmd>,
        events_tx: &'a Sender<RuntimeEvent>,
    ) -> Self {
        Driver {
            node,
            transport,
            config,
            cmd_rx,
            events_tx,
            epoch: Instant::now(),
            pending: VecDeque::new(),
            out_batch: SendBatch::new(),
            outputs: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn start(&mut self, mode: StartMode) {
        match mode {
            StartMode::Member => {}
            StartMode::Representative => self.node.bootstrap_into(self.now(), &mut self.outputs),
            StartMode::Joining => self.node.start_into(self.now(), &mut self.outputs),
        }
        self.emit();
    }

    /// Hands the node's outputs on: events to the application at once,
    /// sends to the wire — at once, or in batched mode with the next
    /// [`Driver::settle`].
    fn emit(&mut self) {
        if self.config.batch {
            stage(&mut self.outputs, &mut self.out_batch, self.events_tx);
        } else {
            perform(&mut self.outputs, self.transport, self.events_tx);
        }
    }

    /// Feeds one received datagram. The node decodes it only if it has
    /// a use for it, and keeps the bytes it came in as the packet's
    /// encoding, so retransmitting it never re-encodes.
    fn feed(&mut self, now: u64, net: NetworkId, datagram: Bytes) {
        self.node.on_datagram_into(now, net, datagram, &mut self.outputs);
        self.emit();
    }

    /// What follows a wake's receptions, and precedes every wait:
    /// application commands and the submissions the node has room for,
    /// *then* expired timers, then one flush of everything the wake
    /// produced. The order matters on an idle ring: the timer that
    /// ends this node's idle-token hold must not fire ahead of a
    /// submission that arrived during the hold, or the message misses
    /// the token it was meant to ride and waits a whole rotation.
    /// Returns `false` when the loop must stop.
    fn settle(&mut self) -> bool {
        if !self.commands() {
            return false;
        }
        let now = self.now();
        if self.node.next_deadline().is_some_and(|d| d <= now) {
            self.node.on_timer_into(now, &mut self.outputs);
            self.emit();
        }
        if self.config.batch {
            flush(self.transport, &mut self.out_batch);
        }
        true
    }

    /// Drains the command channel and feeds pending submissions while
    /// the node accepts them. Returns `false` on shutdown.
    fn commands(&mut self) -> bool {
        loop {
            match self.cmd_rx.try_recv() {
                Ok(Cmd::Submit(data)) => self.pending.push_back(data),
                Ok(Cmd::Reinstate(net)) => {
                    let now = self.now();
                    if self.node.reinstate(now, net) {
                        let _ = self.events_tx.send(RuntimeEvent::Reinstated { net, at: now });
                    }
                }
                Ok(Cmd::SetK(k)) => {
                    // An out-of-range K is dropped; the CLI validates
                    // before sending, so there is no one to tell here.
                    let _ = self.node.set_k(self.now(), k);
                }
                Ok(Cmd::Shutdown) | Err(TryRecvError::Disconnected) => return false,
                Err(TryRecvError::Empty) => break,
            }
        }
        while let Some(data) = self.pending.front().cloned() {
            if self.node.submit_into(self.now(), data, &mut self.outputs).is_err() {
                break; // backpressure: retry next wake
            }
            self.pending.pop_front();
            self.emit();
        }
        true
    }

    /// How long the next wait may last: until the node's next
    /// deadline, at most 50 ms (the command channel is polled, not
    /// waited on).
    fn wait_budget(&self) -> Duration {
        let now = self.now();
        match self.node.next_deadline() {
            Some(d) if d > now => Duration::from_nanos((d - now).min(50_000_000)),
            Some(_) => Duration::ZERO,
            None => Duration::from_millis(50),
        }
    }
}

/// Waits for inbound traffic per `poll`: either one blocking
/// [`Transport::recv_batch`], or zero-timeout spins for up to
/// `spin_us` before blocking for whatever remains of `timeout`.
fn recv_wait<T: Transport>(
    transport: &T,
    out: &mut RecvBatch,
    timeout: Duration,
    poll: PollMode,
) -> usize {
    match poll {
        PollMode::Wait => transport.recv_batch(out, timeout),
        PollMode::BusyPoll { spin_us } => {
            let spin = Duration::from_micros(spin_us).min(timeout);
            let start = Instant::now();
            loop {
                let got = transport.recv_batch(out, Duration::ZERO);
                if got > 0 {
                    return got;
                }
                if start.elapsed() >= spin {
                    break;
                }
                std::hint::spin_loop();
            }
            let rest = timeout.saturating_sub(start.elapsed());
            if rest.is_zero() {
                0
            } else {
                transport.recv_batch(out, rest)
            }
        }
    }
}

/// Batched-mode output handling: events go to the application
/// immediately, sends accumulate in `out_batch` for the next
/// [`flush`].
fn stage(
    outputs: &mut Vec<NodeOutput>,
    out_batch: &mut SendBatch,
    events_tx: &Sender<RuntimeEvent>,
) {
    for out in outputs.drain(..) {
        match out {
            NodeOutput::Send { net, dst, pkt } => {
                let dest = match dst {
                    None => Destination::Broadcast,
                    Some(d) => Destination::Node(d),
                };
                out_batch.push(net, dest, pkt.encoded().clone());
            }
            other => forward_event(other, events_tx),
        }
    }
}

/// Submits everything staged in `out_batch`. Transient failures are
/// packet loss — the protocol retransmits — so an errored or
/// partially-sent tail is dropped rather than retried in a loop.
fn flush<T: Transport>(transport: &T, out_batch: &mut SendBatch) {
    // The node emits each frame's redundant copies net-by-net;
    // regrouping them per network turns the flush into one contiguous
    // run (one sendmmsg submission) per network.
    out_batch.group_by_net();
    while !out_batch.is_empty() {
        match transport.send_batch(out_batch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    out_batch.clear();
}

fn perform<T: Transport>(
    outputs: &mut Vec<NodeOutput>,
    transport: &T,
    events_tx: &Sender<RuntimeEvent>,
) {
    for out in outputs.drain(..) {
        match out {
            NodeOutput::Send { net, dst, pkt } => {
                let dest = match dst {
                    None => Destination::Broadcast,
                    Some(d) => Destination::Node(d),
                };
                // Treat transient send failures as packet loss; the
                // protocol retransmits. The cached encoding makes every
                // copy of this frame share one buffer.
                let _ = transport.send(net, dest, pkt.encoded().clone());
            }
            other => forward_event(other, events_tx),
        }
    }
}

fn forward_event(out: NodeOutput, events_tx: &Sender<RuntimeEvent>) {
    match out {
        NodeOutput::Send { .. } => unreachable!("sends are handled by the caller"),
        NodeOutput::Deliver(d) => {
            let _ = events_tx.send(RuntimeEvent::Delivered(d));
        }
        NodeOutput::Config(c) => {
            let _ = events_tx.send(RuntimeEvent::Config(c));
        }
        NodeOutput::Fault(f) => {
            let _ = events_tx.send(RuntimeEvent::Fault(f));
        }
        NodeOutput::Reinstated { net, at } => {
            let _ = events_tx.send(RuntimeEvent::Reinstated { net, at });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use totem_rrp::{ReplicationStyle, RrpConfig};
    use totem_srp::SrpConfig;
    use totem_transport::InMemoryHub;
    use totem_wire::NodeId;

    fn cluster(n: usize, style: ReplicationStyle, networks: usize) -> Vec<RuntimeHandle> {
        cluster_with(n, style, networks, RuntimeConfig::default())
    }

    fn cluster_with(
        n: usize,
        style: ReplicationStyle,
        networks: usize,
        config: RuntimeConfig,
    ) -> Vec<RuntimeHandle> {
        let members: Vec<NodeId> = (0..n as u16).map(NodeId::new).collect();
        let transports = InMemoryHub::new(n, networks);
        transports
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let me = NodeId::new(i as u16);
                let node = TotemNode::new_operational(
                    me,
                    &members,
                    SrpConfig::default(),
                    RrpConfig::new(style, networks),
                    0,
                );
                let mode = if i == 0 { StartMode::Representative } else { StartMode::Member };
                spawn_node_with(node, t, mode, config)
            })
            .collect()
    }

    #[test]
    fn threaded_cluster_delivers_over_in_memory_transport() {
        let handles = cluster(3, ReplicationStyle::Active, 2);
        handles[1].submit(Bytes::from_static(b"threaded hello"));
        for (i, h) in handles.iter().enumerate() {
            let mut got = false;
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                match h.next_event(Duration::from_millis(200)) {
                    Some(RuntimeEvent::Delivered(d)) if &d.data[..] == b"threaded hello" => {
                        got = true;
                        break;
                    }
                    _ => {}
                }
            }
            assert!(got, "node {i} never delivered");
        }
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn every_runtime_config_delivers() {
        let configs = [
            RuntimeConfig { batch: false, poll: PollMode::Wait },
            RuntimeConfig { batch: true, poll: PollMode::Wait },
            RuntimeConfig { batch: true, poll: PollMode::BusyPoll { spin_us: 50 } },
        ];
        for config in configs {
            let handles = cluster_with(3, ReplicationStyle::Active, 2, config);
            handles[2].submit(Bytes::from_static(b"any mode"));
            for (i, h) in handles.iter().enumerate() {
                let mut got = false;
                let deadline = Instant::now() + Duration::from_secs(10);
                while Instant::now() < deadline {
                    match h.next_event(Duration::from_millis(200)) {
                        Some(RuntimeEvent::Delivered(d)) if &d.data[..] == b"any mode" => {
                            got = true;
                            break;
                        }
                        _ => {}
                    }
                }
                assert!(got, "node {i} never delivered under {config:?}");
            }
            for h in handles {
                h.shutdown();
            }
        }
    }

    /// A `Broadcast` engine that only records which entry points a
    /// host calls, in order. Its one timer is due from the start and
    /// is disarmed by firing.
    #[derive(Debug, Default)]
    struct Recorder {
        calls: Vec<&'static str>,
        fired: bool,
    }

    impl Broadcast for Recorder {
        fn id(&self) -> NodeId {
            NodeId::new(0)
        }
        fn start_into(&mut self, _now: u64, _out: &mut Vec<NodeOutput>) {}
        fn bootstrap_into(&mut self, _now: u64, _out: &mut Vec<NodeOutput>) {}
        fn submit_into(
            &mut self,
            _now: u64,
            _data: Bytes,
            _out: &mut Vec<NodeOutput>,
        ) -> Result<(), totem_srp::SubmitError> {
            self.calls.push("submit_into");
            Ok(())
        }
        fn on_packet_into(
            &mut self,
            _now: u64,
            _net: NetworkId,
            _pkt: totem_wire::SharedPacket,
            _out: &mut Vec<NodeOutput>,
        ) {
            self.calls.push("on_packet_into");
        }
        fn on_datagram_into(
            &mut self,
            _now: u64,
            _net: NetworkId,
            _datagram: Bytes,
            _out: &mut Vec<NodeOutput>,
        ) {
            self.calls.push("on_datagram_into");
        }
        fn on_timer_into(&mut self, _now: u64, _out: &mut Vec<NodeOutput>) {
            self.calls.push("on_timer_into");
            self.fired = true;
        }
        fn next_deadline(&self) -> Option<u64> {
            (!self.fired).then_some(0)
        }
        fn send_queue_len(&self) -> usize {
            0
        }
        fn take_transitions(&mut self) -> Vec<totem_wire::Transition> {
            Vec::new()
        }
        fn fingerprint<H: std::hash::Hasher>(&self, _h: &mut H) {}
        fn crash_epoch(&self) -> u64 {
            0
        }
    }

    /// The wake a submission shares with the expiry of this node's
    /// idle-token hold: the submission must reach the node first, so it
    /// rides the held token instead of watching it leave. Receptions
    /// reach the node undecoded in either loop.
    #[test]
    fn a_wake_feeds_receptions_then_submissions_then_timers() {
        let transports = InMemoryHub::new(1, 1);
        let (cmd_tx, cmd_rx) = unbounded();
        let (events_tx, _events_rx) = unbounded();
        for batch in [true, false] {
            let mut node = Recorder::default();
            let config = RuntimeConfig { batch, poll: PollMode::Wait };
            let mut driver = Driver::new(&mut node, &transports[0], config, &cmd_rx, &events_tx);
            cmd_tx.send(Cmd::Submit(Bytes::from_static(b"rides the held token"))).unwrap();
            driver.feed(0, NetworkId::new(0), Bytes::from_static(b"any datagram"));
            assert!(driver.settle());
            assert_eq!(node.calls, ["on_datagram_into", "submit_into", "on_timer_into"]);
        }
        cmd_tx.send(Cmd::Shutdown).unwrap();
        let mut node = Recorder::default();
        let mut driver =
            Driver::new(&mut node, &transports[0], RuntimeConfig::default(), &cmd_rx, &events_tx);
        assert!(!driver.settle(), "shutdown stops the loop");
    }

    #[test]
    fn shutdown_returns_node_state() {
        let mut handles = cluster(2, ReplicationStyle::Single, 1);
        let h = handles.remove(0);
        let node = h.shutdown();
        assert_eq!(node.id(), NodeId::new(0));
    }
}

//! Threaded real-time host: one driver thread per node over a real
//! [`Transport`].
//!
//! The driver loop waits on the transport with a timeout equal to the
//! node's next protocol deadline, drains everything that arrived into
//! one [`RecvBatch`], offers the application's submissions and then
//! the receptions to the state machine, puts all resulting sends on
//! the wire as one [`SendBatch`], and forwards deliveries,
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

/// Tuning for the driver loop (see [`spawn_node_with`]). It has no
/// knobs left: the driver always blocks in the transport until traffic
/// or its next deadline. The type stays because callers built against
/// [`spawn_node_with`], the benchmark among them, pass
/// `RuntimeConfig::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeConfig;

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
    spawn_node_with(node, transport, start, RuntimeConfig)
}

/// Like [`spawn_node`], with explicit [`RuntimeConfig`] tuning.
pub fn spawn_node_with<B, T>(
    mut node: B,
    transport: T,
    start: StartMode,
    _config: RuntimeConfig,
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
            drive(&mut node, &transport, start, &cmd_rx, &events_tx);
            node
        })
        .expect("spawn totem driver thread");
    RuntimeHandle { cmd_tx, events_rx, join: Some(join) }
}

fn drive<B: Broadcast, T: Transport>(
    node: &mut B,
    transport: &T,
    start: StartMode,
    cmd_rx: &Receiver<Cmd>,
    events_tx: &Sender<RuntimeEvent>,
) {
    let mut driver = Driver::new(node, transport, cmd_rx, events_tx);
    driver.start(start);
    // Everything one wait drained out of the transport; empty on the
    // first pass, which only settles what `start` produced.
    let mut received = RecvBatch::new();
    while driver.wake(&mut received) {
        transport.recv_batch(&mut received, driver.wait_budget());
    }
}

/// One node's driver loop between two waits on the transport: the
/// state it carries from wake to wake and the steps of a wake.
struct Driver<'a, B, T> {
    node: &'a mut B,
    transport: &'a T,
    cmd_rx: &'a Receiver<Cmd>,
    events_tx: &'a Sender<RuntimeEvent>,
    epoch: Instant,
    /// Submissions the node has not accepted yet (flow control),
    /// retried every wake.
    pending: VecDeque<Bytes>,
    /// Sends staged since the last flush; everything a wake produces
    /// goes to the kernel in one submission.
    out_batch: SendBatch,
    /// One recycled output buffer serves the whole loop.
    outputs: Vec<NodeOutput>,
}

impl<'a, B: Broadcast, T: Transport> Driver<'a, B, T> {
    fn new(
        node: &'a mut B,
        transport: &'a T,
        cmd_rx: &'a Receiver<Cmd>,
        events_tx: &'a Sender<RuntimeEvent>,
    ) -> Self {
        Driver {
            node,
            transport,
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
    /// sends to `out_batch` for the flush that ends the wake.
    fn emit(&mut self) {
        for out in self.outputs.drain(..) {
            let event = match out {
                NodeOutput::Send { net, dst, pkt } => {
                    let dest = match dst {
                        None => Destination::Broadcast,
                        Some(d) => Destination::Node(d),
                    };
                    // The cached encoding makes every copy of this
                    // frame share one buffer.
                    self.out_batch.push(net, dest, pkt.encoded().clone());
                    continue;
                }
                NodeOutput::Deliver(d) => RuntimeEvent::Delivered(d),
                NodeOutput::Config(c) => RuntimeEvent::Config(c),
                NodeOutput::Fault(f) => RuntimeEvent::Fault(f),
                NodeOutput::Reinstated { net, at } => RuntimeEvent::Reinstated { net, at },
            };
            let _ = self.events_tx.send(event);
        }
    }

    /// One pass of the loop, run on what the wait before it drained
    /// into `received`: application commands and the submissions the
    /// node has room for, *then* the receptions, *then* expired
    /// timers, then one flush of everything the wake produced. Returns
    /// `false` when the loop must stop.
    ///
    /// The order is the protocol's: a node broadcasts only while it
    /// holds the token. A submission that arrived during the wait must
    /// be in the node's queue before the token that ended the wait is
    /// fed (under active replication the gate passes it up on its last
    /// copy, and both copies sit in the same `received`), and before
    /// the timer that ends an idle-token hold fires — otherwise the
    /// message watches its token leave and waits a whole rotation.
    fn wake(&mut self, received: &mut RecvBatch) -> bool {
        if !self.commands() {
            return false;
        }
        // The node decodes a datagram only if it has a use for it, and
        // keeps the bytes it came in as the packet's encoding, so
        // retransmitting it never re-encodes.
        let now = self.now();
        for (net, datagram) in received.drain() {
            self.node.on_datagram_into(now, net, datagram, &mut self.outputs);
            self.emit();
        }
        let now = self.now();
        if self.node.next_deadline().is_some_and(|d| d <= now) {
            self.node.on_timer_into(now, &mut self.outputs);
            self.emit();
        }
        self.flush();
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

    /// Submits everything staged in `out_batch`. Transient failures
    /// are packet loss — the protocol retransmits — so an errored or
    /// partially-sent tail is dropped rather than retried in a loop.
    fn flush(&mut self) {
        // The node emits each frame's redundant copies net-by-net;
        // regrouping them per network turns the flush into one
        // contiguous run (one hand-off to its transmitter) per network.
        self.out_batch.group_by_net();
        while !self.out_batch.is_empty() {
            match self.transport.send_batch(&mut self.out_batch) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        self.out_batch.clear();
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

#[cfg(test)]
mod tests {
    use super::*;
    use totem_rrp::{ReplicationStyle, RrpConfig};
    use totem_srp::SrpConfig;
    use totem_transport::InMemoryHub;
    use totem_wire::NodeId;

    fn cluster(n: usize, style: ReplicationStyle, networks: usize) -> Vec<RuntimeHandle> {
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
                spawn_node_with(node, t, mode, RuntimeConfig)
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

    /// `RuntimeConfig` has one value, the one `cluster` spawns with.
    #[test]
    fn every_runtime_config_delivers() {
        let handles = cluster(3, ReplicationStyle::Active, 2);
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
            assert!(got, "node {i} never delivered");
        }
        for h in handles {
            h.shutdown();
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
        fn reinstate(&mut self, _now: u64, _net: NetworkId) -> bool {
            false
        }
        fn set_k(&mut self, _now: u64, _k: usize) -> bool {
            false
        }
    }

    /// Stands in for an encoded token: its redundant copies are the
    /// same bytes on different networks.
    const TOKEN: &[u8] = b"a token";

    /// A submission that arrived during the wait reaches the node
    /// ahead of that wait's receptions — both copies of the token it
    /// is meant to ride — and ahead of the timer that ends an
    /// idle-token hold.
    #[test]
    fn a_wake_offers_submissions_then_receptions_then_timers() {
        let transports = InMemoryHub::new(1, 2);
        let (cmd_tx, cmd_rx) = unbounded();
        let (events_tx, _events_rx) = unbounded();
        let mut received = RecvBatch::new();

        let mut node = Recorder::default();
        let mut driver = Driver::new(&mut node, &transports[0], &cmd_rx, &events_tx);
        cmd_tx.send(Cmd::Submit(Bytes::from_static(b"rides this token"))).unwrap();
        received.push(NetworkId::new(0), Bytes::from_static(TOKEN));
        received.push(NetworkId::new(1), Bytes::from_static(TOKEN));
        assert!(driver.wake(&mut received));
        assert!(received.is_empty());
        assert_eq!(
            node.calls,
            ["submit_into", "on_datagram_into", "on_datagram_into", "on_timer_into"]
        );

        // No reception: the wait ended on the hold timer.
        let mut node = Recorder::default();
        let mut driver = Driver::new(&mut node, &transports[0], &cmd_rx, &events_tx);
        cmd_tx.send(Cmd::Submit(Bytes::from_static(b"rides the held token"))).unwrap();
        assert!(driver.wake(&mut received));
        assert_eq!(node.calls, ["submit_into", "on_timer_into"]);

        cmd_tx.send(Cmd::Shutdown).unwrap();
        let mut node = Recorder::default();
        let mut driver = Driver::new(&mut node, &transports[0], &cmd_rx, &events_tx);
        assert!(!driver.wake(&mut received), "shutdown stops the loop");
    }

    /// A transport whose waits are scripted: during the first, a
    /// submission arrives and then both copies of a token, which one
    /// fill hands over together; the second ends in shutdown.
    struct Scripted {
        cmd_tx: Sender<Cmd>,
        waits: std::cell::Cell<usize>,
    }

    impl Transport for Scripted {
        fn networks(&self) -> usize {
            2
        }
        fn send(&self, _: NetworkId, _: Destination, _: Bytes) -> std::io::Result<()> {
            Ok(())
        }
        fn recv_timeout(&self, _: Duration) -> Option<(NetworkId, Bytes)> {
            None
        }
        fn recv_batch(&self, out: &mut RecvBatch, _: Duration) -> usize {
            if self.waits.replace(self.waits.get() + 1) > 0 {
                self.cmd_tx.send(Cmd::Shutdown).unwrap();
                return 0;
            }
            self.cmd_tx.send(Cmd::Submit(Bytes::from_static(b"rides this token"))).unwrap();
            out.push(NetworkId::new(0), Bytes::from_static(TOKEN));
            out.push(NetworkId::new(1), Bytes::from_static(TOKEN));
            2
        }
    }

    /// The same order through `drive` itself: the pass before the
    /// first wait fires the timer that is already due, and the wake
    /// after it offers the submission before either token copy.
    #[test]
    fn the_loop_offers_a_queued_submission_before_either_token_copy() {
        let (cmd_tx, cmd_rx) = unbounded();
        let (events_tx, _events_rx) = unbounded();
        let transport = Scripted { cmd_tx, waits: std::cell::Cell::new(0) };
        let mut node = Recorder::default();
        drive(&mut node, &transport, StartMode::Member, &cmd_rx, &events_tx);
        assert_eq!(transport.waits.get(), 2);
        assert_eq!(
            node.calls,
            ["on_timer_into", "submit_into", "on_datagram_into", "on_datagram_into"]
        );
    }

    #[test]
    fn shutdown_returns_node_state() {
        let mut handles = cluster(2, ReplicationStyle::Single, 1);
        let h = handles.remove(0);
        let node = h.shutdown();
        assert_eq!(node.id(), NodeId::new(0));
    }
}

//! The unified K-of-N replication engine (paper §5–§7).
//!
//! The paper presents active-passive replication (§7) as a K-of-N
//! scheme whose endpoints are exactly the active (K=N, §5) and passive
//! (K=1, §6) algorithms. This module implements all three as **one**
//! parameterized state machine built from three composable stages:
//!
//! * a **send window** ([`advance_window`]) — K consecutive non-faulty
//!   networks chosen round-robin, with separate rotation pointers for
//!   data, tokens and retransmissions. At K=N it degenerates to
//!   "all non-faulty networks in index order" (§5 sends via n' first,
//!   n'' second, ...); at K=1 to the strict per-packet alternation of
//!   Figure 4 `sendMsg`/`sendToken`;
//! * a **stage-one health monitor** behind the [`MonitorStrategy`]
//!   trait — the problem-counter style of Figure 2 (Requirements
//!   A5/A6) when K=N, the reception-count-divergence style of Figure 5
//!   (Requirements P4/P5) when K<N;
//! * a **stage-two token gate** — wait for K copies of the current
//!   token instance or a timeout. At K=N the count test is replaced by
//!   the exact Figure-2 predicate (a copy on *every* non-faulty
//!   network, Requirements A2/A3); at K=1 the gate degenerates to
//!   passive's buffer-behind-gap hold-and-release (Requirements
//!   P1/P3), because a single copy always "completes" and the only
//!   reason to hold the token is a message gap.
//!
//! The replication degree K is **runtime-reconfigurable** via
//! [`Engine::set_k`]: the faulty set, rotation pointers and any
//! pending token survive the switch (a token held by the gate moves
//! into the passive buffer and vice versa), while the monitor strategy
//! is swapped fresh when the K=N boundary is crossed — the two
//! strategies' histories are not comparable.

use std::collections::HashMap;

use totem_wire::{NetworkId, NodeId, RingId, Rotation, Seq, SerialOrdKey, SharedPacket};

use crate::config::RrpConfig;
use crate::fault::{FaultReason, FaultReport, MonitorKind};
use crate::layer::RrpEvent;
use crate::monitor::MonitorModule;
use crate::pernet::PerNet;

/// Ordering key for token instances: `(ring seq, rotation, seq)`.
/// Copies of the same token instance share the key; a genuinely newer
/// token always compares greater (the ring leader bumps `rotation`
/// every full rotation, even on an idle ring). The serial counters go
/// through their explicit [`SerialOrdKey`] adapters: the key orders by
/// raw value, which is correct here because the gate only compares
/// tokens from the same short-lived circulation neighbourhood.
///
/// The key is all of a token the gate ever reads, and it sits in the
/// token's fixed header — which is why a copy the gate will neither
/// hold nor deliver never has to be decoded.
pub(crate) type TokenKey = (u64, SerialOrdKey, SerialOrdKey);

pub(crate) fn token_key(ring: RingId, rotation: Rotation, seq: Seq) -> TokenKey {
    (ring.seq, rotation.ord_key(), seq.ord_key())
}

/// The key of a token the gate holds (`None` for any other packet
/// class, which the gate never stores).
fn key_of(pkt: &SharedPacket) -> Option<TokenKey> {
    pkt.token().map(|t| token_key(t.ring, t.rotation, t.seq))
}

/// The shared send-window advance: fills `out` with the K networks for
/// the next send and updates the rotation pointer `rr`.
///
/// The three regimes are **deliberately branch-exact** with the
/// paper's per-style pseudocode — their pointer semantics differ
/// observably and cannot be merged:
///
/// * `K >= N` (§5): all non-faulty networks in index order; the
///   pointer never moves. Falls back to *all* networks when everything
///   is marked faulty (sending nothing would kill a ring that might
///   still limp along).
/// * `K == 1` (§6 Figure 4): the pointer advances until it *lands on*
///   a non-faulty network, so with N=3 and net1 faulty the sequence is
///   2, 0, 2, 0 (the skipped slot keeps rotating). All-faulty
///   fallback: advance once more and use that network regardless.
/// * `1 < K < N` (§7): the window start advances by exactly one per
///   send, then scans forward collecting K non-faulty networks.
///   All-faulty fallback: the plain (unfiltered) window.
pub(crate) fn advance_window(
    rr: &mut usize,
    k: usize,
    faulty: &PerNet<bool>,
    out: &mut Vec<NetworkId>,
) {
    let n = faulty.len().max(1);
    out.clear();
    if k >= n {
        out.extend(faulty.iter().filter(|(_, &f)| !f).map(|(net, _)| net));
        if out.is_empty() {
            out.extend(faulty.ids());
        }
    } else if k == 1 {
        for _ in 0..n {
            *rr = (*rr + 1) % n;
            let net = NetworkId::new(*rr as u8);
            if !faulty.at(net) {
                out.push(net);
                return;
            }
        }
        *rr = (*rr + 1) % n;
        out.push(NetworkId::new(*rr as u8));
    } else {
        *rr = (*rr + 1) % n;
        let mut idx = *rr;
        for _ in 0..n {
            let net = NetworkId::new(idx as u8);
            if !faulty.at(net) {
                out.push(net);
                if out.len() == k {
                    break;
                }
            }
            idx = (idx + 1) % n;
        }
        if out.is_empty() {
            out.extend((0..k).map(|i| NetworkId::new(((*rr + i) % n) as u8)));
        }
    }
}

/// A network suspected faulty by a stage-one monitor, with how far its
/// reception count lagged the leader.
type Suspect = (NetworkId, u64);

/// Stage one of the receive pipeline: the per-network health monitor.
///
/// Two concrete strategies exist — [`ProblemCounter`] (Figure 2,
/// K=N) and [`Divergence`] (Figure 5, K<N). The engine consults the
/// strategy at every reception, token timeout and timer tick; the
/// strategy never mutates the faulty set itself (declaration, with its
/// shared grace-period gating, is the engine's job).
pub(crate) trait MonitorStrategy: std::fmt::Debug + Send {
    /// A message-class packet from `sender` arrived via `net`.
    /// Returns suspect networks (divergence style only).
    fn record_message(
        &mut self,
        net: NetworkId,
        sender: NodeId,
        faulty: &PerNet<bool>,
        cfg: &RrpConfig,
    ) -> Vec<Suspect>;

    /// A token-class packet arrived via `net`. Returns suspect
    /// networks (divergence style only; the problem-counter style
    /// penalizes absence at the timeout instead).
    fn record_token(&mut self, net: NetworkId, faulty: &PerNet<bool>) -> Vec<Suspect>;

    /// The token timer expired with `seen` the per-network reception
    /// flags of the current instance. Returns the fault reports to
    /// raise (problem-counter style only; the engine marks the
    /// reported networks faulty afterwards, so later networks in the
    /// same expiry are judged against the pre-expiry faulty set, as in
    /// Figure 2).
    fn on_token_timeout(
        &mut self,
        now: u64,
        seen: &PerNet<bool>,
        faulty: &PerNet<bool>,
        grace_until: &PerNet<u64>,
        cfg: &RrpConfig,
    ) -> Vec<FaultReport>;

    /// Background deadline: the problem counters' periodic decay (A6),
    /// or the earliest pending grace re-leveling (divergence style).
    fn next_deadline(&self, grace_until: &PerNet<u64>) -> Option<u64>;

    /// Fires background work due at `now`: counter decay, or grace
    /// expiry (zero the entry and re-level the reception counts so the
    /// monitors judge the network afresh).
    fn on_timer(&mut self, now: u64, grace_until: &mut PerNet<u64>, cfg: &RrpConfig);

    /// A network was administratively reinstated: clear its history so
    /// probation starts from a clean slate.
    fn on_reinstate(&mut self, net: NetworkId);

    /// Diagnostic snapshot of the Figure-2 problem counters (zeros
    /// under the divergence strategy).
    fn problem_counters(&self, networks: usize) -> Vec<u32>;

    /// Diagnostic snapshot of the Figure-5 reception counts (empty
    /// under the problem-counter strategy).
    fn monitor_report(&self) -> Vec<(MonitorKind, Vec<u64>)>;

    /// Deterministically corrupts the strategy's health bookkeeping
    /// (fault injection for self-stabilization testing): problem
    /// counters jump near the declaration threshold, or one monitor
    /// module's reception count diverges. Normal traffic decays both
    /// back to truth.
    fn corrupt(&mut self, rng: &mut rand::rngs::SmallRng);
}

/// Figure-2 stage-one monitor (K=N): one problem counter per network,
/// incremented when the network misses a token deadline (A5), decayed
/// periodically so sporadic loss does not accumulate into a false
/// alarm (A6).
#[derive(Debug)]
struct ProblemCounter {
    problem: PerNet<u32>,
    /// Next periodic decay of the problem counters (A6).
    decay_at: u64,
}

impl ProblemCounter {
    fn new(networks: usize, decay_at: u64) -> Self {
        ProblemCounter { problem: PerNet::filled(networks, 0), decay_at }
    }
}

impl MonitorStrategy for ProblemCounter {
    fn record_message(
        &mut self,
        _net: NetworkId,
        _sender: NodeId,
        _faulty: &PerNet<bool>,
        _cfg: &RrpConfig,
    ) -> Vec<Suspect> {
        Vec::new()
    }

    fn record_token(&mut self, _net: NetworkId, _faulty: &PerNet<bool>) -> Vec<Suspect> {
        Vec::new()
    }

    fn on_token_timeout(
        &mut self,
        now: u64,
        seen: &PerNet<bool>,
        faulty: &PerNet<bool>,
        grace_until: &PerNet<u64>,
        cfg: &RrpConfig,
    ) -> Vec<FaultReport> {
        let mut reports = Vec::new();
        for (net, problem) in self.problem.iter_mut() {
            if seen.at(net) || faulty.at(net) || now < grace_until.at(net) {
                continue;
            }
            *problem = problem.saturating_add(1);
            if *problem >= cfg.problem_threshold {
                reports.push(FaultReport {
                    net,
                    at: now,
                    reason: FaultReason::TokenTimeouts { count: *problem },
                });
            }
        }
        reports
    }

    fn next_deadline(&self, _grace_until: &PerNet<u64>) -> Option<u64> {
        // The decay tick is unconditional; a pending grace expiry needs
        // no wakeup of its own because declaration sites test it lazily.
        Some(self.decay_at)
    }

    fn on_timer(&mut self, now: u64, _grace_until: &mut PerNet<u64>, cfg: &RrpConfig) {
        if self.decay_at <= now {
            for p in self.problem.values_mut() {
                *p = p.saturating_sub(1);
            }
            self.decay_at = now + cfg.problem_decay_interval;
        }
    }

    fn on_reinstate(&mut self, net: NetworkId) {
        self.problem.set(net, 0);
    }

    fn problem_counters(&self, _networks: usize) -> Vec<u32> {
        self.problem.to_vec()
    }

    fn monitor_report(&self) -> Vec<(MonitorKind, Vec<u64>)> {
        Vec::new()
    }

    fn corrupt(&mut self, rng: &mut rand::rngs::SmallRng) {
        use rand::Rng as _;
        let nets = self.problem.len().max(1) as u64;
        let net = NetworkId::new(rng.gen_range(0..nets) as u8);
        // Anywhere from "clean" to "past the declaration threshold";
        // the decay tick walks a spurious count back down, and a real
        // declaration is healed by administrative reinstatement.
        let forged = rng.gen_range(0..32) as u32;
        self.problem.set(net, forged);
    }
}

/// Figure-5 stage-one monitor (K<N): M+1 reception-count modules — one
/// per sender's message traffic plus one for token traffic — each
/// comparing per-network counts (P4) with message-driven compensation
/// (P5).
#[derive(Debug)]
struct Divergence {
    token_monitor: MonitorModule,
    msg_monitors: HashMap<NodeId, MonitorModule>,
}

impl Divergence {
    fn new(cfg: &RrpConfig) -> Self {
        Divergence {
            token_monitor: MonitorModule::new(
                cfg.networks,
                cfg.monitor_threshold,
                cfg.compensation_every,
            ),
            msg_monitors: HashMap::new(),
        }
    }

    /// Re-levels every module's count for `net` to the current leader.
    fn level(&mut self, net: NetworkId) {
        self.token_monitor.reinstate(net);
        for m in self.msg_monitors.values_mut() {
            m.reinstate(net);
        }
    }
}

impl MonitorStrategy for Divergence {
    fn record_message(
        &mut self,
        net: NetworkId,
        sender: NodeId,
        faulty: &PerNet<bool>,
        cfg: &RrpConfig,
    ) -> Vec<Suspect> {
        let monitor = self.msg_monitors.entry(sender).or_insert_with(|| {
            MonitorModule::new(cfg.networks, cfg.monitor_threshold, cfg.compensation_every)
        });
        monitor.record(net, faulty)
    }

    fn record_token(&mut self, net: NetworkId, faulty: &PerNet<bool>) -> Vec<Suspect> {
        self.token_monitor.record(net, faulty)
    }

    fn on_token_timeout(
        &mut self,
        _now: u64,
        _seen: &PerNet<bool>,
        _faulty: &PerNet<bool>,
        _grace_until: &PerNet<u64>,
        _cfg: &RrpConfig,
    ) -> Vec<FaultReport> {
        Vec::new()
    }

    fn next_deadline(&self, grace_until: &PerNet<u64>) -> Option<u64> {
        grace_until.values().copied().filter(|&g| g != 0).min()
    }

    fn on_timer(&mut self, now: u64, grace_until: &mut PerNet<u64>, _cfg: &RrpConfig) {
        // Grace expiry: level the counts once everyone has had time to
        // resume sending, so the monitors judge the network afresh.
        let expired: Vec<NetworkId> =
            grace_until.iter().filter(|(_, &g)| g != 0 && now >= g).map(|(net, _)| net).collect();
        for net in expired {
            grace_until.set(net, 0);
            self.level(net);
        }
    }

    fn on_reinstate(&mut self, net: NetworkId) {
        self.level(net);
    }

    fn problem_counters(&self, networks: usize) -> Vec<u32> {
        vec![0; networks]
    }

    fn monitor_report(&self) -> Vec<(MonitorKind, Vec<u64>)> {
        let mut out = vec![(MonitorKind::Token, self.token_monitor.counts().to_vec())];
        for (sender, m) in &self.msg_monitors {
            out.push((MonitorKind::Messages { sender: *sender }, m.counts().to_vec()));
        }
        out
    }

    fn corrupt(&mut self, rng: &mut rand::rngs::SmallRng) {
        use rand::Rng as _;
        // Corrupt the token module or one message module, picked
        // deterministically (BTree-free map: order by sender id for
        // reproducibility).
        let mut senders: Vec<NodeId> = self.msg_monitors.keys().copied().collect();
        senders.sort_unstable();
        let pick = rng.gen_range(0..(1 + senders.len() as u64));
        if pick == 0 {
            self.token_monitor.corrupt(rng);
        } else if let Some(m) =
            senders.get(pick as usize - 1).and_then(|s| self.msg_monitors.get_mut(s))
        {
            m.corrupt(rng);
        }
    }
}

/// Picks the stage-one strategy for a replication degree: Figure 2's
/// problem counters at K=N, Figure 5's divergence monitors below.
fn strategy_for(k: usize, decay_at: u64, cfg: &RrpConfig) -> Box<dyn MonitorStrategy> {
    if k >= cfg.networks {
        Box::new(ProblemCounter::new(cfg.networks, decay_at))
    } else {
        Box::new(Divergence::new(cfg))
    }
}

/// The unified K-of-N replication engine: send window + stage-one
/// monitor + stage-two token gate.
#[derive(Debug)]
pub(crate) struct Engine {
    /// Replication degree K (`1..=N`), runtime-reconfigurable.
    k: usize,
    pub faulty: PerNet<bool>,
    /// `sendMessageVia` of Figure 4 — advanced only by this node's own
    /// data packets, so each sender's stream rotates networks strictly
    /// (the property the Figure-5 monitors rely on).
    msg_rr: usize,
    /// `sendTokenVia` of Figure 4 — regular tokens only.
    tok_rr: usize,
    /// Rotation for retransmissions this node serves on behalf of
    /// other senders. Kept separate from `msg_rr`: a retransmitted
    /// packet carries the original sender's id, and letting it perturb
    /// this node's own data rotation phase-locks the rotation under
    /// saturation, skewing every receiver's per-sender monitor.
    retrans_rr: usize,
    /// Stage two (K>=2): which networks have delivered the current
    /// token instance (`recvLastToken[i]` of Figure 2).
    seen: PerNet<bool>,
    /// The newest gated token (None once delivered upward): the handle
    /// the first copy arrived in, passed up as it is.
    last_token: Option<SharedPacket>,
    last_key: Option<TokenKey>,
    /// Stage two (K=1): `lastToken` buffered behind missing messages.
    buffered: Option<SharedPacket>,
    buffered_net: NetworkId,
    /// The token timer (never restarted while running).
    timer: Option<u64>,
    monitor: Box<dyn MonitorStrategy>,
    /// Per-network instant until which fault declaration is suspended
    /// after a reinstatement (0 = no grace active).
    grace_until: PerNet<u64>,
    /// Consecutive token-class receptions dropped as stale by the
    /// stage-two gate. A `last_key` corrupted into the far future
    /// would otherwise drop every token of every future ring — an
    /// undetectable livelock of endless reformations — so after
    /// [`STALE_DROP_RESET`] consecutive stale drops the gate resets
    /// and judges the next token afresh (self-stabilization; a
    /// spuriously resurrected old token is still discarded by the
    /// SRP's own freshness check above).
    stale_drops: u32,
}

/// Consecutive stale token drops after which the stage-two gate
/// resets its freshness key (see [`Engine::stale_drops`]). High
/// enough that healthy duplicate-heavy traffic — where current-
/// instance copies keep interleaving and zeroing the run — never
/// reaches it.
const STALE_DROP_RESET: u32 = 16;

impl Engine {
    pub fn new(cfg: &RrpConfig, k: usize) -> Self {
        Engine {
            k,
            faulty: PerNet::filled(cfg.networks, false),
            msg_rr: 0,
            tok_rr: 0,
            retrans_rr: 0,
            seen: PerNet::filled(cfg.networks, false),
            last_token: None,
            last_key: None,
            buffered: None,
            buffered_net: NetworkId::new(0),
            timer: None,
            monitor: strategy_for(k, cfg.problem_decay_interval, cfg),
            grace_until: PerNet::filled(cfg.networks, 0),
            stale_drops: 0,
        }
    }

    /// The replication degree currently in force.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Changes the replication degree in place. The faulty set,
    /// rotation pointers and a running token timer survive; a token
    /// pending in the stage-two gate moves into the passive buffer (or
    /// back) so reconfiguration never drops a token. The stage-one
    /// strategy is swapped fresh when the K=N boundary is crossed —
    /// problem-counter history and reception-count history are not
    /// comparable.
    pub fn set_k(&mut self, now: u64, k: usize, cfg: &RrpConfig) {
        if k == self.k {
            return;
        }
        let was_pc = self.k >= cfg.networks;
        let now_pc = k >= cfg.networks;
        if was_pc != now_pc {
            self.monitor = strategy_for(k, now + cfg.problem_decay_interval, cfg);
        }
        if self.k >= 2 && k == 1 {
            // Gate → buffer: a token still waiting for copies becomes
            // the buffered token (the running timer keeps bounding its
            // wait, Requirement P3).
            if let Some(t) = self.last_token.take() {
                self.buffered_net = self.first_seen();
                self.buffered = Some(t);
            } else {
                self.timer = None;
            }
        } else if self.k == 1 && k >= 2 {
            // Buffer → gate: the buffered token becomes the pending
            // instance with one copy accounted for.
            if let Some(t) = self.buffered.take() {
                self.last_key = key_of(&t);
                self.last_token = Some(t);
                self.seen.fill(false);
                self.seen.set(self.buffered_net, true);
            } else {
                self.timer = None;
            }
        }
        self.k = k;
    }

    // -- send window ---------------------------------------------------

    /// Networks for the next message.
    pub fn routes_message_into(&mut self, out: &mut Vec<NetworkId>) {
        advance_window(&mut self.msg_rr, self.k, &self.faulty, out);
    }

    /// Networks for the next regular token.
    pub fn routes_token_into(&mut self, out: &mut Vec<NetworkId>) {
        advance_window(&mut self.tok_rr, self.k, &self.faulty, out);
    }

    /// Networks for a retransmission served on another sender's behalf.
    pub fn routes_retransmission_into(&mut self, out: &mut Vec<NetworkId>) {
        advance_window(&mut self.retrans_rr, self.k, &self.faulty, out);
    }

    // -- receive pipeline ----------------------------------------------

    /// Stage one for message-class packets (Figure 4 `messageMonitor`;
    /// a no-op under the problem-counter strategy, which judges the
    /// token path only). Like every entry point below, appends what it
    /// raises to the caller's buffer.
    pub fn on_message(
        &mut self,
        now: u64,
        net: NetworkId,
        sender: NodeId,
        cfg: &RrpConfig,
        out: &mut Vec<RrpEvent>,
    ) {
        let suspects = self.monitor.record_message(net, sender, &self.faulty, cfg);
        self.flag(now, suspects, MonitorKind::Messages { sender }, out);
    }

    /// Stage one (token monitor) then stage two (token gate) for one
    /// copy of the token instance `key`.
    ///
    /// The gate decides on the key alone; `body` materialises the
    /// packet and is called only when this copy is the one the gate
    /// must hold or pass up — the first of a new instance, or at K=1
    /// one that goes straight through or replaces the buffered one. A
    /// later copy of the held instance completes the gate with the
    /// handle already in it, and a stale or surplus copy is only
    /// counted, so neither is ever decoded.
    ///
    /// `any_missing` is consulted only at K=1, where the gate is the
    /// buffer-behind-gap hold of Figure 4 `recvToken`: deliver if
    /// nothing is missing, otherwise buffer and start the token timer.
    /// At K>=2 it is the copy-counting gate of Figure 2 / §7.
    #[allow(clippy::too_many_arguments)]
    pub fn on_token(
        &mut self,
        now: u64,
        net: NetworkId,
        key: TokenKey,
        any_missing: bool,
        cfg: &RrpConfig,
        body: impl FnOnce() -> Option<SharedPacket>,
        out: &mut Vec<RrpEvent>,
    ) {
        let suspects = self.monitor.record_token(net, &self.faulty);
        self.flag(now, suspects, MonitorKind::Token, out);
        if self.k == 1 {
            if !any_missing {
                out.extend(body().map(|pkt| RrpEvent::Deliver(pkt, net)));
                return;
            }
            // Buffer the newest token; the timer is never restarted
            // while it is active (Figure 4).
            if self.buffered.as_ref().and_then(key_of) < Some(key) {
                if let Some(pkt) = body() {
                    self.buffered = Some(pkt);
                    self.buffered_net = net;
                }
            }
            if self.timer.is_none() {
                self.timer = Some(now + cfg.passive_token_timeout);
            }
            return;
        }
        if let Some(last) = self.last_key {
            if key < last {
                // Stale copy of an older token. Count the run of
                // consecutive stale drops: a corrupted `last_key` in
                // the far future makes EVERY token stale, and without
                // the reset below the gate would silently starve the
                // SRP through endless ring reformations.
                self.stale_drops += 1;
                if self.stale_drops < STALE_DROP_RESET {
                    return;
                }
                self.stale_drops = 0;
                self.last_key = None;
                self.last_token = None;
            } else {
                self.stale_drops = 0;
            }
        }
        match self.last_key {
            Some(last) if key == last => {
                // A copy of the pending instance — or, once that was
                // passed up (K copies or timer), one to ignore (Figure
                // 2 / Requirement A4).
                self.seen.set(net, true);
                if self.last_token.is_none() {
                    return;
                }
            }
            _ => {
                // A new token instance: reset the per-network flags and
                // start the token timer. The timer is never restarted
                // while running — a new token can only arrive after the
                // previous one completed a rotation, at which point it
                // was already delivered or timed out.
                self.last_key = Some(key);
                self.last_token = body();
                self.seen.fill(false);
                self.seen.set(net, true);
                self.timer = Some(now + cfg.active_token_timeout);
            }
        }
        // K=N uses the exact Figure-2 predicate — a copy on every
        // non-faulty network — rather than a count: with F networks
        // faulty only N−F copies can ever arrive, and the count form
        // would deadlock every token into the timeout path.
        let complete = if self.k >= cfg.networks {
            self.seen.values().zip(self.faulty.values()).all(|(&got, &faulty)| got || faulty)
        } else {
            self.seen.values().filter(|&&s| s).count() >= self.k
        };
        if complete {
            self.timer = None;
            out.extend(self.last_token.take().map(|tok| RrpEvent::Deliver(tok, net)));
        }
    }

    /// Token-monitor update without gating — used for commit tokens,
    /// which travel the token path but pass up unconditionally.
    pub fn on_token_monitor_only(&mut self, now: u64, net: NetworkId, out: &mut Vec<RrpEvent>) {
        let suspects = self.monitor.record_token(net, &self.faulty);
        self.flag(now, suspects, MonitorKind::Token, out);
    }

    /// Whether a token is currently buffered behind missing messages
    /// (K=1 and the token timer is running). The layer samples this
    /// around each call to track the Idle/Buffered machine for
    /// conformance.
    pub fn buffering(&self) -> bool {
        self.k == 1 && self.timer.is_some()
    }

    /// Figure 4 `recvMsg` tail (K=1 only): if the token timer is
    /// running and the just-processed message closed the last gap,
    /// release the buffered token immediately.
    pub fn poll_release(&mut self, any_missing: bool, out: &mut Vec<RrpEvent>) {
        if self.k == 1 && self.timer.is_some() && !any_missing {
            self.timer = None;
            let net = self.buffered_net;
            out.extend(self.buffered.take().map(|t| RrpEvent::Deliver(t, net)));
        }
    }

    /// Timer expiry — `tokenTimerExpired` of Figures 2 and 4 — plus the
    /// strategy's background work (counter decay / grace re-leveling).
    pub fn on_timer(&mut self, now: u64, cfg: &RrpConfig, out: &mut Vec<RrpEvent>) {
        if self.timer.is_some_and(|d| d <= now) {
            self.timer = None;
            if self.k == 1 {
                let net = self.buffered_net;
                out.extend(self.buffered.take().map(|t| RrpEvent::Deliver(t, net)));
            } else {
                let reports = self.monitor.on_token_timeout(
                    now,
                    &self.seen,
                    &self.faulty,
                    &self.grace_until,
                    cfg,
                );
                for r in &reports {
                    out.push(RrpEvent::Fault(*r));
                }
                for r in reports {
                    self.faulty.set(r.net, true);
                }
                if let Some(tok) = self.last_token.take() {
                    out.push(RrpEvent::Deliver(tok, self.first_seen()));
                }
            }
        }
        self.monitor.on_timer(now, &mut self.grace_until, cfg);
    }

    /// The first network that delivered a copy of the current token
    /// instance (network 0 if none did): what a token that leaves the
    /// gate without completing it is attributed to.
    fn first_seen(&self) -> NetworkId {
        self.seen.iter().find(|(_, &s)| s).map(|(net, _)| net).unwrap_or(NetworkId::new(0))
    }

    pub fn next_deadline(&self) -> Option<u64> {
        [self.timer, self.monitor.next_deadline(&self.grace_until)].into_iter().flatten().min()
    }

    /// Puts a faulty network back in service with cleared monitor
    /// history and a declaration grace period. Returns whether it was
    /// faulty.
    pub fn reinstate(&mut self, now: u64, net: NetworkId, grace: u64) -> bool {
        let was = self.faulty.at(net);
        self.faulty.set(net, false);
        self.monitor.on_reinstate(net);
        self.grace_until.set(net, now + grace);
        was
    }

    /// Current problem counter of a network (tests/diagnostics).
    pub fn problem_counters(&self, networks: usize) -> Vec<u32> {
        self.monitor.problem_counters(networks)
    }

    /// Diagnostic snapshot of the Figure-5 monitor modules' reception
    /// counts (empty under the problem-counter strategy).
    pub fn monitor_report(&self) -> Vec<(MonitorKind, Vec<u64>)> {
        self.monitor.monitor_report()
    }

    /// Deterministically corrupts the stage-one monitor's health
    /// bookkeeping (self-stabilization fault injection; see
    /// `totem_sim::CorruptionTarget::MonitorCounters`).
    pub fn corrupt_monitors(&mut self, rng: &mut rand::rngs::SmallRng) {
        self.monitor.corrupt(rng);
    }

    /// Deterministically corrupts the stage-two token gate
    /// (self-stabilization fault injection; see
    /// `totem_sim::CorruptionTarget::TokenGate`): the freshness key
    /// jumps into the far future (healed by the consecutive-stale-drop
    /// reset), the per-network reception flags are scrambled, one
    /// network's faulty flag flips, or a pending token's timer is
    /// silently disarmed (healed by ring reformation re-arming it).
    pub fn corrupt_token_gate(&mut self, rng: &mut rand::rngs::SmallRng) {
        use rand::Rng as _;
        match rng.gen_range(0..4) {
            0 => {
                let base = self.last_key.map(|(ring, _, _)| ring).unwrap_or(0);
                let jump = rng.gen_range(1..1_000_000);
                self.last_key = Some((
                    base.saturating_add(jump),
                    Rotation::new(jump).ord_key(),
                    Seq::new(jump).ord_key(),
                ));
            }
            1 => {
                let nets: Vec<NetworkId> = self.seen.ids().collect();
                for net in nets {
                    self.seen.set(net, rng.gen_bool(0.5));
                }
            }
            2 => {
                let nets = self.faulty.len().max(1) as u64;
                let net = NetworkId::new(rng.gen_range(0..nets) as u8);
                let flipped = !self.faulty.at(net);
                self.faulty.set(net, flipped);
            }
            _ => {
                self.timer = None;
            }
        }
    }

    /// Shared fault declaration: marks suspect networks faulty and
    /// raises reports, skipping networks inside a reinstatement grace
    /// window (observe, don't declare).
    fn flag(
        &mut self,
        now: u64,
        suspects: Vec<Suspect>,
        monitor: MonitorKind,
        out: &mut Vec<RrpEvent>,
    ) {
        for (net, behind) in suspects {
            if now < self.grace_until.at(net) {
                continue;
            }
            if !self.faulty.at(net) {
                self.faulty.set(net, true);
                out.push(RrpEvent::Fault(FaultReport {
                    net,
                    at: now,
                    reason: FaultReason::ReceptionLag { behind, monitor },
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReplicationStyle;
    use totem_wire::{Packet, RingId, Seq, Token};

    fn active_cfg(n: usize) -> RrpConfig {
        RrpConfig::new(ReplicationStyle::Active, n)
    }

    fn passive_cfg(n: usize) -> RrpConfig {
        let mut c = RrpConfig::new(ReplicationStyle::Passive, n);
        c.monitor_threshold = 5;
        c
    }

    fn ap_cfg(n: usize, k: u8) -> RrpConfig {
        RrpConfig::new(ReplicationStyle::ActivePassive { copies: k }, n)
    }

    fn token(ring_seq: u64, rotation: u64, seq: u64) -> Token {
        let mut t = Token::initial(RingId::new(NodeId::new(0), ring_seq));
        t.rotation = Rotation::new(rotation);
        t.seq = Seq::new(seq);
        t
    }

    // The entry points append to a caller-owned buffer; the tests look
    // at one call's events at a time.
    fn on_token(
        e: &mut Engine,
        now: u64,
        net: NetworkId,
        t: Token,
        any_missing: bool,
        cfg: &RrpConfig,
    ) -> Vec<RrpEvent> {
        copy(e, now, net.as_u8(), &t, any_missing, cfg).0
    }

    fn on_message(
        e: &mut Engine,
        now: u64,
        net: NetworkId,
        sender: NodeId,
        cfg: &RrpConfig,
    ) -> Vec<RrpEvent> {
        let mut out = Vec::new();
        e.on_message(now, net, sender, cfg, &mut out);
        out
    }

    fn poll_release(e: &mut Engine, any_missing: bool) -> Vec<RrpEvent> {
        let mut out = Vec::new();
        e.poll_release(any_missing, &mut out);
        out
    }

    fn on_timer(e: &mut Engine, now: u64, cfg: &RrpConfig) -> Vec<RrpEvent> {
        let mut out = Vec::new();
        e.on_timer(now, cfg, &mut out);
        out
    }

    fn is_token_delivery(ev: &RrpEvent) -> bool {
        matches!(ev, RrpEvent::Deliver(p, _) if p.is_token_class())
    }

    fn routes_message(e: &mut Engine) -> Vec<NetworkId> {
        let mut out = Vec::new();
        e.routes_message_into(&mut out);
        out
    }

    fn routes_token(e: &mut Engine) -> Vec<NetworkId> {
        let mut out = Vec::new();
        e.routes_token_into(&mut out);
        out
    }

    // -- K=N: the active algorithm (§5, Figure 2) ----------------------

    #[test]
    fn token_waits_for_all_healthy_networks() {
        let cfg = active_cfg(3);
        let mut s = Engine::new(&cfg, 3);
        let t = token(1, 0, 5);
        assert!(on_token(&mut s, 0, NetworkId::new(0), t.clone(), false, &cfg).is_empty());
        assert!(on_token(&mut s, 10, NetworkId::new(2), t.clone(), false, &cfg).is_empty());
        let ev = on_token(&mut s, 20, NetworkId::new(1), t, false, &cfg);
        assert_eq!(ev.len(), 1);
        assert!(is_token_delivery(&ev[0]));
    }

    #[test]
    fn duplicate_copy_on_same_network_does_not_complete() {
        let cfg = active_cfg(2);
        let mut s = Engine::new(&cfg, 2);
        let t = token(1, 0, 5);
        assert!(on_token(&mut s, 0, NetworkId::new(0), t.clone(), false, &cfg).is_empty());
        assert!(on_token(&mut s, 1, NetworkId::new(0), t, false, &cfg).is_empty());
    }

    #[test]
    fn timer_expiry_delivers_and_penalizes_missing_networks() {
        let cfg = active_cfg(2);
        let mut s = Engine::new(&cfg, 2);
        let t = token(1, 0, 5);
        on_token(&mut s, 0, NetworkId::new(0), t, false, &cfg);
        let deadline = s.next_deadline().unwrap();
        assert_eq!(deadline, cfg.active_token_timeout);
        let ev = on_timer(&mut s, deadline, &cfg);
        assert_eq!(ev.len(), 1);
        assert!(is_token_delivery(&ev[0]));
        assert_eq!(s.problem_counters(2), vec![0, 1]);
    }

    #[test]
    fn late_copy_after_timer_delivery_is_ignored() {
        let cfg = active_cfg(2);
        let mut s = Engine::new(&cfg, 2);
        let t = token(1, 0, 5);
        on_token(&mut s, 0, NetworkId::new(0), t.clone(), false, &cfg);
        let deadline = s.next_deadline().unwrap();
        on_timer(&mut s, deadline, &cfg);
        // The straggler arrives afterwards: no second delivery (A1 for
        // tokens is handled here, not in the SRP).
        assert!(on_token(&mut s, 999_999_999, NetworkId::new(1), t, false, &cfg).is_empty());
    }

    #[test]
    fn repeated_timeouts_mark_network_faulty_and_report_once() {
        let cfg = active_cfg(2);
        let mut s = Engine::new(&cfg, 2);
        let mut faults = 0;
        let mut rounds = 0;
        for i in 0..cfg.problem_threshold + 3 {
            let t = token(1, i as u64, i as u64);
            on_token(&mut s, u64::from(i) * 10_000_000, NetworkId::new(0), t, false, &cfg);
            let Some(deadline) = s.timer else {
                // Once net1 is faulty the lone healthy copy completes
                // the token instantly — no timer is armed any more.
                assert!(s.faulty[1]);
                continue;
            };
            rounds += 1;
            for ev in on_timer(&mut s, deadline, &cfg) {
                if let RrpEvent::Fault(r) = ev {
                    faults += 1;
                    assert_eq!(r.net, NetworkId::new(1));
                    assert!(
                        matches!(r.reason, FaultReason::TokenTimeouts { count } if count == cfg.problem_threshold)
                    );
                }
            }
        }
        assert_eq!(faults, 1, "a network is reported faulty exactly once");
        assert_eq!(rounds, cfg.problem_threshold, "fault lands exactly at the threshold");
        assert!(s.faulty[1]);
    }

    #[test]
    fn after_fault_tokens_deliver_without_the_dead_network() {
        let cfg = active_cfg(2);
        let mut s = Engine::new(&cfg, 2);
        s.faulty[1] = true;
        let t = token(1, 0, 5);
        let ev = on_token(&mut s, 0, NetworkId::new(0), t, false, &cfg);
        assert_eq!(ev.len(), 1, "single healthy copy suffices once net1 is faulty");
    }

    #[test]
    fn decay_prevents_sporadic_loss_accumulation() {
        let cfg = active_cfg(2);
        let mut s = Engine::new(&cfg, 2);
        // One isolated timeout...
        let t = token(1, 0, 1);
        on_token(&mut s, 0, NetworkId::new(0), t, false, &cfg);
        let deadline = s.timer.unwrap();
        on_timer(&mut s, deadline, &cfg);
        assert_eq!(s.problem_counters(2), vec![0, 1]);
        // ...decays away after an idle decay interval.
        let decay_at = s.next_deadline().unwrap();
        on_timer(&mut s, decay_at, &cfg);
        assert_eq!(s.problem_counters(2), vec![0, 0]);
        assert!(!s.faulty[1]);
    }

    #[test]
    fn stale_older_token_copies_are_dropped() {
        let cfg = active_cfg(2);
        let mut s = Engine::new(&cfg, 2);
        let newer = token(1, 5, 50);
        let older = token(1, 4, 50);
        on_token(&mut s, 0, NetworkId::new(0), newer, false, &cfg);
        assert!(on_token(&mut s, 1, NetworkId::new(1), older, false, &cfg).is_empty());
        // The newer instance still completes when its second copy lands.
        let newer = token(1, 5, 50);
        let ev = on_token(&mut s, 2, NetworkId::new(1), newer, false, &cfg);
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn all_faulty_routes_fall_back_to_all_networks() {
        let cfg = active_cfg(2);
        let mut s = Engine::new(&cfg, 2);
        assert_eq!(routes_message(&mut s).len(), 2);
        s.faulty[0] = true;
        assert_eq!(routes_message(&mut s), vec![NetworkId::new(1)]);
        s.faulty[1] = true;
        assert_eq!(routes_message(&mut s).len(), 2, "never stop sending entirely");
    }

    #[test]
    fn rotation_counter_distinguishes_idle_ring_tokens() {
        // Two rotations with identical seq (idle ring): the second is
        // a NEW instance, not a duplicate (paper §2 footnote 1).
        let cfg = active_cfg(2);
        let mut s = Engine::new(&cfg, 2);
        let r1 = token(1, 1, 7);
        on_token(&mut s, 0, NetworkId::new(0), r1.clone(), false, &cfg);
        on_token(&mut s, 1, NetworkId::new(1), r1, false, &cfg);
        let r2 = token(1, 2, 7);
        assert!(on_token(&mut s, 2, NetworkId::new(0), r2.clone(), false, &cfg).is_empty());
        let ev = on_token(&mut s, 3, NetworkId::new(1), r2, false, &cfg);
        assert_eq!(ev.len(), 1, "second rotation delivers again");
    }

    // -- K=1: the passive algorithm (§6, Figures 4 and 5) --------------

    #[test]
    fn round_robin_alternates_networks() {
        let cfg = passive_cfg(2);
        let mut s = Engine::new(&cfg, 1);
        let seq: Vec<u8> = (0..6).map(|_| routes_message(&mut s)[0].as_u8()).collect();
        assert_eq!(seq, vec![1, 0, 1, 0, 1, 0]);
        // Tokens rotate independently.
        let seq: Vec<u8> = (0..4).map(|_| routes_token(&mut s)[0].as_u8()).collect();
        assert_eq!(seq, vec![1, 0, 1, 0]);
    }

    #[test]
    fn round_robin_skips_faulty_networks() {
        let cfg = passive_cfg(3);
        let mut s = Engine::new(&cfg, 1);
        s.faulty[1] = true;
        let seq: Vec<u8> = (0..4).map(|_| routes_message(&mut s)[0].as_u8()).collect();
        assert_eq!(seq, vec![2, 0, 2, 0]);
    }

    #[test]
    fn all_faulty_keeps_sending() {
        let cfg = passive_cfg(2);
        let mut s = Engine::new(&cfg, 1);
        s.faulty = PerNet::from_vec(vec![true, true]);
        // Still yields a network rather than silence.
        assert_eq!(routes_message(&mut s).len(), 1);
        assert_eq!(routes_token(&mut s).len(), 1);
    }

    #[test]
    fn token_with_nothing_missing_passes_straight_through() {
        let cfg = passive_cfg(2);
        let mut s = Engine::new(&cfg, 1);
        let ev = on_token(&mut s, 0, NetworkId::new(0), token(1, 0, 5), false, &cfg);
        assert!(matches!(ev.as_slice(), [RrpEvent::Deliver(p, _)] if p.is_token_class()));
        assert!(s.timer.is_none());
    }

    #[test]
    fn token_behind_missing_messages_is_buffered_until_release() {
        // Requirement P1: a delayed message (Figure 3 scenarios) must
        // not let the token reach the SRP early.
        let cfg = passive_cfg(2);
        let mut s = Engine::new(&cfg, 1);
        let ev = on_token(&mut s, 0, NetworkId::new(1), token(1, 0, 5), true, &cfg);
        assert!(ev.iter().all(|e| !matches!(e, RrpEvent::Deliver(p, _) if p.is_token_class())));
        assert!(s.timer.is_some());
        // Still missing: no release.
        assert!(poll_release(&mut s, true).is_empty());
        // The gap closes: release immediately, well before the timer.
        let ev = poll_release(&mut s, false);
        assert!(matches!(ev.as_slice(), [RrpEvent::Deliver(p, _)] if p.is_token_class()));
        assert!(s.timer.is_none());
    }

    #[test]
    fn token_timer_expiry_releases_buffered_token() {
        // Requirement P3: progress even if the missing message never
        // arrives.
        let cfg = passive_cfg(2);
        let mut s = Engine::new(&cfg, 1);
        on_token(&mut s, 0, NetworkId::new(0), token(1, 0, 5), true, &cfg);
        let deadline = s.next_deadline().unwrap();
        assert_eq!(deadline, cfg.passive_token_timeout);
        let ev = on_timer(&mut s, deadline, &cfg);
        assert!(matches!(ev.as_slice(), [RrpEvent::Deliver(p, _)] if p.is_token_class()));
    }

    #[test]
    fn timer_is_not_restarted_while_active() {
        let cfg = passive_cfg(2);
        let mut s = Engine::new(&cfg, 1);
        on_token(&mut s, 0, NetworkId::new(0), token(1, 0, 5), true, &cfg);
        let first = s.timer.unwrap();
        // A newer token arrives while one is already buffered (can
        // happen across a reconfiguration): buffer is replaced, timer
        // is left alone.
        on_token(&mut s, 5_000_000, NetworkId::new(1), token(1, 1, 9), true, &cfg);
        assert_eq!(s.timer.unwrap(), first);
        let ev = on_timer(&mut s, first, &cfg);
        match ev.as_slice() {
            [RrpEvent::Deliver(p, _)] => match p.packet() {
                Packet::Token(t) => assert_eq!(t.seq.as_u64(), 9),
                other => panic!("unexpected packet: {other:?}"),
            },
            other => panic!("unexpected events: {other:?}"),
        }
    }

    #[test]
    fn lagging_network_is_flagged_by_message_monitor() {
        let cfg = passive_cfg(2);
        let mut s = Engine::new(&cfg, 1);
        let sender = NodeId::new(3);
        let mut reports = Vec::new();
        for _ in 0..cfg.monitor_threshold + 1 {
            reports.extend(on_message(&mut s, 7, NetworkId::new(0), sender, &cfg));
        }
        assert_eq!(reports.len(), 1);
        match &reports[0] {
            RrpEvent::Fault(r) => {
                assert_eq!(r.net, NetworkId::new(1));
                assert!(matches!(
                    r.reason,
                    FaultReason::ReceptionLag { monitor: MonitorKind::Messages { sender: sd }, .. } if sd == sender
                ));
            }
            other => panic!("expected fault, got {other:?}"),
        }
        assert!(s.faulty[1]);
    }

    #[test]
    fn token_monitor_covers_quiet_periods() {
        // "Token monitoring is a useful alternative during periods in
        // which no messages are sent" (paper §6).
        let cfg = passive_cfg(2);
        let mut s = Engine::new(&cfg, 1);
        let mut flagged = false;
        for i in 0..cfg.monitor_threshold + 1 {
            let ev = on_token(&mut s, i, NetworkId::new(1), token(1, 0, i), false, &cfg);
            flagged |=
                ev.iter().any(|e| matches!(e, RrpEvent::Fault(r) if r.net == NetworkId::new(0)));
        }
        assert!(flagged);
    }

    #[test]
    fn monitors_are_per_sender() {
        let cfg = passive_cfg(2);
        let mut s = Engine::new(&cfg, 1);
        // Each sender's own traffic alternates networks (as passive
        // round-robin sending guarantees): no monitor may trip even
        // though the interleaving differs per sender.
        for i in 0..100u64 {
            let sender = NodeId::new((i % 2) as u16);
            let net = NetworkId::new(((i / 2) % 2) as u8);
            assert!(
                on_message(&mut s, i, net, sender, &cfg)
                    .iter()
                    .all(|e| !matches!(e, RrpEvent::Fault(_))),
                "alternating traffic must not trip the monitor"
            );
        }
        assert!(!s.faulty[0] && !s.faulty[1]);
    }

    #[test]
    fn message_driven_compensation_forgives_sporadic_loss() {
        let mut cfg = passive_cfg(2);
        cfg.monitor_threshold = 20;
        cfg.compensation_every = 10;
        let mut s = Engine::new(&cfg, 1);
        // A sender whose traffic alternates but loses ~4% on net1:
        // forgiveness (10% of receptions) outpaces the divergence.
        for i in 0..5000u64 {
            let ev = on_message(&mut s, i, NetworkId::new(0), NodeId::new(0), &cfg);
            assert!(ev.iter().all(|e| !matches!(e, RrpEvent::Fault(_))), "tripped at {i}");
            if i % 25 != 0 {
                let ev = on_message(&mut s, i, NetworkId::new(1), NodeId::new(0), &cfg);
                assert!(ev.iter().all(|e| !matches!(e, RrpEvent::Fault(_))), "tripped at {i}");
            }
        }
        assert!(!s.faulty[1], "sporadic loss must be forgiven (P5)");
    }

    // -- 1 < K < N: the active-passive algorithm (§7) ------------------

    #[test]
    fn window_slides_by_one_and_has_k_networks() {
        let cfg = ap_cfg(4, 2);
        let mut s = Engine::new(&cfg, 2);
        let w1: Vec<u8> = routes_message(&mut s).iter().map(|n| n.as_u8()).collect();
        let w2: Vec<u8> = routes_message(&mut s).iter().map(|n| n.as_u8()).collect();
        let w3: Vec<u8> = routes_message(&mut s).iter().map(|n| n.as_u8()).collect();
        assert_eq!(w1, vec![1, 2]);
        assert_eq!(w2, vec![2, 3]);
        assert_eq!(w3, vec![3, 0]);
    }

    #[test]
    fn window_skips_faulty_networks() {
        let cfg = ap_cfg(4, 2);
        let mut s = Engine::new(&cfg, 2);
        s.faulty[2] = true;
        let w: Vec<u8> = routes_message(&mut s).iter().map(|n| n.as_u8()).collect();
        assert_eq!(w, vec![1, 3]);
    }

    #[test]
    fn token_delivers_after_k_copies() {
        let cfg = ap_cfg(3, 2);
        let mut s = Engine::new(&cfg, 2);
        let t = token(1, 0, 4);
        assert!(on_token(&mut s, 0, NetworkId::new(0), t.clone(), false, &cfg)
            .iter()
            .all(|e| !matches!(e, RrpEvent::Deliver(..))));
        let ev = on_token(&mut s, 1, NetworkId::new(2), t.clone(), false, &cfg);
        assert!(ev.iter().any(|e| matches!(e, RrpEvent::Deliver(p, _) if p.is_token_class())));
        // The third copy is ignored.
        assert!(on_token(&mut s, 2, NetworkId::new(1), t, false, &cfg)
            .iter()
            .all(|e| !matches!(e, RrpEvent::Deliver(..))));
    }

    #[test]
    fn timeout_passes_token_with_fewer_than_k_copies() {
        let cfg = ap_cfg(3, 2);
        let mut s = Engine::new(&cfg, 2);
        on_token(&mut s, 0, NetworkId::new(1), token(1, 0, 4), false, &cfg);
        let d = s.next_deadline().unwrap();
        let ev = on_timer(&mut s, d, &cfg);
        assert!(ev.iter().any(|e| matches!(e, RrpEvent::Deliver(p, _) if p.is_token_class())));
    }

    #[test]
    fn monitors_flag_lagging_network() {
        let cfg = ap_cfg(3, 2);
        let mut s = Engine::new(&cfg, 2);
        let mut faults = Vec::new();
        // Enough receptions that the leading network's count exceeds
        // net2's by strictly more than the threshold despite the
        // message-driven compensation crediting the laggard.
        for i in 0..cfg.monitor_threshold * 2 + 20 {
            faults.extend(
                on_message(&mut s, i, NetworkId::new(i as u8 % 2), NodeId::new(7), &cfg)
                    .into_iter()
                    .filter(|e| matches!(e, RrpEvent::Fault(_))),
            );
        }
        // Networks 0 and 1 alternate; network 2 never receives → flagged.
        assert_eq!(faults.len(), 1);
        assert!(s.faulty[2]);
    }

    #[test]
    fn newer_token_resets_the_copy_count() {
        let cfg = ap_cfg(3, 2);
        let mut s = Engine::new(&cfg, 2);
        on_token(&mut s, 0, NetworkId::new(0), token(1, 0, 4), false, &cfg);
        // A newer instance arrives before the second copy of the old.
        assert!(on_token(&mut s, 1, NetworkId::new(1), token(1, 1, 4), false, &cfg)
            .iter()
            .all(|e| !matches!(e, RrpEvent::Deliver(..))));
        // A stale copy of the old instance no longer counts.
        assert!(on_token(&mut s, 2, NetworkId::new(2), token(1, 0, 4), false, &cfg)
            .iter()
            .all(|e| !matches!(e, RrpEvent::Deliver(..))));
        // The second copy of the new one delivers.
        let ev = on_token(&mut s, 3, NetworkId::new(0), token(1, 1, 4), false, &cfg);
        assert!(ev.iter().any(|e| matches!(e, RrpEvent::Deliver(..))));
    }

    // -- runtime reconfiguration ---------------------------------------

    #[test]
    fn set_k_preserves_faulty_set_and_rotation() {
        let cfg = ap_cfg(3, 2);
        let mut s = Engine::new(&cfg, 2);
        s.faulty[1] = true;
        routes_message(&mut s);
        s.set_k(0, 1, &cfg);
        // K=1 rotation resumes from the same pointer and still skips
        // the faulty network.
        let seq: Vec<u8> = (0..4).map(|_| routes_message(&mut s)[0].as_u8()).collect();
        assert!(seq.iter().all(|&n| n != 1));
        assert!(s.faulty[1]);
    }

    #[test]
    fn lowering_k_moves_pending_token_into_the_buffer() {
        let cfg = ap_cfg(3, 2);
        let mut s = Engine::new(&cfg, 2);
        // One copy arrived; the gate is waiting for a second.
        on_token(&mut s, 0, NetworkId::new(1), token(1, 0, 4), false, &cfg);
        assert!(s.timer.is_some());
        s.set_k(10, 1, &cfg);
        assert!(s.buffering(), "pending token became the passive buffer");
        // The gap closes: the token is released with its arrival net.
        let ev = poll_release(&mut s, false);
        match ev.as_slice() {
            [RrpEvent::Deliver(p, net)] => {
                assert!(p.is_token_class());
                assert_eq!(*net, NetworkId::new(1));
            }
            other => panic!("unexpected events: {other:?}"),
        }
    }

    #[test]
    fn raising_k_moves_buffered_token_into_the_gate() {
        let cfg = passive_cfg(3);
        let mut s = Engine::new(&cfg, 1);
        on_token(&mut s, 0, NetworkId::new(2), token(1, 0, 4), true, &cfg);
        assert!(s.buffering());
        s.set_k(10, 2, &cfg);
        assert!(!s.buffering());
        // The buffered copy counts as one of the K: a second copy on
        // another network completes the gate.
        let ev = on_token(&mut s, 20, NetworkId::new(0), token(1, 0, 4), false, &cfg);
        assert!(ev.iter().any(|e| matches!(e, RrpEvent::Deliver(p, _) if p.is_token_class())));
    }

    #[test]
    fn set_k_across_the_kn_boundary_swaps_the_monitor_strategy() {
        let cfg = ap_cfg(3, 2);
        let mut s = Engine::new(&cfg, 2);
        assert!(s.monitor_report().iter().any(|(k, _)| matches!(k, MonitorKind::Token)));
        s.set_k(0, 3, &cfg);
        assert!(s.monitor_report().is_empty(), "K=N runs the problem-counter strategy");
        assert_eq!(s.problem_counters(3), vec![0, 0, 0]);
        s.set_k(0, 2, &cfg);
        assert!(s.monitor_report().iter().any(|(k, _)| matches!(k, MonitorKind::Token)));
    }

    #[test]
    fn k_equals_n_gate_ignores_faulty_networks_after_set_k() {
        let cfg = ap_cfg(3, 2);
        let mut s = Engine::new(&cfg, 2);
        s.faulty[2] = true;
        s.set_k(0, 3, &cfg);
        // The Figure-2 predicate: copies on both non-faulty networks
        // complete the token even though K=3 copies can never arrive.
        let t = token(1, 0, 4);
        assert!(on_token(&mut s, 0, NetworkId::new(0), t.clone(), false, &cfg).is_empty());
        let ev = on_token(&mut s, 1, NetworkId::new(1), t, false, &cfg);
        assert_eq!(ev.len(), 1);
    }
    // -- the gate holds the handle -------------------------------------

    /// A token in the handle a datagram was decoded into: what the gate
    /// passes up can be told apart from any equal copy by the address
    /// of its cached encoding.
    fn arrived(t: &Token) -> (SharedPacket, *const u8) {
        let pkt = SharedPacket::from_datagram(Packet::Token(t.clone()).encode_shared())
            .expect("an encoded token decodes");
        let wire = pkt.encoded().as_ptr();
        (pkt, wire)
    }

    /// Feeds one copy by key, counting whether the gate asked for it.
    fn copy(
        e: &mut Engine,
        now: u64,
        net: u8,
        t: &Token,
        any_missing: bool,
        cfg: &RrpConfig,
    ) -> (Vec<RrpEvent>, Option<*const u8>) {
        let mut out = Vec::new();
        let mut taken = None;
        let body = || {
            let (pkt, wire) = arrived(t);
            taken = Some(wire);
            Some(pkt)
        };
        let key = token_key(t.ring, t.rotation, t.seq);
        e.on_token(now, NetworkId::new(net), key, any_missing, cfg, body, &mut out);
        (out, taken)
    }

    fn delivered_wire(ev: &[RrpEvent]) -> Vec<*const u8> {
        ev.iter()
            .filter_map(|e| match e {
                RrpEvent::Deliver(p, _) => Some(p.encoded().as_ptr()),
                RrpEvent::Fault(_) | RrpEvent::Reinstated { .. } => None,
            })
            .collect()
    }

    #[test]
    fn completing_copy_delivers_the_first_copys_handle_undecoded() {
        let cfg = active_cfg(2);
        let mut s = Engine::new(&cfg, 2);
        let t = token(1, 3, 9);
        let (ev, first) = copy(&mut s, 0, 0, &t, false, &cfg);
        assert!(ev.is_empty() && first.is_some(), "the first copy is held");
        let (ev, second) = copy(&mut s, 1, 1, &t, false, &cfg);
        assert_eq!(second, None, "the completing copy is never materialised");
        assert_eq!(delivered_wire(&ev), vec![first.unwrap()]);
        // Nor is a straggler after delivery, nor a stale older copy.
        let (ev, late) = copy(&mut s, 2, 0, &t, false, &cfg);
        assert!(ev.is_empty() && late.is_none());
        let (ev, stale) = copy(&mut s, 3, 1, &token(1, 2, 9), false, &cfg);
        assert!(ev.is_empty() && stale.is_none());
        assert_eq!(s.stale_drops, 1);
    }

    #[test]
    fn timer_release_delivers_the_held_handle() {
        let cfg = ap_cfg(3, 2);
        let mut s = Engine::new(&cfg, 2);
        let (_, first) = copy(&mut s, 0, 1, &token(1, 0, 4), false, &cfg);
        let deadline = s.next_deadline().unwrap();
        let ev = on_timer(&mut s, deadline, &cfg);
        assert_eq!(delivered_wire(&ev), vec![first.unwrap()]);
        assert!(
            matches!(ev.last(), Some(RrpEvent::Deliver(_, net)) if *net == NetworkId::new(1)),
            "attributed to the network that did deliver a copy"
        );
        assert!(s.last_token.is_none() && s.timer.is_none());
    }

    #[test]
    fn passive_buffer_keeps_the_newest_handle_and_skips_older_copies() {
        let cfg = passive_cfg(2);
        let mut s = Engine::new(&cfg, 1);
        let (_, old) = copy(&mut s, 0, 0, &token(1, 0, 5), true, &cfg);
        assert!(old.is_some());
        // An older (or equal) token behind the same gap is not needed.
        let (ev, same) = copy(&mut s, 1, 1, &token(1, 0, 5), true, &cfg);
        assert!(ev.is_empty() && same.is_none());
        // A newer one replaces the buffered handle.
        let (_, newer) = copy(&mut s, 2, 1, &token(1, 1, 5), true, &cfg);
        assert!(newer.is_some());
        let ev = poll_release(&mut s, false);
        assert_eq!(delivered_wire(&ev), vec![newer.unwrap()]);
        // With nothing missing the copy goes straight through.
        let (ev, through) = copy(&mut s, 3, 0, &token(1, 2, 5), false, &cfg);
        assert_eq!(delivered_wire(&ev), vec![through.unwrap()]);
    }

    #[test]
    fn set_k_moves_the_handle_between_gate_and_buffer() {
        let cfg = ap_cfg(3, 2);
        let mut s = Engine::new(&cfg, 2);
        let t = token(1, 0, 4);
        let (_, first) = copy(&mut s, 0, 2, &t, false, &cfg);
        // Gate → buffer → gate: the same handle all the way, still
        // counted as one copy on the network it arrived on.
        s.set_k(1, 1, &cfg);
        assert!(s.buffering() && s.last_token.is_none());
        s.set_k(2, 2, &cfg);
        assert!(s.buffered.is_none() && s.seen.at(NetworkId::new(2)));
        let (ev, second) = copy(&mut s, 3, 0, &t, false, &cfg);
        assert_eq!(second, None);
        assert_eq!(delivered_wire(&ev), vec![first.unwrap()]);
    }

    #[test]
    fn corrupted_gate_drops_its_handle_at_the_stale_run_reset() {
        use rand::SeedableRng as _;
        let cfg = active_cfg(2);
        let mut s = Engine::new(&cfg, 2);
        let (_, held) = copy(&mut s, 0, 0, &token(1, 0, 4), false, &cfg);
        assert!(held.is_some());
        // Drive the freshness key into the far future (variant 0 of
        // the corruption; the seed is searched, not assumed).
        let future = (0..64u64)
            .find(|&seed| {
                let mut probe = Engine::new(&cfg, 2);
                probe.corrupt_token_gate(&mut rand::rngs::SmallRng::seed_from_u64(seed));
                probe.last_key.is_some()
            })
            .expect("some seed picks the key corruption");
        s.corrupt_token_gate(&mut rand::rngs::SmallRng::seed_from_u64(future));
        // Every real token now reads as stale — and is dropped unseen —
        // until the run of stale drops resets the gate, which forgets
        // the handle it held and takes the next copy afresh.
        let next = token(1, 1, 4);
        for i in 1..STALE_DROP_RESET {
            let (ev, taken) = copy(&mut s, u64::from(i), 1, &next, false, &cfg);
            assert!(ev.is_empty() && taken.is_none(), "stale drop {i}");
        }
        let (ev, taken) = copy(&mut s, 100, 1, &next, false, &cfg);
        assert!(ev.is_empty() && taken.is_some(), "the reset takes this copy as a new instance");
        let (ev, _) = copy(&mut s, 101, 0, &next, false, &cfg);
        assert_eq!(delivered_wire(&ev), vec![taken.unwrap()]);
    }
}

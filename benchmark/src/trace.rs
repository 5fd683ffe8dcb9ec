//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! No product file carries a span: the traced hosts in `simtrace` and
//! `udprun` wrap the calls *into* each layer's public functions. A
//! span has a name, start, end, parent and frame id; spans aggregate
//! in memory, per name, into count / total / self / allocations and a
//! log-bucket histogram of durations, and the spans of the first
//! [`KEEP_FRAMES`] frames are kept whole for the trace file.
//!
//! The tracer is thread-local — the simulator is single-threaded, and
//! on UDP each driver thread traces its own node and transport — and a
//! thread hands its tracer over with [`take`] when it is done.
//!
//! Recording a span costs two clock reads and some bookkeeping — about
//! 90 ns where a clock read is 38 ns — and a token reception is well
//! under a microsecond of work in a dozen spans. So spans are
//! *sampled by root*: a span opened while no other is open is a root
//! (one simulator event, one call from the runtime's driver loop), and
//! only one root in [`set_sampling`]`(n)` is recorded, with everything
//! nested in it; the rest run with spans switched off. Recorded roots
//! come in bursts of [`BURST`] consecutive ones, started at random:
//! a lone recorded root would find the tracer's own tables evicted
//! from the cache by the thirty-one unrecorded ones before it and pay
//! a dozen misses that no calibration on a tight loop sees. Roots are
//! counted whether recorded or not, so totals scale back by
//! `roots_seen / roots_recorded` ([`Tracer::scale`]).
//!
//! What a recorded span costs is still not nothing. [`calibrate`]
//! measures that cost on empty spans in a tight loop, split into the
//! part that lands inside the span's own interval and the part that
//! lands in its parent. In a real run the same span is dearer (colder
//! caches, unpredicted branches), so every [`PROBE_EVERY`]th recorded
//! span gets an empty *probe* span nested at its start, and
//! [`Tracer::in_situ`] rescales the calibration by how much longer the
//! probes ran than the calibration's empty spans. The report subtracts
//! the rescaled cost, so that layer self-times add up to the CPU the
//! untraced product would have spent.

use std::cell::RefCell;
use std::time::Instant;

use crate::alloc;
use crate::stats::Histogram;

/// Frames whose spans are kept whole.
pub const KEEP_FRAMES: u32 = 10_000;
/// Consecutive roots recorded once a burst starts.
pub const BURST: u64 = 256;
/// One recorded span in this many carries a probe.
pub const PROBE_EVERY: u32 = 8;

/// The layers of the stack, named after the repository's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `totem-sim`: the discrete-event kernel.
    Sim,
    /// The simulator's actor glue (`cluster::sim_cluster`): effect
    /// handling, the saturation pump, alarm re-arming.
    SimHost,
    /// `totem-cluster::node`: the SRP↔RRP composition.
    ClusterNode,
    /// `totem-rrp` (crate `core`).
    Rrp,
    /// `totem-srp`.
    Srp,
    /// `totem-transport`.
    Transport,
    /// The tracer's own probe spans (no layer's time).
    Trace,
}

macro_rules! spans {
    ($($variant:ident => ($name:literal, $layer:ident)),+ $(,)?) => {
        /// Every span the benchmark records.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Span { $($variant),+ }

        impl Span {
            /// All spans, in declaration order.
            pub const ALL: &'static [Span] = &[$(Span::$variant),+];

            /// The span's name in reports and the trace file.
            pub fn name(self) -> &'static str {
                match self { $(Span::$variant => $name),+ }
            }

            /// The layer whose self time this span's self time is.
            pub fn layer(self) -> Layer {
                match self { $(Span::$variant => Layer::$layer),+ }
            }
        }
    };
}

spans! {
    SimStep => ("sim.step", Sim),
    SimActor => ("sim.actor", SimHost),
    NodeStart => ("cluster.node.start", ClusterNode),
    NodeOnPacket => ("cluster.node.on_packet", ClusterNode),
    NodeOnTimer => ("cluster.node.on_timer", ClusterNode),
    NodeSubmit => ("cluster.node.submit", ClusterNode),
    NodeArm => ("cluster.node.next_deadline", ClusterNode),
    NodeAdmin => ("cluster.node.reinstate", ClusterNode),
    RrpOnPacket => ("rrp.on_packet", Rrp),
    RrpRoutes => ("rrp.routes", Rrp),
    RrpPollRelease => ("rrp.poll_release", Rrp),
    RrpOnTimer => ("rrp.on_timer", Rrp),
    RrpAdmin => ("rrp.reinstate", Rrp),
    SrpHandlePacket => ("srp.handle_packet", Srp),
    SrpSubmit => ("srp.submit", Srp),
    SrpOnTimer => ("srp.on_timer", Srp),
    SrpStart => ("srp.start", Srp),
    TransportSend => ("transport.send_batch", Transport),
    TransportRecv => ("transport.recv_batch", Transport),
    Probe => ("trace.probe", Trace),
}

const N: usize = Span::ALL.len();

/// Per-name aggregate.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus what child spans covered.
    pub self_ns: u64,
    /// Allocations made while the span was open.
    pub total_allocs: u64,
    /// … minus those made inside child spans.
    pub self_allocs: u64,
    /// Direct child spans.
    pub children: u64,
    /// Child spans at any depth.
    pub descendants: u64,
    /// Durations.
    pub hist: Histogram,
}

struct Open {
    span: Span,
    id: u32,
    start_ns: u64,
    child_ns: u64,
    start_allocs: u64,
    child_allocs: u64,
    children: u64,
    descendants: u64,
}

/// One whole span, as written to the trace file.
#[derive(Debug, Clone, Copy)]
pub struct Kept {
    /// Which span.
    pub span: Span,
    /// Unique within the thread; parents have smaller ids.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// The frame (datagram or simulator event) this span served.
    pub frame: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// A thread's span recorder.
pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    agg: Vec<Agg>,
    kept: Vec<Kept>,
    frame: u32,
    next_id: u32,
    /// Record one root in this many.
    sample_one_in: u64,
    roots_seen: u64,
    roots_recorded: u64,
    pick: u64,
    /// Roots still to record in the current burst.
    burst_left: u64,
    /// Probe every this many recorded spans (0 = never: calibration).
    probe_every: u32,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("frame", &self.frame).field("spans", &self.next_id).finish()
    }
}

impl Tracer {
    /// A tracer with nothing in it, to [`Tracer::absorb`] others into.
    pub fn empty() -> Tracer {
        Tracer::new()
    }

    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            agg: vec![Agg::default(); N],
            // Room for the first few hundred frames up front: the
            // tracer's own growth would otherwise be counted as the
            // allocations of whatever span was open.
            kept: Vec::with_capacity(4096),
            frame: 0,
            next_id: 0,
            sample_one_in: DEFAULT_SAMPLING.load(std::sync::atomic::Ordering::Relaxed),
            roots_seen: 0,
            roots_recorded: 0,
            pick: 0x2545_F491_4F6C_DD1D,
            burst_left: 0,
            probe_every: PROBE_EVERY,
        }
    }

    /// Decides whether the span being opened is recorded: always
    /// inside a recorded root, one root in `sample_one_in` otherwise.
    #[inline]
    fn open(&mut self) -> bool {
        if !self.stack.is_empty() {
            return true;
        }
        if !WINDOW_OPEN.load(std::sync::atomic::Ordering::Relaxed) {
            return false;
        }
        self.roots_seen += 1;
        if self.burst_left > 0 {
            self.burst_left -= 1;
        } else if self.sample_one_in > 1 {
            // xorshift64: where bursts start must not beat against any
            // period of the workload.
            self.pick ^= self.pick << 13;
            self.pick ^= self.pick >> 7;
            self.pick ^= self.pick << 17;
            if !self.pick.is_multiple_of(self.sample_one_in * BURST) {
                return false;
            }
            self.burst_left = BURST - 1;
        }
        self.roots_recorded += 1;
        self.frame += 1;
        true
    }

    #[inline]
    fn enter(&mut self, span: Span) {
        self.push(span);
        if self.probe_every != 0 && self.next_id.is_multiple_of(self.probe_every) {
            self.push(Span::Probe);
            self.exit();
        }
    }

    #[inline]
    fn push(&mut self, span: Span) {
        self.next_id += 1;
        let start_allocs = alloc::current_thread().allocs;
        self.stack.push(Open {
            span,
            id: self.next_id,
            start_ns: 0,
            child_ns: 0,
            start_allocs,
            child_allocs: 0,
            children: 0,
            descendants: 0,
        });
        // The clock is read last on the way in and first on the way
        // out, so the bookkeeping lands outside the span's interval.
        let now = self.epoch.elapsed().as_nanos() as u64;
        if let Some(top) = self.stack.last_mut() {
            top.start_ns = now;
        }
    }

    #[inline]
    fn exit(&mut self) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let Some(open) = self.stack.pop() else { return };
        let dur = end_ns.saturating_sub(open.start_ns);
        let allocs = alloc::current_thread().allocs - open.start_allocs;
        let a = &mut self.agg[open.span as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        a.total_allocs += allocs;
        a.self_allocs += allocs.saturating_sub(open.child_allocs);
        a.children += open.children;
        a.descendants += open.descendants;
        a.hist.record(dur);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.child_allocs += allocs;
                p.children += 1;
                p.descendants += open.descendants + 1;
                p.id
            }
            None => 0,
        };
        if self.frame <= KEEP_FRAMES {
            self.kept.push(Kept {
                span: open.span,
                id: open.id,
                parent,
                frame: self.frame,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// The per-name aggregates.
    pub fn agg(&self, span: Span) -> &Agg {
        &self.agg[span as usize]
    }

    /// Recorded roots (each is one frame of the trace file).
    pub fn frames(&self) -> u32 {
        self.frame
    }

    /// `roots_seen / roots_recorded`: what a recorded total is
    /// multiplied by to estimate the total over every root.
    pub fn scale(&self) -> f64 {
        if self.roots_recorded == 0 {
            0.0
        } else {
            self.roots_seen as f64 / self.roots_recorded as f64
        }
    }

    /// The whole spans of the first frames.
    pub fn kept(&self) -> &[Kept] {
        &self.kept
    }

    /// Folds another thread's tracer into this one's aggregates (kept
    /// spans are not merged: a trace file names one thread).
    pub fn absorb(&mut self, other: &Tracer) {
        for (a, b) in self.agg.iter_mut().zip(&other.agg) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
            a.total_allocs += b.total_allocs;
            a.self_allocs += b.self_allocs;
            a.children += b.children;
            a.descendants += b.descendants;
            a.hist.merge(&b.hist);
        }
        self.frame += other.frame;
        self.roots_seen += other.roots_seen;
        self.roots_recorded += other.roots_recorded;
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// `false` while a UDP run is outside its measured window (set-up,
/// drain, shutdown): roots opened then are neither recorded nor
/// counted. The simulator runs leave it `true` and discard warm-up and
/// drain spans with [`take`] instead.
pub static WINDOW_OPEN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

thread_local! {
    // Depth inside a root that was not picked. A destructor-free
    // `Cell` keeps the unrecorded path — fifteen roots in sixteen —
    // down to a load, a compare and a store per span.
    static SKIPPING: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Opens a span on the calling thread; closes when the guard drops.
#[inline]
pub fn span(span: Span) -> Guard {
    let skipping = SKIPPING.get();
    if skipping > 0 {
        SKIPPING.set(skipping + 1);
        return Guard(());
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.open() {
            t.enter(span);
        } else {
            SKIPPING.set(1);
        }
    });
    Guard(())
}

/// Closes its span on drop.
#[derive(Debug)]
pub struct Guard(());

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        let skipping = SKIPPING.get();
        if skipping > 0 {
            SKIPPING.set(skipping - 1);
        } else {
            TRACER.with(|t| t.borrow_mut().exit());
        }
    }
}

/// Records one root in `n` on the calling thread from now on (`1` =
/// every root).
pub fn set_sampling(n: u64) {
    TRACER.with(|t| t.borrow_mut().sample_one_in = n.max(1));
}

static DEFAULT_SAMPLING: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Sets what [`set_sampling`] value a thread starts with when it opens
/// its first span (the runtime's driver threads are spawned by the
/// product, so nobody can call `set_sampling` on them).
pub fn set_default_sampling(n: u64) {
    DEFAULT_SAMPLING.store(n.max(1), std::sync::atomic::Ordering::Relaxed);
}

/// Takes the calling thread's tracer, leaving a fresh one.
pub fn take() -> Tracer {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let mut fresh = Tracer::new();
        fresh.sample_one_in = t.sample_one_in;
        fresh.pick = t.pick;
        fresh.burst_left = t.burst_left;
        fresh.probe_every = t.probe_every;
        std::mem::replace(&mut *t, fresh)
    })
}

/// What recording one span costs, measured on empty spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overhead {
    /// Nanoseconds that land inside the span's own interval.
    pub inside_ns: f64,
    /// Nanoseconds that land in the enclosing span (or nowhere).
    pub outside_ns: f64,
}

/// Measures [`Overhead`] on the calling thread, on empty spans nested
/// in one root (nested spans are the common case: a root pays a few
/// nanoseconds more for the sampling decision). Discards whatever the
/// thread's tracer held.
pub fn calibrate() -> Overhead {
    const ROUNDS: u64 = 100_000;
    let sampling = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.probe_every = 0;
        t.sample_one_in
    });
    set_sampling(1);
    let mut best = Overhead { inside_ns: f64::MAX, outside_ns: f64::MAX };
    // Minimum of a few batches: anything above it is an interruption,
    // not the cost of a span.
    for _ in 0..7 {
        let _ = take();
        let per_span = {
            let _root = span(Span::NodeOnPacket);
            let wall = Instant::now();
            for _ in 0..ROUNDS {
                let g = span(Span::RrpRoutes);
                drop(std::hint::black_box(g));
            }
            wall.elapsed().as_nanos() as f64 / ROUNDS as f64
        };
        let t = take();
        let inside = t.agg(Span::RrpRoutes).total_ns as f64 / ROUNDS as f64;
        if per_span < best.inside_ns + best.outside_ns {
            best = Overhead { inside_ns: inside, outside_ns: (per_span - inside).max(0.0) };
        }
    }
    set_sampling(sampling);
    TRACER.with(|t| t.borrow_mut().probe_every = PROBE_EVERY);
    best
}

/// Overhead-corrected figures of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Corrected {
    /// Total time, minus the recording cost of the span and of
    /// everything nested in it.
    pub total_ns: f64,
    /// Self time, minus the span's own inside cost and its direct
    /// children's outside cost.
    pub self_ns: f64,
}

impl Agg {
    /// Subtracts the calibrated recording cost.
    pub fn corrected(&self, o: Overhead) -> Corrected {
        let per = o.inside_ns + o.outside_ns;
        Corrected {
            total_ns: (self.total_ns as f64
                - self.count as f64 * o.inside_ns
                - self.descendants as f64 * per)
                .max(0.0),
            self_ns: (self.self_ns as f64
                - self.count as f64 * o.inside_ns
                - self.children as f64 * o.outside_ns)
                .max(0.0),
        }
    }
}

impl Tracer {
    /// `tight_loop`, rescaled by how much longer this tracer's probe
    /// spans ran in situ than the calibration's empty spans did.
    pub fn in_situ(&self, tight_loop: Overhead) -> Overhead {
        let probes = self.agg(Span::Probe);
        if probes.count == 0 || tight_loop.inside_ns <= 0.0 {
            return tight_loop;
        }
        let r = (probes.total_ns as f64 / probes.count as f64 / tight_loop.inside_ns).max(1.0);
        Overhead { inside_ns: tight_loop.inside_ns * r, outside_ns: tight_loop.outside_ns * r }
    }

    /// Overhead-corrected self time of every span of `layer`.
    pub fn layer_self_ns(&self, layer: Layer, o: Overhead) -> f64 {
        Span::ALL
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|s| self.agg(*s).corrected(o).self_ns)
            .sum()
    }

    /// Self allocations of every span of `layer`.
    pub fn layer_self_allocs(&self, layer: Layer) -> u64 {
        Span::ALL.iter().filter(|s| s.layer() == layer).map(|s| self.agg(*s).self_allocs).sum()
    }

    /// Total recording cost of every span taken (for
    /// `trace.overhead_share`'s cross-check).
    pub fn recording_cost_ns(&self, o: Overhead) -> f64 {
        let spans: u64 = self.agg.iter().map(|a| a.count).sum();
        spans as f64 * (o.inside_ns + o.outside_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_parents_link() {
        let _ = take();
        {
            let _outer = span(Span::NodeOnPacket);
            spin(200_000);
            {
                let _inner = span(Span::SrpHandlePacket);
                spin(300_000);
                let v: Vec<u8> = Vec::with_capacity(64);
                std::hint::black_box(&v);
            }
            {
                let _inner = span(Span::RrpOnPacket);
                spin(100_000);
            }
        }
        let t = take();
        let outer = t.agg(Span::NodeOnPacket);
        let srp = t.agg(Span::SrpHandlePacket);
        let rrp = t.agg(Span::RrpOnPacket);
        assert_eq!((outer.count, srp.count, rrp.count), (1, 1, 1));
        assert!(outer.total_ns >= 600_000);
        assert_eq!(outer.self_ns, outer.total_ns - srp.total_ns - rrp.total_ns);
        assert!(outer.self_ns >= 200_000 && outer.self_ns < 400_000, "self {}", outer.self_ns);
        assert_eq!((outer.children, outer.descendants), (2, 2));
        assert_eq!(srp.self_allocs, 1);
        assert_eq!(outer.total_allocs, 1);
        assert_eq!(outer.self_allocs, 0);

        let kept = t.kept();
        assert_eq!(kept.len(), 3);
        let root = kept.iter().find(|k| k.span == Span::NodeOnPacket).expect("root kept");
        assert_eq!(root.parent, 0);
        for k in kept.iter().filter(|k| k.span != Span::NodeOnPacket) {
            assert_eq!(k.parent, root.id);
            assert_eq!(k.frame, 1);
            assert!(k.start_ns >= root.start_ns && k.end_ns <= root.end_ns);
        }
    }

    #[test]
    fn calibration_is_small_and_correction_removes_it() {
        let o = calibrate();
        assert!(o.inside_ns > 0.0 && o.inside_ns + o.outside_ns < 2_000.0, "{o:?}");
        let _ = take();
        {
            let _outer = span(Span::NodeOnPacket);
            for _ in 0..10_000 {
                let _leaf = span(Span::RrpRoutes);
            }
        }
        let t = take();
        // Nothing but span recording happened inside the outer span, so
        // its corrected total is a small share of its raw total.
        let outer = t.agg(Span::NodeOnPacket);
        let corrected = outer.corrected(o).total_ns;
        assert!(corrected < outer.total_ns as f64 * 0.5, "{corrected} of {}", outer.total_ns);
        assert!(t.layer_self_ns(Layer::Srp, o) < t.agg(Span::RrpRoutes).self_ns as f64);
    }

    #[test]
    fn one_root_in_n_is_recorded_whole_and_the_rest_not_at_all() {
        let _ = take();
        set_sampling(8);
        let total = 400 * 8 * BURST;
        for _ in 0..total {
            let _root = span(Span::NodeOnPacket);
            let _child = span(Span::SrpHandlePacket);
        }
        set_sampling(1);
        let t = take();
        let (roots, children) =
            (t.agg(Span::NodeOnPacket).count, t.agg(Span::SrpHandlePacket).count);
        assert_eq!(roots, children, "a recorded root brings all its children");
        let expected = total / 8;
        assert!(
            (expected * 7 / 10..expected * 13 / 10).contains(&roots),
            "about one in eight: {roots}"
        );
        assert!((t.scale() - total as f64 / roots as f64).abs() < 1e-9);
        assert_eq!(t.frames() as u64, roots);
        // One span in eight carries a probe: about a quarter of the
        // roots' two spans each, nested under whichever it fell on.
        let probes = t.agg(Span::Probe).count;
        assert!((roots / 5..roots / 3).contains(&probes), "{probes} probes for {roots} roots");
    }

    #[test]
    fn absorb_adds_aggregates() {
        let _ = take();
        {
            let _s = span(Span::TransportSend);
        }
        let mut a = take();
        {
            let _s = span(Span::TransportSend);
        }
        let b = take();
        a.absorb(&b);
        assert_eq!(a.agg(Span::TransportSend).count, 2);
    }
}

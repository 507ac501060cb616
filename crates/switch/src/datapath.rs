//! The forwarding engine.
//!
//! One datapath thread per host polls worker ports, tunnel ingress and the
//! controller channel, resolves each *batch run* of same-headed frames once
//! against the [`FlowCache`] (falling back to the flow table on a miss) and
//! executes the matched action list. Broadcast and mirror replication clone
//! the frame, whose payload is [`bytes::Bytes`] — a refcount bump,
//! "negligible packet copy overhead in OVS" (§6.1).

use crate::cache::{CacheStats, Displaced, FlowCache, Probe};
use crate::group_table::GroupTable;
use crate::port::{Ports, WorkerPort};
use crate::table::FlowTable;
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use typhoon_diag::{rank, DiagMutex as Mutex};
use typhoon_net::{Frame, NetError, Tunnel};
use typhoon_openflow::{
    wire, Action, DatapathId, FrameMeta, OfMessage, PacketInReason, PortNo, PortStatusReason,
};
use typhoon_trace::{Hop, TraceCtx};

/// Tunable parameters of one switch.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// This switch's datapath ID.
    pub dpid: DatapathId,
    /// Capacity of each port ring (frames).
    pub ring_capacity: usize,
    /// Max frames drained per port per poll round.
    pub poll_budget: usize,
    /// How often expired rules are swept.
    pub expire_interval: Duration,
    /// Sleep when a full round moved nothing (spin-down).
    pub idle_sleep: Duration,
}

impl SwitchConfig {
    /// Reasonable defaults for a host switch.
    pub fn new(dpid: u64) -> Self {
        SwitchConfig {
            dpid: DatapathId(dpid),
            ring_capacity: 8192,
            poll_budget: 256,
            expire_interval: Duration::from_millis(100),
            idle_sleep: Duration::from_micros(50),
        }
    }
}

/// The controller's ends of one switch's control channel. Messages are
/// encoded OpenFlow bytes in both directions.
#[derive(Debug, Clone)]
pub struct ControlChannel {
    /// Controller → switch.
    pub to_switch: Sender<Bytes>,
    /// Switch → controller (replies and async events).
    pub from_switch: Receiver<Bytes>,
}

/// A reconnect attempt carried a fencing term older than the one already
/// connected — the reconnecting controller is a stale leader and must not
/// be allowed to reprogram the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleLeader {
    /// Term offered by the reconnecting controller.
    pub offered: u64,
    /// Term of the leader the switch is (or was last) bound to.
    pub current: u64,
}

impl std::fmt::Display for StaleLeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale leader rejected: offered term {} < current term {}",
            self.offered, self.current
        )
    }
}

impl std::error::Error for StaleLeader {}

/// Bound on controller-bound events buffered while headless; oldest
/// events are shed first (a newer `PortStatus`/`PacketIn` supersedes an
/// older one for every consumer we have).
const HEADLESS_QUEUE_CAP: usize = 4096;

/// The switch's side of the controller connection, swappable on failover.
///
/// `term` is the fencing token from the controller election: term 0 is
/// the boot channel handed out by [`Switch::new`] (a switch that has only
/// ever seen term 0 keeps the legacy standalone semantics — dropped
/// events, live expiry — so controller-less tests and tools behave as
/// before). Once a real leader (term ≥ 1) has connected, losing the
/// channel flips the switch into *headless mode*: forwarding continues on
/// installed rules and the megaflow cache, rule expiry is suppressed, and
/// controller-bound events queue here until the next leader reconnects
/// and replays them.
struct ControllerLink {
    term: u64,
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
    headless: bool,
    headless_since: Option<Instant>,
    queued: VecDeque<Bytes>,
    dropped: u64,
}

impl ControllerLink {
    /// Queues an encoded event for replay, shedding the oldest on overflow.
    fn queue(&mut self, bytes: Bytes) {
        if self.queued.len() >= HEADLESS_QUEUE_CAP {
            self.queued.pop_front();
            self.dropped += 1;
        }
        self.queued.push_back(bytes);
    }
}

struct Inner {
    config: SwitchConfig,
    ports: Mutex<Ports>,
    table: Mutex<FlowTable>,
    cache: FlowCache,
    groups: Mutex<GroupTable>,
    tunnels: Mutex<HashMap<u32, Box<dyn Tunnel + Send>>>,
    tunnel_downs: AtomicU64,
    /// Per-frame table-miss total, mirrored from the match path so metrics
    /// scrapes never contend with the datapath on the table lock.
    misses: AtomicU64,
    /// Installed-rule count, refreshed after every table mutation.
    rules: AtomicU64,
    link: Mutex<ControllerLink>,
    /// Mirror of `link.headless` so the expiry path (and metrics scrapes)
    /// never take the link lock.
    headless: AtomicBool,
    /// Milliseconds spent headless across completed windows
    /// (observability: `switch.headless_ms`).
    headless_ms: AtomicU64,
    /// Events replayed to reconnecting leaders.
    replayed: AtomicU64,
    shutdown: AtomicBool,
    last_expire: Mutex<Instant>,
    trace: Mutex<TraceCtx>,
}

/// A host's software SDN switch. Clone-able handle; the forwarding loop
/// runs on the thread started by [`Switch::spawn`] (or is driven manually
/// with [`Switch::process_round`] in deterministic tests).
#[derive(Clone)]
pub struct Switch {
    inner: Arc<Inner>,
}

/// Join handle + shutdown for a spawned datapath thread.
pub struct SwitchHandle {
    switch: Switch,
    thread: Option<JoinHandle<()>>,
}

impl Switch {
    /// Creates a switch and the controller-side channel endpoints.
    pub fn new(config: SwitchConfig) -> (Switch, ControlChannel) {
        let (to_switch_tx, to_switch_rx) = bounded(65536);
        let (from_switch_tx, from_switch_rx) = bounded(65536);
        let switch = Switch {
            inner: Arc::new(Inner {
                ports: Mutex::with_rank(
                    rank::DP_PORTS,
                    "switch.datapath.ports",
                    Ports::new(config.ring_capacity),
                ),
                table: Mutex::with_rank(rank::DATAPATH, "switch.datapath.table", FlowTable::new()),
                cache: FlowCache::new(),
                groups: Mutex::with_rank(
                    rank::DP_GROUPS,
                    "switch.datapath.groups",
                    GroupTable::new(),
                ),
                tunnels: Mutex::with_rank(
                    rank::DP_TUNNELS,
                    "switch.datapath.tunnels",
                    HashMap::new(),
                ),
                tunnel_downs: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                rules: AtomicU64::new(0),
                link: Mutex::with_rank(
                    rank::DP_CTRL,
                    "switch.datapath.link",
                    ControllerLink {
                        term: 0,
                        tx: from_switch_tx,
                        rx: to_switch_rx,
                        headless: false,
                        headless_since: None,
                        queued: VecDeque::new(),
                        dropped: 0,
                    },
                ),
                headless: AtomicBool::new(false),
                headless_ms: AtomicU64::new(0),
                replayed: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                last_expire: Mutex::with_rank(
                    rank::DP_EXPIRE,
                    "switch.datapath.last_expire",
                    Instant::now(),
                ),
                trace: Mutex::with_rank(
                    rank::DP_TRACE,
                    "switch.datapath.trace",
                    TraceCtx::disabled(),
                ),
                config,
            }),
        };
        (
            switch,
            ControlChannel {
                to_switch: to_switch_tx,
                from_switch: from_switch_rx,
            },
        )
    }

    /// This switch's datapath ID.
    pub fn dpid(&self) -> DatapathId {
        self.inner.config.dpid
    }

    /// Attaches a worker to `port` and notifies the controller with a
    /// `PortStatus` add event (§3.2 step (iv)).
    pub fn attach_worker(&self, port: PortNo) -> WorkerPort {
        let wp = self.inner.ports.lock().attach(port);
        self.send_event(OfMessage::PortStatus {
            reason: PortStatusReason::Add,
            port,
        });
        wp
    }

    /// Detaches a worker (deliberate kill) and notifies the controller.
    /// Frames the worker pushed before it stopped — its final flush, e.g.
    /// the acks a checkpointing bolt releases on shutdown — are forwarded
    /// first, so a graceful kill loses none of them.
    pub fn detach_worker(&self, port: PortNo) {
        let left = self.inner.ports.lock().detach(port);
        if let Some(frames) = left {
            if !frames.is_empty() {
                self.process_frames(port, frames);
            }
            self.send_event(OfMessage::PortStatus {
                reason: PortStatusReason::Delete,
                port,
            });
        }
    }

    /// Registers the tunnel used to reach peer host `host`.
    pub fn add_tunnel(&self, host: u32, tunnel: Box<dyn Tunnel + Send>) {
        self.inner.tunnels.lock().insert(host, tunnel);
        // Topology changed: cached tunnel-output decisions may now be
        // reachable again (e.g. recovery re-registering a torn-down link).
        self.inner.cache.invalidate_all();
    }

    /// True while the tunnel to `host` is registered (i.e. not torn down).
    pub fn tunnel_alive(&self, host: u32) -> bool {
        self.inner.tunnels.lock().contains_key(&host)
    }

    /// How many tunnels this switch has torn down (observability:
    /// `switch.tunnel_downs`).
    pub fn tunnel_down_count(&self) -> u64 {
        self.inner.tunnel_downs.load(Ordering::Relaxed)
    }

    /// True when a tunnel error is unrecoverable (the link is gone or the
    /// stream is poisoned) rather than transient backpressure.
    fn tunnel_error_is_fatal(e: &NetError) -> bool {
        matches!(
            e,
            NetError::Disconnected | NetError::Broken(_) | NetError::Io(_)
        )
    }

    /// Tears down the tunnel to `host` and reports it to the controller as
    /// a `PortStatus` delete on the tunnel-peer pseudo-port, so a lost
    /// host link reaches the fault detector through the exact same channel
    /// as a dead worker port (Fig. 10).
    fn tunnel_down(&self, host: u32) {
        let removed = self.inner.tunnels.lock().remove(&host).is_some();
        if removed {
            self.inner.tunnel_downs.fetch_add(1, Ordering::Relaxed);
            self.inner.cache.invalidate_all();
            self.send_event(OfMessage::PortStatus {
                reason: PortStatusReason::Delete,
                port: PortNo::tunnel_peer(host),
            });
        }
    }

    /// Installs the tracing context used to record `SwitchMatch` spans for
    /// traced frames (frames whose reserved header field is nonzero).
    pub fn set_trace(&self, ctx: TraceCtx) {
        *self.inner.trace.lock() = ctx;
    }

    /// Flow-table miss count (observability: `switch.misses`). Served from
    /// a relaxed atomic mirrored on the match path, so metrics scrapes
    /// never contend with the datapath on the hot table lock.
    pub fn miss_count(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Number of installed flow rules (observability: `switch.rules`).
    /// Refreshed after every table mutation; lock-free to read.
    pub fn rule_count(&self) -> usize {
        self.inner.rules.load(Ordering::Relaxed) as usize
    }

    /// Flow-cache counters (observability: `switch.cache.*`).
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    fn send_event(&self, msg: OfMessage) {
        let bytes = wire::encode(&msg);
        let mut link = self.inner.link.lock();
        if link.headless {
            link.queue(bytes);
            return;
        }
        // LINT: allow-send-under-lock(try_send on a bounded channel never blocks; the link lock is a leaf among the datapath locks)
        match link.tx.try_send(bytes) {
            // A congested controller must never stall the data plane;
            // events are best-effort like real OpenFlow async messages.
            Ok(()) | Err(TrySendError::Full(_)) => {}
            Err(TrySendError::Disconnected(bytes)) => {
                // The boot channel (term 0) going away keeps the legacy
                // standalone semantics — events are simply dropped — so
                // controller-less tests and tools behave as before. Losing
                // an elected leader (term ≥ 1) flips us headless instead.
                if link.term >= 1 {
                    self.enter_headless(&mut link);
                    link.queue(bytes);
                }
            }
        }
    }

    /// Sends a reply to a controller *request*. Unlike async events,
    /// replies are never queued for replay: the requester is gone, and a
    /// new leader re-syncs state rather than consuming stale replies.
    fn send_reply(&self, msg: OfMessage) {
        let link = self.inner.link.lock();
        if link.headless {
            return;
        }
        // LINT: allow-send-under-lock(try_send on a bounded channel never blocks; the link lock is a leaf among the datapath locks)
        let _ = link.tx.try_send(wire::encode(&msg));
    }

    /// Marks the link headless (caller holds the link lock). Forwarding
    /// continues on installed rules and the flow cache; rule expiry is
    /// suppressed and events queue until the next leader connects.
    fn enter_headless(&self, link: &mut ControllerLink) {
        if link.headless {
            return;
        }
        link.headless = true;
        link.headless_since = Some(Instant::now());
        self.inner.headless.store(true, Ordering::Relaxed);
    }

    /// Reconnect handshake from a (new) controller leader carrying its
    /// election `term` as a fencing token. A term older than the one this
    /// switch is already bound to means the caller is a *stale leader* —
    /// deposed, but unaware — and is rejected so it can never reprogram
    /// the datapath behind the real leader's back. Equal terms are
    /// accepted (same leader, fresh channel).
    ///
    /// On success the switch leaves headless mode, accounts the headless
    /// window, and replays every queued event to the new leader in
    /// arrival order.
    pub fn connect_controller(&self, term: u64) -> Result<ControlChannel, StaleLeader> {
        let (to_switch_tx, to_switch_rx) = bounded(65536);
        let (from_switch_tx, from_switch_rx) = bounded(65536);
        // Table before link: rank(DATAPATH) < rank(DP_CTRL).
        let mut table = self.inner.table.lock();
        let mut link = self.inner.link.lock();
        if term < link.term {
            return Err(StaleLeader {
                offered: term,
                current: link.term,
            });
        }
        if let Some(since) = link.headless_since.take() {
            let window = since.elapsed();
            // The leaderless window must not count against any rule
            // timeout (expiry was suspended): shift every expiry clock
            // forward by its duration before time resumes.
            table.shift_clocks(window);
            self.inner
                .headless_ms
                .fetch_add(window.as_millis() as u64, Ordering::Relaxed);
        }
        drop(table);
        link.term = term;
        link.tx = from_switch_tx;
        link.rx = to_switch_rx;
        link.headless = false;
        self.inner.headless.store(false, Ordering::Relaxed);
        let replay: Vec<Bytes> = link.queued.drain(..).collect();
        for bytes in replay {
            // LINT: allow-send-under-lock(try_send on a freshly created bounded channel never blocks; the link lock is a leaf among the datapath locks)
            if link.tx.try_send(bytes).is_err() {
                link.dropped += 1;
            } else {
                self.inner.replayed.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(ControlChannel {
            to_switch: to_switch_tx,
            from_switch: from_switch_rx,
        })
    }

    /// True while the switch forwards without a live controller
    /// (observability: `switch.headless`).
    pub fn is_headless(&self) -> bool {
        self.inner.headless.load(Ordering::Relaxed)
    }

    /// The election term of the leader this switch is bound to (0 until a
    /// real leader has connected).
    pub fn controller_term(&self) -> u64 {
        self.inner.link.lock().term
    }

    /// Events currently queued for replay to the next leader.
    pub fn headless_queue_len(&self) -> usize {
        self.inner.link.lock().queued.len()
    }

    /// Events shed from the bounded headless queue (oldest-first).
    pub fn headless_dropped(&self) -> u64 {
        self.inner.link.lock().dropped
    }

    /// Total milliseconds spent headless: completed windows plus the
    /// ongoing one, if any (observability: `switch.headless_ms`).
    pub fn headless_ms(&self) -> u64 {
        let completed = self.inner.headless_ms.load(Ordering::Relaxed);
        let ongoing = self
            .inner
            .link
            .lock()
            .headless_since
            .map(|s| s.elapsed().as_millis() as u64)
            .unwrap_or(0);
        completed + ongoing
    }

    /// Events replayed to reconnecting leaders (observability:
    /// `switch.replayed_events`).
    pub fn replayed_events(&self) -> u64 {
        self.inner.replayed.load(Ordering::Relaxed)
    }

    /// Runs one poll round: control messages, port RX, tunnel RX, expiry.
    /// Returns `true` when any work was done (idle detection).
    pub fn process_round(&self) -> bool {
        let mut busy = false;
        busy |= self.handle_control();
        busy |= self.poll_ports();
        busy |= self.poll_tunnels();
        self.maybe_expire();
        busy
    }

    fn handle_control(&self) -> bool {
        // Drain raw messages under the link lock, then apply them with the
        // lock released: applying takes the table/group/port locks, and a
        // PacketOut can re-enter `send_event`.
        let mut raws = Vec::new();
        {
            let mut link = self.inner.link.lock();
            for _ in 0..self.inner.config.poll_budget {
                match link.rx.try_recv() {
                    Ok(b) => raws.push(b),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        if link.term >= 1 {
                            self.enter_headless(&mut link);
                        }
                        break;
                    }
                }
            }
        }
        let busy = !raws.is_empty();
        for raw in raws {
            let msg = match wire::decode(raw) {
                Ok((m, _)) => m,
                Err(_) => continue, // corrupt control message: drop
            };
            if let Some(reply) = self.apply_control(msg) {
                self.send_reply(reply);
            }
        }
        busy
    }

    fn apply_control(&self, msg: OfMessage) -> Option<OfMessage> {
        match msg {
            OfMessage::Hello => Some(OfMessage::Hello),
            OfMessage::EchoRequest(v) => Some(OfMessage::EchoReply(v)),
            OfMessage::FeaturesRequest => Some(OfMessage::FeaturesReply {
                dpid: self.inner.config.dpid,
                ports: self.inner.ports.lock().port_numbers(),
            }),
            OfMessage::FlowMod(fm) => {
                let now = Instant::now();
                let changed = {
                    let mut table = self.inner.table.lock();
                    if table.would_change(&fm, now) {
                        // Finalize cached hit counters against the pre-change
                        // rules (a Modify/Delete must not lose or misroute them).
                        self.inner
                            .cache
                            .drain_pending(|meta, p, b| table.credit(meta, p, b, now));
                        table.apply(&fm, now);
                        self.inner
                            .rules
                            .store(table.len() as u64, Ordering::Relaxed);
                        true
                    } else {
                        // A failover re-sync replays the full rule set;
                        // byte-identical re-installs must not flush the
                        // megaflow cache's hot entries.
                        false
                    }
                };
                if changed {
                    self.inner.cache.invalidate_all();
                }
                None
            }
            OfMessage::GroupMod(gm) => {
                self.inner.groups.lock().apply(&gm);
                None
            }
            OfMessage::PacketOut { in_port, frame } => {
                if let Ok(f) = Frame::decode(frame) {
                    self.process_frame(in_port, f);
                }
                None
            }
            OfMessage::FlowStatsRequest => {
                let now = Instant::now();
                let mut table = self.inner.table.lock();
                // Flush cache-accumulated hits first so the reply is exact.
                self.inner
                    .cache
                    .drain_pending(|meta, p, b| table.credit(meta, p, b, now));
                Some(OfMessage::FlowStatsReply(table.stats()))
            }
            OfMessage::PortStatsRequest => {
                Some(OfMessage::PortStatsReply(self.inner.ports.lock().stats()))
            }
            OfMessage::Barrier { xid } => Some(OfMessage::BarrierReply { xid }),
            // Replies/events never arrive on the controller→switch direction.
            _ => None,
        }
    }

    fn poll_ports(&self) -> bool {
        let mut batches = Vec::new();
        let dead = {
            let mut ports = self.inner.ports.lock();
            ports.poll(self.inner.config.poll_budget, &mut batches)
        };
        for port in dead {
            // The fault detector's trigger: an unexpected port removal.
            self.send_event(OfMessage::PortStatus {
                reason: PortStatusReason::Delete,
                port,
            });
        }
        let busy = !batches.is_empty();
        for (port, frames) in batches {
            self.process_frames(port, frames);
        }
        busy
    }

    fn poll_tunnels(&self) -> bool {
        let mut frames = Vec::new();
        let mut dead = Vec::new();
        {
            let tunnels = self.inner.tunnels.lock();
            for (&host, tunnel) in tunnels.iter() {
                // recv_batch appends whatever arrived before an error, so
                // buffered frames are still delivered on the poll that
                // detects the teardown.
                if let Err(e) = tunnel.recv_batch(&mut frames, self.inner.config.poll_budget) {
                    if Self::tunnel_error_is_fatal(&e) {
                        dead.push(host);
                    }
                }
            }
        }
        for host in dead {
            self.tunnel_down(host);
        }
        let busy = !frames.is_empty();
        self.process_frames(PortNo::TUNNEL, frames);
        busy
    }

    fn maybe_expire(&self) {
        // Headless: nobody exists to re-install a rule whose flow happens
        // to go quiet during the failover window, so an expiry sweep here
        // would silently break forwarding with no controller to repair it.
        // Expiry is suppressed until a leader reconnects (§3.5).
        if self.inner.headless.load(Ordering::Relaxed) {
            return;
        }
        let now = Instant::now();
        let mut last = self.inner.last_expire.lock();
        if now.saturating_duration_since(*last) >= self.inner.config.expire_interval {
            *last = now;
            drop(last);
            let evicted = {
                let mut table = self.inner.table.lock();
                // Credit cached hits before the sweep: they refresh the idle
                // clocks of rules whose traffic never reached the table.
                self.inner
                    .cache
                    .drain_pending(|meta, p, b| table.credit(meta, p, b, now));
                let evicted = table.expire(now);
                self.inner
                    .rules
                    .store(table.len() as u64, Ordering::Relaxed);
                evicted
            };
            if evicted > 0 {
                // An eviction can change which (lower-priority) rule a key
                // resolves to; revalidate everything.
                self.inner.cache.invalidate_all();
            }
        }
    }

    /// Runs one frame through the datapath ([`Switch::process_frames`] of a
    /// batch of one — the `PacketOut` and single-frame test path).
    pub fn process_frame(&self, in_port: PortNo, frame: Frame) {
        self.process_frames(in_port, vec![frame]);
    }

    /// Runs a batch of frames that arrived on `in_port` through the
    /// datapath. Consecutive frames with identical headers form a *run*
    /// that is resolved once — one cache probe (or one table lookup on
    /// miss), one trace-lock visit, one port-lock visit — instead of
    /// paying every cost per tuple.
    pub fn process_frames(&self, in_port: PortNo, frames: Vec<Frame>) {
        let mut it = frames.into_iter().peekable();
        while let Some(first) = it.next() {
            let key = (first.src, first.dst, first.ethertype);
            let mut run = vec![first];
            while let Some(f) = it.peek() {
                if (f.src, f.dst, f.ethertype) == key {
                    run.push(it.next().expect("peeked"));
                } else {
                    break;
                }
            }
            self.process_run(in_port, run);
        }
    }

    /// Resolves and forwards one same-headed run.
    fn process_run(&self, in_port: PortNo, run: Vec<Frame>) {
        // Untraced frames (the overwhelming majority) pay one u64 compare;
        // traced ones share a single trace-lock acquisition per run.
        if run.iter().any(|f| f.trace != 0) {
            let trace = self.inner.trace.lock();
            for f in run.iter().filter(|f| f.trace != 0) {
                trace.record(f.trace, Hop::SwitchMatch);
            }
        }
        let meta = FrameMeta {
            in_port,
            dl_src: run[0].src,
            dl_dst: run[0].dst,
            ether_type: run[0].ethertype,
        };
        let bytes: u64 = run.iter().map(|f| f.wire_len() as u64).sum();
        let actions = match self.resolve(&meta, run.len() as u64, bytes) {
            Some(a) => a,
            None => return, // table miss: drop the whole run (counted)
        };
        // Fast paths for the two Table 3 staples, paying one lock per run.
        // Everything else (broadcast, groups, controller) falls back to the
        // general per-frame executor.
        match actions[..] {
            [Action::Output(p)] if p.is_physical() && p != PortNo::TUNNEL => {
                self.inner.ports.lock().transmit_batch(p, run);
            }
            [Action::SetTunDst(host), Action::Output(PortNo::TUNNEL)] => {
                let mut dead = false;
                {
                    let tunnels = self.inner.tunnels.lock();
                    if let Some(t) = tunnels.get(&host) {
                        // Frames cross the tunnel one by one so the fault
                        // injector keeps its per-frame semantics (mid-batch
                        // drop/corrupt/partition stays reachable).
                        for frame in &run {
                            // LINT: allow-send-under-lock(Tunnel::send is a socket write, not a channel op; the per-tunnel writer lock ranks above this map lock)
                            if let Err(e) = t.send(frame) {
                                if Self::tunnel_error_is_fatal(&e) {
                                    dead = true;
                                    break;
                                }
                            }
                        }
                    }
                }
                if dead {
                    self.tunnel_down(host);
                }
            }
            _ => {
                for frame in run {
                    self.execute(&actions, in_port, frame, 0);
                }
            }
        }
    }

    /// The instant expiry decisions are made against. While headless, time
    /// is frozen at the moment the leader was lost: a rule (or cache
    /// entry) that was alive when the controller died keeps forwarding for
    /// the whole leaderless window, however long failover takes — nobody
    /// exists to re-install it if its flow goes momentarily quiet.
    fn now_for_expiry(&self) -> Instant {
        if self.inner.headless.load(Ordering::Relaxed) {
            if let Some(since) = self.inner.link.lock().headless_since {
                return since;
            }
        }
        Instant::now()
    }

    /// Resolves a run's actions: flow cache first, table on a miss (which
    /// also installs the result — positive or negative — for the next run).
    fn resolve(&self, meta: &FrameMeta, packets: u64, bytes: u64) -> Option<Vec<Action>> {
        let now = self.now_for_expiry();
        match self.inner.cache.probe(meta, packets, bytes, now) {
            Probe::Hit(actions) => Some(actions),
            Probe::NegativeHit => {
                self.inner.misses.fetch_add(packets, Ordering::Relaxed);
                None
            }
            Probe::Miss => {
                let mut table = self.inner.table.lock();
                match table.lookup_credit(meta, packets, bytes, now) {
                    Some(cf) => {
                        let displaced = self.inner.cache.insert(
                            meta,
                            &cf.actions,
                            cf.idle_timeout,
                            cf.hard_remaining,
                            now,
                        );
                        Self::credit_displaced(&mut table, displaced, now);
                        Some(cf.actions)
                    }
                    None => {
                        self.inner.misses.fetch_add(packets, Ordering::Relaxed);
                        let displaced = self.inner.cache.insert_negative(meta, now);
                        Self::credit_displaced(&mut table, displaced, now);
                        None
                    }
                }
            }
        }
    }

    /// Credits pending hits displaced from an overwritten cache slot back
    /// to the table (whose lock the caller already holds).
    fn credit_displaced(table: &mut FlowTable, displaced: Option<Displaced>, now: Instant) {
        if let Some(d) = displaced {
            table.credit(&d.meta, d.packets, d.bytes, now);
        }
    }

    fn execute(&self, actions: &[Action], in_port: PortNo, mut frame: Frame, depth: u8) {
        if depth > 4 {
            return; // group recursion guard
        }
        let mut tun_dst: Option<u32> = None;
        let mut dead_tunnel: Option<u32> = None;
        for action in actions {
            match *action {
                Action::SetDlDst(mac) => {
                    frame.dst = mac;
                }
                Action::SetTunDst(host) => {
                    tun_dst = Some(host);
                }
                Action::Output(PortNo::TUNNEL) => {
                    if let Some(host) = tun_dst {
                        let tunnels = self.inner.tunnels.lock();
                        if let Some(t) = tunnels.get(&host) {
                            // LINT: allow-send-under-lock(Tunnel::send is a socket write, not a channel op; the per-tunnel writer lock ranks above this map lock)
                            if let Err(e) = t.send(&frame) {
                                if Self::tunnel_error_is_fatal(&e) {
                                    dead_tunnel = Some(host);
                                }
                            }
                        }
                    }
                }
                Action::Output(PortNo::CONTROLLER) | Action::ToController => {
                    self.send_event(OfMessage::PacketIn {
                        in_port,
                        reason: PacketInReason::Action,
                        frame: frame.encode(),
                    });
                }
                Action::Output(PortNo::ALL) => {
                    let ports: Vec<PortNo> = self
                        .inner
                        .ports
                        .lock()
                        .port_numbers()
                        .into_iter()
                        .filter(|&p| p != in_port)
                        .collect();
                    for p in ports {
                        // Payload is shared Bytes: this clone is O(1).
                        let _ = self.inner.ports.lock().transmit(p, frame.clone());
                    }
                }
                Action::Output(p) => {
                    let _ = self.inner.ports.lock().transmit(p, frame.clone());
                }
                Action::Group(g) => {
                    // Bind first: an `if let` on the lock temporary would
                    // hold the group-table guard across the recursive call
                    // and deadlock on self-referential groups.
                    let bucket_actions = self.inner.groups.lock().select(g);
                    if let Some(bucket_actions) = bucket_actions {
                        self.execute(&bucket_actions, in_port, frame.clone(), depth + 1);
                    }
                }
            }
        }
        // Tear down outside the action loop: `tunnel_down` re-takes the
        // tunnels lock, and the event should fire once per frame even if
        // several output actions hit the same dead tunnel.
        if let Some(host) = dead_tunnel {
            self.tunnel_down(host);
        }
    }

    /// Spawns the forwarding loop on its own thread.
    pub fn spawn(&self) -> SwitchHandle {
        let switch = self.clone();
        let loop_switch = self.clone();
        let thread = typhoon_diag::spawn_supervised(
            &format!("datapath-{}", self.dpid()),
            |_event| { /* diag's panic log + counters suffice; no extra callback */ },
            move || {
                while !loop_switch.inner.shutdown.load(Ordering::Acquire) {
                    if !loop_switch.process_round() {
                        // LINT: allow-sleep(configured idle_sleep when the datapath processed nothing this round)
                        std::thread::sleep(loop_switch.inner.config.idle_sleep);
                    }
                }
            },
        );
        SwitchHandle {
            switch,
            thread: Some(thread),
        }
    }

    /// Requests the forwarding loop to stop.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
    }
}

impl std::fmt::Debug for Switch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Switch({}, rules={}, misses={})",
            self.dpid(),
            self.rule_count(),
            self.miss_count()
        )
    }
}

impl SwitchHandle {
    /// The underlying switch handle.
    pub fn switch(&self) -> &Switch {
        &self.switch
    }

    /// Stops the loop and joins the thread.
    pub fn stop(mut self) {
        self.switch.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SwitchHandle {
    fn drop(&mut self) {
        self.switch.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_net::{InMemoryTunnel, MacAddr, TYPHOON_ETHERTYPE};
    use typhoon_openflow::{FlowMatch, FlowMod};
    use typhoon_tuple::tuple::TaskId;

    fn w(task: u32) -> MacAddr {
        MacAddr::worker(1, TaskId(task))
    }

    fn data_frame(src: u32, dst: MacAddr, n: u8) -> Frame {
        Frame::typhoon(w(src), dst, Bytes::from(vec![n; 32]))
    }

    fn send_ctrl(ch: &ControlChannel, msg: OfMessage) {
        ch.to_switch.send(wire::encode(&msg)).unwrap();
    }

    fn drain_events(ch: &ControlChannel) -> Vec<OfMessage> {
        ch.from_switch
            .try_iter()
            .map(|b| wire::decode(b).unwrap().0)
            .collect()
    }

    /// Installs the Table 3 "local transfer" rule.
    fn local_rule(src: u32, src_port: u32, dst: u32, dst_port: u32) -> OfMessage {
        OfMessage::FlowMod(FlowMod::add(
            10,
            FlowMatch::any()
                .in_port(PortNo(src_port))
                .dl_src(w(src))
                .dl_dst(w(dst))
                .ether_type(TYPHOON_ETHERTYPE),
            vec![Action::Output(PortNo(dst_port))],
        ))
    }

    #[test]
    fn local_transfer_follows_table3_rule() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        sw.process_round(); // control
        wp1.tx.push(data_frame(10, w(20), 0xaa)).unwrap();
        sw.process_round(); // forward
        let got = wp2.rx.pop().unwrap().expect("delivered");
        assert_eq!(got.payload[0], 0xaa);
        assert_eq!(got.dst, w(20));
        assert_eq!(sw.miss_count(), 0);
    }

    #[test]
    fn detach_forwards_frames_the_worker_flushed_last() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        sw.process_round();
        const N: u8 = 50;
        for n in 0..N {
            wp1.tx.push(data_frame(10, w(20), n)).unwrap();
        }
        // The worker stops and the agent detaches before any poll round.
        drop(wp1);
        sw.detach_worker(PortNo(1));
        let mut got = Vec::new();
        while let Ok(Some(f)) = wp2.rx.pop() {
            got.push(f.payload[0]);
        }
        assert_eq!(
            got,
            (0..N).collect::<Vec<_>>(),
            "every frame forwarded, in order"
        );
    }

    #[test]
    fn table_miss_drops_and_counts() {
        let (sw, _ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        wp1.tx.push(data_frame(10, w(20), 1)).unwrap();
        sw.process_round();
        assert!(wp2.rx.pop().unwrap().is_none());
        assert_eq!(sw.miss_count(), 1);
    }

    #[test]
    fn broadcast_replicates_without_copying_payload() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let src = sw.attach_worker(PortNo(1));
        let sinks: Vec<WorkerPort> = (2..=5).map(|p| sw.attach_worker(PortNo(p))).collect();
        // Table 3 one-to-many rule: broadcast dst → all sink ports.
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                10,
                FlowMatch::any()
                    .in_port(PortNo(1))
                    .dl_dst(MacAddr::BROADCAST)
                    .ether_type(TYPHOON_ETHERTYPE),
                (2..=5).map(|p| Action::Output(PortNo(p))).collect(),
            )),
        );
        sw.process_round();
        let frame = data_frame(10, MacAddr::BROADCAST, 0xbb);
        let payload_ptr = frame.payload.as_ptr();
        src.tx.push(frame).unwrap();
        sw.process_round();
        for sink in &sinks {
            let got = sink.rx.pop().unwrap().expect("replica delivered");
            assert_eq!(got.payload.as_ptr(), payload_ptr, "shared payload");
        }
    }

    #[test]
    fn remote_transfer_via_tunnel_pair() {
        // Two hosts: sender switch 1, receiver switch 2, joined by a tunnel.
        let (sw1, ch1) = Switch::new(SwitchConfig::new(1));
        let (sw2, ch2) = Switch::new(SwitchConfig::new(2));
        let (t1, t2) = InMemoryTunnel::pair();
        sw1.add_tunnel(2, Box::new(t1));
        sw2.add_tunnel(1, Box::new(t2));
        let src = sw1.attach_worker(PortNo(1));
        let dst = sw2.attach_worker(PortNo(1));
        // Table 3 remote transfer (sender).
        send_ctrl(
            &ch1,
            OfMessage::FlowMod(FlowMod::add(
                10,
                FlowMatch::any()
                    .in_port(PortNo(1))
                    .dl_src(w(10))
                    .dl_dst(w(20))
                    .ether_type(TYPHOON_ETHERTYPE),
                vec![Action::SetTunDst(2), Action::Output(PortNo::TUNNEL)],
            )),
        );
        // Table 3 remote transfer (receiver).
        send_ctrl(
            &ch2,
            OfMessage::FlowMod(FlowMod::add(
                10,
                FlowMatch::any()
                    .in_port(PortNo::TUNNEL)
                    .dl_src(w(10))
                    .dl_dst(w(20)),
                vec![Action::Output(PortNo(1))],
            )),
        );
        sw1.process_round();
        sw2.process_round();
        src.tx.push(data_frame(10, w(20), 0xcc)).unwrap();
        sw1.process_round(); // sender forwards into tunnel
        sw2.process_round(); // receiver drains tunnel
        let got = dst.rx.pop().unwrap().expect("crossed hosts");
        assert_eq!(got.payload[0], 0xcc);
    }

    #[test]
    fn packet_out_delivers_control_tuple_to_workers() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp = sw.attach_worker(PortNo(3));
        // Table 3: controller→workers rule.
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                20,
                FlowMatch::any()
                    .in_port(PortNo::CONTROLLER)
                    .dl_dst(MacAddr::BROADCAST)
                    .ether_type(TYPHOON_ETHERTYPE),
                vec![Action::Output(PortNo(3))],
            )),
        );
        let ctrl_frame = Frame::typhoon(
            MacAddr::CONTROLLER,
            MacAddr::BROADCAST,
            Bytes::from_static(b"routing-update"),
        );
        send_ctrl(
            &ch,
            OfMessage::PacketOut {
                in_port: PortNo::CONTROLLER,
                frame: ctrl_frame.encode(),
            },
        );
        sw.process_round();
        let got = wp.rx.pop().unwrap().expect("control tuple delivered");
        assert_eq!(&got.payload[..], b"routing-update");
    }

    #[test]
    fn to_controller_action_produces_packet_in() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp = sw.attach_worker(PortNo(1));
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                20,
                FlowMatch::any().dl_dst(MacAddr::CONTROLLER),
                vec![Action::ToController],
            )),
        );
        sw.process_round();
        let _ = drain_events(&ch); // discard the PortStatus add
        wp.tx
            .push(data_frame(10, MacAddr::CONTROLLER, 0xdd))
            .unwrap();
        sw.process_round();
        let events = drain_events(&ch);
        match &events[..] {
            [OfMessage::PacketIn {
                in_port,
                reason,
                frame,
            }] => {
                assert_eq!(*in_port, PortNo(1));
                assert_eq!(*reason, PacketInReason::Action);
                let decoded = Frame::decode(frame.clone()).unwrap();
                assert_eq!(decoded.payload[0], 0xdd);
            }
            other => panic!("expected one PacketIn, got {other:?}"),
        }
    }

    #[test]
    fn dead_worker_triggers_port_status_delete() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp = sw.attach_worker(PortNo(4));
        let _ = drain_events(&ch);
        drop(wp); // worker dies
        sw.process_round();
        let events = drain_events(&ch);
        assert!(
            events.iter().any(|e| matches!(
                e,
                OfMessage::PortStatus {
                    reason: PortStatusReason::Delete,
                    port
                } if *port == PortNo(4)
            )),
            "got {events:?}"
        );
    }

    /// Installs the Table 3 remote-transfer rule on the sender switch.
    fn remote_rule(src: u32, dst: u32, peer_host: u32) -> OfMessage {
        OfMessage::FlowMod(FlowMod::add(
            10,
            FlowMatch::any()
                .in_port(PortNo(1))
                .dl_src(w(src))
                .dl_dst(w(dst))
                .ether_type(TYPHOON_ETHERTYPE),
            vec![Action::SetTunDst(peer_host), Action::Output(PortNo::TUNNEL)],
        ))
    }

    #[test]
    fn dead_tunnel_on_send_reports_tunnel_peer_delete() {
        use typhoon_net::{FaultInjector, FaultPlan, FaultSpec};
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let (t1, _t2) = InMemoryTunnel::pair();
        // TX-only partition: receive stays clean, so only the send path in
        // `execute` can observe the fault.
        let (inj, _handle) = FaultInjector::wrap(
            Box::new(t1),
            FaultPlan::tx_only(1, FaultSpec::CLEAN.partitioned()),
        );
        sw.add_tunnel(2, Box::new(inj));
        let src = sw.attach_worker(PortNo(1));
        send_ctrl(&ch, remote_rule(10, 20, 2));
        sw.process_round();
        let _ = drain_events(&ch);
        assert!(sw.tunnel_alive(2));
        src.tx.push(data_frame(10, w(20), 1)).unwrap();
        sw.process_round();
        assert!(!sw.tunnel_alive(2), "dead tunnel removed");
        assert_eq!(sw.tunnel_down_count(), 1);
        let events = drain_events(&ch);
        assert!(
            events.iter().any(|e| matches!(
                e,
                OfMessage::PortStatus {
                    reason: PortStatusReason::Delete,
                    port
                } if *port == PortNo::tunnel_peer(2)
            )),
            "got {events:?}"
        );
    }

    #[test]
    fn partitioned_tunnel_on_recv_reports_tunnel_peer_delete() {
        use typhoon_net::{FaultInjector, FaultPlan, FaultSpec};
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let (t1, _t2) = InMemoryTunnel::pair();
        let (inj, handle) = FaultInjector::wrap(Box::new(t1), FaultPlan::clean(1));
        sw.add_tunnel(2, Box::new(inj));
        let _ = drain_events(&ch);
        sw.process_round();
        assert!(sw.tunnel_alive(2), "healthy tunnel stays up");
        handle.set_rx(FaultSpec::CLEAN.partitioned());
        sw.process_round();
        assert!(!sw.tunnel_alive(2), "partitioned tunnel torn down");
        let events = drain_events(&ch);
        assert!(
            events.iter().any(|e| matches!(
                e,
                OfMessage::PortStatus {
                    reason: PortStatusReason::Delete,
                    port
                } if *port == PortNo::tunnel_peer(2)
            )),
            "got {events:?}"
        );
    }

    #[test]
    fn group_action_rewrites_destination_with_wrr() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let src = sw.attach_worker(PortNo(1));
        let s1 = sw.attach_worker(PortNo(2));
        let s2 = sw.attach_worker(PortNo(3));
        use typhoon_openflow::{Bucket, GroupId, GroupMod};
        send_ctrl(
            &ch,
            OfMessage::GroupMod(GroupMod::add(
                GroupId(1),
                vec![
                    Bucket {
                        weight: 1,
                        actions: vec![Action::SetDlDst(w(21)), Action::Output(PortNo(2))],
                    },
                    Bucket {
                        weight: 1,
                        actions: vec![Action::SetDlDst(w(22)), Action::Output(PortNo(3))],
                    },
                ],
            )),
        );
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                10,
                FlowMatch::any().in_port(PortNo(1)),
                vec![Action::Group(GroupId(1))],
            )),
        );
        sw.process_round();
        for i in 0..4u8 {
            src.tx.push(data_frame(10, w(99), i)).unwrap();
        }
        sw.process_round();
        let mut to1 = Vec::new();
        let mut to2 = Vec::new();
        while let Ok(Some(f)) = s1.rx.pop() {
            assert_eq!(f.dst, w(21), "group rewrote destination");
            to1.push(f);
        }
        while let Ok(Some(f)) = s2.rx.pop() {
            assert_eq!(f.dst, w(22));
            to2.push(f);
        }
        assert_eq!(to1.len(), 2);
        assert_eq!(to2.len(), 2);
    }

    #[test]
    fn echo_features_and_barrier_replies() {
        let (sw, ch) = Switch::new(SwitchConfig::new(0x42));
        sw.attach_worker(PortNo(1));
        let _ = drain_events(&ch);
        send_ctrl(&ch, OfMessage::EchoRequest(5));
        send_ctrl(&ch, OfMessage::FeaturesRequest);
        send_ctrl(&ch, OfMessage::Barrier { xid: 9 });
        sw.process_round();
        let replies = drain_events(&ch);
        assert_eq!(replies[0], OfMessage::EchoReply(5));
        match &replies[1] {
            OfMessage::FeaturesReply { dpid, ports } => {
                assert_eq!(*dpid, DatapathId(0x42));
                assert_eq!(ports, &vec![PortNo(1)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(replies[2], OfMessage::BarrierReply { xid: 9 });
    }

    #[test]
    fn stats_requests_report_traffic() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        sw.process_round();
        let _ = drain_events(&ch);
        for i in 0..5u8 {
            wp1.tx.push(data_frame(10, w(20), i)).unwrap();
        }
        sw.process_round();
        send_ctrl(&ch, OfMessage::FlowStatsRequest);
        send_ctrl(&ch, OfMessage::PortStatsRequest);
        sw.process_round();
        let replies = drain_events(&ch);
        match &replies[0] {
            OfMessage::FlowStatsReply(stats) => {
                assert_eq!(stats.len(), 1);
                assert_eq!(stats[0].packets, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &replies[1] {
            OfMessage::PortStatsReply(stats) => {
                let p1 = stats.iter().find(|s| s.port == PortNo(1)).unwrap();
                assert_eq!(p1.rx_packets, 5);
                let p2 = stats.iter().find(|s| s.port == PortNo(2)).unwrap();
                assert_eq!(p2.tx_packets, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        let _ = wp2;
    }

    #[test]
    fn flow_cache_hits_after_first_run_and_keeps_stats_exact() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        sw.process_round();
        let _ = drain_events(&ch);
        // Round 1: cold cache — the run resolves via the table and is
        // installed. Round 2: the run must hit the cache.
        for round in 0..2u8 {
            for i in 0..5u8 {
                wp1.tx.push(data_frame(10, w(20), round * 10 + i)).unwrap();
            }
            sw.process_round();
        }
        let stats = sw.cache_stats();
        assert_eq!(stats.hits, 5, "second run hit the cache");
        assert_eq!(stats.misses, 5, "first run was the cold miss");
        // FlowStats must still be exact: the cached hits are flushed into
        // the table before the reply is built.
        send_ctrl(&ch, OfMessage::FlowStatsRequest);
        sw.process_round();
        let replies = drain_events(&ch);
        match &replies[0] {
            OfMessage::FlowStatsReply(stats) => assert_eq!(stats[0].packets, 10),
            other => panic!("unexpected {other:?}"),
        }
        for _ in 0..10 {
            assert!(wp2.rx.pop().unwrap().is_some(), "all frames forwarded");
        }
    }

    #[test]
    fn flow_mod_invalidates_the_cache() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        let wp3 = sw.attach_worker(PortNo(3));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        sw.process_round();
        // Warm the cache toward port 2.
        wp1.tx.push(data_frame(10, w(20), 1)).unwrap();
        sw.process_round();
        assert!(wp2.rx.pop().unwrap().is_some());
        // Re-steer the flow to port 3 at higher priority; the cached
        // decision must not survive the rule change.
        send_ctrl(
            &ch,
            OfMessage::FlowMod(FlowMod::add(
                20,
                FlowMatch::any().in_port(PortNo(1)).dl_dst(w(20)),
                vec![Action::Output(PortNo(3))],
            )),
        );
        sw.process_round();
        wp1.tx.push(data_frame(10, w(20), 2)).unwrap();
        sw.process_round();
        assert!(wp2.rx.pop().unwrap().is_none(), "old path no longer used");
        assert!(wp3.rx.pop().unwrap().is_some(), "new rule took effect");
        assert!(sw.cache_stats().invalidations >= 1);
    }

    #[test]
    fn negative_cache_still_counts_per_frame_misses() {
        let (sw, _ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        // Two separate rounds of the same unmatched flow: the second round
        // hits the negative entry yet must still count 3 misses.
        for round in 0..2u8 {
            for i in 0..3u8 {
                wp1.tx.push(data_frame(10, w(20), round * 3 + i)).unwrap();
            }
            sw.process_round();
        }
        assert_eq!(sw.miss_count(), 6);
        assert_eq!(sw.cache_stats().negative_hits, 3);
    }

    #[test]
    fn mixed_batch_splits_into_runs() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        let wp3 = sw.attach_worker(PortNo(3));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        send_ctrl(&ch, local_rule(11, 1, 30, 3));
        sw.process_round();
        // Interleave two flows in one port batch: A A B B A.
        for (src, dst, n) in [
            (10, 20, 0),
            (10, 20, 1),
            (11, 30, 2),
            (11, 30, 3),
            (10, 20, 4),
        ] {
            wp1.tx
                .push(Frame::typhoon(w(src), w(dst), Bytes::from(vec![n; 8])))
                .unwrap();
        }
        sw.process_round();
        let mut a = 0;
        while wp2.rx.pop().unwrap().is_some() {
            a += 1;
        }
        let mut b = 0;
        while wp3.rx.pop().unwrap().is_some() {
            b += 1;
        }
        assert_eq!((a, b), (3, 2));
    }

    #[test]
    fn losing_the_term_zero_boot_channel_keeps_legacy_semantics() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        drop(ch); // standalone use: nobody ever connected a real leader
        sw.attach_worker(PortNo(1)); // event hits the dead boot channel
        sw.process_round();
        assert!(!sw.is_headless(), "term 0 never goes headless");
        assert_eq!(sw.headless_queue_len(), 0, "events dropped, not queued");
        assert_eq!(sw.controller_term(), 0);
    }

    #[test]
    fn losing_an_elected_leader_enters_headless_and_keeps_forwarding() {
        let (sw, boot) = Switch::new(SwitchConfig::new(1));
        drop(boot);
        let ch = sw.connect_controller(1).unwrap();
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        sw.process_round();
        let _ = drain_events(&ch);
        drop(ch); // the leader dies
        let _wp3 = sw.attach_worker(PortNo(3)); // next event finds the dead link
        assert!(sw.is_headless());
        assert_eq!(sw.controller_term(), 1);
        // Forwarding continues on the installed rule the whole window.
        wp1.tx.push(data_frame(10, w(20), 7)).unwrap();
        sw.process_round();
        assert!(wp2.rx.pop().unwrap().is_some(), "headless forwarding works");
        assert!(sw.headless_queue_len() >= 1, "event queued for replay");
    }

    #[test]
    fn stale_leader_reconnect_is_rejected() {
        let (sw, _boot) = Switch::new(SwitchConfig::new(1));
        let _ch5 = sw.connect_controller(5).unwrap();
        let err = sw.connect_controller(3).unwrap_err();
        assert_eq!(
            err,
            StaleLeader {
                offered: 3,
                current: 5
            }
        );
        assert_eq!(sw.controller_term(), 5, "stale term did not bind");
        // Equal term is a legitimate reconnect (same leader, new channel).
        assert!(sw.connect_controller(5).is_ok());
    }

    #[test]
    fn queued_events_replay_to_the_new_leader_in_order() {
        let (sw, boot) = Switch::new(SwitchConfig::new(1));
        drop(boot);
        let ch = sw.connect_controller(1).unwrap();
        drop(ch);
        sw.attach_worker(PortNo(1));
        sw.attach_worker(PortNo(2));
        assert!(sw.is_headless());
        assert_eq!(sw.headless_queue_len(), 2);
        let ch2 = sw.connect_controller(2).unwrap();
        assert!(!sw.is_headless());
        assert_eq!(sw.replayed_events(), 2);
        assert_eq!(sw.headless_queue_len(), 0);
        assert!(sw.headless_ms() < 60_000, "window was accounted and closed");
        let events = drain_events(&ch2);
        match &events[..] {
            [OfMessage::PortStatus {
                reason: PortStatusReason::Add,
                port: p1,
            }, OfMessage::PortStatus {
                reason: PortStatusReason::Add,
                port: p2,
            }] => {
                assert_eq!((*p1, *p2), (PortNo(1), PortNo(2)), "arrival order");
            }
            other => panic!("expected two replayed PortStatus adds, got {other:?}"),
        }
    }

    #[test]
    fn headless_suppresses_rule_expiry_until_reconnect() {
        let mut cfg = SwitchConfig::new(1);
        cfg.expire_interval = Duration::from_millis(0); // sweep every round
        let (sw, boot) = Switch::new(cfg);
        drop(boot);
        let ch = sw.connect_controller(1).unwrap();
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(
            &ch,
            OfMessage::FlowMod(
                FlowMod::add(
                    10,
                    FlowMatch::any().in_port(PortNo(1)).dl_dst(w(20)),
                    vec![Action::Output(PortNo(2))],
                )
                .with_idle_timeout(Duration::from_millis(1)),
            ),
        );
        sw.process_round();
        assert_eq!(sw.rule_count(), 1);
        drop(ch); // leader dies
        sw.attach_worker(PortNo(9)); // discover the dead link
        assert!(sw.is_headless());
        std::thread::sleep(Duration::from_millis(5));
        sw.process_round(); // would expire the idle rule if not headless
        assert_eq!(sw.rule_count(), 1, "expiry suppressed while headless");
        wp1.tx.push(data_frame(10, w(20), 1)).unwrap();
        sw.process_round();
        assert!(wp2.rx.pop().unwrap().is_some(), "idle rule still forwards");
        // A new leader connects: expiry resumes and reaps the idle rule.
        let _ch2 = sw.connect_controller(2).unwrap();
        assert!(!sw.is_headless());
        std::thread::sleep(Duration::from_millis(5));
        sw.process_round();
        assert_eq!(sw.rule_count(), 0, "expiry resumed after reconnect");
    }

    /// Satellite regression: a failover re-sync re-installs byte-identical
    /// rules; the megaflow cache must keep its hot entries — the hit
    /// ratio survives the failover — instead of being flushed by no-ops.
    #[test]
    fn identical_rule_reinstall_keeps_the_cache_warm() {
        let (sw, boot) = Switch::new(SwitchConfig::new(1));
        drop(boot);
        let ch = sw.connect_controller(1).unwrap();
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        sw.process_round();
        // Warm the cache: round one is the cold miss, round two hits.
        for round in 0..2u8 {
            wp1.tx.push(data_frame(10, w(20), round)).unwrap();
            sw.process_round();
        }
        let before = sw.cache_stats();
        assert_eq!(before.hits, 1);
        // The leader dies; the new leader re-syncs the identical rule set.
        drop(ch);
        sw.attach_worker(PortNo(9)); // discover the dead link → headless
        let ch2 = sw.connect_controller(2).unwrap();
        send_ctrl(&ch2, local_rule(10, 1, 20, 2));
        sw.process_round();
        let after = sw.cache_stats();
        assert_eq!(
            after.invalidations, before.invalidations,
            "no-op re-install must not flush the cache"
        );
        // The warm entry keeps hitting across the failover.
        wp1.tx.push(data_frame(10, w(20), 9)).unwrap();
        sw.process_round();
        assert_eq!(sw.cache_stats().hits, before.hits + 1);
        assert!(sw.cache_stats().hit_ratio() > 0.5);
        while let Ok(Some(_)) = wp2.rx.pop() {}
    }

    #[test]
    fn headless_queue_is_bounded_and_sheds_oldest() {
        let (sw, boot) = Switch::new(SwitchConfig::new(1));
        drop(boot);
        let ch = sw.connect_controller(1).unwrap();
        drop(ch);
        sw.attach_worker(PortNo(1)); // → headless
        assert!(sw.is_headless());
        for i in 0..(HEADLESS_QUEUE_CAP as u32 + 10) {
            sw.send_event(OfMessage::EchoRequest(u64::from(i)));
        }
        assert_eq!(sw.headless_queue_len(), HEADLESS_QUEUE_CAP);
        assert!(sw.headless_dropped() >= 10, "oldest events shed");
    }

    #[test]
    fn spawned_datapath_forwards_in_background() {
        let (sw, ch) = Switch::new(SwitchConfig::new(1));
        let wp1 = sw.attach_worker(PortNo(1));
        let wp2 = sw.attach_worker(PortNo(2));
        send_ctrl(&ch, local_rule(10, 1, 20, 2));
        let handle = sw.spawn();
        wp1.tx.push(data_frame(10, w(20), 0x55)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let got = loop {
            if let Some(f) = wp2.rx.pop().unwrap() {
                break f;
            }
            assert!(Instant::now() < deadline, "frame never delivered");
            std::thread::sleep(Duration::from_micros(100));
        };
        assert_eq!(got.payload[0], 0x55);
        handle.stop();
    }
}

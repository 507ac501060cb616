//! A running workload: cluster boot, counters, control events.

use crate::components::CountWords;
use crate::components::{AggBook, SeqSink, SinkCheck, SinkLogs, SplitWords, SumAggregator};
use crate::pace::{mix, payload, PacedSpout, Pacer, Schedule, Shape, Window, CLOSED, OPEN};
use crate::spans::Spans;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use typhoon_controller::apps::FaultDetector;
use typhoon_core::manager::ManagerConfig;
use typhoon_core::update::plan_update;
use typhoon_core::worker::WorkerShared;
use typhoon_core::TyphoonTopologyHandle;
use typhoon_core::{RecoveryReport, SchedulerKind, TyphoonCluster, TyphoonConfig};
use typhoon_model::{
    ComponentRegistry, Fields, Grouping, HostId, LogicalTopology, PhysicalTopology, ReconfigOp,
    ReconfigRequest,
};

/// Which of the three workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// §6.1 two-worker chain, REMOTE, acked.
    Forward,
    /// Fig. 9 one source → six sinks over `Grouping::All`, unacked.
    Broadcast,
    /// Replayable word count under live reconfiguration and crashes.
    Control,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "forward" => Some(Kind::Forward),
            "broadcast" => Some(Kind::Broadcast),
            "control" => Some(Kind::Control),
            _ => None,
        }
    }

    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Forward => "forward",
            Kind::Broadcast => "broadcast",
            Kind::Control => "control",
        }
    }
}

/// Everything that defines one workload.
pub struct Spec {
    /// The workload.
    pub kind: Kind,
    /// Open-loop rate (roots per second).
    pub rate: f64,
    /// Payload bytes of `(seq, due, payload)` tuples.
    pub payload_len: usize,
    /// I/O batch size.
    pub batch: usize,
    /// Node that scales out and back in, with its base parallelism.
    pub scale: (&'static str, usize),
    /// Edge that is regrouped, and the grouping it flips to and back from.
    pub regroup: (&'static str, &'static str, Grouping, Grouping),
    /// Node one of whose tasks is crashed.
    pub crash: &'static str,
}

impl Spec {
    /// The spec of `kind`.
    pub fn of(kind: Kind) -> Spec {
        match kind {
            Kind::Forward => Spec {
                kind,
                rate: 20_000.0,
                payload_len: 100,
                batch: 100,
                scale: ("sink", 1),
                regroup: ("source", "sink", Grouping::Global, Grouping::Shuffle),
                crash: "sink",
            },
            Kind::Broadcast => Spec {
                kind,
                rate: 100_000.0,
                payload_len: 100,
                batch: 100,
                scale: ("sink", 6),
                regroup: ("source", "sink", Grouping::All, Grouping::Shuffle),
                crash: "sink",
            },
            Kind::Control => Spec {
                kind,
                rate: 2_000.0,
                payload_len: 0,
                batch: 100,
                scale: ("count", 2),
                regroup: (
                    "input",
                    "split",
                    Grouping::Shuffle,
                    Grouping::Fields(vec!["sentence".into()]),
                ),
                crash: "count",
            },
        }
    }

    /// The logical topology.
    pub fn topology(&self) -> LogicalTopology {
        let b = LogicalTopology::builder(self.kind.name());
        let seq = || Fields::new(["seq", "due", "payload"]);
        match self.kind {
            Kind::Forward => b
                .spout("source", "paced", 1, seq())
                .bolt("sink", "sink", 1, Fields::new(["seq"]))
                .edge("source", "sink", Grouping::Global),
            Kind::Broadcast => b
                .spout("source", "paced", 1, seq())
                .bolt("sink", "sink", 6, Fields::new(["seq"]))
                .edge("source", "sink", Grouping::All),
            Kind::Control => b
                .spout("input", "paced", 1, Fields::new(["sentence", "due"]))
                .bolt("split", "split", 2, Fields::new(["word", "due"]))
                .bolt_with_state(
                    "count",
                    "count",
                    2,
                    Fields::new(["word", "count", "lineage", "due"]),
                    true,
                )
                .bolt("aggregator", "agg", 1, Fields::new(["word"]))
                .edge("input", "split", Grouping::Shuffle)
                .edge("split", "count", Grouping::Fields(vec!["word".into()]))
                .edge("count", "aggregator", Grouping::Global),
        }
        .build()
        .expect("valid topology")
    }

    /// The cluster configuration.
    pub fn config(&self) -> TyphoonConfig {
        let heartbeat = Duration::from_secs(5);
        match self.kind {
            Kind::Forward => {
                let mut c = TyphoonConfig::new(3)
                    .with_tcp_tunnels()
                    .with_acking(Duration::from_secs(10), 2048);
                c.slots_per_host = 1;
                c
            }
            Kind::Broadcast => {
                let mut c = TyphoonConfig::new(3).with_tcp_tunnels();
                c.slots_per_host = 3;
                c
            }
            Kind::Control => {
                let mut c = TyphoonConfig::new(2)
                    .with_acking(Duration::from_secs(5), 1024)
                    .with_checkpoints(Duration::from_millis(100));
                c.slots_per_host = 8;
                c.scheduler = SchedulerKind::RoundRobin;
                c
            }
        }
        .with_batch_size(self.batch)
        .with_recovery(heartbeat)
    }

    /// The source's tuple shape.
    pub fn shape(&self, seed: u64) -> Shape {
        match self.kind {
            Kind::Control => Shape::Sentence(seed),
            _ => Shape::Seq(payload(seed, self.payload_len)),
        }
    }
}

/// Summed worker counters at one instant.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// When taken.
    pub at: Option<Instant>,
    /// Roots emitted at the spout (first attempts).
    pub emitted: u64,
    /// Roots acked.
    pub acked: u64,
    /// Sink deliveries.
    pub delivered: u64,
    /// Tuple serializations, cluster-wide.
    pub ser: u64,
    /// Flow-cache hits (positive + negative) and misses.
    pub cache_hits: u64,
    /// Flow-cache misses.
    pub cache_misses: u64,
    /// Table misses, all switches.
    pub switch_misses: u64,
    /// Worker frames pushed to the switch.
    pub frames_tx: u64,
    /// Worker frames dropped at a full ring.
    pub tx_dropped: u64,
    /// Sum and count of `io.batch_occupancy`.
    pub batch_sum: f64,
    /// Count of `io.batch_occupancy` samples.
    pub batch_n: u64,
    /// `acks.failed` + `acks.spout_timeout`.
    pub acks_failed: u64,
}

/// One control event's outcome.
#[derive(Debug, Clone)]
pub struct Event {
    /// `scale_out`, `scale_in`, `regroup` or `recover`.
    pub kind: &'static str,
    /// Wall time; `None` when the event failed.
    pub took: Option<Duration>,
    /// The fixed waits the update protocol sleeps through for it.
    pub waits: Duration,
    /// Flow rules that differ between the shapes before and after.
    pub rules_changed: usize,
    /// The recovery report (crash events).
    pub report: Option<RecoveryReport>,
}

/// The shapes before and after the first scale-out.
#[derive(Clone)]
pub struct Shapes {
    /// Logical before.
    pub before_l: LogicalTopology,
    /// Physical before.
    pub before_p: PhysicalTopology,
    /// Logical after.
    pub after_l: LogicalTopology,
    /// Physical after.
    pub after_p: PhysicalTopology,
}

/// A booted cluster running the workload's topology.
pub struct Live {
    /// The cluster.
    pub cluster: TyphoonCluster,
    /// The topology.
    pub handle: TyphoonTopologyHandle,
    /// The source's pacer.
    pub pacer: Arc<Pacer>,
    /// Sink logs (forward, broadcast).
    pub sinks: SinkLogs,
    /// Aggregator book (control).
    pub agg: Arc<Mutex<AggBook>>,
    /// Results delivered to the final node.
    pub delivered: Arc<AtomicU64>,
    /// Latency window.
    pub window: Arc<Window>,
    /// Every worker ever seen (registries outlive their workers).
    workers: Vec<WorkerShared>,
    /// The first scale-out's shapes.
    pub shapes: Option<Shapes>,
    /// Whether the main thread samples queue depths (traced runs).
    pub traced: bool,
    /// Deepest worker egress queue sampled so far (traced runs).
    pub qmax: i64,
}

impl Live {
    /// Boots the cluster, submits, and waits for the first result; the
    /// time this takes is the benchmark's set-up time.
    pub fn boot(spec: &Spec, seed: u64) -> Result<(Live, Duration), String> {
        let window = Arc::new(Window::default());
        let mode = if spec.kind == Kind::Forward {
            CLOSED
        } else {
            OPEN
        };
        let schedule = Schedule {
            rate: spec.rate,
            seed,
        };
        let pacer = Pacer::new(mode, schedule, window.clone());
        let sinks: SinkLogs = Arc::default();
        let agg: Arc<Mutex<AggBook>> = Arc::default();
        let delivered = Arc::new(AtomicU64::new(0));
        let mut reg = ComponentRegistry::new();
        {
            let (pacer, shape, batch) = (pacer.clone(), spec.shape(seed), spec.batch);
            reg.register_spout("paced", move || {
                PacedSpout::new(pacer.clone(), shape.clone(), batch)
            });
        }
        let check = if spec.kind == Kind::Broadcast {
            SinkCheck::Ordered
        } else {
            SinkCheck::Counts
        };
        {
            let (sinks, window, delivered) = (sinks.clone(), window.clone(), delivered.clone());
            reg.register_bolt("sink", move || {
                SeqSink::new(&sinks, check, window.clone(), delivered.clone())
            });
        }
        reg.register_bolt("split", || SplitWords);
        reg.register_bolt("count", CountWords::new);
        {
            let (book, window, delivered) = (agg.clone(), window.clone(), delivered.clone());
            reg.register_bolt("agg", move || SumAggregator {
                book: book.clone(),
                window: window.clone(),
                delivered: delivered.clone(),
            });
        }
        let t0 = Instant::now();
        let cluster = TyphoonCluster::new(spec.config(), reg).map_err(|e| e.to_string())?;
        cluster.add_control_app(|| Box::new(FaultDetector::new()));
        let handle = cluster.submit(spec.topology()).map_err(|e| e.to_string())?;
        let first = wait_until(Duration::from_secs(30), || {
            delivered.load(Ordering::Relaxed) > 0
        });
        let setup = t0.elapsed();
        let mut live = Live {
            cluster,
            handle,
            pacer,
            sinks,
            agg,
            delivered,
            window,
            workers: Vec::new(),
            shapes: None,
            traced: false,
            qmax: 0,
        };
        if !first {
            live.shutdown();
            return Err("no result within 30 s of submit".into());
        }
        if let Err(e) = live.check_placement(spec) {
            live.shutdown();
            return Err(e);
        }
        live.track_workers();
        Ok((live, setup))
    }

    /// Refuses a placement other than the one the workload is defined on:
    /// `forward`'s source and sink on different hosts, `broadcast`'s sinks
    /// on all three hosts.
    fn check_placement(&self, spec: &Spec) -> Result<(), String> {
        let p = self.handle.physical().map_err(|e| e.to_string())?;
        let hosts = |node: &str| {
            let mut h: Vec<HostId> = p
                .assignments
                .iter()
                .filter(|a| a.node == node)
                .map(|a| a.host)
                .collect();
            h.sort_unstable();
            h.dedup();
            h
        };
        let ok = match spec.kind {
            Kind::Forward => hosts("source") != hosts("sink"),
            Kind::Broadcast => hosts("sink").len() == 3,
            Kind::Control => true,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("unexpected placement: {:?}", p.by_host()))
        }
    }

    /// Adds the current workers to the tracked set.
    pub fn track_workers(&mut self) {
        let Ok(p) = self.handle.physical() else {
            return;
        };
        for a in &p.assignments {
            if let Some(w) = self.handle.worker(a.task) {
                if !self.workers.iter().any(|k| Arc::ptr_eq(&k.ready, &w.ready)) {
                    self.workers.push(w);
                }
            }
        }
    }

    /// Sums every counter the per-layer metrics read.
    pub fn counters(&self) -> Counters {
        let mut c = Counters {
            at: Some(Instant::now()),
            emitted: self.pacer.emitted.load(Ordering::Relaxed),
            acked: self.pacer.acked.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            ser: self.cluster.ser_stats().counts().0,
            ..Counters::default()
        };
        let cache = self.cluster.cache_stats();
        c.cache_hits = cache.hits + cache.negative_hits;
        c.cache_misses = cache.misses;
        c.switch_misses = (0..)
            .map_while(|h| self.cluster.switch(HostId(h)))
            .map(|sw| sw.miss_count())
            .sum();
        for w in &self.workers {
            let s = w.registry.snapshot();
            c.frames_tx += s.counter("io.frames_tx");
            c.tx_dropped += s.counter("io.tx_dropped");
            c.acks_failed += s.counter("acks.failed") + s.counter("acks.spout_timeout");
            if let Some(&(n, mean, _, _)) = s.histograms.get("io.batch_occupancy") {
                c.batch_n += n;
                c.batch_sum += n as f64 * mean;
            }
        }
        c
    }

    /// Waits until `deadline`; a traced run samples the workers' queue
    /// depths every 10 ms meanwhile.
    pub fn pause_until(&mut self, deadline: Instant) {
        while Instant::now() < deadline {
            if self.traced {
                let depth = self
                    .workers
                    .iter()
                    .map(|w| w.registry.snapshot().gauge("queue.depth"));
                self.qmax = self.qmax.max(depth.max().unwrap_or(0));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            std::thread::sleep(left.min(Duration::from_millis(10)));
        }
    }

    fn reshape(&mut self, op: ReconfigOp, kind: &'static str, spans: &Spans, parent: u64) -> Event {
        let name = self.handle.name().to_owned();
        let global = self.cluster.global().clone();
        let before = global
            .get_logical(&name)
            .ok()
            .zip(self.handle.physical().ok());
        let t0 = Instant::now();
        let res = spans.scope(&format!("core.reconfigure.{kind}"), parent, 0, |_| {
            self.handle.reconfigure(ReconfigRequest::single(&name, op))
        });
        let took = t0.elapsed();
        let after = global
            .get_logical(&name)
            .ok()
            .zip(self.handle.physical().ok());
        self.track_workers();
        let mut ev = Event {
            kind,
            took: res.is_ok().then_some(took),
            waits: Duration::ZERO,
            rules_changed: 0,
            report: None,
        };
        if let (Some((bl, bp)), Some((al, ap))) = (before, after) {
            let plan = plan_update(&bl, &al, &bp, &ap);
            let m = ManagerConfig::default();
            if !plan.signals.is_empty() {
                ev.waits += m.signal_wait;
            }
            if !plan.removals.is_empty() {
                ev.waits += m.drain_wait;
            }
            ev.rules_changed = rules_changed(&bl, &bp, &al, &ap);
            if kind == "scale_out" && self.shapes.is_none() {
                self.shapes = Some(Shapes {
                    before_l: bl,
                    before_p: bp,
                    after_l: al,
                    after_p: ap,
                });
            }
        }
        ev
    }

    /// Scales the spec's node to `n` tasks.
    pub fn scale(&mut self, spec: &Spec, n: usize, spans: &Spans, parent: u64) -> Event {
        let kind = if n > spec.scale.1 {
            "scale_out"
        } else {
            "scale_in"
        };
        let op = ReconfigOp::SetParallelism {
            node: spec.scale.0.into(),
            parallelism: n,
        };
        self.reshape(op, kind, spans, parent)
    }

    /// Sets the grouping of the spec's regroup edge.
    pub fn regroup(&mut self, spec: &Spec, g: Grouping, spans: &Spans, parent: u64) -> Event {
        let op = ReconfigOp::SetGrouping {
            from: spec.regroup.0.into(),
            to: spec.regroup.1.into(),
            grouping: g,
        };
        self.reshape(op, "regroup", spans, parent)
    }

    /// Crashes one task of the spec's crash node, the `k`-th crash of the
    /// run, and waits until the recovery manager reports it recovered.
    pub fn crash(&mut self, spec: &Spec, seed: u64, k: u64, spans: &Spans, parent: u64) -> Event {
        let mut ev = Event {
            kind: "recover",
            took: None,
            waits: Duration::ZERO,
            rules_changed: 0,
            report: None,
        };
        let Some(recovery) = self.cluster.recovery().cloned() else {
            return ev;
        };
        let tasks = self.handle.tasks_of(spec.crash);
        if tasks.is_empty() {
            return ev;
        }
        let victim = tasks[(mix(seed, k) % tasks.len() as u64) as usize];
        // The recovery manager polls on a fixed 20 ms tick, and a regular
        // event cadence would hit one phase of it for a whole run. Crash
        // `k` waits a golden-ratio step further into the tick, from a
        // seeded start, so every run samples the phases evenly.
        let phase = ((mix(seed, u64::MAX) >> 11) as f64 / (1u64 << 53) as f64
            + k as f64 * 0.618_033_988_749_895)
            .fract();
        std::thread::sleep(MANAGER_TICK.mul_f64(phase));
        let counter = recovery.registry().counter("recovery.recovered");
        let recovered = || counter.get();
        let before = recovered();
        let t0 = Instant::now();
        let ok = spans.scope("core.crash_to_recovered", parent, 0, |id| {
            spans.scope("core.crash_task", id, 0, |_| {
                self.handle.crash_task(victim).is_ok()
            }) && spans.scope("core.wait_recovered", id, 0, |_| {
                wait_until(Duration::from_secs(10), || recovered() > before)
            })
        });
        if ok {
            ev.took = Some(t0.elapsed());
            ev.report = recovery.reports().last().cloned();
        }
        self.track_workers();
        ev
    }

    /// Stops every worker, switch and the control plane.
    pub fn shutdown(&self) {
        self.cluster.shutdown();
    }
}

/// Flow rules present in one shape's plan and not in the other's.
pub fn rules_changed(
    bl: &LogicalTopology,
    bp: &PhysicalTopology,
    al: &LogicalTopology,
    ap: &PhysicalTopology,
) -> usize {
    use std::collections::BTreeSet;
    let keys = |l, p| {
        let plan = typhoon_controller::build_rules(l, p);
        plan.flows
            .iter()
            .flat_map(|(h, fms)| fms.iter().map(move |fm| format!("{h:?}{fm:?}")))
            .collect::<BTreeSet<_>>()
    };
    let (b, a) = (keys(bl, bp), keys(al, ap));
    b.symmetric_difference(&a).count()
}

/// The streaming manager's housekeeping tick, on which it polls for
/// faults to recover.
const MANAGER_TICK: Duration = Duration::from_millis(20);

/// Polls `cond` every 100 µs until it holds or `timeout` passes.
pub fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= end {
            return false;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

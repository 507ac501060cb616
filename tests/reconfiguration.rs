//! Stable-update integration: the §3.5 guarantees under live traffic.
//!
//! The paper's central flexibility claims: scale up/down, routing-policy
//! changes and logic swaps must not lose tuples (stateless path) nor break
//! key affinity (stateful path with SIGNAL flushes).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};
use typhoon::prelude::*;

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// A finite spout emitting `limit` sequence numbers, pausable between
/// batches so the test can overlap emission with reconfiguration.
struct Seq {
    next: i64,
    limit: i64,
}

impl Spout for Seq {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        for _ in 0..4 {
            if self.next >= self.limit {
                return false;
            }
            out.emit(vec![Value::Int(self.next)]);
            self.next += 1;
        }
        true
    }
}

struct Relay;

impl Bolt for Relay {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        out.emit(input.values);
    }
}

#[derive(Clone, Default)]
struct SeqSet {
    seen: Arc<Mutex<Vec<i64>>>,
}

struct Collect {
    set: SeqSet,
}

impl Bolt for Collect {
    fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
        if let Some(n) = input.get(0).and_then(Value::as_int) {
            self.set.seen.lock().push(n);
        }
    }
}

const LIMIT: i64 = 200_000;

fn setup(mid: usize) -> (TyphoonCluster, TyphoonTopologyHandle, SeqSet) {
    let set = SeqSet::default();
    let mut reg = ComponentRegistry::new();
    reg.register_spout("seq", || Seq {
        next: 0,
        limit: LIMIT,
    });
    reg.register_bolt("relay", || Relay);
    let s = set.clone();
    reg.register_bolt("collect", move || Collect { set: s.clone() });
    let topo = LogicalTopology::builder("stable")
        .spout("src", "seq", 1, Fields::new(["n"]))
        .bolt("mid", "relay", mid, Fields::new(["n"]))
        .bolt("out", "collect", 1, Fields::new(["n"]))
        .edge("src", "mid", Grouping::Shuffle)
        .edge("mid", "out", Grouping::Global)
        .build()
        .unwrap();
    let cluster = TyphoonCluster::new(TyphoonConfig::new(2).with_batch_size(10), reg).unwrap();
    let handle = cluster.submit(topo).unwrap();
    (cluster, handle, set)
}

fn assert_complete(set: &SeqSet) {
    let mut seen = set.seen.lock().clone();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen.len(),
        LIMIT as usize,
        "tuples lost: {} of {LIMIT} distinct",
        seen.len()
    );
    assert_eq!(seen[0], 0);
    assert_eq!(*seen.last().unwrap(), LIMIT - 1);
}

#[test]
fn scale_up_mid_stream_loses_nothing() {
    let (cluster, handle, set) = setup(2);
    // Reconfigure while the stream is in flight (Fig. 6(a)).
    assert!(wait_until(Duration::from_secs(5), || !set
        .seen
        .lock()
        .is_empty()));
    handle
        .reconfigure(ReconfigRequest::single(
            "stable",
            ReconfigOp::SetParallelism {
                node: "mid".into(),
                parallelism: 4,
            },
        ))
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || set.seen.lock().len()
            >= LIMIT as usize),
        "only {} arrived",
        set.seen.lock().len()
    );
    assert_complete(&set);
    cluster.shutdown();
}

#[test]
fn scale_down_mid_stream_loses_nothing() {
    let (cluster, handle, set) = setup(3);
    assert!(wait_until(Duration::from_secs(5), || !set
        .seen
        .lock()
        .is_empty()));
    // Fig. 6(a) removal ordering: predecessors rerouted first, victims
    // drained, then killed — no tuple may vanish.
    handle
        .reconfigure(ReconfigRequest::single(
            "stable",
            ReconfigOp::SetParallelism {
                node: "mid".into(),
                parallelism: 1,
            },
        ))
        .unwrap();
    assert_eq!(handle.tasks_of("mid").len(), 1);
    assert!(
        wait_until(Duration::from_secs(30), || set.seen.lock().len()
            >= LIMIT as usize),
        "only {} arrived",
        set.seen.lock().len()
    );
    assert_complete(&set);
    cluster.shutdown();
}

#[test]
fn routing_policy_change_mid_stream_loses_nothing() {
    let (cluster, handle, set) = setup(3);
    assert!(wait_until(Duration::from_secs(5), || !set
        .seen
        .lock()
        .is_empty()));
    handle
        .reconfigure(ReconfigRequest::single(
            "stable",
            ReconfigOp::SetGrouping {
                from: "src".into(),
                to: "mid".into(),
                grouping: Grouping::Fields(vec!["n".into()]),
            },
        ))
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(30), || set.seen.lock().len()
            >= LIMIT as usize),
        "only {} arrived",
        set.seen.lock().len()
    );
    assert_complete(&set);
    cluster.shutdown();
}

#[test]
fn stateful_update_flushes_cache_before_rerouting() {
    // A stateful counter keyed by word; scaling it up emits SIGNALs first
    // (Fig. 6(b)) so no cached counts are stranded in killed workers.
    #[derive(Clone, Default)]
    struct Flushed {
        events: Arc<Mutex<Vec<(String, i64)>>>,
    }
    struct KeyCount {
        counts: HashMap<String, i64>,
    }
    impl Bolt for KeyCount {
        fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
            if let Some(w) = input.get(0).and_then(Value::as_str) {
                *self.counts.entry(w.into()).or_insert(0) += 1;
            }
        }
        fn on_signal(&mut self, out: &mut dyn Emitter) {
            for (w, c) in self.counts.drain() {
                out.emit(vec![Value::Str(w), Value::Int(c)]);
            }
        }
        fn is_stateful(&self) -> bool {
            true
        }
    }
    struct FlushSink {
        flushed: Flushed,
    }
    impl Bolt for FlushSink {
        fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
            if let (Some(w), Some(c)) = (
                input.get(0).and_then(Value::as_str),
                input.get(1).and_then(Value::as_int),
            ) {
                self.flushed.events.lock().push((w.into(), c));
            }
        }
    }
    struct Words {
        i: usize,
    }
    impl Spout for Words {
        fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
            if self.i >= 3_000 {
                return false;
            }
            out.emit(vec![Value::Str(
                ["alpha", "beta", "gamma"][self.i % 3].into(),
            )]);
            self.i += 1;
            true
        }
    }

    let flushed = Flushed::default();
    let emitted = Arc::new(AtomicU64::new(0));
    let mut reg = ComponentRegistry::new();
    reg.register_spout("words", || Words { i: 0 });
    reg.register_bolt("kcount", || KeyCount {
        counts: HashMap::new(),
    });
    let f = flushed.clone();
    reg.register_bolt("fsink", move || FlushSink { flushed: f.clone() });
    let _ = emitted;

    let topo = LogicalTopology::builder("stateful")
        .spout("src", "words", 1, Fields::new(["word"]))
        .bolt_with_state("count", "kcount", 2, Fields::new(["word", "n"]), true)
        .bolt("out", "fsink", 1, Fields::new(["word", "n"]))
        .edge("src", "count", Grouping::Fields(vec!["word".into()]))
        .edge("count", "out", Grouping::Global)
        .build()
        .unwrap();
    let cluster = TyphoonCluster::new(TyphoonConfig::new(1).with_batch_size(5), reg).unwrap();
    let handle = cluster.submit(topo).unwrap();

    // Let the whole finite stream be absorbed into worker caches.
    std::thread::sleep(Duration::from_secs(3));
    assert!(flushed.events.lock().is_empty(), "no flush before update");
    handle
        .reconfigure(ReconfigRequest::single(
            "stateful",
            ReconfigOp::SetParallelism {
                node: "count".into(),
                parallelism: 3,
            },
        ))
        .unwrap();
    // The SIGNAL flush pushed every cached count downstream: the sums per
    // word must equal the full input (1000 each).
    assert!(
        wait_until(Duration::from_secs(10), || {
            let events = flushed.events.lock();
            let mut sums: HashMap<String, i64> = HashMap::new();
            for (w, c) in events.iter() {
                *sums.entry(w.clone()).or_insert(0) += c;
            }
            ["alpha", "beta", "gamma"]
                .iter()
                .all(|w| sums.get(*w).copied().unwrap_or(0) == 1_000)
        }),
        "flushed state incomplete: {:?}",
        flushed.events.lock()
    );
    cluster.shutdown();
}

/// A relay that spends about 1 ms on every tuple, so a burst leaves a
/// long backlog queued at its input.
struct SlowRelay;

impl Bolt for SlowRelay {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        std::thread::sleep(Duration::from_millis(1));
        out.emit(input.values);
    }
}

/// The burst [`backlog_setup`]'s spout emits.
const BURST: i64 = 3_000;

/// A 3000-tuple burst through three [`SlowRelay`]s (batch size 1, 2 hosts,
/// unacked), running once the first tuple reached the sink.
fn backlog_setup(config: TyphoonConfig) -> (TyphoonCluster, TyphoonTopologyHandle, SeqSet) {
    let set = SeqSet::default();
    let mut reg = ComponentRegistry::new();
    reg.register_spout("seq", || Seq {
        next: 0,
        limit: BURST,
    });
    reg.register_bolt("slow", || SlowRelay);
    let s = set.clone();
    reg.register_bolt("collect", move || Collect { set: s.clone() });
    let topo = LogicalTopology::builder("backlog")
        .spout("src", "seq", 1, Fields::new(["n"]))
        .bolt("mid", "slow", 3, Fields::new(["n"]))
        .bolt("out", "collect", 1, Fields::new(["n"]))
        .edge("src", "mid", Grouping::Shuffle)
        .edge("mid", "out", Grouping::Global)
        .build()
        .unwrap();
    let cluster = TyphoonCluster::new(config.with_batch_size(1), reg).unwrap();
    let handle = cluster.submit(topo).unwrap();
    assert!(wait_until(Duration::from_secs(10), || !set
        .seen
        .lock()
        .is_empty()));
    (cluster, handle, set)
}

fn shrink_mid() -> ReconfigRequest {
    ReconfigRequest::single(
        "backlog",
        ReconfigOp::SetParallelism {
            node: "mid".into(),
            parallelism: 1,
        },
    )
}

fn assert_burst_complete(set: &SeqSet) {
    let complete = wait_until(Duration::from_secs(60), || {
        set.seen.lock().len() >= BURST as usize
    });
    let mut seen = set.seen.lock().clone();
    seen.sort_unstable();
    seen.dedup();
    assert!(
        complete && seen.len() == BURST as usize,
        "tuples lost: {} of {BURST} distinct arrived",
        seen.len()
    );
}

#[test]
fn scale_down_with_backlog_loses_nothing() {
    // About 1 s of queued input per relay when the scale-down lands: the
    // retired relays may be killed only after their predecessor's last
    // tuple, however long that takes to work off.
    let (cluster, handle, set) = backlog_setup(TyphoonConfig::new(2));
    handle.reconfigure(shrink_mid()).unwrap();
    assert_eq!(handle.tasks_of("mid").len(), 1);
    assert_burst_complete(&set);
    cluster.shutdown();
}

#[test]
fn drain_fence_is_reissued_through_the_successor_leader() {
    // The leader dies while the retired relays are still working off
    // their backlog; the successor re-issues their fences, and the kill
    // still follows the last tuple.
    let (cluster, handle, set) = backlog_setup(TyphoonConfig::new(2).with_controller_replicas(2));
    let src = handle.worker(handle.tasks_of("src")[0]).unwrap();
    let updater = {
        let handle = handle.clone();
        std::thread::spawn(move || handle.reconfigure(shrink_mid()))
    };
    // The markers leave right after the ROUTING update, and the fences
    // right after them.
    assert!(wait_until(Duration::from_secs(10), || src
        .registry
        .snapshot()
        .counter("control.drain_sent")
        == 2));
    assert!(cluster.control_plane().crash_leader().is_some());
    updater
        .join()
        .unwrap()
        .expect("reconfiguration survives the failover");
    assert_eq!(handle.tasks_of("mid").len(), 1);
    assert_burst_complete(&set);
    let plane = cluster.control_plane().registry().snapshot();
    assert_eq!(plane.counter("controller.ha.failovers"), 1);
    assert_eq!(plane.counter("reconfig.fence_timeouts"), 0);
    cluster.shutdown();
}

/// [`Seq`] at a few thousand tuples/s: the stream is still flowing when
/// the reconfiguration lands, and leaves the CPU to the other tests.
struct Paced {
    seq: Seq,
}

impl Spout for Paced {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        std::thread::sleep(Duration::from_millis(1));
        self.seq.next_batch(out)
    }
}

#[test]
fn broadcast_scale_in_fences_without_markers() {
    // Grouping::All members take no drain marker (a unicast frame to one
    // would miss the flow table); their fence follows the new-shape rule
    // install instead, which already took them out of the group.
    const STREAM: i64 = 8_000;
    let logs: Arc<Mutex<Vec<SeqSet>>> = Arc::default();
    let mut reg = ComponentRegistry::new();
    reg.register_spout("seq", || Paced {
        seq: Seq {
            next: 0,
            limit: STREAM,
        },
    });
    let l = logs.clone();
    reg.register_bolt("collect", move || {
        let set = SeqSet::default();
        l.lock().push(set.clone());
        Collect { set }
    });
    let topo = LogicalTopology::builder("fanout")
        .spout("src", "seq", 1, Fields::new(["n"]))
        .bolt("sink", "collect", 3, Fields::new(["n"]))
        .edge("src", "sink", Grouping::All)
        .build()
        .unwrap();
    let cluster = TyphoonCluster::new(TyphoonConfig::new(2).with_batch_size(10), reg).unwrap();
    let handle = cluster.submit(topo).unwrap();
    let delivered = || -> usize { logs.lock().iter().map(|s| s.seen.lock().len()).sum() };
    assert!(wait_until(Duration::from_secs(5), || delivered() > 0));
    handle
        .reconfigure(ReconfigRequest::single(
            "fanout",
            ReconfigOp::SetParallelism {
                node: "sink".into(),
                parallelism: 2,
            },
        ))
        .expect("broadcast scale-in completes");
    assert_eq!(handle.tasks_of("sink").len(), 2);
    // The stream keeps flowing to the survivors after the update.
    assert!(
        wait_until(Duration::from_secs(30), || logs.lock().iter().any(|s| s
            .seen
            .lock()
            .last()
            == Some(&(STREAM - 1)))),
        "the stream stalled after the scale-in"
    );
    for (i, set) in logs.lock().iter().enumerate() {
        let seen = set.seen.lock();
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "sink instance {i} saw a seq twice or out of order"
        );
    }
    let timeouts = cluster
        .control_plane()
        .registry()
        .snapshot()
        .counter("reconfig.fence_timeouts");
    assert_eq!(timeouts, 0, "a broadcast member's fence ran to its ceiling");
    cluster.shutdown();
}

//! The load generator: a seeded emission schedule and the spouts that
//! pace themselves against it on their own worker thread.
//!
//! Tuple `k` of an open loop is due `(k + u_k) / rate` seconds after the
//! loop starts, where `u_k ∈ [0, 1)` is drawn from the seed. Every tuple
//! carries its due time, so the sinks time it from when it was due, not
//! from when the spout got round to sending it: a stall counts against
//! every tuple it delays.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use typhoon_model::{Emitter, Spout};
use typhoon_tuple::Value;

/// Nanoseconds since the process-wide benchmark epoch; every timestamp a
/// tuple carries uses this clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // +1 keeps every real timestamp non-zero (0 means "unset").
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 + 1
}

/// splitmix64: the one hash every seeded input derives from.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut x = seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded open-loop schedule at a fixed mean rate.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Mean tuples per second.
    pub rate: f64,
    /// Seed of the per-tuple jitter.
    pub seed: u64,
}

impl Schedule {
    /// When tuple `k` is due, in nanoseconds after the loop start.
    pub fn offset_ns(&self, k: u64) -> u64 {
        let u = (mix(self.seed, k) >> 11) as f64 / (1u64 << 53) as f64;
        ((k as f64 + u) / self.rate * 1e9) as u64
    }

    /// How many tuples are due `elapsed_ns` after the start. Tuple `k` is
    /// due in `[k, k + 1) / rate`, so only tuple `floor(elapsed · rate)`
    /// needs its jitter looked at. Negative elapsed time (before the
    /// start) has nothing due.
    pub fn due(&self, elapsed_ns: i64) -> u64 {
        if elapsed_ns < 0 {
            return 0;
        }
        let m = (elapsed_ns as f64 * self.rate / 1e9) as u64;
        m + u64::from(self.offset_ns(m) <= elapsed_ns as u64)
    }
}

/// Closed loop: emit as fast as the pending window allows.
pub const CLOSED: u8 = 0;
/// Open loop: emit what the schedule says is due.
pub const OPEN: u8 = 1;
/// No new roots (replays still go out).
pub const STOP: u8 = 2;

/// A `[start, end)` time window in benchmark-epoch nanoseconds, cut into
/// equal slices; samples whose due time falls outside it are not
/// recorded.
#[derive(Default)]
pub struct Window {
    start: AtomicU64,
    end: AtomicU64,
    slice: AtomicU64,
}

impl Window {
    /// Opens the window now, with no end yet, cut into `slice`-long slices.
    pub fn open(&self, slice: std::time::Duration) {
        self.end.store(u64::MAX, Ordering::Release);
        self.slice
            .store(slice.as_nanos().max(1) as u64, Ordering::Release);
        self.start.store(now_ns(), Ordering::Release);
    }

    /// Closes the window now.
    pub fn close(&self) {
        self.end.store(now_ns(), Ordering::Release);
    }

    /// Whether a tuple due at `t` falls inside the window.
    pub fn contains(&self, t: u64) -> bool {
        self.slice_of(t).is_some()
    }

    /// The slice a tuple due at `t` falls in, if inside the window.
    pub fn slice_of(&self, t: u64) -> Option<usize> {
        let s = self.start.load(Ordering::Relaxed);
        (s != 0 && t >= s && t < self.end.load(Ordering::Relaxed))
            .then(|| ((t - s) / self.slice.load(Ordering::Relaxed)) as usize)
    }
}

/// Pushes a sample into slice `i` of per-slice sample lists.
pub fn push_slice(slices: &mut Vec<Vec<u32>>, i: usize, v: u32) {
    if slices.len() <= i {
        slices.resize_with(i + 1, Vec::new);
    }
    slices[i].push(v);
}

/// What the spout remembers per root, and what the oracles read.
#[derive(Default)]
pub struct Book {
    /// In-flight roots: root → (seq, due time).
    pub inflight: HashMap<u64, (u64, u64)>,
    /// Failed roots waiting to be re-emitted: (seq, due time, old root).
    pub replay: Vec<(u64, u64, u64)>,
    /// Seqs whose root was acked.
    pub acked: Vec<u64>,
    /// Seqs whose root failed at least once.
    pub failed: Vec<u64>,
    /// Generator lag samples (ns), open loop, inside the window.
    pub lag: Vec<u64>,
}

/// The bench's side of a paced spout: mode switches and counters.
pub struct Pacer {
    mode: AtomicU8,
    /// Open-loop start (epoch ns); 0 until the spout's first open call.
    open_start: AtomicU64,
    /// First seq of the open loop.
    open_base: AtomicU64,
    /// The open-loop schedule.
    pub schedule: Schedule,
    /// Roots emitted for the first time (= next seq).
    pub emitted: AtomicU64,
    /// Roots acked.
    pub acked: AtomicU64,
    /// Latency window shared with the sinks.
    pub window: Arc<Window>,
    /// Per-root bookkeeping; locked by the spout thread per callback and
    /// by the bench only once the spout is quiet.
    pub book: Mutex<Book>,
}

impl Pacer {
    /// A pacer starting in `mode`.
    pub fn new(mode: u8, schedule: Schedule, window: Arc<Window>) -> Arc<Pacer> {
        Arc::new(Pacer {
            mode: AtomicU8::new(mode),
            open_start: AtomicU64::new(0),
            open_base: AtomicU64::new(0),
            schedule,
            emitted: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            window,
            book: Mutex::new(Book::default()),
        })
    }

    /// Switches mode; entering `OPEN` restarts the schedule at the
    /// spout's next call.
    pub fn set_mode(&self, mode: u8) {
        if mode == OPEN {
            self.open_start.store(0, Ordering::Release);
        }
        self.mode.store(mode, Ordering::Release);
    }

    /// Roots emitted but neither acked nor failed for good.
    pub fn pending(&self) -> usize {
        let b = self.book.lock().expect("book");
        b.inflight.len() + b.replay.len()
    }

    /// How many new roots to emit now, and the seq + due time of each.
    fn plan(&self, max: usize, out: &mut Vec<(u64, u64)>) {
        match self.mode.load(Ordering::Acquire) {
            CLOSED => {
                let now = now_ns();
                for _ in 0..max {
                    out.push((self.emitted.fetch_add(1, Ordering::Relaxed), now));
                }
            }
            OPEN => {
                let now = now_ns();
                let mut start = self.open_start.load(Ordering::Acquire);
                if start == 0 {
                    start = now;
                    self.open_base
                        .store(self.emitted.load(Ordering::Relaxed), Ordering::Relaxed);
                    self.open_start.store(start, Ordering::Release);
                }
                let base = self.open_base.load(Ordering::Relaxed);
                let done = self.emitted.load(Ordering::Relaxed) - base;
                let due = self.schedule.due(now as i64 - start as i64);
                let n = due.saturating_sub(done).min(max as u64);
                for k in done..done + n {
                    out.push((base + k, start + self.schedule.offset_ns(k)));
                }
                self.emitted.fetch_add(n, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// What a paced spout's tuples look like.
#[derive(Clone)]
pub enum Shape {
    /// `(seq, due, payload)`: the §6.1 sequence tuples.
    Seq(Arc<str>),
    /// `(sentence, due)`: the replayable word-count sentences.
    Sentence(u64),
}

impl Shape {
    /// The values of tuple `seq` due at `due`.
    pub fn values(&self, seq: u64, due: u64) -> Vec<Value> {
        match self {
            Shape::Seq(payload) => vec![
                Value::Int(seq as i64),
                Value::Int(due as i64),
                Value::Str(payload.to_string()),
            ],
            Shape::Sentence(seed) => vec![Value::Str(sentence(*seed, seq)), Value::Int(due as i64)],
        }
    }
}

/// The word vocabulary of the sentences.
pub const WORDS: &[&str] = &[
    "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "stream", "tuple", "switch",
    "route", "flow", "packet", "worker", "storm", "typhoon", "cloud", "data", "count",
];

/// Words per sentence.
pub const SENTENCE_WORDS: u64 = 6;

/// Sentence `seq` of seed `seed` — pure, so a replay regenerates it and
/// the oracle recomputes every count from the seed.
pub fn sentence(seed: u64, seq: u64) -> String {
    (0..SENTENCE_WORDS)
        .map(|pos| WORDS[(mix(seed ^ pos, seq) % WORDS.len() as u64) as usize])
        .collect::<Vec<_>>()
        .join(" ")
}

/// A seeded 100-byte-class payload.
pub fn payload(seed: u64, len: usize) -> Arc<str> {
    (0..len)
        .map(|i| (b'a' + (mix(seed, i as u64) % 26) as u8) as char)
        .collect::<String>()
        .into()
}

/// The spout: emits replays first, then whatever its pacer plans.
pub struct PacedSpout {
    pacer: Arc<Pacer>,
    shape: Shape,
    batch: usize,
    /// (seq, due, previous root) of each emission of the last batch.
    last: Vec<(u64, u64, Option<u64>)>,
    plan: Vec<(u64, u64)>,
}

impl PacedSpout {
    /// A spout emitting at most `batch` roots per call.
    pub fn new(pacer: Arc<Pacer>, shape: Shape, batch: usize) -> Self {
        PacedSpout {
            pacer,
            shape,
            batch,
            last: Vec::new(),
            plan: Vec::new(),
        }
    }
}

impl Spout for PacedSpout {
    fn next_batch(&mut self, out: &mut dyn Emitter) -> bool {
        self.last.clear();
        {
            let mut book = self.pacer.book.lock().expect("book");
            while self.last.len() < self.batch {
                match book.replay.pop() {
                    Some((seq, due, old)) => self.last.push((seq, due, Some(old))),
                    None => break,
                }
            }
        }
        self.plan.clear();
        self.pacer
            .plan(self.batch - self.last.len(), &mut self.plan);
        if !self.plan.is_empty() {
            let now = now_ns();
            let window = &self.pacer.window;
            let mut book = self.pacer.book.lock().expect("book");
            for &(seq, due) in &self.plan {
                if window.contains(due) {
                    book.lag.push(now.saturating_sub(due));
                }
                self.last.push((seq, due, None));
            }
        }
        for &(seq, due, _) in &self.last {
            out.emit(self.shape.values(seq, due));
        }
        !self.last.is_empty()
    }

    fn emitted(&mut self, index: usize, root: u64) {
        if let Some(&(seq, due, _)) = self.last.get(index) {
            self.pacer
                .book
                .lock()
                .expect("book")
                .inflight
                .insert(root, (seq, due));
        }
    }

    fn replay_root(&mut self, index: usize) -> Option<u64> {
        self.last.get(index).and_then(|e| e.2)
    }

    fn ack(&mut self, root: u64) {
        let mut book = self.pacer.book.lock().expect("book");
        if let Some((seq, _)) = book.inflight.remove(&root) {
            book.acked.push(seq);
            self.pacer.acked.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn fail(&mut self, root: u64) {
        let mut book = self.pacer.book.lock().expect("book");
        if let Some((seq, due)) = book.inflight.remove(&root) {
            book.failed.push(seq);
            book.replay.push((seq, due, root));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_model::VecEmitter;

    fn sched() -> Schedule {
        Schedule {
            rate: 20_000.0,
            seed: 7,
        }
    }

    #[test]
    fn nothing_is_due_before_the_start() {
        let s = sched();
        assert_eq!(s.due(-1), 0);
        assert_eq!(s.due(i64::MIN / 2), 0);
        assert_eq!(s.due(0), u64::from(s.offset_ns(0) == 0));
    }

    #[test]
    fn due_counts_exactly_the_tuples_whose_time_has_come() {
        let s = sched();
        let offsets: Vec<u64> = (0..5000).map(|k| s.offset_ns(k)).collect();
        assert!(offsets.windows(2).all(|w| w[0] < w[1]), "monotonic");
        for (k, &t) in offsets.iter().enumerate().take(4000) {
            assert_eq!(s.due(t as i64), k as u64 + 1, "tuple {k} due at its time");
            assert_eq!(s.due(t as i64 - 1), k as u64, "and not a ns earlier");
        }
        // The mean rate holds: 20 k tuples in the first second, ±1.
        let n = s.due(1_000_000_000);
        assert!((19_999..=20_001).contains(&n), "{n}");
    }

    #[test]
    fn the_spout_follows_its_schedule_with_no_burst_at_the_start() {
        let pacer = Pacer::new(OPEN, sched(), Arc::new(Window::default()));
        let mut spout = PacedSpout::new(pacer.clone(), Shape::Seq(payload(1, 8)), 1 << 20);
        let mut out = VecEmitter::default();
        let t0 = now_ns();
        spout.next_batch(&mut out);
        assert!(out.emitted.len() <= 1, "first call emits at most tuple 0");
        std::thread::sleep(std::time::Duration::from_millis(30));
        spout.next_batch(&mut out);
        let start = pacer.open_start.load(Ordering::Relaxed);
        assert!(start >= t0);
        let elapsed = now_ns() - start;
        let n = out.emitted.len() as u64;
        assert!(n <= pacer.schedule.due(elapsed as i64), "never ahead");
        assert!(
            n >= pacer.schedule.due(elapsed as i64 - 5_000_000),
            "not behind"
        );
        // Every emission carries its scheduled time, in order.
        for (k, (_, v)) in out.emitted.iter().enumerate() {
            assert_eq!(v[0].as_int(), Some(k as i64));
            let due = v[1].as_int().unwrap() as u64;
            assert_eq!(due, start + pacer.schedule.offset_ns(k as u64));
        }
    }

    #[test]
    fn stopped_spouts_only_replay() {
        let pacer = Pacer::new(CLOSED, sched(), Arc::new(Window::default()));
        let mut spout = PacedSpout::new(pacer.clone(), Shape::Sentence(3), 4);
        let mut out = VecEmitter::default();
        assert!(spout.next_batch(&mut out));
        for i in 0..4 {
            spout.emitted(i, 100 + i as u64);
        }
        spout.fail(101);
        pacer.set_mode(STOP);
        out.emitted.clear();
        assert!(spout.next_batch(&mut out));
        assert_eq!(out.emitted.len(), 1, "only the failed root");
        assert_eq!(out.emitted[0].1[0].as_str(), Some(sentence(3, 1).as_str()));
        assert_eq!(spout.replay_root(0), Some(101));
        assert!(!spout.next_batch(&mut out));
    }
}

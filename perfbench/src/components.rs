//! Bench-owned sinks and word-count bolts.
//!
//! Every sink task logs into its own `Mutex`-guarded log, which only that
//! task's worker thread locks while the run is live; the bench reads the
//! logs once the traffic has stopped. No two tasks share a lock.

use crate::oracle::FanState;
use crate::pace::{now_ns, push_slice, Window};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use typhoon_model::{Bolt, Emitter};
use typhoon_tuple::{Tuple, Value};

/// Latency samples are kept exactly, in ns, saturating at ~4.3 s.
fn lat_sample(due: u64) -> u32 {
    now_ns().saturating_sub(due).min(u32::MAX as u64) as u32
}

/// One sink task's log.
#[derive(Default)]
pub struct SinkLog {
    /// Latency samples (ns) of tuples due inside the window, per slice.
    pub lat: Vec<Vec<u32>>,
    /// Deliveries per seq (forward).
    pub seq_counts: Vec<u8>,
    /// Order/at-most-once tracking (broadcast).
    pub fan: FanState,
}

/// Every sink log of one run, in launch order.
pub type SinkLogs = Arc<Mutex<Vec<Arc<Mutex<SinkLog>>>>>;

/// How a sink checks what it receives.
#[derive(Clone, Copy)]
pub enum SinkCheck {
    /// Count deliveries per seq (exactly-once check).
    Counts,
    /// Each seq at most once and in order.
    Ordered,
}

/// The `(seq, due, payload)` sink.
pub struct SeqSink {
    log: Arc<Mutex<SinkLog>>,
    check: SinkCheck,
    window: Arc<Window>,
    delivered: Arc<AtomicU64>,
}

impl SeqSink {
    /// A sink registering a fresh log in `logs`.
    pub fn new(
        logs: &SinkLogs,
        check: SinkCheck,
        window: Arc<Window>,
        delivered: Arc<AtomicU64>,
    ) -> Self {
        let log = Arc::new(Mutex::new(SinkLog::default()));
        logs.lock().expect("logs").push(log.clone());
        SeqSink {
            log,
            check,
            window,
            delivered,
        }
    }
}

impl Bolt for SeqSink {
    fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
        let seq = input.get(0).and_then(Value::as_int).unwrap_or(-1);
        let due = input.get(1).and_then(Value::as_int).unwrap_or(0) as u64;
        let mut log = self.log.lock().expect("sink log");
        if let Some(i) = self.window.slice_of(due) {
            let l = lat_sample(due);
            push_slice(&mut log.lat, i, l);
        }
        if seq >= 0 {
            let seq = seq as u64;
            match self.check {
                SinkCheck::Counts => {
                    let i = seq as usize;
                    if log.seq_counts.len() <= i {
                        log.seq_counts.resize(i + 1, 0);
                    }
                    log.seq_counts[i] = log.seq_counts[i].saturating_add(1);
                }
                SinkCheck::Ordered => log.fan.observe(seq),
            }
        }
        drop(log);
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }
}

/// Splits `(sentence, due)` into `(word, due)`.
pub struct SplitWords;

impl Bolt for SplitWords {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        let due = input.get(1).cloned().unwrap_or(Value::Int(-1));
        if let Some(sentence) = input.get(0).and_then(Value::as_str) {
            for word in sentence.split_whitespace() {
                out.emit(vec![Value::Str(word.to_owned()), due.clone()]);
            }
        }
    }
}

/// Key under which a count task checkpoints its lineage.
const LINEAGE_KEY: &str = "\u{1}lineage";

/// A stateful word counter whose state survives every reconfiguration.
///
/// Each emission is `(word, running count, lineage, due)`. The lineage
/// names the state a count belongs to: fresh for every new instance,
/// carried across a crash through the checkpoint. `SIGNAL` flushes the
/// counts without clearing them, so keys that move to another task keep
/// their final count under the old lineage.
pub struct CountWords {
    counts: HashMap<String, i64>,
    lineage: i64,
}

impl CountWords {
    /// A counter with a lineage no other instance has.
    pub fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        CountWords {
            counts: HashMap::new(),
            lineage: NEXT.fetch_add(1, Ordering::Relaxed) as i64,
        }
    }

    fn flush(&self, out: &mut dyn Emitter) {
        for (word, &c) in &self.counts {
            out.emit(vec![
                Value::Str(word.clone()),
                Value::Int(c),
                Value::Int(self.lineage),
                Value::Int(-1),
            ]);
        }
    }
}

impl Default for CountWords {
    fn default() -> Self {
        Self::new()
    }
}

impl Bolt for CountWords {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        if let Some(word) = input.get(0).and_then(Value::as_str) {
            let c = self.counts.entry(word.to_owned()).or_insert(0);
            *c += 1;
            let due = input.get(1).cloned().unwrap_or(Value::Int(-1));
            out.emit(vec![
                Value::Str(word.to_owned()),
                Value::Int(*c),
                Value::Int(self.lineage),
                due,
            ]);
        }
    }

    fn on_signal(&mut self, out: &mut dyn Emitter) {
        self.flush(out);
    }

    fn is_stateful(&self) -> bool {
        true
    }

    fn checkpoint(&self) -> Option<Vec<(String, Value)>> {
        let mut state: Vec<(String, Value)> = self
            .counts
            .iter()
            .map(|(w, &c)| (w.clone(), Value::Int(c)))
            .collect();
        state.push((LINEAGE_KEY.to_owned(), Value::Int(self.lineage)));
        state.sort_by(|a, b| a.0.cmp(&b.0));
        Some(state)
    }

    fn restore(&mut self, state: Vec<(String, Value)>, out: &mut dyn Emitter) {
        self.counts.clear();
        for (key, v) in state {
            let v = v.as_int().unwrap_or(0);
            if key == LINEAGE_KEY {
                self.lineage = v;
            } else {
                self.counts.insert(key, v);
            }
        }
        self.flush(out);
    }
}

/// What the aggregator has seen.
#[derive(Default)]
pub struct AggBook {
    /// (lineage, word) → highest running count seen.
    pub counts: HashMap<(i64, String), i64>,
    /// Latency samples (ns) of counts whose sentence was due in the
    /// window, per slice.
    pub lat: Vec<Vec<u32>>,
}

/// The word-count sink: keeps the highest count per (lineage, word); a
/// word's total is the sum over lineages.
pub struct SumAggregator {
    /// Shared with the bench.
    pub book: Arc<Mutex<AggBook>>,
    /// Latency window.
    pub window: Arc<Window>,
    /// Count tuples received.
    pub delivered: Arc<AtomicU64>,
}

impl Bolt for SumAggregator {
    fn execute(&mut self, input: Tuple, _out: &mut dyn Emitter) {
        let (Some(word), Some(count), Some(lineage)) = (
            input.get(0).and_then(Value::as_str),
            input.get(1).and_then(Value::as_int),
            input.get(2).and_then(Value::as_int),
        ) else {
            return;
        };
        let due = input.get(3).and_then(Value::as_int).unwrap_or(-1);
        let mut book = self.book.lock().expect("agg book");
        if let Some(i) = self.window.slice_of(due.max(0) as u64) {
            let l = lat_sample(due as u64);
            push_slice(&mut book.lat, i, l);
        }
        let slot = book.counts.entry((lineage, word.to_owned())).or_insert(0);
        *slot = (*slot).max(count);
        drop(book);
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_model::VecEmitter;
    use typhoon_tuple::tuple::TaskId;

    fn word(w: &str) -> Tuple {
        Tuple::new(TaskId(0), vec![Value::Str(w.into()), Value::Int(5)])
    }

    #[test]
    fn signal_flushes_without_clearing_and_restore_keeps_the_lineage() {
        let mut a = CountWords::new();
        let mut out = VecEmitter::default();
        for w in ["x", "y", "x"] {
            a.execute(word(w), &mut out);
        }
        out.emitted.clear();
        a.on_signal(&mut out);
        a.on_signal(&mut out);
        assert_eq!(out.emitted.len(), 4, "two flushes of two words");
        let mut b = CountWords::new();
        assert_ne!(a.lineage, b.lineage);
        b.restore(a.checkpoint().unwrap(), &mut out);
        assert_eq!(b.lineage, a.lineage);
        out.emitted.clear();
        b.execute(word("x"), &mut out);
        assert_eq!(out.emitted[0].1[1].as_int(), Some(3));
    }
}

//! Output oracles. Each returns a [`Verdict`]: failed operations count
//! into the failure ratio, and any error makes the run incorrect.

use std::collections::{BTreeMap, HashMap, HashSet};

/// What an oracle found.
#[derive(Debug, Default, PartialEq)]
pub struct Verdict {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed (lost roots, missing deliveries).
    pub failed: u64,
    /// Wrong outputs; any one makes the run incorrect.
    pub errors: Vec<String>,
}

impl Verdict {
    /// True when the oracle accepted every output.
    pub fn clean(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// `forward`: every acked seq reached the sink exactly once. A seq whose
/// root failed and was replayed may arrive twice; no seq may arrive that
/// was never emitted.
pub fn forward(emitted: u64, acked: &[u64], failed: &[u64], sink_counts: &[u8]) -> Verdict {
    let failed: HashSet<u64> = failed.iter().copied().collect();
    let mut v = Verdict {
        attempted: emitted,
        failed: failed.len() as u64,
        errors: Vec::new(),
    };
    let count = |s: u64| sink_counts.get(s as usize).copied().unwrap_or(0);
    let mut acked_set = HashSet::with_capacity(acked.len());
    for &s in acked {
        if !acked_set.insert(s) {
            v.errors.push(format!("seq {s} acked twice"));
        }
        if count(s) == 0 {
            v.errors
                .push(format!("acked seq {s} never reached the sink"));
        }
    }
    // Roots neither acked nor failed by the end of the drain are lost.
    let settled = acked_set.union(&failed).count() as u64;
    v.failed += emitted.saturating_sub(settled);
    for (s, &c) in sink_counts.iter().enumerate() {
        let s = s as u64;
        if c > 0 && s >= emitted {
            v.errors
                .push(format!("seq {s} delivered but never emitted"));
        } else if c > 1 && !failed.contains(&s) {
            v.errors.push(format!("seq {s} delivered {c} times"));
        }
    }
    v.errors.truncate(8);
    v
}

/// One broadcast sink's view: each seq at most once and in order.
#[derive(Debug, Default, Clone)]
pub struct FanState {
    /// Deliveries.
    pub delivered: u64,
    /// Highest seq seen, plus one (0 = none yet).
    pub next: u64,
    /// Seqs that arrived twice or out of order.
    pub violations: u64,
}

impl FanState {
    /// Records one delivery.
    pub fn observe(&mut self, seq: u64) {
        self.delivered += 1;
        if seq < self.next {
            self.violations += 1;
        } else {
            self.next = seq + 1;
        }
    }
}

/// `broadcast`: each of the sinks saw each of the `emitted` roots at most
/// once and in order; missing deliveries count as failed.
pub fn broadcast(emitted: u64, sinks: &[FanState]) -> Verdict {
    let mut v = Verdict {
        attempted: emitted * sinks.len() as u64,
        ..Verdict::default()
    };
    for (i, s) in sinks.iter().enumerate() {
        if s.violations > 0 {
            v.errors
                .push(format!("sink {i}: {} duplicate or reordered", s.violations));
        }
        if s.next > emitted {
            v.errors.push(format!(
                "sink {i}: seq {} delivered but never emitted",
                s.next - 1
            ));
        }
        v.failed += emitted.saturating_sub(s.delivered);
    }
    v
}

/// Sums the aggregator's per-(lineage, word) counts into word totals.
pub fn word_totals(counts: &HashMap<(i64, String), i64>) -> BTreeMap<String, i64> {
    let mut totals = BTreeMap::new();
    for ((_, w), &c) in counts {
        *totals.entry(w.clone()).or_insert(0) += c;
    }
    totals
}

/// `control`: per-word totals equal the reference computed from the seed.
pub fn word_count(expected: &BTreeMap<String, i64>, got: &BTreeMap<String, i64>) -> Vec<String> {
    let mut errors = Vec::new();
    for (w, &e) in expected {
        let g = got.get(w).copied().unwrap_or(0);
        if g != e {
            errors.push(format!("word {w:?}: counted {g}, expected {e}"));
        }
    }
    for (w, &g) in got {
        if !expected.contains_key(w) {
            errors.push(format!("word {w:?}: counted {g}, never sent"));
        }
    }
    errors
}

/// Feeds every oracle a dropped, a duplicated and a miscounted output
/// and checks that each is rejected; the benchmark refuses to run with an
/// oracle that would accept a wrong result.
pub fn self_check() -> Result<(), String> {
    let reject = |what: &str, v: &Verdict| {
        if v.clean() {
            Err(format!("oracle accepted {what}"))
        } else {
            Ok(())
        }
    };
    // forward: 4 seqs, all acked.
    let acked = [0, 1, 2, 3];
    if !forward(4, &acked, &[], &[1, 1, 1, 1]).clean() {
        return Err("forward oracle rejected a correct output".into());
    }
    reject("a dropped seq", &forward(4, &acked, &[], &[1, 0, 1, 1]))?;
    reject("a duplicated seq", &forward(4, &acked, &[], &[1, 2, 1, 1]))?;
    reject(
        "a seq never emitted",
        &forward(4, &acked, &[], &[1, 1, 1, 1, 1]),
    )?;
    reject(
        "an unacked root",
        &forward(4, &[0, 1, 2], &[], &[1, 1, 1, 1]),
    )?;
    // broadcast: 2 sinks, 3 seqs.
    let fan = |seqs: &[u64]| {
        let mut s = FanState::default();
        seqs.iter().for_each(|&q| s.observe(q));
        s
    };
    if !broadcast(3, &[fan(&[0, 1, 2]), fan(&[0, 1, 2])]).clean() {
        return Err("broadcast oracle rejected a correct output".into());
    }
    reject(
        "a dropped delivery",
        &broadcast(3, &[fan(&[0, 2]), fan(&[0, 1, 2])]),
    )?;
    reject(
        "a duplicated delivery",
        &broadcast(3, &[fan(&[0, 1, 1, 2]), fan(&[0, 1, 2])]),
    )?;
    reject(
        "a reordered delivery",
        &broadcast(3, &[fan(&[0, 2, 1]), fan(&[0, 1, 2])]),
    )?;
    reject(
        "a seq never emitted",
        &broadcast(3, &[fan(&[0, 1, 2, 3]), fan(&[0, 1, 2])]),
    )?;
    // control.
    let expected: BTreeMap<String, i64> = [("a".to_owned(), 3), ("b".to_owned(), 1)].into();
    let wc = |pairs: &[(i64, &str, i64)]| {
        let counts = pairs
            .iter()
            .map(|&(l, w, c)| ((l, w.to_owned()), c))
            .collect::<HashMap<_, _>>();
        word_count(&expected, &word_totals(&counts))
    };
    if !wc(&[(1, "a", 2), (2, "a", 1), (1, "b", 1)]).is_empty() {
        return Err("word-count oracle rejected a correct output".into());
    }
    for (what, got) in [
        ("a dropped count", wc(&[(1, "a", 2), (1, "b", 1)])),
        (
            "a duplicated count",
            wc(&[(1, "a", 2), (2, "a", 2), (1, "b", 1)]),
        ),
        ("a miscounted word", wc(&[(1, "a", 3), (1, "c", 1)])),
    ] {
        if got.is_empty() {
            return Err(format!("oracle accepted {what}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_oracle_rejects_dropped_duplicated_and_miscounted_outputs() {
        self_check().unwrap();
    }

    #[test]
    fn a_replayed_seq_may_arrive_twice() {
        let v = forward(2, &[0, 1], &[1], &[1, 2]);
        assert!(v.errors.is_empty());
        assert_eq!(v.failed, 1, "the failed attempt still counts");
    }

    #[test]
    fn missing_broadcast_deliveries_count_as_failed_not_wrong() {
        let mut s = FanState::default();
        s.observe(0);
        let v = broadcast(3, &[s]);
        assert!(v.errors.is_empty());
        assert_eq!((v.attempted, v.failed), (3, 2));
    }
}

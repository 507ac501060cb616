//! One run of one workload: set-up, measured phases, drain, oracle,
//! control events, metrics.

use crate::live::{Counters, Event, Kind, Live, Shapes, Spec};
use crate::oracle::{self, Verdict};
use crate::pace::{sentence, OPEN, STOP};
use crate::spans::Spans;
use crate::stats::{lat_ms, median, quantile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Warm-up before each measured phase.
const WARM: Duration = Duration::from_millis(1000);
/// Clusters that share `forward` phase 1, and their warm-up.
const CLOSED_CLUSTERS: usize = 6;
const CLOSED_WARM: Duration = Duration::from_millis(500);
/// Open-loop latency and rate slice (`forward` phase 2, `broadcast`).
const SLICE: Duration = Duration::from_secs(1);
/// `control` slice: one reconfiguration round each.
const CONTROL_SLICE: Duration = Duration::from_secs(2);
/// Gap after each control event while traffic runs (`control`).
const LIVE_GAP: Duration = Duration::from_millis(200);
/// `control` crash phase after the window, as a share of `--seconds`.
const CRASH_SHARE: f64 = 0.3;
/// Reconfigure-and-crash rounds after the traffic on `forward` and
/// `broadcast`.
const ROUNDS: u64 = 40;
/// Gap after each control event on an idle topology.
const IDLE_GAP: Duration = Duration::from_millis(10);
/// Bound on draining in-flight roots after the source stops.
const DRAIN: Duration = Duration::from_secs(20);

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations checked and failed, and wrong outputs.
    pub verdict: Verdict,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics measured on the live workload (traced runs).
    pub layer: Vec<(&'static str, f64)>,
    /// The first scale-out's shapes.
    pub shapes: Option<Shapes>,
    /// Closed-loop throughput (`forward`).
    pub closed_tps: Option<f64>,
}

/// Runs `spec` for `seconds` of measured traffic.
pub fn run(spec: &Spec, seed: u64, seconds: u64, spans: &Spans) -> Result<Outcome, String> {
    let root = spans.begin(&format!("bench.run.{}", spec.kind.name()), 0, seed);
    let mut setups = Vec::new();
    let mut closed = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let (mut live, took) =
            spans.scope("bench.setup", root, i as u64, |_| Live::boot(spec, seed))?;
        setups.push(took.as_secs_f64());
        if i + 1 == SETUPS {
            kept = Some(live);
            break;
        }
        // `forward` phase 1 runs on the first clusters: throughput varies
        // more between clusters than within one, so each gets a share of
        // the closed loop and the run reports the median.
        if spec.kind == Kind::Forward && i < CLOSED_CLUSTERS {
            let share = Duration::from_secs_f64(seconds as f64 * 0.4 / CLOSED_CLUSTERS as f64);
            live.traced = spans.enabled();
            std::thread::sleep(CLOSED_WARM);
            let marks = spans.scope("bench.closed_loop", root, i as u64, |_| {
                sliced(&mut live, 1, share, |_, _| {})
            });
            closed.push(rate(&marks[0], &marks[1], |c| c.acked));
        }
        live.shutdown();
    }
    let mut live = kept.expect("at least one set-up");
    live.traced = spans.enabled();
    let start = live.counters();
    let mut out = Outcome::default();
    let secs = seconds as f64;
    let mut events = Vec::new();

    if spec.kind == Kind::Forward {
        out.closed_tps = Some(median(&closed));
        live.pacer.set_mode(OPEN);
    }
    std::thread::sleep(WARM);
    // The open-loop window: one latency slice per counter slice.
    let (n, slice) = match spec.kind {
        Kind::Forward => (slices_in(secs * 0.6, SLICE), SLICE),
        Kind::Broadcast => (slices_in(secs, SLICE), SLICE),
        Kind::Control => (slices_in(secs, CONTROL_SLICE), CONTROL_SLICE),
    };
    live.window.open(slice);
    let window = spans.begin("bench.open_loop", root, 0);
    let marks = sliced(&mut live, n, slice, |live, i| {
        if spec.kind == Kind::Control {
            events.extend(reshape(live, spec, i as u64, LIVE_GAP, spans, window));
        }
    });
    live.window.close();
    spans.end(window);
    let qmax = live.qmax;
    let (c0, c1) = (marks[0], marks[n]);
    if spec.kind == Kind::Control {
        // Crashes follow the latency window, with the traffic still on.
        let crashes = spans.begin("bench.crashes", root, 0);
        let end = Instant::now() + Duration::from_secs_f64(secs * CRASH_SHARE);
        let mut round = 0;
        while Instant::now() < end {
            events.push(live.crash(spec, seed, round, spans, crashes));
            live.pause_until(Instant::now() + LIVE_GAP);
            round += 1;
        }
        spans.end(crashes);
    }
    live.pacer.set_mode(STOP);
    let verdict = spans.scope("bench.drain_and_check", root, 0, |_| {
        drain_and_check(&live, spec, seed)
    });
    if spec.kind != Kind::Control {
        let epilogue = spans.begin("bench.events", root, 0);
        for round in 0..ROUNDS {
            events.extend(reshape(&mut live, spec, round, IDLE_GAP, spans, epilogue));
            events.push(live.crash(spec, seed, round, spans, epilogue));
            std::thread::sleep(IDLE_GAP);
        }
        spans.end(epilogue);
    }
    let end = live.counters();

    // End-to-end metrics.
    let (p50, p99) = lat_ms(latency_samples(&live, spec), n);
    let tput = match spec.kind {
        Kind::Forward => out.closed_tps.unwrap_or(0.0),
        Kind::Broadcast => median_rate(&marks, |c| c.delivered),
        Kind::Control => median_rate(&marks, |c| c.acked),
    };
    let failed_events = events.iter().filter(|e| e.took.is_none()).count() as u64;
    out.verdict = Verdict {
        attempted: verdict.attempted + events.len() as u64,
        failed: verdict.failed + failed_events,
        errors: verdict.errors,
    };
    let ok = 1.0 - out.verdict.failed as f64 / out.verdict.attempted.max(1) as f64;
    let ms = |kind: &str| {
        let v: Vec<f64> = events
            .iter()
            .filter(|e| e.kind == kind)
            .filter_map(|e| e.took)
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        median(&v)
    };
    out.e2e = BTreeMap::from([
        ("tput_tps", tput),
        ("lat_p50_ms", p50),
        ("lat_p99_ms", p99),
        ("ok_ratio", ok),
        ("setup_s", median(&setups)),
        ("scale_out_ms", ms("scale_out")),
        ("scale_in_ms", ms("scale_in")),
        ("regroup_ms", ms("regroup")),
        ("recover_ms", ms("recover")),
    ]);
    if spans.enabled() {
        out.layer = live_layers(&live, spec, &events, &start, &c0, &c1, &end, qmax);
    }
    out.shapes = live.shapes.clone();
    spans.scope("bench.shutdown", root, 0, |_| live.shutdown());
    spans.end(root);
    Ok(out)
}

/// Whole slices of `len` in `secs` (at least one).
fn slices_in(secs: f64, len: Duration) -> usize {
    ((secs / len.as_secs_f64()) as usize).max(1)
}

/// Runs `n` slices of `len` back to back. `body(live, i)` runs at the
/// start of slice `i`; the rest of the slice the traffic runs on its own,
/// while a traced run samples queue depths from this (the bench's main)
/// thread. Returns the counters at the `n + 1` slice boundaries.
fn sliced(
    live: &mut Live,
    n: usize,
    len: Duration,
    mut body: impl FnMut(&mut Live, usize),
) -> Vec<Counters> {
    let t0 = Instant::now();
    let mut marks = vec![live.counters()];
    for i in 0..n {
        body(live, i);
        live.pause_until(t0 + len * (i as u32 + 1));
        marks.push(live.counters());
    }
    marks
}

/// Per-second rate of counter `f` between two readings.
fn rate(a: &Counters, b: &Counters, f: fn(&Counters) -> u64) -> f64 {
    let dt = b.at.zip(a.at).map(|(b, a)| (b - a).as_secs_f64());
    (f(b) - f(a)) as f64 / dt.unwrap_or(1.0)
}

/// Median over slices of the per-second rate of counter `f`.
fn median_rate(marks: &[Counters], f: fn(&Counters) -> u64) -> f64 {
    let rates: Vec<f64> = marks.windows(2).map(|w| rate(&w[0], &w[1], f)).collect();
    median(&rates)
}

/// One round of reconfigurations: scale out and back in, then regroup
/// there and back three times, with `gap` after each event.
fn reshape(
    live: &mut Live,
    spec: &Spec,
    round: u64,
    gap: Duration,
    spans: &Spans,
    parent: u64,
) -> Vec<Event> {
    let id = spans.begin("bench.reshape_round", parent, round);
    let base = spec.scale.1;
    let mut ev = vec![live.scale(spec, base + 1, spans, id)];
    live.pause_until(Instant::now() + gap);
    ev.push(live.scale(spec, base, spans, id));
    for _ in 0..3 {
        live.pause_until(Instant::now() + gap);
        ev.push(live.regroup(spec, spec.regroup.3.clone(), spans, id));
        live.pause_until(Instant::now() + gap);
        ev.push(live.regroup(spec, spec.regroup.2.clone(), spans, id));
    }
    live.pause_until(Instant::now() + gap);
    spans.end(id);
    ev
}

/// Waits for in-flight work to finish, then runs the workload's oracle.
fn drain_and_check(live: &Live, spec: &Spec, seed: u64) -> Verdict {
    let pacer = &live.pacer;
    match spec.kind {
        Kind::Forward => {
            crate::live::wait_until(DRAIN, || pacer.pending() == 0);
            let emitted = pacer.emitted.load(std::sync::atomic::Ordering::Relaxed);
            let mut counts: Vec<u8> = Vec::new();
            for log in live.sinks.lock().expect("logs").iter() {
                let log = log.lock().expect("sink log");
                if counts.len() < log.seq_counts.len() {
                    counts.resize(log.seq_counts.len(), 0);
                }
                for (c, &n) in counts.iter_mut().zip(&log.seq_counts) {
                    *c = c.saturating_add(n);
                }
            }
            let book = pacer.book.lock().expect("book");
            oracle::forward(emitted, &book.acked, &book.failed, &counts)
        }
        Kind::Broadcast => {
            let emitted = pacer.emitted.load(std::sync::atomic::Ordering::Relaxed);
            let sinks = spec.scale.1 as u64;
            let want = emitted * sinks;
            let d = || live.delivered.load(std::sync::atomic::Ordering::Relaxed);
            crate::live::wait_until(Duration::from_secs(5), || d() >= want);
            let fans: Vec<_> = live
                .sinks
                .lock()
                .expect("logs")
                .iter()
                .map(|l| l.lock().expect("sink log").fan.clone())
                .collect();
            oracle::broadcast(emitted, &fans)
        }
        Kind::Control => {
            crate::live::wait_until(DRAIN, || pacer.pending() == 0);
            let emitted = pacer.emitted.load(std::sync::atomic::Ordering::Relaxed);
            let mut expected = BTreeMap::new();
            for seq in 0..emitted {
                for w in sentence(seed, seq).split_whitespace() {
                    *expected.entry(w.to_owned()).or_insert(0) += 1;
                }
            }
            let totals = || oracle::word_totals(&live.agg.lock().expect("agg").counts);
            // The last counts may still be on their way to the aggregator.
            crate::live::wait_until(Duration::from_secs(5), || totals() == expected);
            let book = pacer.book.lock().expect("book");
            let acked: std::collections::HashSet<u64> = book.acked.iter().copied().collect();
            let mut errors = oracle::word_count(&expected, &totals());
            errors.truncate(8);
            Verdict {
                attempted: emitted,
                failed: emitted.saturating_sub(acked.len() as u64),
                errors,
            }
        }
    }
}

/// Every latency sample of the open-loop window, per slice, merged
/// across sink tasks.
fn latency_samples(live: &Live, spec: &Spec) -> Vec<Vec<u32>> {
    if spec.kind == Kind::Control {
        return std::mem::take(&mut live.agg.lock().expect("agg").lat);
    }
    let mut all: Vec<Vec<u32>> = Vec::new();
    for log in live.sinks.lock().expect("logs").iter() {
        let lat = std::mem::take(&mut log.lock().expect("sink log").lat);
        if all.len() < lat.len() {
            all.resize_with(lat.len(), Vec::new);
        }
        for (a, mut l) in all.iter_mut().zip(lat) {
            a.append(&mut l);
        }
    }
    all
}

/// Per-layer metrics read from the live workload's counters and events.
#[allow(clippy::too_many_arguments)]
fn live_layers(
    live: &Live,
    spec: &Spec,
    events: &[Event],
    start: &Counters,
    c0: &Counters,
    c1: &Counters,
    end: &Counters,
    qmax: i64,
) -> Vec<(&'static str, f64)> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let d = |f: fn(&Counters) -> u64| (f(c1) - f(c0)) as f64;
    let mut lag = std::mem::take(&mut live.pacer.book.lock().expect("book").lag);
    let scale: Vec<&Event> = events
        .iter()
        .filter(|e| e.took.is_some() && e.kind.starts_with("scale"))
        .collect();
    let waits: f64 = scale.iter().map(|e| e.waits.as_secs_f64()).sum();
    let took: f64 = scale
        .iter()
        .filter_map(|e| e.took)
        .map(|t| t.as_secs_f64())
        .sum();
    let rules: Vec<f64> = events
        .iter()
        .filter(|e| e.kind == "scale_out")
        .map(|e| e.rules_changed as f64)
        .collect();
    let reports: Vec<(f64, &typhoon_core::RecoveryReport)> = events
        .iter()
        .filter_map(|e| Some((e.took?.as_secs_f64() * 1e3, e.report.as_ref()?)))
        .collect();
    let rep = |f: fn(&typhoon_core::RecoveryReport) -> Duration| {
        median(
            &reports
                .iter()
                .map(|(_, r)| f(r).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    vec![
        (
            "tuple.encodes_per_root",
            ratio(d(|c| c.ser), d(|c| c.emitted)),
        ),
        (
            "net.tuples_per_frame",
            ratio(d(|c| c.delivered), d(|c| c.frames_tx)),
        ),
        (
            "net.drop_ratio",
            ratio(d(|c| c.tx_dropped), d(|c| c.frames_tx + c.tx_dropped)),
        ),
        (
            "switch.cache_hit_ratio",
            ratio(d(|c| c.cache_hits), d(|c| c.cache_hits + c.cache_misses)),
        ),
        (
            "switch.misses",
            (end.switch_misses - start.switch_misses) as f64,
        ),
        (
            "core.batch_fill",
            ratio(
                c1.batch_sum - c0.batch_sum,
                (c1.batch_n - c0.batch_n) as f64,
            ) / spec.batch as f64,
        ),
        ("core.queue_depth_max", qmax as f64),
        (
            "core.acks_failed",
            (end.acks_failed - start.acks_failed) as f64,
        ),
        ("core.reconfig_wait_share", ratio(waits, took)),
        ("openflow.rules_changed", median(&rules)),
        (
            "core.recover_detect_ms",
            median(
                &reports
                    .iter()
                    .map(|(t, r)| t - r.total.as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("core.recover_restart_ms", rep(|r| r.restart)),
        ("core.recover_replay_ms", rep(|r| r.replay)),
        (
            "bench.gen_lag_p99_ms",
            quantile(&mut lag, 0.99).unwrap_or(0) as f64 / 1e6,
        ),
    ]
}

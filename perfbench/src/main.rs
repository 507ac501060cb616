//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload forward|broadcast|control --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it runs the workload once and prints every end-to-end
//! metric; with `--trace 1` it runs it once untraced and once traced, then
//! probes each layer, and prints every per-layer metric. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. A wrong output makes `correct` false and the exit code 1.
//! See `perfbench/README.md` for the workloads and metrics.

mod components;
mod layers;
mod live;
mod oracle;
mod pace;
mod run;
mod spans;
mod stats;

use live::{Kind, Spec};
use spans::Spans;
use std::fmt::Write as _;

/// End-to-end metrics and their units, in output order.
const E2E: &[(&str, &str)] = &[
    ("tput_tps", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("scale_out_ms", "ms"),
    ("scale_in_ms", "ms"),
    ("regroup_ms", "ms"),
    ("recover_ms", "ms"),
];

/// Per-layer metrics and their units, in output order.
const LAYER: &[(&str, &str)] = &[
    ("tuple.encode_ns", "ns"),
    ("tuple.decode_ns", "ns"),
    ("tuple.encodes_per_root", "ratio"),
    ("net.pack_ns", "ns"),
    ("net.unpack_ns", "ns"),
    ("net.ring_ns", "ns"),
    ("net.tunnel_ns", "ns"),
    ("net.tuples_per_frame", "ratio"),
    ("net.drop_ratio", "ratio"),
    ("switch.unicast_ns", "ns"),
    ("switch.replicate_ns", "ns"),
    ("switch.cache_hit_ratio", "ratio"),
    ("switch.misses", "count"),
    ("switch.flowmod_us", "us"),
    ("openflow.encode_ns", "ns"),
    ("openflow.decode_ns", "ns"),
    ("openflow.rules_changed", "count"),
    ("controller.build_rules_us", "us"),
    ("controller.install_us", "us"),
    ("controller.send_control_us", "us"),
    ("coordinator.write_us", "us"),
    ("coordinator.read_us", "us"),
    ("model.route_ns", "ns"),
    ("model.schedule_us", "us"),
    ("model.plan_update_us", "us"),
    ("core.batch_fill", "ratio"),
    ("core.queue_depth_max", "count"),
    ("core.acks_failed", "count"),
    ("core.reconfig_wait_share", "ratio"),
    ("core.recover_detect_ms", "ms"),
    ("core.recover_restart_ms", "ms"),
    ("core.recover_replay_ms", "ms"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or(format!("missing {flag}"))
    };
    let kind = get("--workload")?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        kind: Kind::parse(kind).ok_or(format!("unknown workload {kind:?}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: num("--trace")? != 0,
    })
}

/// One result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s + "}}"
}

/// Looks every metric of `table` up in `values`; a missing or non-finite
/// value is an error, reported as 0.
fn collect(
    table: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
    errors: &mut Vec<String>,
) -> Vec<(&'static str, &'static str, f64)> {
    table
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            match v {
                Some(v) if v.is_finite() => (name, unit, v),
                _ => {
                    errors.push(format!("{name} was not measured"));
                    (name, unit, 0.0)
                }
            }
        })
        .collect()
}

fn main() {
    let code = match bench() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn bench() -> Result<bool, String> {
    let args = parse_args()?;
    oracle::self_check()?;
    let spec = Spec::of(args.kind);
    let name = args.kind.name();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{name}: seed {}, {} s, {cpus} CPUs",
        args.seed, args.seconds
    );
    let (mut errors, attempted, failed, metrics);
    if !args.trace {
        let out = run::run(&spec, args.seed, args.seconds, &Spans::new(false))?;
        let values: Vec<(&'static str, f64)> = out.e2e.iter().map(|(&k, &v)| (k, v)).collect();
        errors = out.verdict.errors;
        attempted = out.verdict.attempted;
        failed = out.verdict.failed;
        metrics = collect(E2E, &values, &mut errors);
        for (n, u, v) in &metrics {
            println!("{name}: {n} = {v:.4} {u}");
        }
        println!(
            "{name}: fail_ratio = {:.6} ({failed} of {attempted} operations)",
            failed as f64 / attempted.max(1) as f64
        );
    } else {
        let plain = run::run(&spec, args.seed, args.seconds, &Spans::new(false))?;
        let spans = Spans::new(true);
        let traced = run::run(&spec, args.seed, args.seconds, &spans)?;
        let shapes = traced
            .shapes
            .clone()
            .ok_or("no scale-out completed, so the probes have no shapes")?;
        let mut values = traced.layer.clone();
        values.extend(layers::probe(&spec, args.seed, &shapes, &spans));
        let overhead = traced.e2e["lat_p50_ms"] / plain.e2e["lat_p50_ms"];
        values.push(("bench.trace_overhead", overhead));
        errors = plain.verdict.errors;
        errors.extend(traced.verdict.errors);
        attempted = plain.verdict.attempted + traced.verdict.attempted;
        failed = plain.verdict.failed + traced.verdict.failed;
        metrics = collect(LAYER, &values, &mut errors);
        let all = spans.take();
        let mut table = format!("{name} seed {}: per-layer metrics\n", args.seed);
        for (n, u, v) in &metrics {
            let _ = writeln!(table, "  {n:<28} {v:>14.4} {u}");
        }
        if let (Some(a), Some(b)) = (plain.closed_tps, traced.closed_tps) {
            let _ = writeln!(table, "  closed-loop tput untraced/traced = {:.4}", a / b);
        }
        let _ = writeln!(table, "{name}: span self time (count, total ms, self ms)");
        for (span, (n, total, own)) in spans::self_times(&all) {
            let _ = writeln!(
                table,
                "  {span:<44} {n:>6} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        print!("{table}");
        let dir = std::path::Path::new(".bench_out");
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let stem = format!("{name}-{}", args.seed);
        std::fs::write(dir.join(format!("spans-{stem}.jsonl")), spans::dump(&all))
            .map_err(|e| e.to_string())?;
        std::fs::write(dir.join(format!("layers-{stem}.txt")), &table)
            .map_err(|e| e.to_string())?;
        println!("{name}: span dump in .bench_out/spans-{stem}.jsonl");
    }
    for e in &errors {
        eprintln!("{name}: WRONG OUTPUT: {e}");
    }
    let correct = errors.is_empty();
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &metrics)
    );
    Ok(correct)
}

//! Reproduces the program defects the benchmark steers clear of (see
//! `perfbench/README.md`, "Known defects found while sizing"):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml --example defects
//! ```
//!
//! 1. Acked `Grouping::All` delivers no tuples, on one in-memory host and
//!    on three TCP hosts.
//! 2. The stock `CountBolt` + `AggregatorBolt` word count loses counts
//!    when `count` is scaled out and back in, though every root is acked.

use std::time::{Duration, Instant};
use typhoon_bench::workloads::{
    broadcast_topology, expected_word_counts, recovery_word_count_topology, register_replay_spout,
    register_standard,
};
use typhoon_core::{SchedulerKind, TyphoonCluster, TyphoonConfig};
use typhoon_model::{ComponentRegistry, ReconfigOp, ReconfigRequest};

fn verdict(reproduced: bool) -> &'static str {
    if reproduced {
        "REPRODUCED"
    } else {
        "not reproduced"
    }
}

/// One source → 6 sinks over `Grouping::All`, acked, for 5 s.
fn acked_broadcast(config: TyphoonConfig, label: &str) {
    let mut reg = ComponentRegistry::new();
    let (sink, _) = register_standard(&mut reg, 100, 10);
    let cluster = TyphoonCluster::new(config, reg).expect("cluster");
    let _handle = cluster.submit(broadcast_topology(6)).expect("submit");
    std::thread::sleep(Duration::from_secs(5));
    let n = sink.count();
    println!(
        "1. acked Grouping::All, {label}: {n} sink deliveries in 5 s: {}",
        verdict(n == 0)
    );
    cluster.shutdown();
}

/// The stock word count under 10 scale-out/in cycles of `count`.
fn stock_word_count() {
    let (seed, roots) = (7, 30_000);
    let mut reg = ComponentRegistry::new();
    let (_sink, agg) = register_standard(&mut reg, 16, 4);
    register_replay_spout(&mut reg, seed, 4, roots);
    let mut config = TyphoonConfig::new(2)
        .with_acking(Duration::from_secs(5), 256)
        .with_checkpoints(Duration::from_millis(100));
    config.slots_per_host = 8;
    config.scheduler = SchedulerKind::RoundRobin;
    let cluster = TyphoonCluster::new(config, reg).expect("cluster");
    let handle = cluster
        .submit(recovery_word_count_topology(2, 2))
        .expect("submit");
    let name = handle.name().to_owned();
    for _ in 0..10 {
        for parallelism in [3, 2] {
            let op = ReconfigOp::SetParallelism {
                node: "count".into(),
                parallelism,
            };
            handle
                .reconfigure(ReconfigRequest::single(&name, op))
                .expect("reconfigure");
            std::thread::sleep(Duration::from_millis(200));
        }
    }
    let acked = || {
        handle
            .tasks_of("input")
            .first()
            .and_then(|&t| handle.worker(t))
            .map_or(0, |w| w.registry.snapshot().counter("acks.completed"))
    };
    let t0 = Instant::now();
    while acked() < roots as u64 && t0.elapsed() < Duration::from_secs(60) {
        std::thread::sleep(Duration::from_millis(50));
    }
    std::thread::sleep(Duration::from_secs(1));
    let expected: i64 = expected_word_counts(seed, roots).values().sum();
    let got: i64 = agg.counts.lock().values().sum();
    println!(
        "2. stock word count, 10 scale-out/in cycles: {} of {roots} roots acked, \
         aggregator holds {got} of {expected} words: {}",
        acked(),
        verdict(acked() == roots as u64 && got != expected)
    );
    cluster.shutdown();
}

fn main() {
    acked_broadcast(
        TyphoonConfig::new(1).with_acking(Duration::from_secs(30), 1024),
        "1 in-memory host",
    );
    acked_broadcast(
        TyphoonConfig::new(3)
            .with_tcp_tunnels()
            .with_acking(Duration::from_secs(30), 1024),
        "3 TCP hosts",
    );
    stock_word_count();
}

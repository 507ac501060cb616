//! Per-layer probes: the traced run times each crate's public functions
//! on the workload's own inputs — its tuples, its rule plans and the
//! shapes before and after its first scale-out — from the benchmark's own
//! code, one span per probe and one child span per timed batch.

use crate::live::{Kind, Shapes, Spec};
use crate::pace::{mix, now_ns, Shape};
use crate::spans::Spans;
use crate::stats::median;
use bytes::Bytes;
use std::time::{Duration, Instant};
use typhoon_controller::{build_rules, ControlTuple, Controller, RulePlan};
use typhoon_coordinator::global::GlobalState;
use typhoon_coordinator::Coordinator;
use typhoon_core::update::plan_update;
use typhoon_model::{
    AppId, HostId, HostInfo, LocalityScheduler, LogicalTopology, PhysicalTopology, RoutingState,
    Scheduler,
};
use typhoon_net::{
    ring, Depacketizer, Frame, InMemoryTunnel, MacAddr, Packetizer, TcpTunnel, Tunnel,
};
use typhoon_openflow::{wire, FlowMatch, FlowMod, OfMessage, PortNo};
use typhoon_switch::{ControlChannel, Switch, SwitchConfig, WorkerPort};
use typhoon_tuple::ser::{decode_tuple, encode_tuple_vec, SerStats};
use typhoon_tuple::tuple::TaskId;
use typhoon_tuple::{Tuple, Value};

/// Timed batches per probe.
const BATCHES: usize = 7;

/// Times `BATCHES` runs of `batch` (each returning how many operations it
/// did, and the ns it spent on them) and returns the median cost per
/// operation, in ns. Each batch is a child span of the probe's span.
fn per_op(spans: &Spans, name: &str, req: u64, mut batch: impl FnMut() -> (u64, u64)) -> f64 {
    spans.scope(name, 0, req, |probe| {
        batch(); // warm caches and lazy set-up
        let costs: Vec<f64> = (0..BATCHES)
            .map(|_| {
                spans.scope(&format!("{name}.batch"), probe, req, |_| {
                    let (ops, ns) = batch();
                    ns as f64 / ops.max(1) as f64
                })
            })
            .collect();
        median(&costs)
    })
}

/// Times `f` once, in ns.
fn timed(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// The workload's tuples, as the source and the main edge carry them.
pub fn sample_tuples(spec: &Spec, seed: u64, n: usize) -> Vec<Tuple> {
    let shape = spec.shape(seed);
    let due = |k: u64| now_ns() + mix(seed, k) % 1_000_000;
    match (&shape, spec.kind) {
        (Shape::Sentence(_), _) => (0..n as u64 / 7)
            .flat_map(|k| {
                let sentence = Tuple::new(TaskId(0), shape.values(k, due(k)));
                let words: Vec<Tuple> = sentence
                    .get(0)
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .split_whitespace()
                    .map(|w| Tuple::new(TaskId(1), vec![Value::Str(w.into()), Value::Int(7)]))
                    .collect();
                std::iter::once(sentence).chain(words)
            })
            .collect(),
        _ => (0..n as u64)
            .map(|k| Tuple::new(TaskId(0), shape.values(k, due(k))))
            .collect(),
    }
}

/// A standalone switch holding one host's share of a rule plan, with the
/// host's worker ports attached and in-memory tunnels to the other hosts.
struct Bench {
    switch: Switch,
    ports: Vec<WorkerPort>,
    peers: Vec<InMemoryTunnel>,
}

impl Bench {
    fn new(plan: &RulePlan, physical: &PhysicalTopology, host: HostId) -> Bench {
        let (switch, channel) = Switch::new(SwitchConfig::new(host.0 as u64));
        for gm in plan.groups.get(&host).into_iter().flatten() {
            send(&channel, &OfMessage::GroupMod(gm.clone()));
        }
        for fm in plan.flows.get(&host).into_iter().flatten() {
            send(&channel, &OfMessage::FlowMod(fm.clone()));
        }
        while switch.process_round() {}
        let ports = physical
            .assignments
            .iter()
            .filter(|a| a.host == host)
            .map(|a| switch.attach_worker(PortNo(a.switch_port)))
            .collect();
        let mut hosts: Vec<HostId> = physical.assignments.iter().map(|a| a.host).collect();
        hosts.sort_unstable();
        hosts.dedup();
        let peers = hosts
            .into_iter()
            .filter(|&h| h != host)
            .map(|h| {
                let (a, b) = InMemoryTunnel::pair();
                switch.add_tunnel(h.0, Box::new(a));
                b
            })
            .collect();
        Bench {
            switch,
            ports,
            peers,
        }
    }

    /// Empties every output the switch fed.
    fn drain(&self) -> usize {
        let mut out = Vec::new();
        for p in &self.ports {
            while p.rx.pop_batch(&mut out, 4096).unwrap_or(0) > 0 {}
        }
        for t in &self.peers {
            while t.recv_batch(&mut out, 4096).unwrap_or(0) > 0 {}
        }
        out.len()
    }
}

fn send(channel: &ControlChannel, msg: &OfMessage) {
    channel
        .to_switch
        .send(wire::encode(msg))
        .expect("switch channel");
}

/// Sends `msgs` and a barrier, and waits for the barrier's reply.
fn apply_and_fence(channel: &ControlChannel, msgs: &[OfMessage], xid: u32) -> bool {
    for m in msgs {
        send(channel, m);
    }
    send(channel, &OfMessage::Barrier { xid });
    let deadline = Instant::now() + Duration::from_secs(5);
    while let Ok(raw) = channel
        .from_switch
        .recv_timeout(deadline.saturating_duration_since(Instant::now()))
    {
        if let Ok((OfMessage::BarrierReply { xid: x }, _)) = wire::decode(raw) {
            if x == xid {
                return true;
            }
        }
    }
    false
}

/// Schedules `logical` with the locality scheduler.
fn schedule(logical: &LogicalTopology, hosts: u32, slots: usize) -> PhysicalTopology {
    let infos: Vec<HostInfo> = (0..hosts)
        .map(|h| HostInfo::new(h, &format!("host{h}"), slots))
        .collect();
    LocalityScheduler
        .schedule(AppId(1), logical, &infos)
        .expect("schedulable")
}

/// Switch cost per frame for frames `src → dst` on the source's host.
fn switch_probe(spans: &Spans, name: &str, spec: &Spec, blobs: &[Bytes], broadcast: bool) -> f64 {
    let logical = spec.topology();
    let (hosts, slots) = if broadcast { (3, 3) } else { (3, 1) };
    let physical = schedule(&logical, hosts, slots);
    let plan = build_rules(&logical, &physical);
    let src = physical
        .assignments
        .iter()
        .find(|a| a.node == "source")
        .expect("source");
    let sink = physical.tasks_of("sink")[0];
    let bench = Bench::new(&plan, &physical, src.host);
    let app = physical.app.0;
    let dst = if broadcast {
        MacAddr::BROADCAST
    } else {
        MacAddr::worker(app, sink)
    };
    let frames = Packetizer::default().pack(MacAddr::worker(app, src.task), dst, blobs);
    let in_port = PortNo(src.switch_port);
    let v = per_op(spans, name, 0, || {
        let mut ns = 0;
        for _ in 0..20 {
            let batch = frames.clone();
            ns += timed(|| bench.switch.process_frames(in_port, batch));
            bench.drain();
        }
        (20 * frames.len() as u64, ns)
    });
    bench.switch.shutdown();
    v
}

/// Runs every probe; returns `(metric, value)` pairs.
pub fn probe(spec: &Spec, seed: u64, shapes: &Shapes, spans: &Spans) -> Vec<(&'static str, f64)> {
    let mut m = Vec::new();
    let stats = SerStats::default();
    let tuples = sample_tuples(spec, seed, 2100);

    // tuple
    m.push((
        "tuple.encode_ns",
        per_op(spans, "tuple.encode_tuple", 1, || {
            let ns = timed(|| {
                for t in &tuples {
                    std::hint::black_box(encode_tuple_vec(t, &stats));
                }
            });
            (tuples.len() as u64, ns)
        }),
    ));
    let blobs: Vec<Bytes> = tuples
        .iter()
        .map(|t| Bytes::from(encode_tuple_vec(t, &stats)))
        .collect();
    m.push((
        "tuple.decode_ns",
        per_op(spans, "tuple.decode_tuple", 2, || {
            let ns = timed(|| {
                for b in &blobs {
                    std::hint::black_box(decode_tuple(b, &stats).expect("decodes"));
                }
            });
            (blobs.len() as u64, ns)
        }),
    ));

    // net: one I/O batch of the workload's tuples at a time.
    let batch = &blobs[..spec.batch.min(blobs.len())];
    let (a, b) = (MacAddr::worker(1, TaskId(0)), MacAddr::worker(1, TaskId(1)));
    let pk = Packetizer::default();
    m.push((
        "net.pack_ns",
        per_op(spans, "net.Packetizer::pack", 3, || {
            let ns = timed(|| {
                for chunk in blobs.chunks(batch.len()) {
                    std::hint::black_box(pk.pack(a, b, chunk));
                }
            });
            (blobs.len() as u64, ns)
        }),
    ));
    let frames: Vec<Frame> = blobs
        .chunks(batch.len())
        .flat_map(|c| pk.pack(a, b, c))
        .collect();
    m.push((
        "net.unpack_ns",
        per_op(spans, "net.Depacketizer::push", 4, || {
            let mut d = Depacketizer::new();
            let mut n = 0;
            let ns = timed(|| {
                for f in &frames {
                    n += d.push(f).expect("reassembles").len() as u64;
                }
            });
            (n, ns)
        }),
    ));
    let (tx, rx) = ring(8192);
    m.push((
        "net.ring_ns",
        per_op(spans, "net.ring", 5, || {
            let mut ns = 0;
            let mut out = Vec::with_capacity(frames.len());
            for _ in 0..20 {
                let mut batch = frames.clone();
                out.clear();
                ns += timed(|| {
                    tx.push_batch(&mut batch);
                    rx.pop_batch(&mut out, frames.len()).expect("ring open");
                });
            }
            (20 * frames.len() as u64, ns)
        }),
    ));
    let (ta, tb) = TcpTunnel::pair().expect("loopback tunnel");
    m.push((
        "net.tunnel_ns",
        per_op(spans, "net.TcpTunnel", 6, || {
            let mut ns = 0;
            for f in frames.iter().take(40) {
                ns += timed(|| {
                    ta.send(f).expect("send");
                    while tb.try_recv().expect("recv").is_none() {
                        std::hint::spin_loop();
                    }
                });
            }
            (40.min(frames.len()) as u64, ns)
        }),
    ));
    drop((ta, tb));

    // switch: the chain's unicast rules and the fan-out's group rules,
    // fed with this workload's tuples.
    let fwd = Spec::of(Kind::Forward);
    let fan = Spec::of(Kind::Broadcast);
    m.push((
        "switch.unicast_ns",
        switch_probe(spans, "switch.process_frames.unicast", &fwd, batch, false),
    ));
    m.push((
        "switch.replicate_ns",
        switch_probe(spans, "switch.process_frames.replicate", &fan, batch, true),
    ));

    // openflow + controller + coordinator + model, on the scale-out shapes.
    let Shapes {
        before_l,
        before_p,
        after_l,
        after_p,
    } = shapes;
    let plan = build_rules(after_l, after_p);
    let fms: Vec<OfMessage> = plan
        .flows
        .values()
        .flatten()
        .map(|fm| OfMessage::FlowMod(fm.clone()))
        .collect();
    m.push((
        "openflow.encode_ns",
        per_op(spans, "openflow.wire::encode", 7, || {
            let ns = timed(|| {
                for msg in &fms {
                    std::hint::black_box(wire::encode(msg));
                }
            });
            (fms.len() as u64, ns)
        }),
    ));
    let wires: Vec<Bytes> = fms.iter().map(wire::encode).collect();
    m.push((
        "openflow.decode_ns",
        per_op(spans, "openflow.wire::decode", 8, || {
            let ns = timed(|| {
                for w in &wires {
                    std::hint::black_box(wire::decode(w.clone()).expect("decodes"));
                }
            });
            (wires.len() as u64, ns)
        }),
    ));

    // One event's rule install through a switch's control channel.
    let busiest = *plan
        .flows
        .iter()
        .max_by_key(|(_, f)| f.len())
        .expect("rules")
        .0;
    let (sw, ch) = Switch::new(SwitchConfig::new(99));
    let handle = sw.spawn();
    let mut msgs: Vec<OfMessage> = plan
        .groups
        .get(&busiest)
        .into_iter()
        .flatten()
        .map(|g| OfMessage::GroupMod(g.clone()))
        .collect();
    msgs.extend(
        plan.flows[&busiest]
            .iter()
            .map(|f| OfMessage::FlowMod(f.clone())),
    );
    let clear = [OfMessage::FlowMod(FlowMod::delete(FlowMatch::any()))];
    let mut xid = 0;
    m.push((
        "switch.flowmod_us",
        per_op(spans, "switch.flow_mods_applied", 9, || {
            let mut ns = 0;
            for _ in 0..5 {
                xid += 2;
                apply_and_fence(&ch, &clear, xid);
                ns += timed(|| {
                    assert!(apply_and_fence(&ch, &msgs, xid + 1), "barrier reply");
                });
            }
            (5, ns)
        }) / 1e3,
    ));
    handle.stop();

    m.push((
        "controller.build_rules_us",
        per_op(spans, "controller.build_rules", 10, || {
            let ns = timed(|| {
                for _ in 0..50 {
                    std::hint::black_box(build_rules(after_l, after_p));
                }
            });
            (50, ns)
        }) / 1e3,
    ));

    // A standalone controller over one spawned switch per host.
    let global = GlobalState::new(Coordinator::new());
    let ctl = Controller::new(global.clone());
    let mut switches = Vec::new();
    let mut hosts: Vec<HostId> = after_p.assignments.iter().map(|a| a.host).collect();
    hosts.sort_unstable();
    hosts.dedup();
    for &h in &hosts {
        let (sw, ch) = Switch::new(SwitchConfig::new(h.0 as u64));
        ctl.register_switch(h, sw.dpid(), ch);
        switches.push(sw.spawn());
    }
    m.push((
        "controller.install_us",
        per_op(spans, "controller.install_topology", 11, || {
            let ns = timed(|| {
                for _ in 0..3 {
                    assert!(ctl.install_topology(after_l, after_p), "installed");
                }
            });
            (3, ns)
        }) / 1e3,
    ));
    m.push((
        "coordinator.write_us",
        per_op(spans, "coordinator.set_physical", 12, || {
            let ns = timed(|| {
                global.set_logical(after_l).expect("write");
                for _ in 0..50 {
                    global.set_physical(after_p).expect("write");
                }
            });
            (51, ns)
        }) / 1e3,
    ));
    m.push((
        "coordinator.read_us",
        per_op(spans, "coordinator.get_physical", 13, || {
            let ns = timed(|| {
                for _ in 0..50 {
                    std::hint::black_box(global.get_physical(&after_p.name).expect("read"));
                }
            });
            (50, ns)
        }) / 1e3,
    ));
    let (from, to) = (spec.regroup.0, spec.regroup.1);
    let pred = after_p.tasks_of(from)[0];
    let routing = ControlTuple::Routing {
        downstream: to.into(),
        next_hops: Some(after_p.tasks_of(to)),
        policy: None,
    };
    m.push((
        "controller.send_control_us",
        per_op(spans, "controller.send_control", 14, || {
            let ns = timed(|| {
                for _ in 0..50 {
                    assert!(ctl.send_control(after_p.app, pred, &routing), "sent");
                }
            });
            (50, ns)
        }) / 1e3,
    ));
    for h in switches {
        h.stop();
    }

    // model
    let edge = after_l
        .edges
        .iter()
        .find(|e| e.to == spec.scale.0)
        .expect("edge into the scaled node");
    let routed: Vec<&Tuple> = tuples
        .iter()
        .filter(|t| spec.kind != Kind::Control || t.meta.src_task == TaskId(1))
        .collect();
    let mut rs = RoutingState::new(edge.grouping.clone(), after_p.tasks_of(&edge.to), vec![0]);
    m.push((
        "model.route_ns",
        per_op(spans, "model.RoutingState::route", 15, || {
            let ns = timed(|| {
                for t in &routed {
                    std::hint::black_box(rs.route(t));
                }
            });
            (routed.len() as u64, ns)
        }),
    ));
    let slots = spec.config().slots_per_host;
    let n_hosts = spec.config().hosts as u32;
    m.push((
        "model.schedule_us",
        per_op(spans, "model.LocalityScheduler::schedule", 16, || {
            let ns = timed(|| {
                for _ in 0..50 {
                    std::hint::black_box(schedule(after_l, n_hosts, slots));
                }
            });
            (50, ns)
        }) / 1e3,
    ));
    m.push((
        "model.plan_update_us",
        per_op(spans, "core.update::plan_update", 17, || {
            let ns = timed(|| {
                for _ in 0..50 {
                    std::hint::black_box(plan_update(before_l, after_l, before_p, after_p));
                }
            });
            (50, ns)
        }) / 1e3,
    ));
    m
}

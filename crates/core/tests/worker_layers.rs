//! Focused tests of the three-layer Typhoon worker against a hand-driven
//! switch: data path, control classification, graceful-vs-crash exits, and
//! the framework↔I/O seams that integration tests only exercise indirectly.

use bytes::Bytes;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use typhoon_controller::control::{ControlTuple, CONTROLLER_TASK};
use typhoon_core::worker::{self, IoConfig, Role, Route, WorkerConfig, WorkerShared};
use typhoon_model::{AppId, Bolt, Emitter, Grouping, RoutingState, TaskId};
use typhoon_net::{Depacketizer, MacAddr, Packetizer};
use typhoon_openflow::{wire, Action, FlowMatch, FlowMod, OfMessage, PortNo};
use typhoon_switch::{ControlChannel, Switch, SwitchConfig};
use typhoon_tuple::ser::{decode_tuple, encode_tuple_vec, SerStats};
use typhoon_tuple::{StreamId, Tuple, Value};

struct Echo;

impl Bolt for Echo {
    fn execute(&mut self, input: Tuple, out: &mut dyn Emitter) {
        out.emit(input.values);
    }
}

fn send_ctrl(ch: &ControlChannel, msg: OfMessage) {
    ch.to_switch.send(wire::encode(&msg)).unwrap();
}

/// Spawns an Echo bolt worker (task 1) wired: port1 ← test, port2 → test.
/// Returns the switch, control channel, shared handles and the thread.
fn spawn_echo_worker() -> (
    Switch,
    ControlChannel,
    WorkerShared,
    std::thread::JoinHandle<()>,
    typhoon_switch::WorkerPort, // the "downstream" endpoint (port 2)
    typhoon_switch::WorkerPort, // the "upstream" endpoint (port 3)
) {
    let (sw, ch) = Switch::new(SwitchConfig::new(1));
    let worker_port = sw.attach_worker(PortNo(1));
    let downstream = sw.attach_worker(PortNo(2));
    let upstream = sw.attach_worker(PortNo(3));
    // Rules: worker(task 1) → downstream(task 2); upstream(task 3) →
    // worker; controller → worker; worker → controller.
    send_ctrl(
        &ch,
        OfMessage::FlowMod(FlowMod::add(
            50,
            FlowMatch::any().dl_dst(MacAddr::worker(1, TaskId(1))),
            vec![Action::Output(PortNo(1))],
        )),
    );
    send_ctrl(
        &ch,
        OfMessage::FlowMod(FlowMod::add(
            50,
            FlowMatch::any().dl_dst(MacAddr::worker(1, TaskId(2))),
            vec![Action::Output(PortNo(2))],
        )),
    );
    send_ctrl(
        &ch,
        OfMessage::FlowMod(FlowMod::add(
            100,
            FlowMatch::any().dl_dst(MacAddr::CONTROLLER),
            vec![Action::ToController],
        )),
    );
    sw.process_round();

    let shared = WorkerShared::new();
    let shared2 = shared.clone();
    let config = WorkerConfig {
        app: AppId(1),
        task: TaskId(1),
        node: "echo".into(),
        component: "echo".into(),
        io: IoConfig {
            batch_size: 1,
            batch_delay: Duration::from_millis(1),
            mtu: 1500,
        },
        acking: false,
        acker: None,
        ack_timeout: Duration::from_secs(30),
        max_pending: 64,
        start_active: true,
        checkpoint: None,
        restore: false,
    };
    let routes = vec![Route {
        stream: StreamId::DEFAULT,
        downstream: "down".into(),
        state: RoutingState::new(Grouping::Global, vec![TaskId(2)], vec![]),
    }];
    let ser = SerStats::shared();
    let thread = std::thread::spawn(move || {
        worker::run_worker(
            config,
            Role::Bolt(Box::new(Echo)),
            worker_port,
            routes,
            ser,
            shared2,
            typhoon_trace::TraceCtx::disabled(),
        );
    });
    (sw, ch, shared, thread, downstream, upstream)
}

/// Sends one tuple into the worker as if from task 3.
fn inject(upstream: &typhoon_switch::WorkerPort, values: Vec<Value>, stream: StreamId) {
    let ser = SerStats::default();
    let tuple = Tuple::on_stream(TaskId(3), stream, values);
    let blob = Bytes::from(encode_tuple_vec(&tuple, &ser));
    let p = Packetizer::new(1500);
    for f in p.pack(
        MacAddr::worker(1, TaskId(3)),
        MacAddr::worker(1, TaskId(1)),
        std::slice::from_ref(&blob),
    ) {
        upstream.tx.push(f).unwrap();
    }
}

fn recv_tuple(port: &typhoon_switch::WorkerPort, deadline: Duration) -> Option<Tuple> {
    let ser = SerStats::default();
    let mut d = Depacketizer::new();
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if let Ok(Some(frame)) = port.rx.pop() {
            if let Ok(blobs) = d.push(&frame) {
                if let Some((_, blob)) = blobs.into_iter().next() {
                    return decode_tuple(&blob, &ser).ok().map(|(t, _)| t);
                }
            }
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    None
}

#[test]
fn bolt_worker_echoes_through_all_three_layers() {
    let (sw, _ch, shared, thread, downstream, upstream) = spawn_echo_worker();
    let handle = sw.spawn();
    assert!(
        shared.ready.load(Ordering::Acquire) || {
            std::thread::sleep(Duration::from_millis(200));
            shared.ready.load(Ordering::Acquire)
        }
    );
    inject(
        &upstream,
        vec![Value::Int(5), Value::Str("x".into())],
        StreamId::DEFAULT,
    );
    let out = recv_tuple(&downstream, Duration::from_secs(5)).expect("echoed");
    assert_eq!(out.meta.src_task, TaskId(1), "re-emitted by the worker");
    assert_eq!(out.get(0), Some(&Value::Int(5)));
    assert_eq!(shared.registry.snapshot().counter("tuples.received"), 1);
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

#[test]
fn routing_control_tuple_rewires_a_live_worker() {
    let (sw, ch, shared, thread, downstream, upstream) = spawn_echo_worker();
    // Add a second possible destination on port 3 (task 3's own port used
    // as a stand-in sink for the rewired flow).
    send_ctrl(
        &ch,
        OfMessage::FlowMod(FlowMod::add(
            50,
            FlowMatch::any().dl_dst(MacAddr::worker(1, TaskId(3))),
            vec![Action::Output(PortNo(3))],
        )),
    );
    let handle = sw.spawn();
    std::thread::sleep(Duration::from_millis(100));
    // Inject a ROUTING control tuple via PacketOut as the controller would.
    let ct = ControlTuple::Routing {
        downstream: "down".into(),
        next_hops: Some(vec![TaskId(3)]),
        policy: None,
    };
    let ser = SerStats::default();
    let tuple = ct.to_tuple(CONTROLLER_TASK);
    let blob = Bytes::from(encode_tuple_vec(&tuple, &ser));
    let p = Packetizer::new(1500);
    for f in p.pack(
        MacAddr::CONTROLLER,
        MacAddr::worker(1, TaskId(1)),
        std::slice::from_ref(&blob),
    ) {
        send_ctrl(
            &ch,
            OfMessage::PacketOut {
                in_port: PortNo::CONTROLLER,
                frame: f.encode(),
            },
        );
    }
    // The controller→worker rule: dl_dst=worker(1) output port1.
    // (Installed in spawn_echo_worker.)
    let deadline = Instant::now() + Duration::from_secs(5);
    while shared
        .registry
        .snapshot()
        .counter("control.routing_applied")
        == 0
    {
        assert!(Instant::now() < deadline, "ROUTING never applied");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The dropped hop gets one DRAIN marker, behind everything sent to it.
    let marker = recv_tuple(&downstream, Duration::from_secs(5)).expect("drain marker");
    assert_eq!(marker.meta.stream, StreamId::CTRL_DRAIN);
    assert_eq!(marker.meta.src_task, TaskId(1));
    // Now the echo goes to task 3 instead of task 2.
    inject(&upstream, vec![Value::Int(9)], StreamId::DEFAULT);
    let rerouted = recv_tuple(&upstream, Duration::from_secs(5)).expect("rerouted");
    assert_eq!(rerouted.get(0), Some(&Value::Int(9)));
    assert!(
        recv_tuple(&downstream, Duration::from_millis(300)).is_none(),
        "old destination still receiving"
    );
    shared.shutdown.store(true, Ordering::Release);
    thread.join().unwrap();
    handle.stop();
}

#[test]
fn crash_flag_exits_without_flushing() {
    let (sw, _ch, shared, thread, _downstream, _upstream) = spawn_echo_worker();
    let handle = sw.spawn();
    std::thread::sleep(Duration::from_millis(100));
    shared.crash.store(true, Ordering::Release);
    let t0 = Instant::now();
    thread.join().unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "crash exit is prompt"
    );
    handle.stop();
}

//! Control tuples — Table 2 of the paper.
//!
//! Control tuples "have the same tuple format as data tuples" but use
//! dedicated stream IDs and carry reconfiguration payloads in their value
//! list (§3.3.2). They are injected by the SDN controller through
//! `PacketOut` messages and consumed by the worker framework layer; only
//! `METRIC_RESP` and `FENCE` replies travel the other way (worker →
//! controller via `PacketIn`). The one worker → worker control tuple is
//! the `DRAIN` marker, which rides the data path on purpose.

use typhoon_model::{Grouping, TaskId};
use typhoon_tuple::tuple::TupleMeta;
use typhoon_tuple::{MessageId, StreamId, Tuple, Value};

/// A decoded control tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlTuple {
    /// `ROUTING`: update a worker's routing state for one downstream node.
    /// `next_hops = None` leaves the hop set unchanged (policy-only
    /// update); `policy = None` leaves the policy unchanged (hop-only
    /// update). Exactly the two update shapes §3.3.2 describes.
    Routing {
        /// The downstream logical node whose edge is being reconfigured.
        downstream: String,
        /// Replacement `nextHops`, if changing.
        next_hops: Option<Vec<TaskId>>,
        /// Replacement policy (with pre-resolved key indices), if changing.
        policy: Option<(Grouping, Vec<usize>)>,
    },
    /// `SIGNAL`: flush a stateful worker's in-memory cache (Listing 2).
    Signal,
    /// `METRIC_REQ`: request the worker's internal statistics.
    MetricReq {
        /// Correlation ID echoed in the response.
        request_id: u64,
    },
    /// `METRIC_RESP`: the worker's statistics, as (name, value) pairs
    /// (e.g. queue depth, emitted tuples).
    MetricResp {
        /// Correlation ID from the request.
        request_id: u64,
        /// Responding task.
        task: TaskId,
        /// Named counters/gauges.
        metrics: Vec<(String, i64)>,
    },
    /// `INPUT_RATE`: cap the worker's input processing rate
    /// (tuples/second; 0 removes the cap).
    InputRate {
        /// The cap.
        tuples_per_sec: u32,
    },
    /// `ACTIVATE`: unthrottle the first workers of a topology.
    Activate,
    /// `DEACTIVATE`: throttle the first workers of a topology.
    Deactivate,
    /// `BATCH_SIZE`: retune the I/O layer batch size.
    BatchSize {
        /// New batch size (tuples).
        size: u32,
    },
    /// `REPLAY`: crash recovery — the recovery manager tells a spout to
    /// fail-and-replay every pending (un-acked) root *now* instead of
    /// waiting out the ack timeout, so a recovered stateful task is
    /// refilled promptly (§4, Fig. 10).
    Replay,
    /// `RESTATE`: crash recovery — a surviving stateful bolt re-emits its
    /// full snapshot downstream. Emissions it made toward a dead task were
    /// lost with that task, and the dedup ledger (correctly) refuses to
    /// re-fold the replays that would have regenerated them; the snapshot
    /// re-emission re-converges latest-wins consumers.
    Restate,
    /// `FENCE` (stable update, §3.5): acknowledge with a
    /// [`ControlTuple::FenceReply`] once a `DRAIN` marker has been seen
    /// from every task in `after`. With `after` empty the fence only
    /// orders: the worker has handled every control tuple sent before it.
    Fence {
        /// Correlation ID echoed in the reply.
        request_id: u64,
        /// Predecessors whose drain markers must arrive first.
        after: Vec<TaskId>,
    },
    /// The worker's answer to a [`ControlTuple::Fence`]. It shares the
    /// `FENCE` stream: the request carries a task list, the reply a task.
    FenceReply {
        /// Correlation ID from the request.
        request_id: u64,
        /// Responding task.
        task: TaskId,
    },
    /// `DRAIN` marker: sent worker → worker by a predecessor that dropped
    /// the receiver from a unicast route, behind the last tuple it sent
    /// there. Per (source, destination) the path is FIFO, so nothing from
    /// the source follows it.
    Drain,
}

impl ControlTuple {
    /// The stream ID this control tuple travels on.
    pub fn stream(&self) -> StreamId {
        match self {
            ControlTuple::Routing { .. } => StreamId::CTRL_ROUTING,
            ControlTuple::Signal => StreamId::CTRL_SIGNAL,
            ControlTuple::MetricReq { .. } => StreamId::CTRL_METRIC_REQ,
            ControlTuple::MetricResp { .. } => StreamId::CTRL_METRIC_RESP,
            ControlTuple::InputRate { .. } => StreamId::CTRL_INPUT_RATE,
            ControlTuple::Activate => StreamId::CTRL_ACTIVATE,
            ControlTuple::Deactivate => StreamId::CTRL_DEACTIVATE,
            ControlTuple::BatchSize { .. } => StreamId::CTRL_BATCH_SIZE,
            ControlTuple::Replay => StreamId::CTRL_REPLAY,
            ControlTuple::Restate => StreamId::CTRL_RESTATE,
            ControlTuple::Fence { .. } | ControlTuple::FenceReply { .. } => StreamId::CTRL_FENCE,
            ControlTuple::Drain => StreamId::CTRL_DRAIN,
        }
    }

    /// Encodes into the ordinary tuple format, sourced from `src` (the
    /// controller uses a reserved task ID; workers use their own for
    /// `METRIC_RESP`).
    pub fn to_tuple(&self, src: TaskId) -> Tuple {
        let values = match self {
            ControlTuple::Routing {
                downstream,
                next_hops,
                policy,
            } => {
                let hops = match next_hops {
                    Some(hops) => {
                        Value::List(hops.iter().map(|t| Value::Int(t.0 as i64)).collect())
                    }
                    None => Value::Nil,
                };
                let policy_val = match policy {
                    Some((g, key_indices)) => {
                        let mut items = vec![Value::Str(g.name().to_owned())];
                        if let Grouping::Fields(keys) = g {
                            items.push(Value::List(
                                keys.iter().map(|k| Value::Str(k.clone())).collect(),
                            ));
                        } else {
                            items.push(Value::List(vec![]));
                        }
                        items.push(Value::List(
                            key_indices.iter().map(|&i| Value::Int(i as i64)).collect(),
                        ));
                        Value::List(items)
                    }
                    None => Value::Nil,
                };
                vec![Value::Str(downstream.clone()), hops, policy_val]
            }
            ControlTuple::Signal
            | ControlTuple::Activate
            | ControlTuple::Deactivate
            | ControlTuple::Replay
            | ControlTuple::Restate
            | ControlTuple::Drain => vec![],
            ControlTuple::MetricReq { request_id } => vec![Value::Int(*request_id as i64)],
            ControlTuple::MetricResp {
                request_id,
                task,
                metrics,
            } => {
                let mut values = vec![Value::Int(*request_id as i64), Value::Int(task.0 as i64)];
                values.push(Value::List(
                    metrics
                        .iter()
                        .map(|(k, v)| Value::List(vec![Value::Str(k.clone()), Value::Int(*v)]))
                        .collect(),
                ));
                values
            }
            ControlTuple::InputRate { tuples_per_sec } => {
                vec![Value::Int(*tuples_per_sec as i64)]
            }
            ControlTuple::BatchSize { size } => vec![Value::Int(*size as i64)],
            ControlTuple::Fence { request_id, after } => vec![
                Value::Int(*request_id as i64),
                Value::List(after.iter().map(|t| Value::Int(t.0 as i64)).collect()),
            ],
            ControlTuple::FenceReply { request_id, task } => {
                vec![Value::Int(*request_id as i64), Value::Int(task.0 as i64)]
            }
        };
        Tuple {
            meta: TupleMeta {
                src_task: src,
                stream: self.stream(),
                message_id: MessageId::NONE,
                trace: 0,
            },
            values,
        }
    }

    /// Decodes a control tuple; `None` when the tuple is not on a control
    /// stream or its payload is malformed (a malformed control tuple is
    /// ignored rather than crashing the worker).
    pub fn from_tuple(tuple: &Tuple) -> Option<ControlTuple> {
        let v = &tuple.values;
        match tuple.meta.stream {
            StreamId::CTRL_ROUTING => {
                let downstream = v.first()?.as_str()?.to_owned();
                let next_hops = match v.get(1)? {
                    Value::Nil => None,
                    Value::List(items) => Some(
                        items
                            .iter()
                            .map(|i| i.as_int().map(|n| TaskId(n as u32)))
                            .collect::<Option<Vec<_>>>()?,
                    ),
                    _ => return None,
                };
                let policy = match v.get(2)? {
                    Value::Nil => None,
                    Value::List(items) => {
                        let name = items.first()?.as_str()?;
                        let keys: Vec<String> = items
                            .get(1)?
                            .as_list()?
                            .iter()
                            .map(|k| k.as_str().map(str::to_owned))
                            .collect::<Option<_>>()?;
                        let key_indices: Vec<usize> = items
                            .get(2)?
                            .as_list()?
                            .iter()
                            .map(|k| k.as_int().map(|n| n as usize))
                            .collect::<Option<_>>()?;
                        let grouping = match name {
                            "shuffle" => Grouping::Shuffle,
                            "fields" => Grouping::Fields(keys),
                            "global" => Grouping::Global,
                            "all" => Grouping::All,
                            "sdn" => Grouping::SdnOffloaded,
                            _ => return None,
                        };
                        Some((grouping, key_indices))
                    }
                    _ => return None,
                };
                Some(ControlTuple::Routing {
                    downstream,
                    next_hops,
                    policy,
                })
            }
            StreamId::CTRL_SIGNAL => Some(ControlTuple::Signal),
            StreamId::CTRL_METRIC_REQ => Some(ControlTuple::MetricReq {
                request_id: v.first()?.as_int()? as u64,
            }),
            StreamId::CTRL_METRIC_RESP => {
                let request_id = v.first()?.as_int()? as u64;
                let task = TaskId(v.get(1)?.as_int()? as u32);
                let metrics = v
                    .get(2)?
                    .as_list()?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_list()?;
                        Some((pair.first()?.as_str()?.to_owned(), pair.get(1)?.as_int()?))
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(ControlTuple::MetricResp {
                    request_id,
                    task,
                    metrics,
                })
            }
            StreamId::CTRL_INPUT_RATE => Some(ControlTuple::InputRate {
                tuples_per_sec: v.first()?.as_int()? as u32,
            }),
            StreamId::CTRL_ACTIVATE => Some(ControlTuple::Activate),
            StreamId::CTRL_DEACTIVATE => Some(ControlTuple::Deactivate),
            StreamId::CTRL_BATCH_SIZE => Some(ControlTuple::BatchSize {
                size: v.first()?.as_int()? as u32,
            }),
            StreamId::CTRL_REPLAY => Some(ControlTuple::Replay),
            StreamId::CTRL_RESTATE => Some(ControlTuple::Restate),
            StreamId::CTRL_FENCE => {
                let request_id = v.first()?.as_int()? as u64;
                match v.get(1)? {
                    Value::List(items) => Some(ControlTuple::Fence {
                        request_id,
                        after: items
                            .iter()
                            .map(|i| i.as_int().map(|n| TaskId(n as u32)))
                            .collect::<Option<_>>()?,
                    }),
                    Value::Int(task) => Some(ControlTuple::FenceReply {
                        request_id,
                        task: TaskId(*task as u32),
                    }),
                    _ => None,
                }
            }
            StreamId::CTRL_DRAIN => Some(ControlTuple::Drain),
            _ => None,
        }
    }
}

/// The reserved task ID control tuples are "sourced" from when the SDN
/// controller injects them.
pub const CONTROLLER_TASK: TaskId = TaskId(u32::MAX);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ct: ControlTuple) {
        let tuple = ct.to_tuple(CONTROLLER_TASK);
        assert!(tuple.is_control() || tuple.meta.stream == StreamId::CTRL_METRIC_RESP);
        let decoded = ControlTuple::from_tuple(&tuple).expect("decodes");
        assert_eq!(decoded, ct);
    }

    #[test]
    fn roundtrip_routing_hops_only() {
        roundtrip(ControlTuple::Routing {
            downstream: "count".into(),
            next_hops: Some(vec![TaskId(3), TaskId(4), TaskId(5)]),
            policy: None,
        });
    }

    #[test]
    fn roundtrip_routing_policy_only() {
        roundtrip(ControlTuple::Routing {
            downstream: "count".into(),
            next_hops: None,
            policy: Some((Grouping::Fields(vec!["word".into()]), vec![0])),
        });
        roundtrip(ControlTuple::Routing {
            downstream: "count".into(),
            next_hops: None,
            policy: Some((Grouping::Shuffle, vec![])),
        });
    }

    #[test]
    fn roundtrip_signal_and_rate_controls() {
        roundtrip(ControlTuple::Signal);
        roundtrip(ControlTuple::Activate);
        roundtrip(ControlTuple::Deactivate);
        roundtrip(ControlTuple::Replay);
        roundtrip(ControlTuple::Restate);
        roundtrip(ControlTuple::Drain);
        roundtrip(ControlTuple::InputRate {
            tuples_per_sec: 5000,
        });
        roundtrip(ControlTuple::BatchSize { size: 250 });
    }

    #[test]
    fn roundtrip_metrics() {
        roundtrip(ControlTuple::MetricReq { request_id: 77 });
        roundtrip(ControlTuple::MetricResp {
            request_id: 77,
            task: TaskId(4),
            metrics: vec![("queue.depth".into(), 120), ("tuples.emitted".into(), 9000)],
        });
    }

    #[test]
    fn roundtrip_fences() {
        roundtrip(ControlTuple::Fence {
            request_id: 9,
            after: vec![TaskId(2), TaskId(3)],
        });
        roundtrip(ControlTuple::Fence {
            request_id: 10,
            after: vec![],
        });
        roundtrip(ControlTuple::FenceReply {
            request_id: 9,
            task: TaskId(4),
        });
    }

    #[test]
    fn data_tuple_is_not_a_control_tuple() {
        let t = Tuple::new(TaskId(1), vec![Value::Int(5)]);
        assert!(ControlTuple::from_tuple(&t).is_none());
    }

    #[test]
    fn malformed_control_payload_is_ignored() {
        // ROUTING stream but garbage payload.
        let t = Tuple::on_stream(TaskId(0), StreamId::CTRL_ROUTING, vec![Value::Int(5)]);
        assert!(ControlTuple::from_tuple(&t).is_none());
        let t = Tuple::on_stream(TaskId(0), StreamId::CTRL_METRIC_REQ, vec![]);
        assert!(ControlTuple::from_tuple(&t).is_none());
    }

    #[test]
    fn streams_match_table2() {
        assert_eq!(ControlTuple::Signal.stream(), StreamId::CTRL_SIGNAL);
        assert_eq!(
            ControlTuple::BatchSize { size: 1 }.stream(),
            StreamId::CTRL_BATCH_SIZE
        );
    }
}

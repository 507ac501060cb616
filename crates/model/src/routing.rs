//! Per-worker routing state — the paper's Listing 1, made reconfigurable.
//!
//! Every worker holds, per outgoing edge, a [`RoutingState`]: the list of
//! next-hop tasks (`nextHops`), its length (`numNextHops`), the routing
//! policy type and the policy-specific state (round-robin counter, key field
//! indices). In Typhoon this state is *owned by the control plane*: a
//! `ROUTING` control tuple replaces it atomically at runtime, which is the
//! flexibility mechanism of §3.3.2.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use typhoon_tuple::tuple::TaskId;
use typhoon_tuple::{Tuple, Value};

/// How tuples on one edge are distributed to the downstream node's tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Grouping {
    /// Round-robin across next hops (load balancing, stateless nodes).
    Shuffle,
    /// Hash of the named fields modulo the hop count (stateful nodes:
    /// identical keys always reach the same task).
    Fields(Vec<String>),
    /// Everything to one task (sink aggregation).
    Global,
    /// A copy to every next hop (one-to-many; the pattern Typhoon offloads
    /// to network-layer broadcast).
    All,
    /// Destination chosen by the network, not the worker: the worker stamps
    /// a random next hop and the SDN switch rewrites it via a select group
    /// (the SDN load-balancer application of §4).
    SdnOffloaded,
}

impl Grouping {
    /// Short display name used in logs and the live debugger.
    pub fn name(&self) -> &'static str {
        match self {
            Grouping::Shuffle => "shuffle",
            Grouping::Fields(_) => "fields",
            Grouping::Global => "global",
            Grouping::All => "all",
            Grouping::SdnOffloaded => "sdn",
        }
    }

    /// True when the worker addresses each tuple to the task that receives
    /// it (shuffle, fields, global). Only then does a frame addressed to
    /// one hop follow that hop's data, FIFO: broadcast replicas go through
    /// the group's rule and SDN-offloaded frames are rewritten by the switch.
    pub fn is_unicast(&self) -> bool {
        matches!(
            self,
            Grouping::Shuffle | Grouping::Fields(_) | Grouping::Global
        )
    }
}

/// The routing decision for one tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RouteDecision {
    /// Send to exactly one task.
    One(TaskId),
    /// Send a copy to every next hop (serialization-free broadcast on
    /// Typhoon; per-destination serialization on the baseline).
    Broadcast,
    /// No next hops are configured; the tuple is dropped and counted.
    Drop,
}

/// Runtime routing state for one (worker, downstream node) edge.
///
/// Field names intentionally mirror the paper's Listing 1.
#[derive(Debug, Clone)]
pub struct RoutingState {
    policy: Grouping,
    /// `nextHops` — the downstream task IDs, in stable (sorted) order so
    /// that every upstream worker resolves `hash % n` identically.
    next_hops: Vec<TaskId>,
    /// Round-robin `counter` (policy-specific state).
    counter: usize,
    /// Resolved indices of the key fields in the upstream output schema
    /// (policy-specific state for [`Grouping::Fields`]).
    key_indices: Vec<usize>,
}

impl RoutingState {
    /// Builds routing state. For [`Grouping::Fields`], `key_indices` must be
    /// pre-resolved against the emitting node's output schema (the logical
    /// topology validation guarantees they exist).
    pub fn new(policy: Grouping, mut next_hops: Vec<TaskId>, key_indices: Vec<usize>) -> Self {
        next_hops.sort_unstable();
        RoutingState {
            policy,
            next_hops,
            counter: 0,
            key_indices,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> &Grouping {
        &self.policy
    }

    /// `numNextHops` in the paper's listing.
    pub fn num_next_hops(&self) -> usize {
        self.next_hops.len()
    }

    /// The current next-hop set.
    pub fn next_hops(&self) -> &[TaskId] {
        &self.next_hops
    }

    /// Routes one tuple. Mutates policy-specific state (the round-robin
    /// counter), exactly like the paper's Listing 1.
    pub fn route(&mut self, tuple: &Tuple) -> RouteDecision {
        if self.next_hops.is_empty() {
            return RouteDecision::Drop;
        }
        match &self.policy {
            Grouping::Shuffle => {
                let index = self.counter % self.next_hops.len();
                self.counter = self.counter.wrapping_add(1);
                RouteDecision::One(self.next_hops[index])
            }
            Grouping::Fields(_) => {
                let mut hasher = DefaultHasher::new();
                for &i in &self.key_indices {
                    tuple.values.get(i).unwrap_or(&Value::Nil).hash(&mut hasher);
                }
                let index = (hasher.finish() % self.next_hops.len() as u64) as usize;
                RouteDecision::One(self.next_hops[index])
            }
            Grouping::Global => RouteDecision::One(self.next_hops[0]),
            Grouping::All => RouteDecision::Broadcast,
            Grouping::SdnOffloaded => {
                // The worker picks an arbitrary member; the switch's select
                // group rewrites the destination (§4, Load balancer).
                let index = self.counter % self.next_hops.len();
                self.counter = self.counter.wrapping_add(1);
                RouteDecision::One(self.next_hops[index])
            }
        }
    }

    /// Replaces `nextHops`/`numNextHops` — the payload of a `ROUTING`
    /// control tuple when parallelism changes (§3.3.2).
    pub fn set_next_hops(&mut self, mut hops: Vec<TaskId>) {
        hops.sort_unstable();
        self.next_hops = hops;
        // Reset the round-robin cursor so distribution restarts evenly.
        self.counter = 0;
    }

    /// Replaces the policy and its policy-specific state — the payload of a
    /// `ROUTING` control tuple when the routing *type* changes.
    pub fn set_policy(&mut self, policy: Grouping, key_indices: Vec<usize>) {
        self.policy = policy;
        self.key_indices = key_indices;
        self.counter = 0;
    }

    /// The resolved key indices (empty unless fields-grouped).
    pub fn key_indices(&self) -> &[usize] {
        &self.key_indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple_with(values: Vec<Value>) -> Tuple {
        Tuple::new(TaskId(0), values)
    }

    fn hops(ids: &[u32]) -> Vec<TaskId> {
        ids.iter().map(|&i| TaskId(i)).collect()
    }

    #[test]
    fn shuffle_cycles_evenly() {
        let mut rs = RoutingState::new(Grouping::Shuffle, hops(&[1, 2, 3]), vec![]);
        let t = tuple_with(vec![]);
        let picks: Vec<_> = (0..6).map(|_| rs.route(&t)).collect();
        assert_eq!(
            picks,
            vec![
                RouteDecision::One(TaskId(1)),
                RouteDecision::One(TaskId(2)),
                RouteDecision::One(TaskId(3)),
                RouteDecision::One(TaskId(1)),
                RouteDecision::One(TaskId(2)),
                RouteDecision::One(TaskId(3)),
            ]
        );
    }

    #[test]
    fn fields_grouping_is_sticky_per_key() {
        let mut rs = RoutingState::new(
            Grouping::Fields(vec!["word".into()]),
            hops(&[10, 11, 12, 13]),
            vec![0],
        );
        let a1 = rs.route(&tuple_with(vec![Value::Str("apple".into()), Value::Int(1)]));
        let a2 = rs.route(&tuple_with(vec![Value::Str("apple".into()), Value::Int(2)]));
        assert_eq!(a1, a2, "same key must route to the same task");
    }

    #[test]
    fn fields_grouping_ignores_non_key_fields() {
        let mut rs = RoutingState::new(
            Grouping::Fields(vec!["k".into()]),
            hops(&[1, 2, 3]),
            vec![0],
        );
        let x = rs.route(&tuple_with(vec![
            Value::Int(7),
            Value::Str("noise-a".into()),
        ]));
        let y = rs.route(&tuple_with(vec![
            Value::Int(7),
            Value::Str("noise-b".into()),
        ]));
        assert_eq!(x, y);
    }

    #[test]
    fn global_always_picks_lowest_task() {
        let mut rs = RoutingState::new(Grouping::Global, hops(&[9, 4, 7]), vec![]);
        let t = tuple_with(vec![]);
        for _ in 0..3 {
            assert_eq!(rs.route(&t), RouteDecision::One(TaskId(4)));
        }
    }

    #[test]
    fn all_grouping_broadcasts() {
        let mut rs = RoutingState::new(Grouping::All, hops(&[1, 2]), vec![]);
        assert_eq!(rs.route(&tuple_with(vec![])), RouteDecision::Broadcast);
    }

    #[test]
    fn empty_next_hops_drops() {
        let mut rs = RoutingState::new(Grouping::Shuffle, vec![], vec![]);
        assert_eq!(rs.route(&tuple_with(vec![])), RouteDecision::Drop);
    }

    #[test]
    fn routing_control_update_changes_next_hops() {
        // The scale-up scenario: a ROUTING control tuple adds a next hop.
        let mut rs = RoutingState::new(Grouping::Shuffle, hops(&[1, 2]), vec![]);
        rs.set_next_hops(hops(&[1, 2, 3]));
        assert_eq!(rs.num_next_hops(), 3);
        let t = tuple_with(vec![]);
        let picks: std::collections::HashSet<_> = (0..3).map(|_| rs.route(&t)).collect();
        assert_eq!(picks.len(), 3, "all three hops are used after the update");
    }

    #[test]
    fn routing_control_update_changes_policy_type() {
        // "change routing type (e.g., from key-based to round robin)" — §3.2.
        let mut rs = RoutingState::new(Grouping::Fields(vec!["k".into()]), hops(&[1, 2]), vec![0]);
        rs.set_policy(Grouping::Shuffle, vec![]);
        assert_eq!(rs.policy().name(), "shuffle");
        let t = tuple_with(vec![Value::Int(1)]);
        let a = rs.route(&t);
        let b = rs.route(&t);
        assert_ne!(a, b, "round robin alternates even for identical keys");
    }

    #[test]
    fn key_change_without_hop_change() {
        // "change a set of fields for key-based routing without changing the
        // number of next-hop workers" — §3.3.2.
        let mut rs = RoutingState::new(
            Grouping::Fields(vec!["a".into()]),
            hops(&[1, 2, 3]),
            vec![0],
        );
        let t1 = tuple_with(vec![Value::Int(1), Value::Int(100)]);
        let t2 = tuple_with(vec![Value::Int(1), Value::Int(200)]);
        assert_eq!(rs.route(&t1), rs.route(&t2), "keyed on field 0");
        rs.set_policy(Grouping::Fields(vec!["b".into()]), vec![1]);
        let r1 = rs.route(&t1);
        let _ = r1;
        // After re-keying on field 1, identical field-1 values still co-route.
        let t3 = tuple_with(vec![Value::Int(999), Value::Int(100)]);
        let t4 = tuple_with(vec![Value::Int(-5), Value::Int(100)]);
        assert_eq!(rs.route(&t3), rs.route(&t4), "keyed on field 1 now");
    }

    #[test]
    fn next_hops_are_kept_sorted_for_cross_worker_consistency() {
        let rs = RoutingState::new(Grouping::Fields(vec![]), hops(&[5, 1, 3]), vec![]);
        assert_eq!(rs.next_hops(), &[TaskId(1), TaskId(3), TaskId(5)]);
    }

    #[test]
    fn missing_key_field_hashes_as_nil_instead_of_panicking() {
        let mut rs = RoutingState::new(
            Grouping::Fields(vec!["k".into()]),
            hops(&[1, 2]),
            vec![5], // out of range for the tuple below
        );
        let d = rs.route(&tuple_with(vec![Value::Int(1)]));
        assert!(matches!(d, RouteDecision::One(_)));
    }
}

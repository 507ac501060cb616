//! Stable topology update planning (§3.5, Fig. 6).
//!
//! Given the before/after logical and physical topologies of a
//! reconfiguration, [`plan_update`] computes the exact, ordered action
//! sequence that avoids tuple loss and state corruption:
//!
//! * **Stateless add** (Fig. 6(a), scale-up): launch new workers first,
//!   install their rules, *then* update predecessors' routing — so no
//!   tuple is ever sent to a worker that cannot receive it.
//! * **Stateless remove** (scale-down): update predecessors first, let the
//!   victim drain, then kill it. Each predecessor that drops the victim
//!   from a unicast route sends it a `DRAIN` marker behind its last tuple;
//!   the victim answers its `FENCE` only once every such marker arrived,
//!   so the kill follows the last tuple ([`UpdatePlan::drains`]).
//! * **Stateful update** (Fig. 6(b)): additionally inject `SIGNAL` tuples
//!   so the stateful workers flush their in-memory caches before the
//!   routing change (and before being killed).
//!
//! The plan itself is a pure value, unit-testable without a running
//! cluster; [`crate::manager::StreamingManager`] executes it.

use typhoon_model::{Grouping, LogicalTopology, PhysicalTopology, TaskAssignment, TaskId};

/// The ordered steps of one stable update.
#[derive(Debug, Default, PartialEq)]
pub struct UpdatePlan {
    /// Step 1: workers to launch (already scheduled in the new physical
    /// topology).
    pub launches: Vec<TaskAssignment>,
    /// Step 2 happens outside the plan: rule installation for the new
    /// topology (the controller derives it from the new global state).
    ///
    /// Step 3a: stateful workers that must receive a `SIGNAL` flush before
    /// any routing changes (Fig. 6(b) step 2).
    pub signals: Vec<TaskId>,
    /// Step 3b: `ROUTING` control-tuple updates — `(predecessor task,
    /// downstream node, new next hops)`.
    pub routing_updates: Vec<(TaskId, String, Vec<TaskId>)>,
    /// Step 3c: routing *policy* updates — `(predecessor task, downstream
    /// node, new grouping, resolved key indices)`.
    pub policy_updates: Vec<(TaskId, String, Grouping, Vec<usize>)>,
    /// Step 4: workers to drain and remove, after predecessors stopped
    /// sending to them.
    pub removals: Vec<TaskAssignment>,
    /// Step 4's fences, one per removal: `(removed task, predecessor tasks
    /// whose DRAIN markers it must see first)`. Only predecessors that
    /// reach it over a unicast edge are listed; broadcast and SDN-offloaded
    /// members leave their groups with the new-shape rule install, which
    /// precedes the fence.
    pub drains: Vec<(TaskId, Vec<TaskId>)>,
}

impl UpdatePlan {
    /// True when the reconfiguration requires no action.
    pub fn is_empty(&self) -> bool {
        self.launches.is_empty()
            && self.signals.is_empty()
            && self.routing_updates.is_empty()
            && self.policy_updates.is_empty()
            && self.removals.is_empty()
    }
}

/// Computes the stable-update plan between two topology versions.
pub fn plan_update(
    old_logical: &LogicalTopology,
    new_logical: &LogicalTopology,
    old_physical: &PhysicalTopology,
    new_physical: &PhysicalTopology,
) -> UpdatePlan {
    let mut plan = UpdatePlan::default();

    // Task-level diff.
    let old_tasks: std::collections::HashSet<TaskId> =
        old_physical.assignments.iter().map(|a| a.task).collect();
    let new_tasks: std::collections::HashSet<TaskId> =
        new_physical.assignments.iter().map(|a| a.task).collect();
    plan.launches = new_physical
        .assignments
        .iter()
        .filter(|a| !old_tasks.contains(&a.task))
        .cloned()
        .collect();
    plan.removals = old_physical
        .assignments
        .iter()
        .filter(|a| !new_tasks.contains(&a.task))
        .cloned()
        .collect();

    // Nodes whose task set changed need predecessor routing updates.
    let mut changed_nodes: Vec<&str> = Vec::new();
    for node in new_logical.nodes.iter().map(|n| n.name.as_str()) {
        let old_set = old_physical.tasks_of(node);
        let new_set = new_physical.tasks_of(node);
        if old_set != new_set {
            changed_nodes.push(node);
        }
    }

    for node in &changed_nodes {
        // Stateful downstream ⇒ SIGNAL its *current* tasks so cached state
        // is flushed under the old routing (Fig. 6(b)).
        let stateful = new_logical
            .node(node)
            .or_else(|| old_logical.node(node))
            .map(|n| n.stateful)
            .unwrap_or(false);
        if stateful {
            plan.signals.extend(old_physical.tasks_of(node));
        }
        let new_hops = new_physical.tasks_of(node);
        for pred in new_logical.predecessors(node) {
            // Predecessor tasks that survive the update get ROUTING tuples;
            // freshly launched ones are born with the new hops already.
            for pred_task in old_physical.tasks_of(pred) {
                if new_tasks.contains(&pred_task) {
                    plan.routing_updates
                        .push((pred_task, (*node).to_owned(), new_hops.clone()));
                }
            }
        }
    }

    // Every predecessor that drops a removed task from a unicast route
    // marks the end of its stream there. Hop updates go out before policy
    // updates, so the predecessor still runs the old edge's policy.
    for removed in &plan.removals {
        let after = plan
            .routing_updates
            .iter()
            .filter(|(pred, node, hops)| {
                *node == removed.node
                    && !hops.contains(&removed.task)
                    && old_physical.assignment(*pred).is_some_and(|p| {
                        old_logical.edges.iter().any(|e| {
                            e.from == p.node && e.to == removed.node && e.grouping.is_unicast()
                        })
                    })
            })
            .map(|(pred, _, _)| *pred)
            .collect();
        plan.drains.push((removed.task, after));
    }

    // Grouping (routing-policy) changes on surviving edges.
    for new_edge in &new_logical.edges {
        let old_edge = old_logical.edges.iter().find(|e| {
            e.from == new_edge.from && e.to == new_edge.to && e.stream == new_edge.stream
        });
        if let Some(old_edge) = old_edge {
            if old_edge.grouping != new_edge.grouping {
                let key_indices = match &new_edge.grouping {
                    Grouping::Fields(keys) => new_logical
                        .node(&new_edge.from)
                        .and_then(|n| n.output_fields.resolve(keys).ok())
                        .unwrap_or_default(),
                    _ => Vec::new(),
                };
                for pred_task in new_physical.tasks_of(&new_edge.from) {
                    plan.policy_updates.push((
                        pred_task,
                        new_edge.to.clone(),
                        new_edge.grouping.clone(),
                        key_indices.clone(),
                    ));
                }
            }
        }
    }

    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use typhoon_model::logical::word_count_example;
    use typhoon_model::{
        AppId, HostInfo, LocalityScheduler, ReconfigOp, ReconfigRequest, Scheduler,
    };

    fn hosts() -> Vec<HostInfo> {
        vec![HostInfo::new(0, "h0", 16)]
    }

    fn schedule(logical: &LogicalTopology) -> PhysicalTopology {
        LocalityScheduler
            .schedule(AppId(1), logical, &hosts())
            .unwrap()
    }

    /// Grows `split` from 2 to 3 and recomputes placement, keeping old
    /// task ids stable the way the manager's incremental reschedule does
    /// (here we fake it by scheduling fresh and renaming — sufficient for
    /// plan-shape assertions via the full-reschedule path).
    #[test]
    fn scale_up_launches_then_updates_predecessors() {
        let old_logical = word_count_example();
        let old_physical = schedule(&old_logical);
        let mut new_logical = old_logical.clone();
        ReconfigRequest::single(
            "word-count",
            ReconfigOp::SetParallelism {
                node: "split".into(),
                parallelism: 3,
            },
        )
        .apply(&mut new_logical)
        .unwrap();
        // Incremental physical: copy old, add one split task.
        let mut new_physical = old_physical.clone();
        let new_task = new_physical.next_task_id();
        new_physical.assignments.push(TaskAssignment {
            task: new_task,
            node: "split".into(),
            component: "splitter".into(),
            host: typhoon_model::HostId(0),
            switch_port: 99,
        });
        new_physical.version += 1;

        let plan = plan_update(&old_logical, &new_logical, &old_physical, &new_physical);
        assert_eq!(plan.launches.len(), 1);
        assert_eq!(plan.launches[0].task, new_task);
        assert!(plan.removals.is_empty());
        // split is stateless: no signals.
        assert!(plan.signals.is_empty());
        // The predecessor (input, 1 task) gets a routing update listing
        // all three split tasks.
        assert_eq!(plan.routing_updates.len(), 1);
        let (_pred, node, hops) = &plan.routing_updates[0];
        assert_eq!(node, "split");
        assert_eq!(hops.len(), 3);
        assert!(hops.contains(&new_task));
    }

    #[test]
    fn scale_down_removes_after_rerouting() {
        let old_logical = word_count_example();
        let old_physical = schedule(&old_logical);
        let mut new_logical = old_logical.clone();
        new_logical.node_mut("split").unwrap().parallelism = 1;
        let mut new_physical = old_physical.clone();
        let victims = old_physical.tasks_of("split");
        let victim = victims[1];
        new_physical.assignments.retain(|a| a.task != victim);
        new_physical.version += 1;

        let plan = plan_update(&old_logical, &new_logical, &old_physical, &new_physical);
        assert!(plan.launches.is_empty());
        assert_eq!(plan.removals.len(), 1);
        assert_eq!(plan.removals[0].task, victim);
        let (_pred, node, hops) = &plan.routing_updates[0];
        assert_eq!(node, "split");
        assert_eq!(hops.len(), 1);
        assert!(!hops.contains(&victim), "victim is out of the hop set");
        // The victim's fence waits for the marker of its only predecessor.
        let input = old_physical.tasks_of("input");
        assert_eq!(plan.drains, vec![(victim, input)]);
    }

    #[test]
    fn broadcast_members_are_fenced_without_markers() {
        let logical = LogicalTopology::builder("fan")
            .spout("src", "s", 1, typhoon_model::Fields::new(["n"]))
            .bolt("sink", "k", 3, typhoon_model::Fields::new(["n"]))
            .edge("src", "sink", Grouping::All)
            .build()
            .unwrap();
        let old_physical = schedule(&logical);
        let mut new_logical = logical.clone();
        new_logical.node_mut("sink").unwrap().parallelism = 2;
        let mut new_physical = old_physical.clone();
        let victim = *old_physical.tasks_of("sink").last().unwrap();
        new_physical.assignments.retain(|a| a.task != victim);
        let plan = plan_update(&logical, &new_logical, &old_physical, &new_physical);
        assert_eq!(plan.routing_updates.len(), 1, "the source still shrinks");
        assert_eq!(plan.drains, vec![(victim, vec![])]);
    }

    #[test]
    fn stateful_node_change_emits_signals_to_old_tasks() {
        let old_logical = word_count_example();
        let old_physical = schedule(&old_logical);
        let mut new_logical = old_logical.clone();
        new_logical.node_mut("count").unwrap().parallelism = 3; // count is stateful
        let mut new_physical = old_physical.clone();
        let new_task = new_physical.next_task_id();
        new_physical.assignments.push(TaskAssignment {
            task: new_task,
            node: "count".into(),
            component: "counter".into(),
            host: typhoon_model::HostId(0),
            switch_port: 98,
        });
        let plan = plan_update(&old_logical, &new_logical, &old_physical, &new_physical);
        let old_count_tasks = old_physical.tasks_of("count");
        assert_eq!(plan.signals, old_count_tasks, "Fig. 6(b): flush first");
    }

    #[test]
    fn logic_swap_replaces_all_tasks_of_node() {
        let old_logical = word_count_example();
        let old_physical = schedule(&old_logical);
        let mut new_logical = old_logical.clone();
        new_logical.node_mut("split").unwrap().component = "splitter-v2".into();
        // Manager semantics: logic swap = new tasks with new component,
        // old tasks removed.
        let mut new_physical = old_physical.clone();
        let old_split: Vec<TaskId> = old_physical.tasks_of("split");
        new_physical
            .assignments
            .retain(|a| !old_split.contains(&a.task));
        let base = old_physical.next_task_id().0;
        for (i, _) in old_split.iter().enumerate() {
            new_physical.assignments.push(TaskAssignment {
                task: TaskId(base + i as u32),
                node: "split".into(),
                component: "splitter-v2".into(),
                host: typhoon_model::HostId(0),
                switch_port: 90 + i as u32,
            });
        }
        let plan = plan_update(&old_logical, &new_logical, &old_physical, &new_physical);
        assert_eq!(plan.launches.len(), 2, "new-logic workers launched");
        assert_eq!(plan.removals.len(), 2, "old-logic workers retired");
        assert!(plan.launches.iter().all(|a| a.component == "splitter-v2"));
        // Predecessor rerouted to the new tasks only.
        let (_p, _n, hops) = &plan.routing_updates[0];
        assert!(old_split.iter().all(|t| !hops.contains(t)));
    }

    #[test]
    fn grouping_change_emits_policy_updates_only() {
        let old_logical = word_count_example();
        let old_physical = schedule(&old_logical);
        let mut new_logical = old_logical.clone();
        ReconfigRequest::single(
            "word-count",
            ReconfigOp::SetGrouping {
                from: "split".into(),
                to: "count".into(),
                grouping: Grouping::Shuffle,
            },
        )
        .apply(&mut new_logical)
        .unwrap();
        let plan = plan_update(&old_logical, &new_logical, &old_physical, &old_physical);
        assert!(plan.launches.is_empty() && plan.removals.is_empty());
        assert!(plan.routing_updates.is_empty());
        assert_eq!(plan.policy_updates.len(), 2, "both split tasks retuned");
        let (_t, node, grouping, _keys) = &plan.policy_updates[0];
        assert_eq!(node, "count");
        assert_eq!(*grouping, Grouping::Shuffle);
    }

    #[test]
    fn identical_topologies_need_no_plan() {
        let logical = word_count_example();
        let physical = schedule(&logical);
        let plan = plan_update(&logical, &logical, &physical, &physical);
        assert!(plan.is_empty());
    }
}

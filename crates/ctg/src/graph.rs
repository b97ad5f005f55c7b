//! The Communication Task Graph container and its builder.

use serde::{Deserialize, Serialize, Value};
use std::collections::HashSet;
use std::fmt;

use noc_platform::units::Volume;

use crate::edge::{Edge, EdgeId};
use crate::task::{Task, TaskId};
use crate::CtgError;

/// A validated Communication Task Graph (Def. 1): a DAG of [`Task`]s
/// connected by [`Edge`]s, with all per-PE cost vectors sized for the
/// same `pe_count`.
///
/// Construct with [`TaskGraph::builder`]; see the [crate-level
/// documentation](crate) for an example. Validation (acyclicity, cost
/// vector sizes, duplicate arcs) happens once at build time so queries
/// are infallible afterwards. Deserializing runs the same validation:
/// the JSON's tasks and arcs go through the builder, and its `succs`,
/// `preds` and `topo` must equal what [`TaskGraphBuilder::build`]
/// derives from them.
#[derive(Debug, Clone, Serialize)]
pub struct TaskGraph {
    name: String,
    pe_count: usize,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    /// Outgoing edge ids per task.
    succs: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per task.
    preds: Vec<Vec<EdgeId>>,
    /// A fixed topological order (deterministic: Kahn with min-id choice).
    topo: Vec<TaskId>,
}

impl TaskGraph {
    /// Starts building a graph whose cost vectors target `pe_count` PEs.
    #[must_use]
    pub fn builder(name: impl Into<String>, pe_count: usize) -> TaskGraphBuilder {
        TaskGraphBuilder {
            name: name.into(),
            pe_count,
            tasks: Vec::new(),
            edges: Vec::new(),
            edge_set: HashSet::new(),
        }
    }

    /// Graph name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of PEs the cost vectors target.
    #[must_use]
    pub fn pe_count(&self) -> usize {
        self.pe_count
    }

    /// Number of tasks.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of dependency arcs.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All task ids in index order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId::new)
    }

    /// All edge ids in index order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId::new)
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// All tasks, id order.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All edges, id order.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Ids of arcs leaving `id` (to its consumers).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn outgoing(&self, id: TaskId) -> &[EdgeId] {
        &self.succs[id.index()]
    }

    /// Ids of arcs entering `id` (from its producers) — the task's
    /// *receiving communication transactions* (the paper's LCT).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn incoming(&self, id: TaskId) -> &[EdgeId] {
        &self.preds[id.index()]
    }

    /// Successor task ids of `id`.
    pub fn successors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.succs[id.index()]
            .iter()
            .map(|&e| self.edges[e.index()].dst)
    }

    /// Predecessor task ids of `id`.
    pub fn predecessors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.preds[id.index()]
            .iter()
            .map(|&e| self.edges[e.index()].src)
    }

    /// A fixed topological order of all tasks (deterministic).
    #[must_use]
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Tasks with no predecessors.
    pub fn sources(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_ids().filter(|t| self.preds[t.index()].is_empty())
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_ids().filter(|t| self.succs[t.index()].is_empty())
    }

    /// Tasks carrying an explicit deadline.
    pub fn deadline_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.task_ids().filter(|t| self.task(*t).has_deadline())
    }

    /// Total communication volume over all arcs.
    #[must_use]
    pub fn total_volume(&self) -> Volume {
        self.edges.iter().map(|e| e.volume).sum()
    }

    /// Validates that a task id is within range.
    ///
    /// # Errors
    ///
    /// [`CtgError::UnknownTask`] if out of range.
    pub fn check_task(&self, task: TaskId) -> Result<(), CtgError> {
        if task.index() < self.tasks.len() {
            Ok(())
        } else {
            Err(CtgError::UnknownTask {
                task,
                task_count: self.tasks.len(),
            })
        }
    }
}

impl Deserialize for TaskGraph {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        wire::TaskGraph::from_value(value)?.build()
    }
}

/// A [`TaskGraph`] as it arrives in JSON, before any check. The struct
/// shares the graph's name, so a missing field or a wrong type reads
/// `... in TaskGraph` exactly as a derived impl would report it.
mod wire {
    use serde::{Deserialize, Error};
    use std::collections::HashSet;

    use crate::edge::{Edge, EdgeId};
    use crate::task::{Task, TaskId};

    #[derive(Deserialize)]
    pub(super) struct TaskGraph {
        name: String,
        pe_count: usize,
        tasks: Vec<Task>,
        edges: Vec<Edge>,
        succs: Vec<Vec<EdgeId>>,
        preds: Vec<Vec<EdgeId>>,
        topo: Vec<TaskId>,
    }

    impl TaskGraph {
        /// Re-feeds the tasks and arcs through the builder, then checks
        /// the sent adjacency and order against what it derives.
        pub(super) fn build(self) -> Result<super::TaskGraph, Error> {
            let invalid = |e: crate::CtgError| Error::msg(e.to_string());
            let mut builder = super::TaskGraphBuilder {
                name: self.name,
                pe_count: self.pe_count,
                tasks: self.tasks,
                edges: Vec::with_capacity(self.edges.len()),
                edge_set: HashSet::with_capacity(self.edges.len()),
            };
            for e in self.edges {
                builder.add_edge(e.src, e.dst, e.volume).map_err(invalid)?;
            }
            let graph = builder.build().map_err(invalid)?;
            if self.succs != graph.succs {
                return Err(Error::msg("`succs` does not match the arcs in `edges`"));
            }
            if self.preds != graph.preds {
                return Err(Error::msg("`preds` does not match the arcs in `edges`"));
            }
            if self.topo != graph.topo {
                return Err(Error::msg(
                    "`topo` is not the topological order the builder derives",
                ));
            }
            Ok(graph)
        }
    }
}

impl fmt::Display for TaskGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} tasks, {} arcs, {} PEs",
            self.name,
            self.task_count(),
            self.edge_count(),
            self.pe_count
        )
    }
}

/// Incrementally assembles a [`TaskGraph`]; see [`TaskGraph::builder`].
#[derive(Debug, Clone)]
pub struct TaskGraphBuilder {
    name: String,
    pe_count: usize,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    edge_set: HashSet<(TaskId, TaskId)>,
}

impl TaskGraphBuilder {
    /// Adds a task, returning its id.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        let id = TaskId::new(self.tasks.len() as u32);
        self.tasks.push(task);
        id
    }

    /// Adds a dependency arc with the given communication volume.
    ///
    /// # Errors
    ///
    /// * [`CtgError::UnknownTask`] if either endpoint has not been added,
    /// * [`CtgError::SelfLoop`] if `src == dst`,
    /// * [`CtgError::DuplicateEdge`] if the arc already exists.
    pub fn add_edge(
        &mut self,
        src: TaskId,
        dst: TaskId,
        volume: Volume,
    ) -> Result<EdgeId, CtgError> {
        for t in [src, dst] {
            if t.index() >= self.tasks.len() {
                return Err(CtgError::UnknownTask {
                    task: t,
                    task_count: self.tasks.len(),
                });
            }
        }
        if src == dst {
            return Err(CtgError::SelfLoop(src));
        }
        if !self.edge_set.insert((src, dst)) {
            return Err(CtgError::DuplicateEdge { src, dst });
        }
        let id = EdgeId::new(self.edges.len() as u32);
        self.edges.push(Edge::new(src, dst, volume));
        Ok(id)
    }

    /// Adds a pure control dependency (zero volume).
    ///
    /// # Errors
    ///
    /// Same as [`add_edge`](Self::add_edge).
    pub fn add_control_edge(&mut self, src: TaskId, dst: TaskId) -> Result<EdgeId, CtgError> {
        self.add_edge(src, dst, Volume::ZERO)
    }

    /// Number of tasks added so far.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Mutable access to an already-added task (e.g. to set a deadline
    /// once the graph shape is known).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task_mut(&mut self, id: TaskId) -> &mut Task {
        &mut self.tasks[id.index()]
    }

    /// Validates and seals the graph.
    ///
    /// # Errors
    ///
    /// * [`CtgError::EmptyGraph`] if no tasks were added,
    /// * [`CtgError::CostVectorMismatch`] if any task's vectors do not
    ///   match the builder's `pe_count`,
    /// * [`CtgError::CyclicGraph`] if the arcs are not acyclic.
    pub fn build(self) -> Result<TaskGraph, CtgError> {
        if self.tasks.is_empty() {
            return Err(CtgError::EmptyGraph);
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if t.exec_times().len() != self.pe_count || t.exec_energies().len() != self.pe_count {
                return Err(CtgError::CostVectorMismatch {
                    task: TaskId::new(i as u32),
                    expected: self.pe_count,
                    times: t.exec_times().len(),
                    energies: t.exec_energies().len(),
                });
            }
        }
        let n = self.tasks.len();
        let mut succs: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            succs[e.src.index()].push(EdgeId::new(i as u32));
            preds[e.dst.index()].push(EdgeId::new(i as u32));
        }

        // Kahn's algorithm with a min-id ready set for determinism.
        let mut in_deg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = in_deg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| std::cmp::Reverse(i as u32))
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            let id = TaskId::new(i);
            topo.push(id);
            for &e in &succs[id.index()] {
                let d = self.edges[e.index()].dst;
                in_deg[d.index()] -= 1;
                if in_deg[d.index()] == 0 {
                    ready.push(std::cmp::Reverse(d.raw()));
                }
            }
        }
        if topo.len() != n {
            let witness = in_deg
                .iter()
                .position(|&d| d > 0)
                .map(|i| TaskId::new(i as u32))
                .expect("cycle implies a task with nonzero in-degree");
            return Err(CtgError::CyclicGraph { witness });
        }

        Ok(TaskGraph {
            name: self.name,
            pe_count: self.pe_count,
            tasks: self.tasks,
            edges: self.edges,
            succs,
            preds,
            topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_platform::units::{Energy, Time};

    fn task(name: &str) -> Task {
        Task::uniform(name, 2, Time::new(10), Energy::from_nj(1.0))
    }

    /// Builds the diamond a -> {b, c} -> d.
    fn diamond() -> TaskGraph {
        let mut b = TaskGraph::builder("diamond", 2);
        let a = b.add_task(task("a"));
        let b1 = b.add_task(task("b"));
        let c = b.add_task(task("c"));
        let d = b.add_task(task("d"));
        b.add_edge(a, b1, Volume::from_bits(8)).unwrap();
        b.add_edge(a, c, Volume::from_bits(8)).unwrap();
        b.add_edge(b1, d, Volume::from_bits(8)).unwrap();
        b.add_edge(c, d, Volume::from_bits(8)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn diamond_structure() {
        let g = diamond();
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.sources().collect::<Vec<_>>(), vec![TaskId::new(0)]);
        assert_eq!(g.sinks().collect::<Vec<_>>(), vec![TaskId::new(3)]);
        assert_eq!(g.incoming(TaskId::new(3)).len(), 2);
        assert_eq!(g.outgoing(TaskId::new(0)).len(), 2);
        assert_eq!(
            g.predecessors(TaskId::new(3)).collect::<Vec<_>>(),
            vec![TaskId::new(1), TaskId::new(2)]
        );
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let topo = g.topological_order();
        let pos: Vec<usize> = g
            .task_ids()
            .map(|t| topo.iter().position(|&x| x == t).unwrap())
            .collect();
        for e in g.edges() {
            assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = TaskGraph::builder("cyclic", 2);
        let x = b.add_task(task("x"));
        let y = b.add_task(task("y"));
        b.add_edge(x, y, Volume::ZERO).unwrap();
        b.add_edge(y, x, Volume::ZERO).unwrap();
        assert!(matches!(b.build(), Err(CtgError::CyclicGraph { .. })));
    }

    #[test]
    fn self_loop_and_duplicate_are_rejected() {
        let mut b = TaskGraph::builder("bad", 2);
        let x = b.add_task(task("x"));
        let y = b.add_task(task("y"));
        assert!(matches!(
            b.add_edge(x, x, Volume::ZERO),
            Err(CtgError::SelfLoop(_))
        ));
        b.add_edge(x, y, Volume::ZERO).unwrap();
        assert!(matches!(
            b.add_edge(x, y, Volume::ZERO),
            Err(CtgError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn unknown_endpoint_is_rejected() {
        let mut b = TaskGraph::builder("bad", 2);
        let x = b.add_task(task("x"));
        let ghost = TaskId::new(9);
        assert!(matches!(
            b.add_edge(x, ghost, Volume::ZERO),
            Err(CtgError::UnknownTask { .. })
        ));
    }

    #[test]
    fn empty_graph_is_rejected() {
        assert!(matches!(
            TaskGraph::builder("e", 2).build(),
            Err(CtgError::EmptyGraph)
        ));
    }

    #[test]
    fn cost_vector_mismatch_is_rejected() {
        let mut b = TaskGraph::builder("bad", 3);
        b.add_task(task("x")); // 2-PE vectors in a 3-PE graph
        assert!(matches!(
            b.build(),
            Err(CtgError::CostVectorMismatch { expected: 3, .. })
        ));
    }

    #[test]
    fn deadline_tasks_iterates_only_constrained() {
        let mut b = TaskGraph::builder("d", 2);
        b.add_task(task("a"));
        let t = b.add_task(task("b"));
        b.task_mut(t)
            .clone_from(&task("b").with_deadline(Time::new(100)));
        let g = b.build().unwrap();
        assert_eq!(g.deadline_tasks().collect::<Vec<_>>(), vec![t]);
    }

    #[test]
    fn total_volume_sums_edges() {
        let g = diamond();
        assert_eq!(g.total_volume(), Volume::from_bits(32));
    }

    #[test]
    fn serde_round_trip() {
        let g = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let back: TaskGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back.task_count(), 4);
        assert_eq!(back.topological_order(), g.topological_order());
    }

    /// The diamond's JSON with each `(field, json)` replaced (or
    /// dropped when `json` is `None`).
    fn diamond_with(changes: &[(&str, Option<&str>)]) -> Value {
        let good: Value =
            serde_json::from_str(&serde_json::to_string(&diamond()).unwrap()).unwrap();
        let mut m: serde::Map = good
            .as_object()
            .unwrap()
            .iter()
            .filter(|(k, _)| changes.iter().all(|(field, _)| k.as_str() != *field))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for (field, json) in changes {
            if let Some(json) = json {
                m.insert(*field, serde_json::from_str(json).unwrap());
            }
        }
        Value::Object(m)
    }

    fn decode_error(v: &Value) -> String {
        TaskGraph::from_value(v).unwrap_err().to_string()
    }

    #[test]
    fn deserializing_applies_the_builder_checks() {
        let tasks = |times: &str| {
            let t = format!(
                r#"{{"name":"a","exec_times":{times},"exec_energies":[1.0,1.0],"deadline":1000}}"#
            );
            format!("[{t},{t},{t},{t}]")
        };
        let arc = |src: u32, dst: u32| format!(r#"{{"src":{src},"dst":{dst},"volume":8}}"#);
        let arcs = |extra: (u32, u32)| {
            format!(
                "[{},{},{},{},{}]",
                arc(0, 1),
                arc(0, 2),
                arc(1, 3),
                arc(2, 3),
                arc(extra.0, extra.1)
            )
        };
        let empty = [
            ("tasks", Some("[]")),
            ("edges", Some("[]")),
            ("succs", Some("[]")),
            ("preds", Some("[]")),
            ("topo", Some("[]")),
        ];
        assert!(decode_error(&diamond_with(&empty)).contains("task graph has no tasks"));
        for (field, json, want) in [
            (
                "tasks",
                tasks("[10]"),
                "cost vectors of length 1/2, expected 2",
            ),
            ("edges", arcs((0, 1)), "duplicate dependency arc t0 -> t1"),
            ("edges", arcs((2, 2)), "task t2 cannot depend on itself"),
            ("edges", arcs((3, 0)), "dependency arcs form a cycle"),
            ("edges", arcs((1, 9)), "task t9 out of range"),
            (
                "succs",
                "[[],[],[],[]]".to_owned(),
                "`succs` does not match",
            ),
            (
                "preds",
                "[[],[],[],[]]".to_owned(),
                "`preds` does not match",
            ),
            (
                "topo",
                "[3,2,1,0]".to_owned(),
                "`topo` is not the topological order",
            ),
            (
                "topo",
                "[0,1]".to_owned(),
                "`topo` is not the topological order",
            ),
        ] {
            let err = decode_error(&diamond_with(&[(field, Some(&json))]));
            assert!(err.contains(want), "{field} = {json}: {err}");
        }
        assert!(TaskGraph::from_value(&diamond_with(&[("topo", Some("[0,1,2,3]"))])).is_ok());
    }

    #[test]
    fn missing_fields_and_wrong_types_name_the_graph() {
        assert_eq!(
            decode_error(&diamond_with(&[("topo", None)])),
            "missing field `topo` in TaskGraph"
        );
        assert_eq!(
            decode_error(&Value::Array(Vec::new())),
            "expected object for TaskGraph, found array"
        );
    }

    #[test]
    fn control_edge_has_zero_volume() {
        let mut b = TaskGraph::builder("c", 2);
        let x = b.add_task(task("x"));
        let y = b.add_task(task("y"));
        let e = b.add_control_edge(x, y).unwrap();
        let g = b.build().unwrap();
        assert!(g.edge(e).is_control());
    }
}

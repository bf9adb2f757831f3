//! The task/file/edge DAG underlying a workflow.

use crate::file::{DataFile, FileId};
use crate::task::{KindId, Task, TaskId};

/// A directed acyclic graph of tasks whose dependence edges carry data
/// files.
///
/// Storage is dense: tasks, files and kinds are `Vec`-indexed by their ids.
/// Each edge `(u, v, f)` states that task `v` reads file `f` produced by
/// task `u`. A file has at most one producer; files without a producer are
/// *workflow inputs* read from stable storage by their consumers.
///
/// The graph is built incrementally with [`Dag::add_task`],
/// [`Dag::add_file`], [`Dag::add_input_file`] and [`Dag::add_edge`];
/// [`Dag::validate`] checks global invariants (acyclicity, producer
/// consistency, finite non-negative weights and sizes).
#[derive(Clone, Debug, Default)]
pub struct Dag {
    tasks: Vec<Task>,
    files: Vec<DataFile>,
    kinds: Vec<String>,
    /// Per task: outgoing edges `(consumer, file)`.
    succ: Vec<Vec<(TaskId, FileId)>>,
    /// Per task: incoming edges `(producer, file)`.
    pred: Vec<Vec<(TaskId, FileId)>>,
    /// Per task: workflow-input files (no producer) read by this task.
    inputs: Vec<Vec<FileId>>,
    /// Per task: files produced by this task.
    outputs: Vec<Vec<FileId>>,
    /// Per file: producing task, or `None` for a workflow input.
    producer: Vec<Option<TaskId>>,
    /// Per file: consuming tasks (deduplicated, in insertion order).
    consumers: Vec<Vec<TaskId>>,
    /// Per task: primary output file used when wiring serial compositions.
    primary_out: Vec<Option<FileId>>,
    n_edges: usize,
}

/// Error returned by [`Dag::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagError {
    /// The graph contains a directed cycle.
    Cyclic,
    /// A task weight is negative, NaN or infinite.
    BadWeight(TaskId),
    /// A file size is negative, NaN or infinite.
    BadSize(FileId),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::Cyclic => write!(f, "graph contains a directed cycle"),
            DagError::BadWeight(t) => write!(f, "task {t} has a non-finite or negative weight"),
            DagError::BadSize(x) => write!(f, "file {x} has a non-finite or negative size"),
        }
    }
}

impl std::error::Error for DagError {}

impl Dag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty DAG with storage reserved for `n_tasks` tasks and
    /// `n_files` files — one allocation per dense arena up front instead
    /// of doubling growth while a large generated workflow streams in.
    pub fn with_capacity(n_tasks: usize, n_files: usize) -> Self {
        let mut dag = Self::default();
        dag.reserve(n_tasks, n_files);
        dag
    }

    /// Reserves storage for `n_tasks` additional tasks and `n_files`
    /// additional files across every per-task / per-file arena.
    pub fn reserve(&mut self, n_tasks: usize, n_files: usize) {
        self.tasks.reserve(n_tasks);
        self.succ.reserve(n_tasks);
        self.pred.reserve(n_tasks);
        self.inputs.reserve(n_tasks);
        self.outputs.reserve(n_tasks);
        self.primary_out.reserve(n_tasks);
        self.files.reserve(n_files);
        self.producer.reserve(n_files);
        self.consumers.reserve(n_files);
    }

    /// Interns a task kind, returning its id. Re-interning an existing name
    /// returns the previous id.
    pub fn add_kind(&mut self, name: &str) -> KindId {
        if let Some(i) = self.kinds.iter().position(|k| k == name) {
            return KindId(i as u16);
        }
        assert!(self.kinds.len() < u16::MAX as usize, "too many task kinds");
        self.kinds.push(name.to_owned());
        KindId((self.kinds.len() - 1) as u16)
    }

    /// Adds a task and returns its id.
    pub fn add_task(&mut self, name: impl Into<String>, kind: KindId, weight: f64) -> TaskId {
        assert!(self.tasks.len() < u32::MAX as usize, "too many tasks");
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task {
            name: name.into(),
            kind,
            weight,
        });
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        self.inputs.push(Vec::new());
        self.outputs.push(Vec::new());
        self.primary_out.push(None);
        id
    }

    /// Adds a file produced by `producer` (or a workflow input if `None`)
    /// and returns its id.
    pub fn add_file(
        &mut self,
        name: impl Into<String>,
        size: f64,
        producer: Option<TaskId>,
    ) -> FileId {
        assert!(self.files.len() < u32::MAX as usize, "too many files");
        let id = FileId(self.files.len() as u32);
        self.files.push(DataFile {
            name: name.into(),
            size,
        });
        self.producer.push(producer);
        self.consumers.push(Vec::new());
        if let Some(t) = producer {
            self.outputs[t.index()].push(id);
        }
        id
    }

    /// Convenience: adds a task together with its primary output file.
    ///
    /// The primary output is the file sent to successors when the task is a
    /// sink of a serial composition (see [`crate::Workflow::wire`]).
    pub fn add_task_with_output(
        &mut self,
        name: &str,
        kind: KindId,
        weight: f64,
        out_size: f64,
    ) -> TaskId {
        let t = self.add_task(name, kind, weight);
        let f = self.add_file(format!("{name}.out"), out_size, Some(t));
        self.primary_out[t.index()] = Some(f);
        t
    }

    /// Declares `file` (which must have a producer `u`) as an input of `v`,
    /// adding the dependence edge `u → v`.
    ///
    /// # Panics
    /// Panics if the file has no producer, or if `u == v`.
    pub fn add_edge(&mut self, v: TaskId, file: FileId) {
        let u = self.producer[file.index()].expect("add_edge: file has no producer");
        assert_ne!(u, v, "add_edge: self-loop");
        self.succ[u.index()].push((v, file));
        self.pred[v.index()].push((u, file));
        if !self.consumers[file.index()].contains(&v) {
            self.consumers[file.index()].push(v);
        }
        self.n_edges += 1;
    }

    /// Declares `file` (which must have no producer) as a workflow-input
    /// file read from stable storage by `t`.
    ///
    /// # Panics
    /// Panics if the file has a producer.
    pub fn add_input_file(&mut self, t: TaskId, file: FileId) {
        assert!(
            self.producer[file.index()].is_none(),
            "add_input_file: file has a producer; use add_edge"
        );
        self.inputs[t.index()].push(file);
        if !self.consumers[file.index()].contains(&t) {
            self.consumers[file.index()].push(t);
        }
    }

    /// Declares `file` (produced by some task) as read by `t` **without**
    /// adding a dependence edge: the read is implied by the remaining
    /// structure (a transitively reduced edge — see [`crate::reduce`]).
    ///
    /// # Panics
    /// Panics if the file has no producer (use [`Dag::add_input_file`]).
    pub fn add_transitive_read(&mut self, t: TaskId, file: FileId) {
        let u = self.producer[file.index()].expect("add_transitive_read: workflow input");
        assert_ne!(u, t, "add_transitive_read: self-read");
        if !self.inputs[t.index()].contains(&file) {
            self.inputs[t.index()].push(file);
        }
        if !self.consumers[file.index()].contains(&t) {
            self.consumers[file.index()].push(t);
        }
    }

    /// Sets the primary output file of `t` (must be produced by `t`).
    pub fn set_primary_output(&mut self, t: TaskId, file: FileId) {
        assert_eq!(
            self.producer[file.index()],
            Some(t),
            "file not produced by task"
        );
        self.primary_out[t.index()] = Some(file);
    }

    /// Primary output file of `t`, if set.
    #[inline]
    pub fn primary_output(&self, t: TaskId) -> Option<FileId> {
        self.primary_out[t.index()]
    }

    /// Number of tasks.
    #[inline]
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of files.
    #[inline]
    pub fn n_files(&self) -> usize {
        self.files.len()
    }

    /// Number of dependence edges (counting multiplicity by file).
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// All task ids, in index order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// All file ids, in index order.
    pub fn file_ids(&self) -> impl Iterator<Item = FileId> + '_ {
        (0..self.files.len() as u32).map(FileId)
    }

    /// The task with id `t`.
    #[inline]
    pub fn task(&self, t: TaskId) -> &Task {
        &self.tasks[t.index()]
    }

    /// The file with id `f`.
    #[inline]
    pub fn file(&self, f: FileId) -> &DataFile {
        &self.files[f.index()]
    }

    /// The interned name of a task kind.
    #[inline]
    pub fn kind_name(&self, k: KindId) -> &str {
        &self.kinds[k.index()]
    }

    /// Number of interned task kinds.
    #[inline]
    pub fn n_kinds(&self) -> usize {
        self.kinds.len()
    }

    /// The failure-free execution time of `t` (the paper's `wᵢ`).
    #[inline]
    pub fn weight(&self, t: TaskId) -> f64 {
        self.tasks[t.index()].weight
    }

    /// Replaces the failure-free execution time of `t` (a workflow
    /// *edit* — re-profiled task runtimes are the common case for a
    /// long-lived planning session).
    pub fn set_weight(&mut self, t: TaskId, weight: f64) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "task weight must be finite and non-negative"
        );
        self.tasks[t.index()].weight = weight;
    }

    /// Outgoing edges of `t` as `(consumer, file)` pairs.
    #[inline]
    pub fn succs(&self, t: TaskId) -> &[(TaskId, FileId)] {
        &self.succ[t.index()]
    }

    /// Incoming edges of `t` as `(producer, file)` pairs.
    #[inline]
    pub fn preds(&self, t: TaskId) -> &[(TaskId, FileId)] {
        &self.pred[t.index()]
    }

    /// Workflow-input files read by `t` (files with no producer).
    #[inline]
    pub fn input_files(&self, t: TaskId) -> &[FileId] {
        &self.inputs[t.index()]
    }

    /// Files produced by `t`.
    #[inline]
    pub fn output_files(&self, t: TaskId) -> &[FileId] {
        &self.outputs[t.index()]
    }

    /// Producer of `f`, or `None` for a workflow input.
    #[inline]
    pub fn producer(&self, f: FileId) -> Option<TaskId> {
        self.producer[f.index()]
    }

    /// Distinct consumers of `f`, in first-use order.
    #[inline]
    pub fn consumers(&self, f: FileId) -> &[TaskId] {
        &self.consumers[f.index()]
    }

    /// Sum of all task weights (the paper's `∑ wᵢ`).
    pub fn total_weight(&self) -> f64 {
        self.tasks.iter().map(|t| t.weight).sum()
    }

    /// Mean task weight `w̄`, used by the `pfail ↔ λ` conversion.
    pub fn mean_weight(&self) -> f64 {
        if self.tasks.is_empty() {
            0.0
        } else {
            self.total_weight() / self.tasks.len() as f64
        }
    }

    /// Total bytes across all files (each file counted once, matching the
    /// CCR definition: "input, output, and intermediate files").
    pub fn total_data_volume(&self) -> f64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// Multiplies every file size by `factor` (used to sweep the CCR).
    pub fn scale_file_sizes(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0, "bad scale factor");
        for f in &mut self.files {
            f.size *= factor;
        }
    }

    /// Tasks with no incoming edge (workflow-input files do not count).
    pub fn sources(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|t| self.pred[t.index()].is_empty())
            .collect()
    }

    /// Tasks with no outgoing edge.
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|t| self.succ[t.index()].is_empty())
            .collect()
    }

    /// A deterministic topological order (Kahn's algorithm, smallest task id
    /// first). Returns `None` if the graph has a cycle.
    pub fn topo_order(&self) -> Option<Vec<TaskId>> {
        let n = self.n_tasks();
        let mut indeg = vec![0usize; n];
        for t in 0..n {
            for &(v, _) in &self.succ[t] {
                indeg[v.index()] += 1;
            }
        }
        // A binary heap keyed on Reverse(id) would be O(E log V); a sorted
        // ready list is fine at our scales and keeps the order canonical.
        let mut ready: Vec<u32> = (0..n as u32).filter(|&t| indeg[t as usize] == 0).collect();
        ready.sort_unstable_by(|a, b| b.cmp(a)); // pop smallest from the back
        let mut order = Vec::with_capacity(n);
        while let Some(t) = ready.pop() {
            order.push(TaskId(t));
            for &(v, _) in &self.succ[t as usize] {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    // Insert keeping the descending sort.
                    let pos = ready.binary_search_by(|x| v.0.cmp(x)).unwrap_or_else(|e| e);
                    ready.insert(pos, v.0);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Checks that `order` is a permutation of all tasks consistent with the
    /// dependence edges.
    pub fn is_topological(&self, order: &[TaskId]) -> bool {
        if order.len() != self.n_tasks() {
            return false;
        }
        let mut pos = vec![usize::MAX; self.n_tasks()];
        for (i, &t) in order.iter().enumerate() {
            if pos[t.index()] != usize::MAX {
                return false; // duplicate
            }
            pos[t.index()] = i;
        }
        for t in self.task_ids() {
            for &(v, _) in self.succs(t) {
                if pos[t.index()] >= pos[v.index()] {
                    return false;
                }
            }
        }
        true
    }

    /// Length (in seconds of task weight) of the longest weighted path,
    /// ignoring all I/O: the failure-free lower bound on any execution.
    pub fn critical_path(&self) -> f64 {
        let order = self.topo_order().expect("critical_path: cyclic graph");
        let mut finish = vec![0.0f64; self.n_tasks()];
        let mut best = 0.0f64;
        for &t in &order {
            let start = self
                .preds(t)
                .iter()
                .map(|&(u, _)| finish[u.index()])
                .fold(0.0f64, f64::max);
            finish[t.index()] = start + self.weight(t);
            best = best.max(finish[t.index()]);
        }
        best
    }

    /// Validates global invariants: acyclicity, finite non-negative weights
    /// and file sizes.
    pub fn validate(&self) -> Result<(), DagError> {
        for t in self.task_ids() {
            let w = self.weight(t);
            if !w.is_finite() || w < 0.0 {
                return Err(DagError::BadWeight(t));
            }
        }
        for f in self.file_ids() {
            let s = self.file(f).size;
            if !s.is_finite() || s < 0.0 {
                return Err(DagError::BadSize(f));
            }
        }
        if self.topo_order().is_none() {
            return Err(DagError::Cyclic);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the diamond `a → {b, c} → d` with one file per producer.
    fn diamond() -> (Dag, [TaskId; 4]) {
        let mut g = Dag::new();
        let k = g.add_kind("t");
        let a = g.add_task_with_output("a", k, 1.0, 10.0);
        let b = g.add_task_with_output("b", k, 2.0, 20.0);
        let c = g.add_task_with_output("c", k, 3.0, 30.0);
        let d = g.add_task_with_output("d", k, 4.0, 40.0);
        let fa = g.primary_output(a).unwrap();
        let fb = g.primary_output(b).unwrap();
        let fc = g.primary_output(c).unwrap();
        g.add_edge(b, fa);
        g.add_edge(c, fa);
        g.add_edge(d, fb);
        g.add_edge(d, fc);
        (g, [a, b, c, d])
    }

    #[test]
    fn diamond_shape() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.n_tasks(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![d]);
        assert_eq!(g.succs(a).len(), 2);
        assert_eq!(g.preds(d).len(), 2);
        assert_eq!(g.consumers(g.primary_output(a).unwrap()), &[b, c]);
    }

    #[test]
    fn weights_and_volumes() {
        let (g, _) = diamond();
        assert_eq!(g.total_weight(), 10.0);
        assert_eq!(g.mean_weight(), 2.5);
        assert_eq!(g.total_data_volume(), 100.0);
    }

    #[test]
    fn scale_file_sizes_scales_volume() {
        let (mut g, _) = diamond();
        g.scale_file_sizes(0.5);
        assert_eq!(g.total_data_volume(), 50.0);
    }

    #[test]
    fn topo_order_is_valid_and_deterministic() {
        let (g, [a, b, c, d]) = diamond();
        let o = g.topo_order().unwrap();
        assert!(g.is_topological(&o));
        assert_eq!(o, vec![a, b, c, d]); // smallest-id-first tie-break
    }

    #[test]
    fn critical_path_diamond() {
        let (g, _) = diamond();
        // a (1) → c (3) → d (4) = 8.
        assert_eq!(g.critical_path(), 8.0);
    }

    #[test]
    fn is_topological_rejects_bad_orders() {
        let (g, [a, b, c, d]) = diamond();
        assert!(!g.is_topological(&[b, a, c, d]));
        assert!(!g.is_topological(&[a, b, c]));
        assert!(!g.is_topological(&[a, a, b, d]));
    }

    #[test]
    fn same_file_two_consumers_counted_once_in_volume() {
        let (g, [a, ..]) = diamond();
        // `a.out` feeds both b and c but exists once.
        let fa = g.primary_output(a).unwrap();
        assert_eq!(g.consumers(fa).len(), 2);
        assert_eq!(g.total_data_volume(), 100.0);
    }

    #[test]
    fn validate_detects_cycle() {
        let mut g = Dag::new();
        let k = g.add_kind("t");
        let a = g.add_task_with_output("a", k, 1.0, 1.0);
        let b = g.add_task_with_output("b", k, 1.0, 1.0);
        let fa = g.primary_output(a).unwrap();
        let fb = g.primary_output(b).unwrap();
        g.add_edge(b, fa);
        g.add_edge(a, fb);
        assert_eq!(g.validate(), Err(DagError::Cyclic));
    }

    #[test]
    fn validate_detects_bad_weight() {
        let mut g = Dag::new();
        let k = g.add_kind("t");
        let a = g.add_task("a", k, f64::NAN);
        assert_eq!(g.validate(), Err(DagError::BadWeight(a)));
    }

    #[test]
    fn workflow_input_files() {
        let mut g = Dag::new();
        let k = g.add_kind("t");
        let a = g.add_task_with_output("a", k, 1.0, 1.0);
        let fin = g.add_file("in.dat", 5.0, None);
        g.add_input_file(a, fin);
        assert_eq!(g.input_files(a), &[fin]);
        assert_eq!(g.producer(fin), None);
        assert_eq!(g.consumers(fin), &[a]);
        assert!(g.validate().is_ok());
    }
}

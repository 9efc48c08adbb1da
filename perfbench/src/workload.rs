//! The four workloads and how each builds its inputs from its seed.
//!
//! Every input is one object the engines schedule to completion: a set of
//! independent tasks (the Algorithm 1 kernel) or a task graph (the
//! simulator with `HeteroPrioDagPolicy`). Each input also carries its sweep
//! point, the Fig. 6 instance and Fig. 7 graph that the sweep op runs every
//! paper algorithm on.

use crate::spans::Spans;
use heteroprio_bounds::{area_bound_dual, combined_lower_bound, dag_lower_bound};
use heteroprio_core::{Instance, Platform, Task};
use heteroprio_taskgraph::{
    apply_bottom_level_priorities, random_layered, DagBuilder, Factorization, Kernel, KernelTiming,
    RandomDagParams, TaskGraph, WeightScheme,
};
use heteroprio_workloads::{
    independent_instance, multi_class_instance, paper_platform, random_instance,
    three_class_platform, ChameleonTiming, JitteredTiming, MultiClassParams, RandomInstanceParams,
};

/// Sweep points of the non-sweep workloads use each input's first tasks
/// only: DualHP on a DAG and HEFT with insertion grow faster than linearly,
/// and a full N=32 Fig. 7 point takes seconds. The paper sweep's own
/// inputs are all smaller than this, so it runs whole.
pub const SWEEP_TASKS: usize = 1500;

pub const FACTORIZATIONS: [Factorization; 3] =
    [Factorization::Cholesky, Factorization::Qr, Factorization::Lu];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    IndepK2,
    DagK2,
    IndepK3,
    PaperSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::IndepK2, Workload::DagK2, Workload::IndepK3, Workload::PaperSweep];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IndepK2 => "indep_k2",
            Workload::DagK2 => "dag_k2",
            Workload::IndepK3 => "indep_k3",
            Workload::PaperSweep => "paper_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seed used when none is given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::IndepK2 => 0xBEEF,
            Workload::DagK2 => 0xDA6,
            Workload::IndepK3 => 0xC1A55,
            Workload::PaperSweep => 2017,
        }
    }
}

pub enum Job {
    Indep(Instance),
    /// Ranked with bottom-level (min) priorities.
    Dag(TaskGraph),
}

pub struct Input {
    pub name: String,
    pub platform: Platform,
    pub job: Job,
    /// Fig. 6 point: independent tasks, priorities as generated.
    pub fig6: Instance,
    /// Fig. 7 point: the unranked graph the DAG algorithms rank themselves.
    pub fig7: TaskGraph,
    /// Platform of the Fig. 7 point and of HEFT.
    pub fig7_platform: Platform,
    /// The larger of the job's paper bound (area bound for independent
    /// tasks, the dependency-aware bound for a DAG) and the Lagrangian
    /// dual area bound.
    pub lower_bound: f64,
    pub dual_bound: f64,
}

impl Input {
    pub fn instance(&self) -> &Instance {
        match &self.job {
            Job::Indep(i) => i,
            Job::Dag(g) => g.instance(),
        }
    }

    pub fn tasks(&self) -> usize {
        self.instance().len()
    }

    pub fn is_dag(&self) -> bool {
        matches!(self.job, Job::Dag(_))
    }
}

/// Input sizes. `smoke` shrinks every workload so the self-test runs in
/// seconds.
struct Sizes {
    tiles: usize,
    random_tasks: usize,
    dag_layers: usize,
    dag_width: usize,
    k3_tasks: [usize; 2],
    sweep_tiles: &'static [usize],
}

const FULL: Sizes = Sizes {
    tiles: 32,
    random_tasks: 11_000,
    dag_layers: 110,
    dag_width: 100,
    k3_tasks: [16_000, 8_000],
    sweep_tiles: &[8, 12, 16],
};

const SMOKE: Sizes = Sizes {
    tiles: 4,
    random_tasks: 200,
    dag_layers: 8,
    dag_width: 10,
    k3_tasks: [300, 150],
    sweep_tiles: &[4, 6],
};

/// Kernel timing that charges each lookup to the `workloads` layer, so the
/// DAG generators' calls into `ChameleonTiming` show up in the span run.
struct SpannedTiming<'s, T> {
    inner: T,
    spans: &'s Spans,
}

impl<T: KernelTiming> KernelTiming for SpannedTiming<'_, T> {
    fn times(&self, kernel: Kernel) -> (f64, f64) {
        let start = self.spans.start();
        let out = self.inner.times(kernel);
        self.spans.fold("workloads.gen", start, 1);
        out
    }
}

/// The first `n` tasks of an instance.
fn prefix(instance: &Instance, n: usize) -> Instance {
    Instance::from_tasks(instance.tasks()[..n.min(instance.len())].to_vec())
}

/// The sub-graph induced by the first `n` tasks. Every generator adds a
/// task after its predecessors, so this is the graph's first `n` tasks in
/// program order with their dependencies among themselves.
fn prefix_graph(graph: &TaskGraph, n: usize) -> TaskGraph {
    let n = n.min(graph.len());
    let mut b = DagBuilder::new();
    for id in graph.instance().ids().take(n) {
        b.add_task(*graph.instance().task(id), graph.label(id));
    }
    for id in graph.instance().ids().take(n) {
        for &succ in graph.successors(id) {
            if succ.index() < n {
                b.add_edge(id, succ);
            }
        }
    }
    b.build().expect("a sub-graph of a DAG is acyclic")
}

fn tasks_of(f: Factorization, n: usize, timing: &impl KernelTiming, spans: &Spans) -> Instance {
    spans.span("workloads.gen", 0, || independent_instance(f, n, timing))
}

fn bounds(instance: &Instance, platform: &Platform, spans: &Spans, units: u64) -> (f64, f64) {
    let area = spans.span("bounds.area", units, || combined_lower_bound(instance, platform));
    let dual = spans.span("bounds.area_dual", units, || area_bound_dual(instance, platform));
    (area, dual)
}

fn indep_input(name: String, platform: Platform, instance: Instance, spans: &Spans) -> Input {
    let units = instance.len() as u64;
    let (area, dual) = bounds(&instance, &platform, spans, units);
    let fig6 = prefix(&instance, SWEEP_TASKS);
    // The DAG simulator and HEFT schedule two classes only (the CLI's `dag`
    // rejects k > 2), so a k-class input's Fig. 7 point is its CPU+GPU view.
    let (fig7_platform, view) = if platform.k() == 2 {
        (platform, fig6.clone())
    } else {
        let view = fig6.tasks().iter().map(|t| Task::new(t.times()[0], t.times()[1])).collect();
        (Platform::new(platform.cpus(), platform.gpus()), Instance::from_tasks(view))
    };
    let fig7 = spans.span("taskgraph.gen", fig6.len() as u64, || TaskGraph::independent(view));
    Input {
        name,
        platform,
        job: Job::Indep(instance),
        fig6,
        fig7,
        fig7_platform,
        lower_bound: area.max(dual),
        dual_bound: dual,
    }
}

fn dag_input(
    name: String,
    platform: Platform,
    mut graph: TaskGraph,
    fig6: Option<Instance>,
    spans: &Spans,
) -> Input {
    let units = graph.len() as u64;
    let fig7 = spans.span("taskgraph.gen", units, || prefix_graph(&graph, SWEEP_TASKS));
    let fig6 = fig6.unwrap_or_else(|| fig7.instance().clone());
    spans.span("taskgraph.rank", units, || {
        apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
    });
    let paper = spans.span("bounds.dag", units, || dag_lower_bound(&graph, &platform));
    let dual =
        spans.span("bounds.area_dual", units, || area_bound_dual(graph.instance(), &platform));
    Input {
        name,
        platform,
        job: Job::Dag(graph),
        fig6,
        fig7,
        fig7_platform: platform,
        lower_bound: paper.max(dual),
        dual_bound: dual,
    }
}

/// Build a workload's inputs from its seed. This is the timed set-up.
pub fn build(workload: Workload, seed: u64, smoke: bool, spans: &Spans) -> Vec<Input> {
    let z = if smoke { &SMOKE } else { &FULL };
    let n = z.tiles;
    match workload {
        Workload::IndepK2 => {
            let mut inputs: Vec<Input> = FACTORIZATIONS
                .iter()
                .map(|&f| {
                    let inst = tasks_of(f, n, &ChameleonTiming, spans);
                    indep_input(format!("{}_n{n}", f.name()), paper_platform(), inst, spans)
                })
                .collect();
            let params = RandomInstanceParams { tasks: z.random_tasks, ..Default::default() };
            let inst = spans.span("workloads.gen", 0, || random_instance(&params, seed));
            inputs.push(indep_input(
                format!("random_{}", z.random_tasks),
                paper_platform(),
                inst,
                spans,
            ));
            inputs
        }
        Workload::DagK2 => {
            let timing = SpannedTiming { inner: ChameleonTiming, spans };
            let mut inputs: Vec<Input> = FACTORIZATIONS
                .iter()
                .map(|&f| {
                    let graph = spans.span("taskgraph.gen", 0, || f.generate(n, &timing));
                    dag_input(
                        format!("{}_n{n}_dag", f.name()),
                        paper_platform(),
                        graph,
                        None,
                        spans,
                    )
                })
                .collect();
            let params = RandomDagParams {
                layers: z.dag_layers,
                width: z.dag_width,
                edge_prob: 0.05,
                ..Default::default()
            };
            let graph = spans.span("taskgraph.gen", 0, || random_layered(&params, seed));
            let name = format!("layered_{}x{}", z.dag_layers, z.dag_width);
            inputs.push(dag_input(name, paper_platform(), graph, None, spans));
            inputs
        }
        Workload::IndepK3 => {
            let (_, platform) = three_class_platform();
            z.k3_tasks
                .iter()
                .enumerate()
                .map(|(i, &tasks)| {
                    let params = MultiClassParams::three_class(tasks);
                    let inst = spans.span("workloads.gen", 0, || {
                        multi_class_instance(&params, seed.wrapping_add(i as u64))
                    });
                    indep_input(format!("k3_{tasks}"), platform, inst, spans)
                })
                .collect()
        }
        Workload::PaperSweep => {
            // Per-kernel calibration noise keyed by the seed: every task of
            // one kernel moves together, so the kernel sets stay tie-heavy.
            let timing = JitteredTiming { inner: ChameleonTiming, jitter: 0.05, seed };
            let spanned = SpannedTiming { inner: timing.clone(), spans };
            let mut inputs = Vec::new();
            for &n in z.sweep_tiles {
                for f in FACTORIZATIONS {
                    let graph = spans.span("taskgraph.gen", 0, || f.generate(n, &spanned));
                    let fig6 = tasks_of(f, n, &timing, spans);
                    let name = format!("{}_n{n}", f.name());
                    inputs.push(dag_input(name, paper_platform(), graph, Some(fig6), spans));
                }
            }
            inputs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let spans = Spans::new();
        for w in Workload::ALL {
            let a = build(w, 7, true, &spans);
            let b = build(w, 7, true, &spans);
            let c = build(w, 8, true, &spans);
            let times = |v: &[Input]| -> Vec<Vec<f64>> {
                v.iter()
                    .map(|i| i.instance().tasks().iter().map(|t| t.times()[0]).collect())
                    .collect()
            };
            assert_eq!(times(&a), times(&b), "{} is not reproducible", w.name());
            assert_ne!(times(&a), times(&c), "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn prefix_graph_keeps_internal_edges() {
        let g = Factorization::Cholesky.generate(6, &ChameleonTiming);
        let p = prefix_graph(&g, 20);
        assert_eq!(p.len(), 20);
        let internal: usize = g
            .instance()
            .ids()
            .take(20)
            .map(|id| g.successors(id).iter().filter(|s| s.index() < 20).count())
            .sum();
        assert_eq!(p.edge_count(), internal);
    }
}

//! Use the runtime-engine simulator directly with a custom kernel policy,
//! next to the built-in ones — how a StarPU-like runtime would host
//! HeteroPrio.
//!
//! ```sh
//! cargo run --release --example runtime_policies
//! ```

use heteroprio::core::kernel::{KernelContext, KernelPolicy, Pick};
use heteroprio::core::{HeteroPrioConfig, TaskId, WorkerId};
use heteroprio::schedulers::{
    DualHpDagPolicy, DualHpRank, HeteroPrioDagPolicy, PriorityListPolicy,
};
use heteroprio::simulator::simulate;
use heteroprio::taskgraph::{apply_bottom_level_priorities, qr, WeightScheme};
use heteroprio::workloads::{paper_platform, ChameleonTiming};

/// A deliberately naive custom policy: idle workers take the ready task
/// with the smallest processing time *on them* (greedy shortest-first),
/// ignoring both affinity ordering and spoliation.
#[derive(Default)]
struct ShortestFirst {
    ready: Vec<TaskId>,
}

impl KernelPolicy for ShortestFirst {
    fn on_ready(&mut self, tasks: &[TaskId], _ctx: &KernelContext<'_>) {
        self.ready.extend_from_slice(tasks);
    }

    fn pick(&mut self, worker: WorkerId, ctx: &KernelContext<'_>) -> Option<Pick> {
        let class = ctx.platform.class_of(worker);
        let (idx, _) =
            self.ready.iter().enumerate().min_by(|(_, &a), (_, &b)| {
                ctx.duration(a, class).total_cmp(&ctx.duration(b, class))
            })?;
        Some(Pick { task: self.ready.swap_remove(idx), queue_end: None })
    }
}

fn main() {
    let platform = paper_platform();
    let mut graph = qr(12, &ChameleonTiming);
    apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
    println!("QR N=12: {} tasks on 20 CPUs + 4 GPUs\n", graph.len());

    let mut hp = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let mut dual = DualHpDagPolicy::new(DualHpRank::Priority);
    let mut list = PriorityListPolicy::new();
    let mut naive = ShortestFirst::default();

    let runs: Vec<(&str, heteroprio::simulator::SimResult)> = vec![
        ("HeteroPrio", simulate(&graph, &platform, &mut hp)),
        ("DualHP", simulate(&graph, &platform, &mut dual)),
        ("priority list", simulate(&graph, &platform, &mut list)),
        ("shortest-first", simulate(&graph, &platform, &mut naive)),
    ];
    println!("{:<16} {:>12} {:>12} {:>12}", "policy", "makespan", "spoliations", "first idle");
    for (name, res) in &runs {
        res.schedule.validate(graph.instance(), &platform).expect("valid");
        heteroprio::taskgraph::check_precedence(&graph, &res.schedule).expect("precedence");
        println!(
            "{:<16} {:>10.1}ms {:>12} {:>10.1}ms",
            name,
            res.makespan(),
            res.spoliations,
            res.first_idle.unwrap_or(f64::NAN)
        );
    }
}

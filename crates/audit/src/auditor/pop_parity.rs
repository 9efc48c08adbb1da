//! Parity pin for the pop-order rule: the replay's extreme-ρ test must
//! produce byte-identical reports to the linear scan it replaced.
//!
//! [`frozen_check_pop`] is a frozen copy of that scan — every pop walks the
//! whole ready set for a strictly better task — and [`frozen_audit`] drives
//! it through the production state machine for every other event. The
//! proptest compares it against both [`audit`] and [`StreamAuditor`] on
//! tie-heavy and near-tie k = 2 instances, legal and mutated, from the
//! independent engine and the DAG simulator, and checks after every event
//! that the replay's ρ multiset mirrors its ready set (a stale or missing
//! key could only ever hide a violation, never change a clean report). Do
//! not "fix" the frozen copy: it is the specification the fast path is
//! held to.

use super::*;
use crate::StreamAuditor;
use heteroprio_core::heteroprio::{heteroprio_traced, HeteroPrioConfig};
use heteroprio_core::Task;
use heteroprio_schedulers::HeteroPrioDagPolicy;
use heteroprio_simulator::{simulate_traced, TransferModel};
use heteroprio_taskgraph::DagBuilder;
use heteroprio_trace::{TraceSink, VecSink};
use proptest::prelude::*;

/// The pre-multiset `Replay::check_pop`, frozen.
#[allow(clippy::too_many_arguments)]
fn frozen_check_pop(
    replay: &mut Replay<'_>,
    i: usize,
    time: f64,
    task: u32,
    worker: u32,
    end: Option<QueueEnd>,
    report: &mut AuditReport,
) {
    let Some(t) = replay.task_index(i, time, task, report) else { return };
    if replay.worker_index(i, time, worker, report).is_none() {
        return;
    }
    let two_class = replay.platform.k() == 2;
    report.checks += if two_class { 3 } else { 1 };
    if !replay.ready[t] {
        report.violations.push(Violation {
            rule: Rule::PopOrderConsistency,
            event_index: Some(i),
            time: Some(time),
            worker: Some(worker),
            message: format!("popped task {task} is not in the ready set"),
        });
        return;
    }
    if two_class {
        let kind = replay.platform.kind_of(WorkerId(worker));
        if let Some(end) = end {
            let expected = match kind {
                // lint: allow(hardcoded-class): frozen k=2 reference the live replay is pinned to.
                ResourceKind::Gpu => QueueEnd::Front,
                // lint: allow(hardcoded-class): frozen k=2 reference the live replay is pinned to.
                ResourceKind::Cpu => QueueEnd::Back,
            };
            if end != expected {
                report.violations.push(Violation {
                    rule: Rule::PopOrderConsistency,
                    event_index: Some(i),
                    time: Some(time),
                    worker: Some(worker),
                    message: format!(
                        "{kind} worker popped the {end:?} end (expected {expected:?})"
                    ),
                });
            }
        }
        let rho = replay.instance.task(TaskId(task)).accel_factor();
        for (u, &ready) in replay.ready.iter().enumerate() {
            if !ready || u == t {
                continue;
            }
            let rho_u = replay.instance.task(TaskId(u as u32)).accel_factor();
            let better = match kind {
                // lint: allow(hardcoded-class): frozen k=2 reference the live replay is pinned to.
                ResourceKind::Gpu => strictly_less(rho, rho_u),
                // lint: allow(hardcoded-class): frozen k=2 reference the live replay is pinned to.
                ResourceKind::Cpu => strictly_less(rho_u, rho),
            };
            if better {
                report.violations.push(Violation {
                    rule: Rule::PopOrderConsistency,
                    event_index: Some(i),
                    time: Some(time),
                    worker: Some(worker),
                    message: format!(
                        "{kind} worker popped task {task} (rho {rho}) while task {u} \
                         (rho {rho_u}) was ready"
                    ),
                });
                break;
            }
        }
    }
    replay.ready[t] = false;
    replay.ready_count =
        replay.ready_count.checked_sub(1).expect("guarded by the ready-set check above");
}

/// [`audit`] with every pop checked by [`frozen_check_pop`] and no ρ
/// multiset maintained.
fn frozen_audit(
    instance: &Instance,
    platform: &Platform,
    schedule: &Schedule,
    events: &[SchedEvent],
    opts: &AuditOptions,
) -> AuditReport {
    assert!(opts.heteroprio && !opts.dualhp, "parity streams are HeteroPrio runs");
    if !events.iter().any(|e| matches!(e, SchedEvent::TaskReady { .. })) {
        // No replay runs at all: there is nothing frozen to compare.
        return audit(instance, platform, schedule, events, opts);
    }
    let mut report = AuditReport { events: events.len(), ..AuditReport::default() };
    check_well_formed(instance, platform, schedule, opts, &mut report);
    let mut replay = Replay::new(instance, platform, opts.max_overhead);
    replay.ready_rho = None;
    replay.has_pops = events.iter().any(|e| matches!(e, SchedEvent::QueuePop { .. }));
    for e in events {
        let i = replay.advance(e, &mut report);
        match *e {
            SchedEvent::QueuePop { time, task, worker, end } => {
                frozen_check_pop(&mut replay, i, time, task, worker, Some(end), &mut report);
            }
            SchedEvent::PolicyDecision { time, worker, decision: Decision::Pick(task) }
                if !replay.has_pops =>
            {
                frozen_check_pop(&mut replay, i, time, task, worker, None, &mut report);
            }
            _ => replay.step(i, e, &mut report),
        }
    }
    replay.close(schedule, &mut report);
    check_area_bound(instance, platform, &mut report);
    check_approx_ratio(instance, platform, schedule, opts, &mut report);
    report
}

fn assert_same_report(got: &AuditReport, want: &AuditReport, what: &str) {
    assert_eq!(got.violations, want.violations, "{what}: violations");
    assert_eq!(got.checks, want.checks, "{what}: checks");
    assert_eq!(got.events, want.events, "{what}: events");
    assert_eq!(got.skipped, want.skipped, "{what}: skipped");
    assert_eq!(got.certificate, want.certificate, "{what}: certificate");
}

/// Processing times from a small palette, so many tasks share one of five
/// ρ values.
const TIMES: [f64; 3] = [1.0, 2.0, 4.0];
/// Relative perturbations of the CPU time: ±5e-10 stays inside the 1e-9
/// tolerance of a tie, the others straddle its edge.
const NUDGES: [f64; 5] = [0.0, 5e-10, -5e-10, 1e-9, -1.5e-9];

fn task_of(&(p, q, nudge, _): &(usize, usize, usize, usize)) -> Task {
    Task::new(TIMES[p] * (1.0 + NUDGES[nudge]), TIMES[q])
}

/// Index of the `pick`-th (cyclically) event matching `pred`, if any.
fn nth_matching(
    events: &[SchedEvent],
    pick: usize,
    pred: impl Fn(&SchedEvent) -> bool,
) -> Option<usize> {
    let hits: Vec<usize> = (0..events.len()).filter(|&i| pred(&events[i])).collect();
    (!hits.is_empty()).then(|| hits[pick % hits.len()])
}

fn popped_task(e: &SchedEvent) -> Option<u32> {
    match *e {
        SchedEvent::QueuePop { task, .. } => Some(task),
        SchedEvent::PolicyDecision { decision: Decision::Pick(task), .. } => Some(task),
        _ => None,
    }
}

fn set_popped_task(e: &mut SchedEvent, to: u32) {
    match e {
        SchedEvent::QueuePop { task, .. } => *task = to,
        SchedEvent::PolicyDecision { decision: Decision::Pick(task), .. } => *task = to,
        _ => {}
    }
}

/// Corrupt a legal stream: 0 leaves it alone, 1 swaps the tasks of two
/// nearby pops, 2 flips a `QueueEnd`, 3 re-readies a popped task, 4 drops a
/// `TaskReady`.
fn mutate(events: &mut Vec<SchedEvent>, mutation: usize, a: usize, b: usize) {
    let is_pop = |e: &SchedEvent| popped_task(e).is_some();
    match mutation {
        1 => {
            // Pair a pop with one of the next three, mostly of the same
            // instant, so the swap often leaves a strictly better task ready.
            let pops: Vec<usize> = (0..events.len()).filter(|&i| is_pop(&events[i])).collect();
            if !pops.is_empty() {
                let (x, y) = (pops[a % pops.len()], pops[(a + 1 + b % 3) % pops.len()]);
                let (tx, ty) = (popped_task(&events[x]), popped_task(&events[y]));
                set_popped_task(&mut events[x], ty.expect("x is a pop"));
                set_popped_task(&mut events[y], tx.expect("y is a pop"));
            }
        }
        2 => {
            let is_queue_pop = |e: &SchedEvent| matches!(e, SchedEvent::QueuePop { .. });
            if let Some(x) = nth_matching(events, a, is_queue_pop) {
                if let SchedEvent::QueuePop { end, .. } = &mut events[x] {
                    *end = match end {
                        QueueEnd::Front => QueueEnd::Back,
                        QueueEnd::Back => QueueEnd::Front,
                    };
                }
            }
        }
        3 => {
            if let Some(x) = nth_matching(events, a, is_pop) {
                let task = popped_task(&events[x]).expect("x is a pop");
                let at = x + 1 + b % (events.len() - x);
                let time = events[at - 1].time();
                events.insert(at, SchedEvent::TaskReady { time, task });
            }
        }
        4 => {
            let is_ready = |e: &SchedEvent| matches!(e, SchedEvent::TaskReady { .. });
            if let Some(x) = nth_matching(events, a, is_ready) {
                events.remove(x);
            }
        }
        _ => {}
    }
}

/// Audit `events` batch and streamed, and hold both to the frozen scan.
fn check_parity(
    instance: &Instance,
    platform: &Platform,
    schedule: &Schedule,
    events: &[SchedEvent],
    opts: &AuditOptions,
) {
    let want = frozen_audit(instance, platform, schedule, events, opts);
    let batch = audit(instance, platform, schedule, events, opts);
    assert_same_report(&batch, &want, "audit()");
    let mut auditor = StreamAuditor::new(instance, platform, opts.clone());
    for &e in events {
        auditor.emit(e);
    }
    assert_same_report(&auditor.finish(schedule), &want, "StreamAuditor");

    // The ρ multiset mirrors the ready set after every event.
    let mut replay = Replay::new(instance, platform, opts.max_overhead);
    let mut report = AuditReport::default();
    for e in events {
        replay.push(e, &mut report);
        let mut mirror = BTreeMap::new();
        for t in (0..replay.ready.len()).filter(|&t| replay.ready[t]) {
            *mirror.entry(rho_key(instance, t)).or_insert(0) += 1;
        }
        assert_eq!(replay.ready_rho.as_ref(), Some(&mirror), "multiset after {e:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn extreme_rho_pop_check_matches_the_frozen_scan(
        tasks in prop::collection::vec((0usize..3, 0usize..3, 0usize..5, 0usize..64), 2..=28),
        cpus in 1usize..=4,
        gpus in 1usize..=3,
        dag in 0usize..2,
        mutation in 0usize..5,
        picks in (0usize..1000, 0usize..1000),
    ) {
        let platform = Platform::new(cpus, gpus);
        let (instance, schedule, mut events, opts) = if dag == 0 {
            let instance = Instance::from_tasks(tasks.iter().map(task_of).collect());
            let mut sink = VecSink::new();
            let res = heteroprio_traced(&instance, &platform, &HeteroPrioConfig::new(), &mut sink);
            (instance, res.schedule, sink.into_events(), AuditOptions::independent())
        } else {
            // Task j depends on an earlier task when its last draw says so.
            let mut builder = DagBuilder::new();
            for (j, spec) in tasks.iter().enumerate() {
                let id = builder.add_task(task_of(spec), "parity");
                if j > 0 && spec.3 % 3 != 0 {
                    builder.add_edge(TaskId((spec.3 % j) as u32), id);
                }
            }
            let graph = builder.build().expect("edges point forward");
            let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
            let mut sink = VecSink::new();
            let res =
                simulate_traced(&graph, &platform, &mut policy, &TransferModel::NONE, &mut sink);
            let opts = AuditOptions::dag_run(0.0, None);
            (graph.instance().clone(), res.schedule, sink.into_events(), opts)
        };
        check_parity(&instance, &platform, &schedule, &events, &opts);
        mutate(&mut events, mutation, picks.0, picks.1);
        check_parity(&instance, &platform, &schedule, &events, &opts);
    }
}

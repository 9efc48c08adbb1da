//! The invariant auditor: replays a recorded `(Schedule, SchedEvent)` pair
//! and checks the paper's defining properties without re-running anything.

use crate::report::{AuditReport, RatioCertificate, Rule, Violation};
use heteroprio_bounds::{area_bound, check_structure, combined_lower_bound};
use heteroprio_core::model::{Instance, Platform, ResourceKind, TaskId, WorkerId};
use heteroprio_core::proven_upper_bound;
use heteroprio_core::schedule::{Schedule, TaskRun};
use heteroprio_core::time::{approx_eq, strictly_less, F64Ord};
use heteroprio_trace::{Decision, QueueEnd, SchedEvent};
use std::collections::BTreeMap;

/// What kind of execution produced the artifacts under audit. The queue
/// discipline rules only apply to HeteroPrio itself (DualHP and plain list
/// scheduling legitimately violate them), and the theorem constants only to
/// fault-free independent-task runs.
#[derive(Clone, Debug)]
pub struct AuditOptions {
    /// Enforce the HeteroPrio queue discipline (pop order, list property,
    /// spoliation preconditions). Off for other policies.
    pub heteroprio: bool,
    /// The run executed under a fault plan: durations are stochastic, so
    /// duration checks and ratio enforcement are skipped ("audit modulo
    /// liveness").
    pub faulty: bool,
    /// Precedence-constrained run: the approximation certificate is
    /// reported but not enforced (the constants are proven for independent
    /// tasks only).
    pub dag: bool,
    /// Allowed execution overhead beyond the calibrated time (the runtime's
    /// cross-class transfer penalty). Also used as the pessimistic slack in
    /// the spoliation victim-scan check.
    pub max_overhead: f64,
    /// Caller-supplied lower bound (e.g. the DAG bound); defaults to the
    /// paper's combined bound `max(AreaBound, max_i min(p_i, q_i))`.
    pub lower_bound: Option<f64>,
    /// The run was produced by DualHP (§6): additionally check the
    /// informational DualHP rules — no spoliation ever, and (for
    /// independent-task runs) the dual-approximation partition structure.
    pub dualhp: bool,
}

impl AuditOptions {
    /// Fault-free HeteroPrio on independent tasks — every rule enforced.
    pub fn independent() -> Self {
        AuditOptions {
            heteroprio: true,
            faulty: false,
            dag: false,
            max_overhead: 0.0,
            lower_bound: None,
            dualhp: false,
        }
    }

    /// HeteroPrio driving a task graph through the simulator/runtime.
    pub fn dag_run(max_overhead: f64, lower_bound: Option<f64>) -> Self {
        AuditOptions {
            heteroprio: true,
            faulty: false,
            dag: true,
            max_overhead,
            lower_bound,
            dualhp: false,
        }
    }

    /// A non-HeteroPrio policy: only well-formedness and the certificates.
    pub fn generic() -> Self {
        AuditOptions {
            heteroprio: false,
            faulty: false,
            dag: false,
            max_overhead: 0.0,
            lower_bound: None,
            dualhp: false,
        }
    }

    /// A DualHP run: the generic rules plus the informational DualHP
    /// invariants ([`Rule::DualHpSpoliationFree`],
    /// [`Rule::DualHpPartitionConsistency`]).
    pub fn dualhp() -> Self {
        AuditOptions { dualhp: true, ..AuditOptions::generic() }
    }

    pub fn with_faults(mut self) -> Self {
        self.faulty = true;
        self
    }
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions::independent()
    }
}

/// Audit a recorded schedule and its event trace against the paper's
/// invariants. Pass the events the run actually emitted (live traces carry
/// queue information that [`Schedule::to_events`] reconstructions lack; the
/// queue-discipline rules are skipped, and reported as skipped, without it).
pub fn audit(
    instance: &Instance,
    platform: &Platform,
    schedule: &Schedule,
    events: &[SchedEvent],
    opts: &AuditOptions,
) -> AuditReport {
    let mut report = AuditReport { events: events.len(), ..AuditReport::default() };

    check_well_formed(instance, platform, schedule, opts, &mut report);

    // Queue-discipline rules need the transient information of a live trace:
    // reconstructed streams have no TaskReady events at all.
    let live = events.iter().any(|e| matches!(e, SchedEvent::TaskReady { .. }));
    let queue_rules =
        [Rule::NoIdleWithReadyWork, Rule::PopOrderConsistency, Rule::SpoliationLegality];
    if !opts.heteroprio {
        for rule in queue_rules {
            report.skipped.push((rule, "policy under audit is not HeteroPrio".into()));
        }
    } else if !live {
        for rule in queue_rules {
            report
                .skipped
                .push((rule, "trace has no queue events (reconstructed from schedule)".into()));
        }
    } else {
        let mut replay = Replay::new(instance, platform, opts.max_overhead);
        replay.has_pops = events.iter().any(|e| matches!(e, SchedEvent::QueuePop { .. }));
        replay.run(events, schedule, &mut report);
    }

    if opts.dualhp {
        crate::dualhp_rules::check_dualhp(instance, platform, schedule, events, opts, &mut report);
    }
    check_area_bound(instance, platform, &mut report);
    check_approx_ratio(instance, platform, schedule, opts, &mut report);
    report
}

pub(crate) fn check_well_formed(
    instance: &Instance,
    platform: &Platform,
    schedule: &Schedule,
    opts: &AuditOptions,
    report: &mut AuditReport,
) {
    let mut push = |res: Result<(), heteroprio_core::ScheduleError>| {
        report.checks += 1;
        if let Err(e) = res {
            report.violations.push(Violation {
                rule: Rule::WellFormed,
                event_index: None,
                time: None,
                worker: None,
                message: e.to_string(),
            });
        }
    };
    push(schedule.check_membership(instance, platform));
    push(schedule.check_completeness(instance));
    push(schedule.check_overlap(platform));
    if opts.faulty {
        report
            .skipped
            .push((Rule::WellFormed, "duration checks skipped: stochastic execution times".into()));
    } else {
        push(schedule.check_durations(instance, platform, opts.max_overhead));
    }
}

pub(crate) fn check_area_bound(instance: &Instance, platform: &Platform, report: &mut AuditReport) {
    if instance.is_empty() {
        report.skipped.push((Rule::AreaBoundCertificate, "empty instance".into()));
        return;
    }
    if platform.k() != 2 {
        report.skipped.push((
            Rule::AreaBoundCertificate,
            "Lemma 1/2 threshold structure is a two-class certificate".into(),
        ));
        return;
    }
    report.checks += 1;
    let ab = area_bound(instance, platform);
    if let Err(msg) = check_structure(instance, platform, &ab) {
        report.violations.push(Violation {
            rule: Rule::AreaBoundCertificate,
            event_index: None,
            time: None,
            worker: None,
            message: msg,
        });
    }
}

pub(crate) fn check_approx_ratio(
    instance: &Instance,
    platform: &Platform,
    schedule: &Schedule,
    opts: &AuditOptions,
    report: &mut AuditReport,
) {
    if instance.is_empty() {
        report.skipped.push((Rule::ApproxRatioCertificate, "empty instance".into()));
        return;
    }
    let lower_bound = opts.lower_bound.unwrap_or_else(|| combined_lower_bound(instance, platform));
    if !lower_bound.is_finite() || !strictly_less(0.0, lower_bound) {
        report
            .skipped
            .push((Rule::ApproxRatioCertificate, format!("degenerate lower bound {lower_bound}")));
        return;
    }
    let makespan = schedule.makespan();
    let proven_bound = proven_upper_bound(platform);
    // The theorems cover fault-free HeteroPrio on independent tasks on a
    // CPU/GPU platform; in any other setting (including k ≥ 3 resource
    // classes) the certificate is a witness, not a gate.
    let enforced = opts.heteroprio && !opts.dag && !opts.faulty && platform.k() == 2;
    report.checks += 1;
    if enforced && strictly_less(proven_bound * lower_bound, makespan) {
        report.violations.push(Violation {
            rule: Rule::ApproxRatioCertificate,
            event_index: None,
            time: None,
            worker: None,
            message: format!(
                "makespan {makespan} exceeds proven bound {proven_bound} x lower bound {lower_bound}"
            ),
        });
    }
    report.certificate = Some(RatioCertificate {
        makespan,
        lower_bound,
        ratio: makespan / lower_bound,
        proven_bound,
        enforced,
    });
}

/// Task `t`'s acceleration factor as a [`Replay`] ρ-multiset key.
fn rho_key(instance: &Instance, t: usize) -> F64Ord {
    F64Ord::new(instance.task(TaskId(t as u32)).accel_factor())
}

/// One task currently executing on a worker, as seen by the replay.
#[derive(Clone, Copy)]
struct Running {
    task: usize,
    start: f64,
    /// Completion time expected *at start time* (estimate-based even under
    /// jitter), which is exactly what spoliation decisions compare.
    expected_end: f64,
}

/// Replays the event stream, maintaining the scheduler's observable state
/// (ready set, running tasks, idle/alive flags) and checking the HeteroPrio
/// queue-discipline rules event by event.
///
/// The replay is incremental: events are fed one at a time through
/// [`Replay::push`] (this is what lets [`crate::StreamAuditor`] report
/// violations *during* a run), and [`Replay::reconcile_aborts`] closes the
/// books against the final [`Schedule`]. The batch [`audit`] entry point
/// drives the same machinery over a complete stream.
pub(crate) struct Replay<'a> {
    instance: &'a Instance,
    platform: &'a Platform,
    /// Pessimistic slack for the spoliation victim-scan check (the
    /// `max_overhead` of [`AuditOptions`]).
    max_overhead: f64,
    ready: Vec<bool>,
    ready_count: usize,
    /// Multiset of the ready tasks' ρ (value → multiplicity), kept only
    /// where the pop-order rule reads it: two classes, and every ρ finite
    /// and non-negative (the precondition of the extreme-ρ test in
    /// [`Replay::check_pop`]).
    ready_rho: Option<BTreeMap<F64Ord, u32>>,
    running: Vec<Option<Running>>,
    idle: Vec<bool>,
    alive: Vec<bool>,
    /// Spoliated tasks awaiting their restart `TaskStart`; the value is the
    /// victim's expected completion time the restart must strictly beat.
    pending_restart: Vec<Option<f64>>,
    /// Aborts seen in the trace (spoliations, task failures, crash-lost
    /// runs), to reconcile against `schedule.aborted` at the end.
    abort_events: Vec<(u32, u32, f64)>,
    /// Whether the stream carries `QueuePop` events (the independent-task
    /// engines) or only `PolicyDecision::Pick` (the DAG engine). Batch
    /// audits precompute this; streaming audits learn it at the first pop
    /// (engines emit one kind of queue record, never both).
    pub(crate) has_pops: bool,
    /// Index of the next event [`Replay::push`] will see.
    index: usize,
    /// Latest event timestamp seen so far.
    now: f64,
}

impl<'a> Replay<'a> {
    pub(crate) fn new(instance: &'a Instance, platform: &'a Platform, max_overhead: f64) -> Self {
        let rho_ordered = platform.k() == 2
            && instance.tasks().iter().all(|t| {
                let rho = t.accel_factor();
                rho.is_finite() && rho >= 0.0
            });
        Replay {
            instance,
            platform,
            max_overhead,
            ready: vec![false; instance.len()],
            ready_count: 0,
            ready_rho: rho_ordered.then(BTreeMap::new),
            running: vec![None; platform.workers()],
            idle: vec![false; platform.workers()],
            alive: vec![true; platform.workers()],
            pending_restart: vec![None; instance.len()],
            abort_events: Vec::new(),
            has_pops: false,
            index: 0,
            now: f64::NEG_INFINITY,
        }
    }

    fn run(mut self, events: &[SchedEvent], schedule: &Schedule, report: &mut AuditReport) {
        for e in events {
            self.push(e, report);
        }
        self.close(schedule, report);
    }

    /// Close the books once the stream has ended: the state at the last
    /// instant is settled too (no later event will advance time past it),
    /// so the list property must hold in it; then reconcile the aborts
    /// against the final [`Schedule`].
    pub(crate) fn close(&mut self, schedule: &Schedule, report: &mut AuditReport) {
        if self.now.is_finite() {
            self.check_no_idle(self.now, self.index.saturating_sub(1), report);
        }
        self.reconcile_aborts(schedule, report);
    }

    /// Add task `t` to the ready set (a no-op if it is already there).
    fn mark_ready(&mut self, t: usize) {
        if self.ready[t] {
            return;
        }
        self.ready[t] = true;
        self.ready_count = self.ready_count.checked_add(1).expect("ready tasks fit in usize");
        if let Some(set) = &mut self.ready_rho {
            let n = set.entry(rho_key(self.instance, t)).or_insert(0);
            *n = n.checked_add(1).expect("ready tasks fit in u32");
        }
    }

    /// Remove task `t` from the ready set (a no-op if it is not there).
    fn unmark_ready(&mut self, t: usize) {
        if !self.ready[t] {
            return;
        }
        self.ready[t] = false;
        self.ready_count = self.ready_count.checked_sub(1).expect("guarded by self.ready[t]");
        if let Some(set) = &mut self.ready_rho {
            let key = rho_key(self.instance, t);
            match set.get_mut(&key) {
                Some(n) if *n > 1 => *n -= 1,
                _ => {
                    set.remove(&key);
                }
            }
        }
    }

    /// Feed one event: time-monotonicity, the settled-state list property
    /// when time advances, then the per-event rules.
    pub(crate) fn push(&mut self, e: &SchedEvent, report: &mut AuditReport) {
        let i = self.advance(e, report);
        self.step(i, e, report);
    }

    /// The time bookkeeping of [`Replay::push`]; returns the event's index.
    fn advance(&mut self, e: &SchedEvent, report: &mut AuditReport) -> usize {
        let i = self.index;
        self.index += 1;
        if matches!(e, SchedEvent::QueuePop { .. }) {
            self.has_pops = true;
        }
        let t = e.time();
        if strictly_less(t, self.now) {
            report.violations.push(Violation {
                rule: Rule::WellFormed,
                event_index: Some(i),
                time: Some(t),
                worker: None,
                message: format!("event time goes backwards ({t} after {})", self.now),
            });
        }
        if strictly_less(self.now, t) && self.now.is_finite() {
            // Time is about to advance: the state at `now` is final, so
            // the list property must hold in it.
            let now = self.now;
            self.check_no_idle(now, i.saturating_sub(1), report);
        }
        self.now = self.now.max(t);
        i
    }

    /// Lemma 3's list property: once all same-timestamp activity has
    /// settled, no alive worker may sit idle while tasks are ready.
    fn check_no_idle(&self, now: f64, at_event: usize, report: &mut AuditReport) {
        if self.ready_count == 0 {
            return;
        }
        for w in 0..self.idle.len() {
            if self.idle[w] && self.alive[w] {
                report.violations.push(Violation {
                    rule: Rule::NoIdleWithReadyWork,
                    event_index: Some(at_event),
                    time: Some(now),
                    worker: Some(w as u32),
                    message: format!("worker idle while {} task(s) are ready", self.ready_count),
                });
            }
        }
    }

    fn step(&mut self, i: usize, e: &SchedEvent, report: &mut AuditReport) {
        match *e {
            SchedEvent::TaskReady { time, task } => {
                let Some(t) = self.task_index(i, time, task, report) else { return };
                self.mark_ready(t);
            }
            SchedEvent::QueuePop { time, task, worker, end } => {
                self.check_pop(i, time, task, worker, Some(end), report);
            }
            SchedEvent::PolicyDecision { time, worker, decision } => {
                // When the stream carries QueuePop events those are the
                // authoritative queue record; otherwise (the DAG engine)
                // Pick decisions play that role.
                if !self.has_pops {
                    if let Decision::Pick(task) = decision {
                        self.check_pop(i, time, task, worker, None, report);
                    }
                }
            }
            SchedEvent::TaskStart { time, task, worker, expected_end } => {
                let Some(t) = self.task_index(i, time, task, report) else { return };
                let Some(w) = self.worker_index(i, time, worker, report) else { return };
                if let Some(victim_end) = self.pending_restart[t].take() {
                    report.checks += 1;
                    if !strictly_less(expected_end, victim_end) {
                        report.violations.push(Violation {
                            rule: Rule::SpoliationLegality,
                            event_index: Some(i),
                            time: Some(time),
                            worker: Some(worker),
                            message: format!(
                                "spoliation restart of task {task} does not strictly improve \
                                 completion time ({expected_end} vs victim's {victim_end})"
                            ),
                        });
                    }
                } else {
                    // Streams without pop/pick events clear the ready slot
                    // here; with them it was already cleared at the pop.
                    self.unmark_ready(t);
                }
                if self.running[w].is_some() {
                    report.violations.push(Violation {
                        rule: Rule::WellFormed,
                        event_index: Some(i),
                        time: Some(time),
                        worker: Some(worker),
                        message: format!("task {task} starts on a worker that is already busy"),
                    });
                }
                self.running[w] = Some(Running { task: t, start: time, expected_end });
                self.idle[w] = false;
            }
            SchedEvent::TaskComplete { time, task, worker } => {
                let Some(w) = self.worker_index(i, time, worker, report) else { return };
                match self.running[w] {
                    Some(run) if run.task == task as usize => {}
                    _ => report.violations.push(Violation {
                        rule: Rule::WellFormed,
                        event_index: Some(i),
                        time: Some(time),
                        worker: Some(worker),
                        message: format!("task {task} completes without a matching start"),
                    }),
                }
                self.running[w] = None;
            }
            SchedEvent::Spoliation { time, task, victim, thief, wasted_work } => {
                self.check_spoliation(i, time, task, victim, thief, wasted_work, report);
            }
            SchedEvent::WorkerIdleBegin { time, worker } => {
                let Some(w) = self.worker_index(i, time, worker, report) else { return };
                self.idle[w] = true;
                // An idle transition is itself a policy answer of "nothing
                // to do": ready work at this very instant was already
                // announced, so any of it disproves the list property.
                report.checks += 1;
                if self.ready_count > 0 {
                    report.violations.push(Violation {
                        rule: Rule::NoIdleWithReadyWork,
                        event_index: Some(i),
                        time: Some(time),
                        worker: Some(worker),
                        message: format!(
                            "worker goes idle while {} task(s) are ready",
                            self.ready_count
                        ),
                    });
                }
            }
            SchedEvent::WorkerIdleEnd { time, worker } => {
                let Some(w) = self.worker_index(i, time, worker, report) else { return };
                self.idle[w] = false;
            }
            SchedEvent::WorkerDown { time, worker, lost_task, .. } => {
                let Some(w) = self.worker_index(i, time, worker, report) else { return };
                self.alive[w] = false;
                self.idle[w] = false;
                if let Some(t) = lost_task {
                    self.abort_events.push((t, worker, time));
                }
                self.running[w] = None;
            }
            SchedEvent::WorkerUp { time, worker } => {
                let Some(w) = self.worker_index(i, time, worker, report) else { return };
                self.alive[w] = true;
            }
            SchedEvent::TaskFailed { time, task, worker, .. } => {
                let Some(w) = self.worker_index(i, time, worker, report) else { return };
                self.abort_events.push((task, worker, time));
                self.running[w] = None;
            }
            SchedEvent::TaskRetry { .. } => {}
        }
    }

    /// Shared checks for `QueuePop` and (in pop-less streams) a `Pick`
    /// decision: the popped task was ready, came off the end matching the
    /// worker's class, and had the extremal acceleration factor for that
    /// end. Equal-ρ ties may resolve either way — that is the documented
    /// tie policy (`QueueTieBreak`) — so only *strictly* better leftovers
    /// are violations.
    fn check_pop(
        &mut self,
        i: usize,
        time: f64,
        task: u32,
        worker: u32,
        end: Option<QueueEnd>,
        report: &mut AuditReport,
    ) {
        let Some(t) = self.task_index(i, time, task, report) else { return };
        if self.worker_index(i, time, worker, report).is_none() {
            return;
        }
        // The end- and ρ-extremality checks below certify the two-class
        // double-ended queue of Algorithm 1; k ≥ 3 traces use per-pair
        // affinity queues whose pops carry no `QueueEnd` claim, so only the
        // class-agnostic ready-set membership is enforceable there.
        let two_class = self.platform.k() == 2;
        report.checks += if two_class { 3 } else { 1 };
        if !self.ready[t] {
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
            let kind = self.platform.kind_of(WorkerId(worker));
            // GPUs pop the max-ρ front, CPUs the min-ρ back.
            let expected = match kind {
                ResourceKind::Gpu => QueueEnd::Front,
                ResourceKind::Cpu => QueueEnd::Back,
            };
            let front = expected == QueueEnd::Front;
            if let Some(end) = end {
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
            let rho = self.instance.task(TaskId(task)).accel_factor();
            // Would a ready task of acceleration factor `rho_u` have been
            // strictly better for this end?
            let better = |rho_u: f64| {
                if front {
                    strictly_less(rho, rho_u)
                } else {
                    strictly_less(rho_u, rho)
                }
            };
            // For finite non-negative operands `strictly_less(a, b)` is
            // non-decreasing in `b` and non-increasing in `a`, so some ready
            // task is strictly better exactly when the extreme ready ρ is
            // (`t`'s own ρ never beats itself). The index-order scan below
            // then only runs on a violating pop, to name the first such task.
            let beaten = match &self.ready_rho {
                Some(set) => {
                    let extreme = if front { set.last_key_value() } else { set.first_key_value() };
                    extreme.is_some_and(|(key, _)| better(key.0))
                }
                None => true,
            };
            if beaten {
                for (u, &ready) in self.ready.iter().enumerate() {
                    if !ready || u == t {
                        continue;
                    }
                    let rho_u = self.instance.task(TaskId(u as u32)).accel_factor();
                    if better(rho_u) {
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
        }
        self.unmark_ready(t);
    }

    /// §3 spoliation preconditions, checked at the `Spoliation` event.
    #[allow(clippy::too_many_arguments)]
    fn check_spoliation(
        &mut self,
        i: usize,
        time: f64,
        task: u32,
        victim: u32,
        thief: u32,
        wasted_work: f64,
        report: &mut AuditReport,
    ) {
        let fail = |message: String, worker: u32, report: &mut AuditReport| {
            report.violations.push(Violation {
                rule: Rule::SpoliationLegality,
                event_index: Some(i),
                time: Some(time),
                worker: Some(worker),
                message,
            });
        };
        report.checks += 4;
        self.abort_events.push((task, victim, time));
        // Spoliation is a last resort: only when nothing is ready.
        if self.ready_count > 0 {
            fail(
                format!("spoliation of task {task} while {} task(s) are ready", self.ready_count),
                thief,
                report,
            );
        }
        let (Some(v), Some(th)) =
            (self.worker_index(i, time, victim, report), self.worker_index(i, time, thief, report))
        else {
            return;
        };
        let victim_class = self.platform.class_of(WorkerId(victim));
        let thief_class = self.platform.class_of(WorkerId(thief));
        if victim_class == thief_class {
            fail(format!("spoliation within one resource class ({victim_class})"), thief, report);
        }
        if self.running[th].is_some() {
            fail("thief is already running a task".into(), thief, report);
        }
        let victim_run = match self.running[v] {
            Some(run) if run.task == task as usize => Some(run),
            _ => {
                fail(format!("victim is not running the spoliated task {task}"), victim, report);
                None
            }
        };
        if let Some(run) = victim_run {
            if !approx_eq(wasted_work, time - run.start) {
                fail(
                    format!(
                        "wasted_work {wasted_work} does not match the victim's elapsed time {}",
                        time - run.start
                    ),
                    victim,
                    report,
                );
            }
            // Victim scan order: candidates on any class other than the
            // thief's finishing *later* than the chosen victim are scanned
            // first, so skipping one is only legal if stealing it would not
            // strictly improve. `max_overhead` makes the recomputed steal
            // time pessimistic (the trace does not say what transfer
            // penalty applied), so this never false-positives.
            for (u, slot) in self.running.iter().enumerate() {
                let Some(u_run) = slot else { continue };
                if u == v || self.platform.class_of(WorkerId(u as u32)) == thief_class {
                    continue;
                }
                let steal = time
                    + self.instance.task(TaskId(u_run.task as u32)).time_on(thief_class)
                    + self.max_overhead;
                if strictly_less(run.expected_end, u_run.expected_end)
                    && strictly_less(steal, u_run.expected_end)
                {
                    fail(
                        format!(
                            "victim scan order: task {} on worker {u} finishes later \
                             ({} vs {}) and was strictly improvable",
                            u_run.task, u_run.expected_end, run.expected_end
                        ),
                        thief,
                        report,
                    );
                    break;
                }
            }
            self.pending_restart[task as usize] = Some(run.expected_end);
        }
        // With an unknown victim run the improvement check is impossible, so
        // no pending entry is recorded and the restart is treated as a plain
        // start.
        self.running[v] = None;
    }

    /// Every abort the trace reports must appear in `schedule.aborted` and
    /// vice versa (same task, worker and end time).
    fn reconcile_aborts(&mut self, schedule: &Schedule, report: &mut AuditReport) {
        report.checks += 1;
        let mut from_schedule: Vec<(u32, u32, f64)> =
            schedule.aborted.iter().map(|r| (r.task.0, r.worker.0, r.end)).collect();
        let key = |x: &(u32, u32, f64)| (x.0, x.1, F64Ord::new(x.2));
        from_schedule.sort_by_key(key);
        self.abort_events.sort_by_key(key);
        let matches = from_schedule.len() == self.abort_events.len()
            && from_schedule
                .iter()
                .zip(&self.abort_events)
                .all(|(a, b)| a.0 == b.0 && a.1 == b.1 && approx_eq(a.2, b.2));
        if !matches {
            report.violations.push(Violation {
                rule: Rule::SpoliationLegality,
                event_index: None,
                time: None,
                worker: None,
                message: format!(
                    "aborted-work accounting mismatch: schedule records {} aborted run(s), \
                     trace reports {} abort event(s)",
                    from_schedule.len(),
                    self.abort_events.len()
                ),
            });
        }
    }

    fn task_index(
        &self,
        i: usize,
        time: f64,
        task: u32,
        report: &mut AuditReport,
    ) -> Option<usize> {
        if (task as usize) < self.instance.len() {
            Some(task as usize)
        } else {
            report.violations.push(Violation {
                rule: Rule::WellFormed,
                event_index: Some(i),
                time: Some(time),
                worker: None,
                message: format!("event references unknown task {task}"),
            });
            None
        }
    }

    fn worker_index(
        &self,
        i: usize,
        time: f64,
        worker: u32,
        report: &mut AuditReport,
    ) -> Option<usize> {
        if (worker as usize) < self.platform.workers() {
            Some(worker as usize)
        } else {
            report.violations.push(Violation {
                rule: Rule::WellFormed,
                event_index: Some(i),
                time: Some(time),
                worker: Some(worker),
                message: format!("event references unknown worker {worker}"),
            });
            None
        }
    }
}

/// Rebuild a [`Schedule`] from a recorded event stream, for auditing traces
/// that arrive without one (e.g. a JSONL file handed to `heteroprio audit`).
/// Completed runs come from `TaskStart`/`TaskComplete` pairs; aborted runs
/// from `Spoliation`, `WorkerDown { lost_task }` and `TaskFailed`.
pub fn schedule_from_events(events: &[SchedEvent]) -> Schedule {
    let mut schedule = Schedule::default();
    // Per-worker in-flight run, grown on demand.
    let mut open: Vec<Option<(u32, f64)>> = Vec::new();
    let slot = |open: &mut Vec<Option<(u32, f64)>>, w: u32| {
        let w = w as usize;
        if open.len() <= w {
            open.resize(w + 1, None);
        }
        w
    };
    for e in events {
        match *e {
            SchedEvent::TaskStart { time, task, worker, .. } => {
                let w = slot(&mut open, worker);
                open[w] = Some((task, time));
            }
            SchedEvent::TaskComplete { time, task, worker } => {
                let w = slot(&mut open, worker);
                if let Some((t, start)) = open[w].take() {
                    if t == task {
                        // lint: allow(schedule-mut): this function *reconstructs* a schedule from a trace.
                        schedule.runs.push(TaskRun {
                            task: TaskId(task),
                            worker: WorkerId(worker),
                            start,
                            end: time,
                        });
                        continue;
                    }
                    open[w] = Some((t, start));
                }
                // No matching start: record a zero-length run and let the
                // auditor's well-formedness checks call it out.
                // lint: allow(schedule-mut): trace reconstruction, not engine output.
                schedule.runs.push(TaskRun {
                    task: TaskId(task),
                    worker: WorkerId(worker),
                    start: time,
                    end: time,
                });
            }
            SchedEvent::Spoliation { time, task, victim, .. } => {
                let w = slot(&mut open, victim);
                let start = match open[w].take() {
                    Some((t, start)) if t == task => start,
                    other => {
                        open[w] = other;
                        time
                    }
                };
                // lint: allow(schedule-mut): trace reconstruction, not engine output.
                schedule.aborted.push(TaskRun {
                    task: TaskId(task),
                    worker: WorkerId(victim),
                    start,
                    end: time,
                });
            }
            SchedEvent::WorkerDown { time, worker, lost_task: Some(task), .. } => {
                let w = slot(&mut open, worker);
                let start = match open[w].take() {
                    Some((t, start)) if t == task => start,
                    other => {
                        open[w] = other;
                        time
                    }
                };
                // lint: allow(schedule-mut): trace reconstruction, not engine output.
                schedule.aborted.push(TaskRun {
                    task: TaskId(task),
                    worker: WorkerId(worker),
                    start,
                    end: time,
                });
            }
            SchedEvent::TaskFailed { time, task, worker, lost_work, .. } => {
                let w = slot(&mut open, worker);
                if let Some((t, _)) = open[w] {
                    if t == task {
                        open[w] = None;
                    }
                }
                // lint: allow(schedule-mut): trace reconstruction, not engine output.
                schedule.aborted.push(TaskRun {
                    task: TaskId(task),
                    worker: WorkerId(worker),
                    start: time - lost_work,
                    end: time,
                });
            }
            _ => {}
        }
    }
    schedule
}

#[cfg(test)]
mod pop_parity;

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::heteroprio::{heteroprio_traced, HeteroPrioConfig};
    use heteroprio_core::{Instance, Platform};
    use heteroprio_trace::VecSink;

    fn fig1_instance() -> Instance {
        // The running example of the paper's Figure 1: ρ spans both sides
        // of 1 so both classes get work and a spoliation occurs.
        Instance::from_times(&[
            (8.0, 1.0),
            (4.0, 1.0),
            (2.0, 2.0),
            (1.0, 4.0),
            (3.0, 3.0),
            (6.0, 1.5),
        ])
    }

    fn traced_run(inst: &Instance, plat: &Platform) -> (Schedule, Vec<SchedEvent>) {
        let mut sink = VecSink::new();
        let res = heteroprio_traced(inst, plat, &HeteroPrioConfig::new(), &mut sink);
        (res.schedule, sink.events)
    }

    #[test]
    fn fault_free_run_audits_clean() {
        let inst = fig1_instance();
        let plat = Platform::new(2, 1);
        let (schedule, events) = traced_run(&inst, &plat);
        let report = audit(&inst, &plat, &schedule, &events, &AuditOptions::independent());
        assert!(report.is_clean(), "unexpected violations:\n{}", report.render());
        assert!(report.certificate.as_ref().is_some_and(|c| c.enforced));
        assert!(report.skipped.is_empty(), "nothing should be skipped: {:?}", report.skipped);
    }

    #[test]
    fn reconstructed_trace_skips_queue_rules() {
        let inst = fig1_instance();
        let plat = Platform::new(2, 1);
        let (schedule, _) = traced_run(&inst, &plat);
        let events = schedule.to_events(&plat);
        let report = audit(&inst, &plat, &schedule, &events, &AuditOptions::independent());
        assert!(report.is_clean(), "{}", report.render());
        let skipped: Vec<Rule> = report.skipped.iter().map(|(r, _)| *r).collect();
        assert!(skipped.contains(&Rule::PopOrderConsistency));
        assert!(skipped.contains(&Rule::NoIdleWithReadyWork));
    }

    #[test]
    fn generic_policy_skips_queue_rules_but_checks_certificates() {
        let inst = fig1_instance();
        let plat = Platform::new(2, 1);
        let (schedule, events) = traced_run(&inst, &plat);
        let report = audit(&inst, &plat, &schedule, &events, &AuditOptions::generic());
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.certificate.as_ref().is_some_and(|c| !c.enforced));
        assert_eq!(report.skipped.len(), 3);
    }

    #[test]
    fn inflated_makespan_fails_the_ratio_certificate() {
        // One task of time 1 on each class, scheduled absurdly late: the
        // schedule is ill-formed *and* busts the φ bound.
        use heteroprio_core::{Schedule, TaskRun};
        let inst = Instance::from_times(&[(1.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let schedule = Schedule {
            runs: vec![TaskRun { task: TaskId(0), worker: WorkerId(0), start: 21.0, end: 22.0 }],
            aborted: vec![],
        };
        let report = audit(&inst, &plat, &schedule, &[], &AuditOptions::independent());
        assert!(report.violations.iter().any(|v| v.rule == Rule::ApproxRatioCertificate));
        let cert = report.certificate.expect("certificate reported");
        assert!(cert.ratio > 20.0);
    }

    /// The list property at the last instant: no later event advances time
    /// past it, so only the closing check sees worker 0 idle while task 1
    /// is ready.
    #[test]
    fn idle_with_ready_work_at_the_final_instant_fires() {
        let inst = Instance::from_times(&[(4.0, 1.0), (4.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let events = vec![
            SchedEvent::TaskReady { time: 0.0, task: 0 },
            SchedEvent::QueuePop { time: 0.0, task: 0, worker: 1, end: QueueEnd::Front },
            SchedEvent::TaskStart { time: 0.0, task: 0, worker: 1, expected_end: 1.0 },
            SchedEvent::WorkerIdleBegin { time: 0.0, worker: 0 },
            SchedEvent::TaskComplete { time: 1.0, task: 0, worker: 1 },
            SchedEvent::TaskReady { time: 1.0, task: 1 },
        ];
        let schedule = schedule_from_events(&events);
        let batch = audit(&inst, &plat, &schedule, &events, &AuditOptions::independent());
        let mut auditor = crate::StreamAuditor::new(&inst, &plat, AuditOptions::independent());
        for &e in &events {
            heteroprio_trace::TraceSink::emit(&mut auditor, e);
        }
        let streamed = auditor.finish(&schedule);
        for report in [&batch, &streamed] {
            let idle: Vec<&Violation> =
                report.violations.iter().filter(|v| v.rule == Rule::NoIdleWithReadyWork).collect();
            assert_eq!(idle.len(), 1, "{}", report.render());
            assert_eq!(idle[0].worker, Some(0));
            assert_eq!(idle[0].event_index, Some(5), "pinned to the last event");
            assert_eq!(idle[0].time, Some(1.0));
        }
    }

    #[test]
    fn forged_spoliation_with_ready_work_fires() {
        let inst = Instance::from_times(&[(4.0, 1.0), (4.0, 1.0)]);
        let plat = Platform::new(1, 1);
        // Hand-forged stream: task 1 is ready, yet worker 0 spoliates.
        let events = vec![
            SchedEvent::TaskReady { time: 0.0, task: 0 },
            SchedEvent::TaskReady { time: 0.0, task: 1 },
            SchedEvent::QueuePop { time: 0.0, task: 0, worker: 0, end: QueueEnd::Back },
            SchedEvent::TaskStart { time: 0.0, task: 0, worker: 0, expected_end: 4.0 },
            SchedEvent::Spoliation { time: 1.0, task: 0, victim: 0, thief: 1, wasted_work: 1.0 },
        ];
        let schedule = Schedule::default();
        let report = audit(&inst, &plat, &schedule, &events, &AuditOptions::independent());
        assert!(report
            .violations
            .iter()
            .any(|v| v.rule == Rule::SpoliationLegality && v.message.contains("ready")));
    }
}

//! Online auditing: the same invariant rules as [`crate::audit`], checked
//! *while a run executes* instead of post-hoc.
//!
//! [`StreamAuditor`] implements
//! [`TraceSink`], so it plugs directly into any
//! traced entry point — `heteroprio_traced`, `simulate_traced`,
//! `Runtime::run`, or the shared event kernel they all sit on — and checks
//! each event as the engine emits it. Violations are recorded with the
//! offending event index the moment they happen; [`StreamAuditor::violations`]
//! exposes them mid-run, and [`StreamAuditor::finish`] closes the books
//! against the final [`Schedule`] (well-formedness, abort reconciliation and
//! the certificates need the complete run) and returns the same
//! [`AuditReport`] a batch audit of the recorded stream would.
//!
//! This resolves the ROADMAP item on making the auditor *streaming*: the
//! rules fire at the offending event during the run, not after it.

use crate::auditor::{
    check_approx_ratio, check_area_bound, check_well_formed, AuditOptions, Replay,
};
use crate::report::{AuditReport, Rule, Violation};
use heteroprio_core::{Instance, Platform, Schedule};
use heteroprio_trace::{SchedEvent, TraceSink};

/// A [`TraceSink`] that audits the event stream as it is produced.
///
/// ```
/// use heteroprio_audit::{AuditOptions, StreamAuditor};
/// use heteroprio_core::{heteroprio_traced, HeteroPrioConfig, Instance, Platform};
///
/// let instance = Instance::from_times(&[(8.0, 1.0), (4.0, 1.0), (2.0, 2.0)]);
/// let platform = Platform::new(2, 1);
/// let mut auditor = StreamAuditor::new(&instance, &platform, AuditOptions::independent());
/// let result = heteroprio_traced(&instance, &platform, &HeteroPrioConfig::new(), &mut auditor);
/// let report = auditor.finish(&result.schedule);
/// assert!(report.is_clean(), "{}", report.render());
/// ```
pub struct StreamAuditor<'a> {
    instance: &'a Instance,
    platform: &'a Platform,
    opts: AuditOptions,
    replay: Replay<'a>,
    /// Violations and checks accumulated by the streaming rules.
    streamed: AuditReport,
    saw_ready: bool,
}

impl<'a> StreamAuditor<'a> {
    pub fn new(instance: &'a Instance, platform: &'a Platform, opts: AuditOptions) -> Self {
        let replay = Replay::new(instance, platform, opts.max_overhead);
        StreamAuditor {
            instance,
            platform,
            opts,
            replay,
            streamed: AuditReport::default(),
            saw_ready: false,
        }
    }

    /// Violations found so far, available mid-stream. Each carries the index
    /// of the event that triggered it.
    pub fn violations(&self) -> &[Violation] {
        &self.streamed.violations
    }

    /// `true` while no streamed rule has fired.
    pub fn is_clean_so_far(&self) -> bool {
        self.streamed.violations.is_empty()
    }

    /// Number of events audited so far.
    pub fn events_seen(&self) -> usize {
        self.streamed.events
    }

    /// Close the books against the completed run's [`Schedule`]: the list
    /// property at the final instant, abort reconciliation, well-formedness,
    /// the DualHP rules (when enabled) and the certificate checks —
    /// everything that needs the whole run. The returned report contains the
    /// streamed violations too, in the same section order as a batch
    /// [`crate::audit`] of the recorded stream.
    pub fn finish(mut self, schedule: &Schedule) -> AuditReport {
        let mut report = AuditReport { events: self.streamed.events, ..AuditReport::default() };
        check_well_formed(self.instance, self.platform, schedule, &self.opts, &mut report);
        let queue_rules =
            [Rule::NoIdleWithReadyWork, Rule::PopOrderConsistency, Rule::SpoliationLegality];
        if !self.opts.heteroprio {
            for rule in queue_rules {
                report.skipped.push((rule, "policy under audit is not HeteroPrio".into()));
            }
        } else if !self.saw_ready {
            for rule in queue_rules {
                report
                    .skipped
                    .push((rule, "trace has no queue events (reconstructed from schedule)".into()));
            }
        } else {
            self.replay.close(schedule, &mut self.streamed);
            report.checks += self.streamed.checks;
            self.streamed.checks = 0;
            report.violations.append(&mut self.streamed.violations);
        }
        if self.opts.dualhp {
            // The steal rule already fired per event; re-check the
            // schedule-level half plus the partition structure.
            crate::dualhp_rules::check_dualhp(
                self.instance,
                self.platform,
                schedule,
                &[],
                &self.opts,
                &mut report,
            );
            report.checks += self.streamed.checks;
            report.violations.append(&mut self.streamed.violations);
        }
        check_area_bound(self.instance, self.platform, &mut report);
        check_approx_ratio(self.instance, self.platform, schedule, &self.opts, &mut report);
        report
    }
}

impl TraceSink for StreamAuditor<'_> {
    fn emit(&mut self, event: SchedEvent) {
        self.streamed.events += 1;
        if matches!(event, SchedEvent::TaskReady { .. }) {
            self.saw_ready = true;
        }
        if self.opts.heteroprio {
            self.replay.push(&event, &mut self.streamed);
        }
        if self.opts.dualhp {
            if let SchedEvent::Spoliation { time, task, victim, thief, .. } = event {
                self.streamed.violations.push(Violation {
                    rule: Rule::DualHpSpoliationFree,
                    event_index: Some(self.streamed.events - 1),
                    time: Some(time),
                    worker: Some(thief),
                    message: format!(
                        "DualHP trace contains a cross-class steal: task {task} taken from \
                         worker {victim}"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_core::{heteroprio_traced, HeteroPrioConfig};
    use heteroprio_schedulers::HeteroPrioDagPolicy;
    use heteroprio_simulator::{simulate_traced, TransferModel};
    use heteroprio_taskgraph::{
        apply_bottom_level_priorities, cholesky, Factorization, WeightScheme,
    };
    use heteroprio_trace::{QueueEnd, TeeSink, VecSink};
    use heteroprio_workloads::{independent_instance, paper_platform, ChameleonTiming};

    fn fig1_instance() -> Instance {
        Instance::from_times(&[
            (8.0, 1.0),
            (4.0, 1.0),
            (2.0, 2.0),
            (1.0, 4.0),
            (3.0, 3.0),
            (6.0, 1.5),
        ])
    }

    #[test]
    fn clean_run_streams_clean_and_matches_batch_audit() {
        let inst = fig1_instance();
        let plat = Platform::new(2, 1);
        let mut sink = VecSink::new();
        let mut auditor = StreamAuditor::new(&inst, &plat, AuditOptions::independent());
        let res = {
            let mut both = TeeSink(&mut sink, &mut auditor);
            heteroprio_traced(&inst, &plat, &HeteroPrioConfig::new(), &mut both)
        };
        assert!(auditor.is_clean_so_far());
        let streamed = auditor.finish(&res.schedule);
        assert!(streamed.is_clean(), "{}", streamed.render());
        let batch =
            crate::audit(&inst, &plat, &res.schedule, &sink.events, &AuditOptions::independent());
        assert_eq!(streamed.violations, batch.violations);
        assert_eq!(streamed.checks, batch.checks);
        assert_eq!(streamed.events, batch.events);
        assert_eq!(streamed.skipped, batch.skipped);
        assert_eq!(streamed.certificate, batch.certificate);
    }

    /// Audit one traced run both ways: streamed while `run` executes, and
    /// batch over the recorded stream. Returns `(streamed, batch)`.
    fn stream_and_batch<'a>(
        inst: &'a Instance,
        plat: &'a Platform,
        opts: AuditOptions,
        run: impl FnOnce(&mut TeeSink<&mut VecSink, &mut StreamAuditor<'a>>) -> Schedule,
    ) -> (AuditReport, AuditReport) {
        let mut sink = VecSink::new();
        let mut auditor = StreamAuditor::new(inst, plat, opts.clone());
        let schedule = run(&mut TeeSink(&mut sink, &mut auditor));
        let batch = crate::audit(inst, plat, &schedule, &sink.events, &opts);
        (auditor.finish(&schedule), batch)
    }

    fn assert_stream_matches_batch(streamed: &AuditReport, batch: &AuditReport) {
        assert!(streamed.is_clean(), "{}", streamed.render());
        assert_eq!(streamed.violations, batch.violations);
        assert_eq!(streamed.checks, batch.checks);
        assert_eq!(streamed.events, batch.events);
        assert_eq!(streamed.skipped, batch.skipped);
        assert_eq!(streamed.certificate, batch.certificate);
    }

    /// Fig. 6 at paper scale: the Cholesky N=16 kernel set as independent
    /// tasks on the paper's 20 CPU + 4 GPU platform.
    #[test]
    fn paper_scale_independent_run_streams_like_batch() {
        let inst = independent_instance(Factorization::Cholesky, 16, &ChameleonTiming);
        let plat = paper_platform();
        let (streamed, batch) = stream_and_batch(&inst, &plat, AuditOptions::independent(), |s| {
            heteroprio_traced(&inst, &plat, &HeteroPrioConfig::new(), s).schedule
        });
        assert_stream_matches_batch(&streamed, &batch);
    }

    /// Fig. 7 at paper scale: the Cholesky N=16 task graph, bottom-level
    /// priorities, through the DAG simulator on 20 CPUs + 4 GPUs.
    #[test]
    fn paper_scale_dag_run_streams_like_batch() {
        let mut graph = cholesky(16, &ChameleonTiming);
        apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
        let plat = paper_platform();
        let opts = AuditOptions::dag_run(0.0, None);
        let (streamed, batch) = stream_and_batch(graph.instance(), &plat, opts, |s| {
            let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
            simulate_traced(&graph, &plat, &mut policy, &TransferModel::NONE, s).schedule
        });
        assert_stream_matches_batch(&streamed, &batch);
    }

    /// A corrupted stream replayed *into* the auditor: the violation must be
    /// visible, with its event index, while the stream is still open —
    /// before any schedule or `finish` call exists.
    #[test]
    fn corrupted_stream_reports_violation_before_the_run_completes() {
        let inst = Instance::from_times(&[(4.0, 1.0), (3.0, 1.0)]);
        let plat = Platform::new(1, 1);
        let mut auditor = StreamAuditor::new(&inst, &plat, AuditOptions::independent());
        auditor.emit(SchedEvent::TaskReady { time: 0.0, task: 0 });
        auditor.emit(SchedEvent::TaskReady { time: 0.0, task: 1 });
        assert!(auditor.is_clean_so_far());
        // Corruption: the CPU pops the GPU's end of the queue.
        auditor.emit(SchedEvent::QueuePop { time: 0.0, task: 0, worker: 0, end: QueueEnd::Front });
        assert!(!auditor.is_clean_so_far(), "violation must be visible mid-stream");
        let v = &auditor.violations()[0];
        assert_eq!(v.rule, Rule::PopOrderConsistency);
        assert_eq!(v.event_index, Some(2), "violation pinned to the offending event");
        assert_eq!(auditor.events_seen(), 3);
    }

    #[test]
    fn generic_policy_streams_without_queue_rules() {
        let inst = fig1_instance();
        let plat = Platform::new(2, 1);
        let mut auditor = StreamAuditor::new(&inst, &plat, AuditOptions::generic());
        let res = heteroprio_traced(&inst, &plat, &HeteroPrioConfig::new(), &mut auditor);
        let report = auditor.finish(&res.schedule);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.skipped.len(), 3);
    }
}

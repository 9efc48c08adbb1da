//! Crash-durability and recovery properties.
//!
//! The contract under test: the journal holds exactly the events emitted
//! before a crash, and replaying that prefix through a fresh engine —
//! with or without a checkpoint shortcut — continues the run to a stream
//! and schedule *bit-identical* to the uninterrupted reference. Both
//! engines (the independent-task scheduler and the DAG simulator) are
//! swept over every crash point, and arbitrary journal damage (bit flips,
//! truncation, trailing garbage) must recover without panics and without
//! silently dropping any record written before the damage.

use heteroprio::core::kernel::EngineError;
use heteroprio::core::{
    heteroprio_durable, heteroprio_resume, heteroprio_traced, CheckpointStore, CrashPlan,
    DurabilityOptions, HeteroPrioConfig, HeteroPrioResult, Instance, MemCheckpointStore, Platform,
    QueueTieBreak, Task, TaskRun,
};
use heteroprio::metrics::NullRegistry;
use heteroprio::schedulers::HeteroPrioDagPolicy;
use heteroprio::simulator::{
    try_resume_faulty, try_simulate_durable, try_simulate_faulty, FaultPlan, SimError,
    TransferModel,
};
use heteroprio::taskgraph::{apply_bottom_level_priorities, cholesky, WeightScheme};
use heteroprio::trace::{
    event_line, FileJournal, Journal, JournalSink, MemJournal, SchedEvent, TeeSink, VecSink,
};
use heteroprio::workloads::{three_class_platform, ChameleonTiming};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

const M: NullRegistry = NullRegistry;

/// Uninterrupted independent-task reference: full event stream + result.
fn independent_reference(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
) -> (Vec<SchedEvent>, HeteroPrioResult) {
    let mut sink = VecSink::new();
    let res = heteroprio_traced(instance, platform, config, &mut sink);
    (sink.events, res)
}

/// Crash the independent engine after `crash_at` events, then resume from
/// the journal (and optionally the latest checkpoint) and require the
/// recovered stream and schedule to match the reference exactly.
fn crash_resume_independent(
    instance: &Instance,
    platform: &Platform,
    config: &HeteroPrioConfig,
    reference: &(Vec<SchedEvent>, HeteroPrioResult),
    crash_at: u64,
    checkpoint_every: Option<u64>,
) {
    let (ref_events, ref_res) = reference;
    let mut journal = MemJournal::new();
    let mut store = MemCheckpointStore::new();
    let mut jsink = JournalSink::new(&mut journal);
    let err = heteroprio_durable(
        instance,
        platform,
        config,
        DurabilityOptions {
            crash: CrashPlan::at_event(crash_at),
            checkpoint_every,
            store: checkpoint_every.is_some().then_some(&mut store as &mut dyn CheckpointStore),
        },
        &mut jsink,
        &M,
    )
    .expect_err("the crash plan must abort the run");
    assert!(jsink.error().is_none(), "journal append failed: {:?}", jsink.error());
    match err {
        EngineError::Crashed { events, .. } => assert_eq!(events, crash_at),
        other => panic!("expected Crashed, got {other:?}"),
    }
    assert_eq!(journal.len() as u64, crash_at, "journal must hold exactly the pre-crash events");
    assert_eq!(journal.events(), &ref_events[..crash_at as usize]);

    let tail = journal.replay().expect("MemJournal replay cannot fail");
    let snapshot = store.latest.take();
    if checkpoint_every.is_none() {
        assert!(snapshot.is_none());
    }
    let mut resumed = VecSink::new();
    let res =
        heteroprio_resume(instance, platform, config, snapshot.as_ref(), &tail, &mut resumed, &M)
            .expect("recovery must complete");
    assert_eq!(&resumed.events, ref_events, "recovered stream diverged (crash_at={crash_at})");
    assert_eq!(res.schedule.runs, ref_res.schedule.runs);
    assert_eq!(res.spoliations, ref_res.spoliations);
}

/// Every crash point of a fixed heterogeneous instance, journal-only and
/// checkpointed, recovers to the bit-identical stream and schedule.
#[test]
fn independent_engine_recovers_from_every_crash_point() {
    let times: Vec<(f64, f64)> =
        (0..14).map(|i| (1.0 + 0.7 * (i % 5) as f64, 0.5 + 0.3 * (i % 7) as f64)).collect();
    let instance = Instance::from_times(&times);
    let platform = Platform::new(3, 2);
    let config = HeteroPrioConfig::new();
    let reference = independent_reference(&instance, &platform, &config);
    let total = reference.0.len() as u64;
    assert!(total > 0);
    for crash_at in 1..=total {
        for checkpoint_every in [None, Some(4)] {
            crash_resume_independent(
                &instance,
                &platform,
                &config,
                &reference,
                crash_at,
                checkpoint_every,
            );
        }
    }
}

/// Every crash point on the three-class platform, journal-only and
/// checkpointed, under both queue tie rules. The instance is dense in
/// ties within every class pair, so a checkpoint must carry each pair's
/// FIFO order, not just the `(cpu, gpu)` pair's, to restore bit for bit.
#[test]
fn independent_engine_recovers_from_every_crash_point_on_three_classes() {
    let (_, platform) = three_class_platform();
    let rows: Vec<[f64; 3]> = (0..40)
        .map(|i| [1.0 + (i % 2) as f64, 0.5 + 0.5 * (i % 5) as f64, 1.0 + ((i / 2) % 3) as f64])
        .collect();
    let mut instance = Instance::new();
    for (i, row) in rows.iter().enumerate() {
        instance.push(Task::from_times(row).with_priority((i % 2) as f64));
    }
    for queue_tie in [QueueTieBreak::Priority, QueueTieBreak::InsertionOrder] {
        let config = HeteroPrioConfig { queue_tie, ..HeteroPrioConfig::new() };
        let reference = independent_reference(&instance, &platform, &config);
        let total = reference.0.len() as u64;
        assert!(total > 0);
        for crash_at in 1..=total {
            for checkpoint_every in [None, Some(4)] {
                crash_resume_independent(
                    &instance,
                    &platform,
                    &config,
                    &reference,
                    crash_at,
                    checkpoint_every,
                );
            }
        }
    }
}

/// Uninterrupted DAG reference under a fault plan (stresses the RNG state
/// carried by snapshots): full stream + schedule.
fn dag_reference(
    n: usize,
    platform: &Platform,
    plan: &FaultPlan,
) -> (Vec<SchedEvent>, Vec<TaskRun>) {
    let mut graph = cholesky(n, &ChameleonTiming);
    apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
    let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let mut sink = VecSink::new();
    let res =
        try_simulate_faulty(&graph, platform, &mut policy, &TransferModel::NONE, plan, &mut sink)
            .expect("reference run must complete");
    (sink.events, res.schedule.runs)
}

/// Crash the DAG simulator after `crash_at` events and recover; the fault
/// plan's RNG, the jittered event instants, and the policy's arbitration
/// must all survive the round trip.
fn crash_resume_dag(
    n: usize,
    platform: &Platform,
    plan: &FaultPlan,
    reference: &(Vec<SchedEvent>, Vec<TaskRun>),
    crash_at: u64,
    checkpoint_every: Option<u64>,
) {
    let (ref_events, ref_runs) = reference;
    let mut graph = cholesky(n, &ChameleonTiming);
    apply_bottom_level_priorities(&mut graph, WeightScheme::Min);
    let mut journal = MemJournal::new();
    let mut store = MemCheckpointStore::new();
    let mut jsink = JournalSink::new(&mut journal);
    let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let err = try_simulate_durable(
        &graph,
        platform,
        &mut policy,
        &TransferModel::NONE,
        plan,
        DurabilityOptions {
            crash: CrashPlan::at_event(crash_at),
            checkpoint_every,
            store: checkpoint_every.is_some().then_some(&mut store as &mut dyn CheckpointStore),
        },
        &mut jsink,
        &M,
    )
    .expect_err("the crash plan must abort the run");
    match err {
        SimError::Crashed { events, .. } => assert_eq!(events, crash_at),
        other => panic!("expected Crashed, got {other:?}"),
    }
    assert_eq!(journal.events(), &ref_events[..crash_at as usize]);

    let tail = journal.replay().expect("MemJournal replay cannot fail");
    let snapshot = store.latest.take();
    let mut policy = HeteroPrioDagPolicy::new(HeteroPrioConfig::new());
    let mut resumed = VecSink::new();
    let res = try_resume_faulty(
        &graph,
        platform,
        &mut policy,
        &TransferModel::NONE,
        plan,
        snapshot.as_ref(),
        &tail,
        &mut resumed,
        &M,
    )
    .expect("recovery must complete");
    assert_eq!(&resumed.events, ref_events, "recovered stream diverged (crash_at={crash_at})");
    assert_eq!(&res.schedule.runs, ref_runs);
}

/// Every crash point of a faulty Cholesky run — jitter and task failures
/// active, so recovery must reproduce the RNG draws exactly.
#[test]
fn dag_engine_recovers_from_every_crash_point_under_faults() {
    let platform = Platform::new(2, 1);
    let plan = FaultPlan { task_failure_prob: 0.12, exec_jitter: 0.2, seed: 7, ..FaultPlan::NONE };
    let reference = dag_reference(4, &platform, &plan);
    let total = reference.0.len() as u64;
    assert!(total > 20, "want a non-trivial stream, got {total}");
    for crash_at in 1..=total {
        let checkpoint_every = match crash_at % 3 {
            0 => None,
            1 => Some(5),
            _ => Some(1),
        };
        crash_resume_dag(4, &platform, &plan, &reference, crash_at, checkpoint_every);
    }
}

/// A journal from a *different* run must be rejected, not replayed into a
/// silently wrong schedule.
#[test]
fn resume_rejects_a_foreign_journal() {
    // `b` differs in the CPU time of the CPU-affine task, so the recorded
    // finish instants cannot be reproduced by replaying `b`.
    let a = Instance::from_times(&[(2.0, 1.0), (3.0, 1.5), (1.0, 4.0)]);
    let b = Instance::from_times(&[(2.0, 1.0), (3.0, 1.5), (2.0, 4.0)]);
    let platform = Platform::new(2, 1);
    let config = HeteroPrioConfig::new();
    let (events_a, _) = independent_reference(&a, &platform, &config);
    let mut sink = VecSink::new();
    let err = heteroprio_resume(&b, &platform, &config, None, &events_a, &mut sink, &M)
        .expect_err("a journal recorded from another instance must not verify");
    let msg = format!("{err}");
    assert!(
        msg.contains("diverge") || msg.contains("journal") || msg.contains("replay"),
        "unhelpful recovery error: {msg}"
    );
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_journal_path() -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("hp-recovery-{}-{n}.journal", std::process::id()))
}

/// Frame byte offsets: `ends[i]` is the file offset one past record `i`.
fn frame_ends(events: &[SchedEvent]) -> Vec<u64> {
    let mut at = 6u64; // magic "HPJL1\n"
    events
        .iter()
        .map(|e| {
            at += 8 + event_line(e).len() as u64;
            at
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // Random instances, random crash points, journal-only and checkpointed:
    // recovery is always bit-identical to the uninterrupted run.
    #[test]
    fn any_crash_point_recovers_bit_identically(
        times in prop::collection::vec((0.5f64..8.0, 0.5f64..8.0), 1..24),
        cpus in 1usize..4,
        gpus in 1usize..3,
        crash_frac in 0.0f64..1.0,
        ckpt_raw in 0u64..8,
    ) {
        let ckpt = (ckpt_raw > 0).then_some(ckpt_raw);
        let instance = Instance::from_times(&times);
        let platform = Platform::new(cpus, gpus);
        let config = HeteroPrioConfig::new();
        let reference = independent_reference(&instance, &platform, &config);
        let total = reference.0.len() as u64;
        prop_assert!(total > 0, "a non-empty instance must emit events");
        // lint: allow(cast-trunc): picking a crash index is intentional truncation.
        let crash_at = 1 + ((crash_frac * (total - 1) as f64) as u64).min(total - 1);
        crash_resume_independent(&instance, &platform, &config, &reference, crash_at, ckpt);
    }

    // Random fault plans on the DAG engine: the snapshot's RNG state and
    // jittered event instants survive crash/recovery at a random point.
    #[test]
    fn dag_crash_recovery_survives_random_fault_plans(
        prob in 0.0f64..0.25,
        jitter in 0.0f64..0.3,
        seed in 0u64..500,
        crash_frac in 0.0f64..1.0,
        ckpt_raw in 0u64..10,
    ) {
        let ckpt = (ckpt_raw > 0).then_some(ckpt_raw);
        let platform = Platform::new(2, 1);
        let plan = FaultPlan { task_failure_prob: prob, exec_jitter: jitter, seed, ..FaultPlan::NONE };
        let reference = dag_reference(3, &platform, &plan);
        let total = reference.0.len() as u64;
        prop_assert!(total > 0, "cholesky(3) must emit events");
        // lint: allow(cast-trunc): picking a crash index is intentional truncation.
        let crash_at = 1 + ((crash_frac * (total - 1) as f64) as u64).min(total - 1);
        crash_resume_dag(3, &platform, &plan, &reference, crash_at, ckpt);
    }

    // Arbitrary single-byte corruption, truncation, or trailing garbage on
    // a file journal: recovery never panics, never invents events, and
    // never drops a record that lies wholly before the damage.
    #[test]
    fn journal_damage_recovers_the_valid_prefix_without_panicking(
        times in prop::collection::vec((0.5f64..6.0, 0.5f64..6.0), 2..16),
        mode in 0u8..3,
        where_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let instance = Instance::from_times(&times);
        let platform = Platform::new(2, 1);
        let config = HeteroPrioConfig::new();
        let (ref_events, ref_res) = independent_reference(&instance, &platform, &config);

        let path = temp_journal_path();
        {
            let mut journal = FileJournal::create(&path).expect("create journal");
            for e in &ref_events {
                journal.append(e).expect("append");
            }
            journal.sync().expect("sync");
        }
        let ends = frame_ends(&ref_events);
        let file_len = *ends.last().expect("at least one record");

        // Damage the file: 0 = flip one bit, 1 = truncate, 2 = append garbage.
        let mut bytes = std::fs::read(&path).expect("read journal back");
        prop_assert_eq!(bytes.len() as u64, file_len);
        // lint: allow(cast-trunc): picking a damage offset is intentional truncation.
        let offset = ((where_frac * (file_len - 1) as f64) as u64).min(file_len - 1);
        let damage_from = match mode {
            0 => {
                bytes[offset as usize] ^= 1 << flip_bit;
                offset
            }
            1 => {
                bytes.truncate(offset as usize);
                offset
            }
            _ => {
                bytes.extend_from_slice(b"\xde\xad\xbe\xef");
                file_len
            }
        };
        std::fs::write(&path, &bytes).expect("write damaged journal");

        // Recovery must not panic, whatever we did to the file. A hit on
        // the magic header itself may surface as a typed error; anything
        // past it must decode to the valid prefix.
        let recovered = FileJournal::recover(&path);
        if damage_from >= 6 {
            let (events, damage) =
                recovered.expect("body damage is recovered, not an error");

            // Never invents events: the result is a prefix of the truth.
            prop_assert!(events.len() <= ref_events.len());
            prop_assert_eq!(
                &events[..],
                &ref_events[..events.len()],
                "recovered events must be a prefix"
            );

            // Never drops a record that ends at or before the damage offset.
            let intact = ends.iter().filter(|&&end| end <= damage_from).count();
            prop_assert!(
                events.len() >= intact,
                "lost {} pre-damage records (recovered {}, intact {})",
                intact - events.len(),
                events.len(),
                intact
            );
            if events.len() < ref_events.len() {
                prop_assert!(damage.is_some(), "silent prefix loss without a damage report");
            }

            // `open` must agree with `recover`, truncate the wreckage, and
            // leave a journal that resumes to the bit-identical run.
            let (mut journal, opened, _) = FileJournal::open(&path).expect("open damaged journal");
            prop_assert_eq!(&opened[..], &events[..]);
            let mut resumed = VecSink::new();
            let res = {
                let mut jsink = JournalSink::resuming(&mut journal, opened.len());
                let mut tee = TeeSink(&mut resumed, &mut jsink);
                heteroprio_resume(&instance, &platform, &config, None, &opened, &mut tee, &M)
                    .expect("resume from the recovered prefix must complete")
            };
            prop_assert_eq!(&resumed.events, &ref_events);
            prop_assert_eq!(&res.schedule.runs, &ref_res.schedule.runs);
            // After resume the journal holds the complete, clean stream.
            drop(journal);
            let (healed, damage) = FileJournal::recover(&path).expect("healed journal decodes");
            prop_assert!(damage.is_none());
            prop_assert_eq!(&healed, &ref_events);
        }
        let _ = std::fs::remove_file(&path);
    }
}

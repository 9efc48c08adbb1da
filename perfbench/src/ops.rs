//! One op is one input scheduled to completion in one mode. An op returns
//! its wall time; its oracle runs after the clock stops and turns any wrong
//! output into a failed op. Oracles run under `check.*` root spans, so the
//! span run records them without counting them as op time.

use crate::spans::Spans;
use crate::workload::{Input, Job};
use heteroprio_audit::{audit, AuditOptions};
use heteroprio_bench::seed_reference::seed_heteroprio;
use heteroprio_bounds::{combined_lower_bound, dag_lower_bound};
use heteroprio_core::kernel::{metric, EngineError};
use heteroprio_core::{
    heteroprio, heteroprio_durable, heteroprio_metered, heteroprio_resume, ClassId, ClassQueue,
    CrashPlan, DurabilityOptions, HeteroPrioConfig, Platform, QueueTieBreak, Schedule, TaskId,
};
use heteroprio_experiments::HEFT_INSERTION_LIMIT;
use heteroprio_metrics::{InMemoryRegistry, MetricsRegistry, NullRegistry};
use heteroprio_schedulers::{
    dualhp_independent, heft, DualHpDagPolicy, DualHpRank, HeftVariant, HeteroPrioDagPolicy,
};
use heteroprio_simulator::{
    simulate, try_resume_faulty, try_simulate_durable, try_simulate_faulty_metered, FaultPlan,
    SimError, TransferModel,
};
use heteroprio_taskgraph::{
    apply_bottom_level_priorities, check_precedence, TaskGraph, WeightScheme,
};
use heteroprio_trace::{
    event_line, parse_jsonl, FileJournal, Journal, JournalError, JournalSink, NullSink, SchedEvent,
    TraceSink, TraceSummary, VecSink,
};
use std::cell::{Cell, RefCell};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Bare,
    Traced,
    Journaled,
    Resume,
    Audited,
    Sweep,
    /// Span run only: the kernel's own metrics into an `InMemoryRegistry`.
    Metered,
    /// Span run only: build a `ClassQueue` from the input and drain it.
    Queue,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Bare => "op.bare",
            Mode::Traced => "op.traced",
            Mode::Journaled => "op.journaled",
            Mode::Resume => "op.resume",
            Mode::Audited => "op.audited",
            Mode::Sweep => "op.sweep",
            Mode::Metered => "op.metered",
            Mode::Queue => "op.queue",
        }
    }
}

/// Layer counts the span run reports next to the span times, taken in the
/// spans-on rounds like the spans.
#[derive(Default)]
pub struct Counters {
    pub journal_ops: Cell<u64>,
    pub journal_records: Cell<u64>,
    pub journal_bytes: Cell<u64>,
    pub journal_syncs: Cell<u64>,
    pub pick_p99_ns: RefCell<Vec<u64>>,
}

fn add(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

pub struct Ctx<'a> {
    pub spans: &'a Spans,
    /// Directory for the trace and journal files the ops write.
    pub dir: PathBuf,
    pub counters: Counters,
}

/// What every run of an input must reproduce, computed once before the
/// first op with the clock stopped.
pub struct Reference {
    /// Makespan bits. For independent tasks on two classes they come from
    /// the frozen seed engine, not from the kernel under test.
    pub digest: u64,
    /// Makespan bits of HeteroPrio at the input's Fig. 6 sweep point.
    pub sweep_digest: u64,
    /// Hash of the order a drained `ClassQueue` yields the tasks in.
    pub queue_digest: u64,
    pub events: Vec<SchedEvent>,
    pub spoliations: usize,
    pub summary: TraceSummary,
    /// The JSONL trace file and the journal file of the run, byte for byte.
    pub trace_bytes: Vec<u8>,
    pub journal_bytes: Vec<u8>,
    /// A journal of this input's run, crashed at its midpoint event.
    pub journal: PathBuf,
    pub crash_at: u64,
}

struct Run {
    schedule: Schedule,
    spoliations: usize,
    summary: TraceSummary,
}

fn config() -> HeteroPrioConfig {
    HeteroPrioConfig::new()
}

/// The layer a run of this input goes through.
fn run_layer(input: &Input) -> &'static str {
    if input.is_dag() {
        "simulator.run"
    } else {
        "core.run"
    }
}

fn execute<S: TraceSink, M: MetricsRegistry + ?Sized>(
    input: &Input,
    sink: &mut S,
    metrics: &M,
) -> Result<Run, String> {
    match &input.job {
        Job::Indep(inst) => {
            let r = heteroprio_metered(inst, &input.platform, &config(), sink, metrics);
            Ok(Run { schedule: r.schedule, spoliations: r.spoliations, summary: r.summary })
        }
        Job::Dag(graph) => {
            let mut policy = HeteroPrioDagPolicy::new(config());
            let r = try_simulate_faulty_metered(
                graph,
                &input.platform,
                &mut policy,
                &TransferModel::NONE,
                &FaultPlan::NONE,
                sink,
                metrics,
            )
            .map_err(|e| e.to_string())?;
            Ok(Run { schedule: r.schedule, spoliations: r.spoliations, summary: r.summary })
        }
    }
}

fn run_spanned<S: TraceSink>(ctx: &Ctx, input: &Input, sink: &mut S) -> Result<Run, String> {
    ctx.spans.span(run_layer(input), input.tasks() as u64, || execute(input, sink, &NullRegistry))
}

/// Run the input with a crash injected after `at` events.
fn crash<S: TraceSink>(input: &Input, at: u64, sink: &mut S) -> Result<(), String> {
    let opts =
        DurabilityOptions { crash: CrashPlan::at_event(at), checkpoint_every: None, store: None };
    let crashed = match &input.job {
        Job::Indep(inst) => {
            match heteroprio_durable(inst, &input.platform, &config(), opts, sink, &NullRegistry) {
                Err(EngineError::Crashed { events, .. }) => Ok(events),
                Err(e) => Err(e.to_string()),
                Ok(_) => Err("the run did not crash".to_string()),
            }
        }
        Job::Dag(graph) => {
            let mut policy = HeteroPrioDagPolicy::new(config());
            let plan = FaultPlan::NONE;
            let none = TransferModel::NONE;
            match try_simulate_durable(
                graph,
                &input.platform,
                &mut policy,
                &none,
                &plan,
                opts,
                sink,
                &NullRegistry,
            ) {
                Err(SimError::Crashed { events, .. }) => Ok(events),
                Err(e) => Err(e.to_string()),
                Ok(_) => Err("the run did not crash".to_string()),
            }
        }
    }?;
    if crashed != at {
        return Err(format!("crashed after {crashed} events, planned {at}"));
    }
    Ok(())
}

fn resume<S: TraceSink>(
    input: &Input,
    journal: &[SchedEvent],
    sink: &mut S,
) -> Result<Run, String> {
    match &input.job {
        Job::Indep(inst) => {
            let r = heteroprio_resume(
                inst,
                &input.platform,
                &config(),
                None,
                journal,
                sink,
                &NullRegistry,
            )
            .map_err(|e| e.to_string())?;
            Ok(Run { schedule: r.schedule, spoliations: r.spoliations, summary: r.summary })
        }
        Job::Dag(graph) => {
            let mut policy = HeteroPrioDagPolicy::new(config());
            let r = try_resume_faulty(
                graph,
                &input.platform,
                &mut policy,
                &TransferModel::NONE,
                &FaultPlan::NONE,
                None,
                journal,
                sink,
                &NullRegistry,
            )
            .map_err(|e| e.to_string())?;
            Ok(Run { schedule: r.schedule, spoliations: r.spoliations, summary: r.summary })
        }
    }
}

/// Compute an input's reference with spans off. The reference run itself
/// is not checked here: every op compares its own run with the digest.
pub fn prepare(ctx: &Ctx, input: &Input) -> Result<Reference, String> {
    let mut sink = VecSink::new();
    let run = execute(input, &mut sink, &NullRegistry)?;
    let digest = match &input.job {
        Job::Indep(inst) if input.platform.k() == 2 => {
            seed_heteroprio(inst, &input.platform, &config()).schedule.makespan().to_bits()
        }
        _ => run.schedule.makespan().to_bits(),
    };
    let sweep_digest = heteroprio(&input.fig6, &input.platform, &config()).makespan().to_bits();
    let queue_digest = order_digest(&drain(input));
    let trace_bytes: Vec<u8> = sink
        .events
        .iter()
        .flat_map(|e| event_line(e).into_bytes().into_iter().chain([b'\n']))
        .collect();
    let journal_bytes = reference_journal(ctx, input, &sink.events)?;
    let crash_at = (sink.events.len() / 2) as u64;
    let journal = ctx.dir.join(format!("{}.crashed.journal", input.name));
    let mut file = FileJournal::create(&journal).map_err(|e| e.to_string())?;
    let mut jsink = JournalSink::new(&mut file);
    crash(input, crash_at, &mut jsink)?;
    if let Some(e) = jsink.error() {
        return Err(format!("journal append failed: {e}"));
    }
    file.sync().map_err(|e| e.to_string())?;
    Ok(Reference {
        digest,
        sweep_digest,
        queue_digest,
        trace_bytes,
        journal_bytes,
        events: sink.events,
        spoliations: run.spoliations,
        summary: run.summary,
        journal,
        crash_at,
    })
}

/// Journal `events` to a file, check that it recovers to them with no
/// damage, and return its bytes.
fn reference_journal(ctx: &Ctx, input: &Input, events: &[SchedEvent]) -> Result<Vec<u8>, String> {
    let path = ctx.dir.join(format!("{}.reference.journal", input.name));
    let mut journal = FileJournal::create(&path).map_err(|e| e.to_string())?;
    for e in events {
        journal.append(e).map_err(|e| e.to_string())?;
    }
    journal.sync().map_err(|e| e.to_string())?;
    match FileJournal::recover(&path).map_err(|e| e.to_string())? {
        (recovered, None) if recovered == events => std::fs::read(&path).map_err(|e| e.to_string()),
        (_, Some(damage)) => Err(format!("reference journal damaged: {damage}")),
        (recovered, None) => Err(format!(
            "reference journal recovered {} of {} records",
            recovered.len(),
            events.len()
        )),
    }
}

/// The oracle every scheduled run of the input passes.
fn check_schedule(input: &Input, r: &Reference, schedule: &Schedule) -> Result<(), String> {
    let makespan = schedule.makespan();
    if makespan.to_bits() != r.digest {
        return Err(format!(
            "{}: makespan {makespan} differs from the reference {}",
            input.name,
            f64::from_bits(r.digest)
        ));
    }
    schedule
        .validate(input.instance(), &input.platform)
        .map_err(|e| format!("{}: {e}", input.name))?;
    if let Job::Dag(graph) = &input.job {
        check_precedence(graph, schedule).map_err(|e| format!("{}: {e}", input.name))?;
    }
    if makespan < input.dual_bound * (1.0 - 1e-9) {
        return Err(format!(
            "{}: makespan {makespan} below the dual area bound {}",
            input.name, input.dual_bound
        ));
    }
    Ok(())
}

/// Time `f` as one op.
fn timed<R>(ctx: &Ctx, mode: Mode, f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = ctx.spans.op(mode.name(), f);
    (start.elapsed().as_secs_f64(), out)
}

/// Run one op and its oracle. `Ok` holds the op's wall time in seconds.
pub fn run(ctx: &Ctx, mode: Mode, input: &Input, r: &Reference) -> Result<f64, String> {
    match mode {
        Mode::Bare => bare(ctx, input, r),
        Mode::Traced => traced(ctx, input, r),
        Mode::Journaled => journaled(ctx, input, r),
        Mode::Resume => resumed(ctx, input, r),
        Mode::Audited => audited(ctx, input, r),
        Mode::Sweep => sweep(ctx, input, r),
        Mode::Metered => metered(ctx, input, r),
        Mode::Queue => queue(ctx, input, r),
    }
}

fn bare(ctx: &Ctx, input: &Input, r: &Reference) -> Result<f64, String> {
    let (secs, run) = timed(ctx, Mode::Bare, || run_spanned(ctx, input, &mut NullSink));
    check_schedule(input, r, &run?.schedule)?;
    Ok(secs)
}

/// JSONL trace file sink: one `event_line` per event into a buffered file.
struct TraceFile<'s> {
    out: BufWriter<std::fs::File>,
    spans: &'s Spans,
    error: Option<std::io::Error>,
}

impl TraceSink for TraceFile<'_> {
    fn emit(&mut self, event: SchedEvent) {
        let start = self.spans.start();
        let line = event_line(&event);
        let written = self.out.write_all(line.as_bytes()).and_then(|()| self.out.write_all(b"\n"));
        if let Err(e) = written {
            self.error.get_or_insert(e);
        }
        self.spans.fold("trace.serialize", start, 1);
    }
}

fn traced(ctx: &Ctx, input: &Input, r: &Reference) -> Result<f64, String> {
    let path = ctx.dir.join(format!("{}.jsonl", input.name));
    let (secs, run) = timed(ctx, Mode::Traced, || -> Result<Run, String> {
        let file = ctx.spans.span("trace.file_open", 0, || std::fs::File::create(&path));
        let file = file.map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut sink = TraceFile { out: BufWriter::new(file), spans: ctx.spans, error: None };
        let run = run_spanned(ctx, input, &mut sink)?;
        let synced = ctx.spans.span("trace.file_sync", 1, || {
            sink.out.flush().and_then(|()| sink.out.get_ref().sync_data())
        });
        match (sink.error, synced) {
            (None, Ok(())) => Ok(run),
            (Some(e), _) | (None, Err(e)) => Err(format!("write {}: {e}", path.display())),
        }
    });
    check_schedule(input, r, &run?.schedule)?;
    ctx.spans.op("check.traced", || {
        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        if bytes != r.trace_bytes {
            return Err(format!(
                "{}: trace file differs from the event stream, one line per event",
                input.name
            ));
        }
        // The span run also parses the file back, for the parser's row.
        if ctx.spans.enabled() {
            let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
            let events =
                ctx.spans.span("trace.parse", r.events.len() as u64, || parse_jsonl(&text));
            if events.map_err(|e| e.to_string())? != r.events {
                return Err(format!("{}: trace file parses to another stream", input.name));
            }
        }
        Ok(secs)
    })
}

/// A `FileJournal` whose appends and syncs are timed. An append that
/// reaches the sync cadence waits on the disk inside `FileJournal`, so it
/// is charged to `journal.sync`.
struct TimedJournal<'s> {
    inner: FileJournal,
    spans: &'s Spans,
    bytes: u64,
}

impl Journal for TimedJournal<'_> {
    fn append(&mut self, event: &SchedEvent) -> Result<usize, JournalError> {
        let syncs = self.inner.syncs();
        let start = self.spans.start();
        let out = self.inner.append(event);
        let name = if self.inner.syncs() > syncs { "journal.sync" } else { "journal.append" };
        self.spans.fold(name, start, 1);
        if let Ok(n) = out {
            self.bytes += n as u64;
        }
        out
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        let start = self.spans.start();
        let out = self.inner.sync();
        self.spans.fold("journal.sync", start, 1);
        out
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn replay(&mut self) -> Result<Vec<SchedEvent>, JournalError> {
        self.inner.replay()
    }

    fn syncs(&self) -> u64 {
        self.inner.syncs()
    }
}

fn journaled(ctx: &Ctx, input: &Input, r: &Reference) -> Result<f64, String> {
    let path = ctx.dir.join(format!("{}.journal", input.name));
    let (secs, out) = timed(ctx, Mode::Journaled, || -> Result<(Run, u64, u64, u64), String> {
        let file = ctx.spans.span("journal.create", 0, || FileJournal::create(&path));
        let mut journal =
            TimedJournal { inner: file.map_err(|e| e.to_string())?, spans: ctx.spans, bytes: 0 };
        let mut sink = JournalSink::new(&mut journal);
        let run = run_spanned(ctx, input, &mut sink)?;
        if let Some(e) = sink.error() {
            return Err(format!("journal append failed: {e}"));
        }
        journal.sync().map_err(|e| e.to_string())?;
        Ok((run, journal.inner.len() as u64, journal.bytes, journal.inner.syncs()))
    });
    let (run, records, bytes, syncs) = out?;
    if ctx.spans.enabled() {
        add(&ctx.counters.journal_ops, 1);
        add(&ctx.counters.journal_records, records);
        add(&ctx.counters.journal_bytes, bytes);
        add(&ctx.counters.journal_syncs, syncs);
    }
    check_schedule(input, r, &run.schedule)?;
    // The reference journal recovers to the event stream with no damage,
    // so a byte-identical file does too.
    match std::fs::read(&path) {
        Ok(bytes) if bytes == r.journal_bytes => Ok(secs),
        Ok(_) => Err(format!("{}: journal file differs from the reference journal", input.name)),
        Err(e) => Err(format!("{}: read journal: {e}", input.name)),
    }
}

fn resumed(ctx: &Ctx, input: &Input, r: &Reference) -> Result<f64, String> {
    let (secs, out) = timed(ctx, Mode::Resume, || -> Result<_, String> {
        let recovered =
            ctx.spans.span("journal.recover", r.crash_at, || FileJournal::recover(&r.journal));
        let (events, damage) = recovered.map_err(|e| e.to_string())?;
        let mut sink = VecSink::new();
        let units = r.events.len() as u64;
        let run =
            ctx.spans.span("durability.resume", units, || resume(input, &events, &mut sink))?;
        Ok((run, events.len(), damage, sink.events))
    });
    let (run, recovered, damage, stream) = out?;
    if let Some(damage) = damage {
        return Err(format!("{}: crashed journal damaged: {damage}", input.name));
    }
    if recovered as u64 != r.crash_at {
        return Err(format!(
            "{}: recovered {recovered} records, crash left {}",
            input.name, r.crash_at
        ));
    }
    if stream != r.events {
        return Err(format!("{}: resumed stream differs from the uninterrupted run", input.name));
    }
    check_schedule(input, r, &run.schedule)?;
    Ok(secs)
}

fn audited(ctx: &Ctx, input: &Input, r: &Reference) -> Result<f64, String> {
    let opts = if input.is_dag() {
        AuditOptions::dag_run(0.0, Some(input.lower_bound))
    } else {
        AuditOptions::independent()
    };
    let (secs, out) = timed(ctx, Mode::Audited, || -> Result<_, String> {
        let mut sink = VecSink::new();
        let run = run_spanned(ctx, input, &mut sink)?;
        let events = &sink.events;
        let report = ctx.spans.span("audit.run", events.len() as u64, || {
            audit(input.instance(), &input.platform, &run.schedule, events, &opts)
        });
        Ok((run, report))
    });
    let (run, report) = out?;
    if let Some(v) = report.violations.first() {
        return Err(format!(
            "{}: audit found {} violations, first: {v}",
            input.name,
            report.violations.len()
        ));
    }
    check_schedule(input, r, &run.schedule)?;
    Ok(secs)
}

/// What a sweep point scheduled: the input's Fig. 6 instance or Fig. 7
/// graph, or a graph the sweep built (by index).
#[derive(Clone, Copy)]
enum On {
    Fig6,
    Fig7,
    Built(usize),
}

struct Point {
    algo: &'static str,
    schedule: Schedule,
    platform: Platform,
    on: On,
    lower_bound: f64,
}

fn heft_variant(graph: &TaskGraph) -> HeftVariant {
    if graph.len() <= HEFT_INSERTION_LIMIT {
        HeftVariant::Insertion
    } else {
        HeftVariant::NoInsertion
    }
}

fn ranked(ctx: &Ctx, graph: &TaskGraph, scheme: WeightScheme) -> TaskGraph {
    ctx.spans.span("taskgraph.rank", graph.len() as u64, || {
        let mut g = graph.clone();
        apply_bottom_level_priorities(&mut g, scheme);
        g
    })
}

/// The input's Fig. 6 and Fig. 7 points, computed as `fig6_series` and
/// `fig7_series` compute one point each: the lower bound and every paper
/// algorithm, one span per layer call.
fn sweep_points(ctx: &Ctx, input: &Input) -> (Vec<TaskGraph>, Vec<Point>) {
    let (p, p7) = (input.platform, input.fig7_platform);
    let (fig6, fig7) = (&input.fig6, &input.fig7);
    let (n6, n7) = (fig6.len() as u64, fig7.len() as u64);
    let sp = ctx.spans;
    let point = |algo, schedule, platform, on, lower_bound| Point {
        algo,
        schedule,
        platform,
        on,
        lower_bound,
    };
    let lb6 = sp.span("bounds.area", n6, || combined_lower_bound(fig6, &p));
    let hp6 = sp.span("core.run", n6, || heteroprio(fig6, &p, &config()).schedule);
    let dual6 = sp.span("schedulers.dualhp_indep", n6, || dualhp_independent(fig6, &p));
    let mut points =
        vec![point("HeteroPrio", hp6, p, On::Fig6, lb6), point("DualHP", dual6, p, On::Fig6, lb6)];

    let lb7 = sp.span("bounds.dag", n7, || dag_lower_bound(fig7, &p7));
    let mut graphs =
        vec![ranked(ctx, fig7, WeightScheme::Avg), ranked(ctx, fig7, WeightScheme::Min)];
    let (avg, min) = (On::Built(0), On::Built(1));
    let hp = |g: &TaskGraph| {
        let mut policy = HeteroPrioDagPolicy::new(config());
        sp.span("simulator.run", n7, || simulate(g, &p7, &mut policy).schedule)
    };
    let dualhp = |g: &TaskGraph, rank| {
        let mut policy = DualHpDagPolicy::new(rank);
        sp.span("simulator.dualhp", n7, || simulate(g, &p7, &mut policy).schedule)
    };
    points.extend([
        point("HeteroPrio-avg", hp(&graphs[0]), p7, avg, lb7),
        point("HeteroPrio-min", hp(&graphs[1]), p7, min, lb7),
        point("DualHP-fifo", dualhp(fig7, DualHpRank::Fifo), p7, On::Fig7, lb7),
        point("DualHP-avg", dualhp(&graphs[0], DualHpRank::Priority), p7, avg, lb7),
        point("DualHP-min", dualhp(&graphs[1], DualHpRank::Priority), p7, min, lb7),
    ]);

    // Fig. 6's HEFT schedules the tasks as an edgeless graph. On a k-class
    // input the Fig. 7 graph is already that, in its two-class view.
    let (indep, heft_p, heft_lb6) = if p.k() == 2 {
        graphs.push(sp.span("taskgraph.gen", n6, || TaskGraph::independent(fig6.clone())));
        (On::Built(2), p, lb6)
    } else {
        (On::Fig7, p7, lb7)
    };
    for (on, scheme, algo, platform, lb) in [
        (indep, WeightScheme::Avg, "HEFT", heft_p, heft_lb6),
        (avg, WeightScheme::Avg, "HEFT-avg", p7, lb7),
        (min, WeightScheme::Min, "HEFT-min", p7, lb7),
    ] {
        let g = match on {
            On::Built(i) => &graphs[i],
            _ => fig7,
        };
        let variant = heft_variant(g);
        let schedule =
            sp.span("schedulers.heft", g.len() as u64, || heft(g, &platform, scheme, variant));
        points.push(point(algo, schedule, platform, on, lb));
    }
    (graphs, points)
}

fn sweep(ctx: &Ctx, input: &Input, r: &Reference) -> Result<f64, String> {
    let (secs, (graphs, points)) = timed(ctx, Mode::Sweep, || sweep_points(ctx, input));
    for pt in &points {
        let graph = match pt.on {
            On::Fig6 => None,
            On::Fig7 => Some(&input.fig7),
            On::Built(i) => Some(&graphs[i]),
        };
        let instance = graph.map_or(&input.fig6, |g| g.instance());
        let fail = |e: String| format!("{} {}: {e}", input.name, pt.algo);
        pt.schedule.validate(instance, &pt.platform).map_err(|e| fail(e.to_string()))?;
        if let Some(g) = graph {
            check_precedence(g, &pt.schedule).map_err(fail)?;
        }
        let ratio = pt.schedule.makespan() / pt.lower_bound;
        if ratio < 1.0 - 1e-9 {
            return Err(fail(format!("ratio {ratio} below 1")));
        }
    }
    match points.first() {
        Some(hp) if hp.schedule.makespan().to_bits() == r.sweep_digest => Ok(secs),
        _ => Err(format!("{}: Fig. 6 HeteroPrio makespan differs from the reference", input.name)),
    }
}

fn metered(ctx: &Ctx, input: &Input, r: &Reference) -> Result<f64, String> {
    let (secs, out) = timed(ctx, Mode::Metered, || {
        let registry = InMemoryRegistry::new();
        let run = ctx.spans.span("metrics.metered_run", input.tasks() as u64, || {
            execute(input, &mut NullSink, &registry)
        });
        run.map(|run| (run, registry.snapshot()))
    });
    let (run, snapshot) = out?;
    check_schedule(input, r, &run.schedule)?;
    let pick =
        snapshot.histogram(metric::PICK_NS).ok_or("the metered run recorded no pick latency")?;
    if ctx.spans.enabled() {
        ctx.counters.pick_p99_ns.borrow_mut().push(pick.quantile(0.99));
    }
    Ok(secs)
}

/// Build a `ClassQueue` from every task and pop it empty, cycling the
/// classes.
fn drain(input: &Input) -> Vec<TaskId> {
    let (inst, k) = (input.instance(), input.platform.k());
    let mut q = ClassQueue::new(k, QueueTieBreak::Priority);
    for id in inst.ids() {
        q.push(inst, id);
    }
    let mut popped = Vec::with_capacity(inst.len());
    while let Some((task, _)) = q.pop(ClassId::from(popped.len() % k)) {
        popped.push(task);
    }
    popped
}

/// FNV-1a over the task ids in order.
fn order_digest(order: &[TaskId]) -> u64 {
    order
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, t| (h ^ u64::from(t.0)).wrapping_mul(0x0100_0000_01b3))
}

fn queue(ctx: &Ctx, input: &Input, r: &Reference) -> Result<f64, String> {
    let (secs, order) = timed(ctx, Mode::Queue, || {
        ctx.spans.span("core.queue", input.tasks() as u64, || drain(input))
    });
    if order_digest(&order) != r.queue_digest {
        return Err(format!("{}: queue drain order differs from the reference", input.name));
    }
    let mut distinct = order;
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() != input.tasks() {
        return Err(format!(
            "{}: queue drained {} distinct tasks of {}",
            input.name,
            distinct.len(),
            input.tasks()
        ));
    }
    Ok(secs)
}

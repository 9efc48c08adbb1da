//! The heteroprio benchmark: one closed-loop caller schedules each
//! workload's inputs in every observation mode for a fixed time, checks
//! every output against an oracle, and prints the metrics as one JSON line.
//!
//! ```text
//! heteroprio-perfbench --workload indep_k2 [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with spans off.
//! `--trace 1` is the span run: rounds alternate spans on and off, the
//! per-layer metrics come from the spans-on rounds, and the spans are
//! written to `.perfbench_out/spans-<workload>.jsonl`. See README.md.

mod ops;
mod spans;
mod workload;
mod yardstick;

use ops::{Ctx, Mode, Reference};
use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use workload::{Input, Workload};
use yardstick::Yardstick;

/// End-to-end metrics: name and unit. Every workload reports all of them.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("tasks_per_s", "tasks/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("traced_tasks_per_s", "tasks/s"),
    ("journaled_tasks_per_s", "tasks/s"),
    ("resume_ms_p50", "ms"),
    ("audited_tasks_per_s", "tasks/s"),
    ("sweep_s", "s"),
    ("makespan_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the span run: name and unit.
const PER_LAYER: [(&str, &str); 31] = [
    ("workloads.gen_ms", "ms"),
    ("taskgraph.gen_ms", "ms"),
    ("taskgraph.rank_ms", "ms"),
    ("core.run_ns_per_task", "ns/task"),
    ("core.queue_ns_per_task", "ns/task"),
    ("core.spoliations", "count"),
    ("core.aborted_share", "ratio"),
    ("core.pick_ns_p99", "ns"),
    ("metrics.metered_overhead_x", "x"),
    ("simulator.run_ns_per_task", "ns/task"),
    ("simulator.dualhp_ns_per_task", "ns/task"),
    ("schedulers.heft_ms", "ms"),
    ("schedulers.dualhp_indep_ms", "ms"),
    ("bounds.area_ms", "ms"),
    ("bounds.area_dual_ms", "ms"),
    ("bounds.dag_ms", "ms"),
    ("trace.serialize_ns_per_event", "ns/event"),
    ("trace.file_sync_ms", "ms"),
    ("journal.append_ns_per_record", "ns/record"),
    ("journal.sync_ms", "ms"),
    ("journal.syncs", "count"),
    ("journal.bytes_per_event", "B/event"),
    ("journal.recover_ns_per_record", "ns/record"),
    ("trace.parse_ns_per_event", "ns/event"),
    ("durability.resume_ns_per_event", "ns/event"),
    ("audit.ns_per_event", "ns/event"),
    ("audit.size_exponent", "exponent"),
    ("bench.span_overhead_x", "x"),
    ("bench.unattributed_share", "ratio"),
    ("bench.yardstick_ms", "ms"),
    ("failed_frac", "ratio"),
];

/// Stated bound on the share of op time no layer span covers.
const UNATTRIBUTED_BOUND: f64 = 0.05;
/// Longest stretch of ops one pair of yardstick measurements normalizes.
const YARDSTICK_WINDOW_S: f64 = 0.1;
/// Timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// The modes every run measures, in round order.
const MODES: [Mode; 6] =
    [Mode::Bare, Mode::Traced, Mode::Journaled, Mode::Resume, Mode::Audited, Mode::Sweep];
/// Modes only the span run adds.
const SPAN_MODES: [Mode; 2] = [Mode::Metered, Mode::Queue];

/// Ops per input per round. Bare ops: enough that every input collects at
/// least 100 in a full run, so at least 10 lie beyond p90. The modes that
/// write files wait on the disk and vary most, so they get the most of the
/// rest.
fn reps(w: Workload, mode: Mode) -> usize {
    match mode {
        Mode::Bare if w == Workload::IndepK3 => 40,
        Mode::Bare => 24,
        Mode::Traced | Mode::Journaled => 3,
        Mode::Resume | Mode::Sweep => 2,
        Mode::Audited | Mode::Metered | Mode::Queue => 1,
    }
}

struct Config {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Self-test only: flip every reference digest, so every op must fail.
    corrupt_digest: bool,
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample counts and other facts for the line before the result.
    detail: String,
}

/// Op wall times per (mode, input), split by whether spans were on.
#[derive(Default)]
struct Samples {
    off: BTreeMap<(&'static str, usize), Vec<f64>>,
    on: BTreeMap<(&'static str, usize), Vec<f64>>,
}

impl Samples {
    /// Spans-off op times of one mode on one input.
    fn get(&self, mode: Mode, input: usize) -> &[f64] {
        self.off.get(&(mode.name(), input)).map_or(&[], Vec::as_slice)
    }

    /// Sum over the inputs of each input's median op time.
    fn sum_medians(&self, on: bool, mode: Mode, inputs: usize) -> f64 {
        let set = if on { &self.on } else { &self.off };
        (0..inputs).map(|i| set.get(&(mode.name(), i)).map_or(f64::NAN, |v| median(v))).sum()
    }
}

/// Quantile by linear interpolation between order statistics.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

fn run(cfg: &Config) -> Outcome {
    let spans = Spans::new();
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run_id = RUNS.fetch_add(1, Ordering::Relaxed);
    let scratch = format!("{}-{}-{run_id}", cfg.workload.name(), std::process::id());
    let dir = PathBuf::from(".perfbench_tmp").join(scratch);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let ctx = Ctx { spans: &spans, dir, counters: ops::Counters::default() };

    // Set-up: generation, ranking and bounds, timed several times.
    spans.set_enabled(cfg.trace);
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut inputs: Vec<Input> = Vec::new();
    let mut yard = Yardstick::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        inputs =
            spans.op("op.setup", || workload::build(cfg.workload, cfg.seed, cfg.smoke, &spans));
        let secs = start.elapsed().as_secs_f64();
        setup_secs.push(secs * yard.factor());
    }

    // References for the oracles, with the clock and spans off.
    let prepare_start = Instant::now();
    spans.set_enabled(false);
    // An input whose reference cannot be computed fails every op.
    let mut refs: Vec<Result<Reference, String>> = inputs
        .iter()
        .map(|i| {
            let prepared = catch_unwind(AssertUnwindSafe(|| ops::prepare(&ctx, i)));
            prepared
                .unwrap_or_else(|_| Err("the reference run panicked".to_string()))
                .map_err(|e| format!("reference run of {}: {e}", i.name))
        })
        .collect();
    if cfg.corrupt_digest {
        for r in refs.iter_mut().flatten() {
            r.digest ^= 1;
            r.sweep_digest ^= 1;
            r.queue_digest ^= 1;
        }
    }

    let prepare_s = prepare_start.elapsed().as_secs_f64();
    let modes: Vec<Mode> =
        MODES.iter().chain(if cfg.trace { &SPAN_MODES[..] } else { &[] }).copied().collect();
    let mut samples = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_error: Option<String> = None;
    let start = Instant::now();
    let mut rounds = 0usize;
    while rounds < 2 || start.elapsed().as_secs_f64() < cfg.seconds {
        let on = cfg.trace && rounds.is_multiple_of(2);
        spans.set_enabled(on);
        for &mode in &modes {
            let reps = reps(cfg.workload, mode);
            for (i, input) in inputs.iter().enumerate() {
                let into = if on { &mut samples.on } else { &mut samples.off };
                let times = into.entry((mode.name(), i)).or_default();
                let mut window = Vec::with_capacity(reps);
                let mut window_start = Instant::now();
                for rep in 0..reps {
                    attempted += 1;
                    let out = refs[i].as_ref().map_err(Clone::clone).and_then(|r| {
                        let out = catch_unwind(AssertUnwindSafe(|| ops::run(&ctx, mode, input, r)));
                        out.unwrap_or_else(|_| {
                            spans.unwind();
                            Err(format!("{}: {} panicked", input.name, mode.name()))
                        })
                    });
                    match out {
                        Ok(secs) => window.push(secs),
                        Err(e) => {
                            failed += 1;
                            first_error.get_or_insert(e);
                        }
                    }
                    if rep + 1 == reps || window_start.elapsed().as_secs_f64() >= YARDSTICK_WINDOW_S
                    {
                        let factor = yard.factor();
                        times.extend(window.drain(..).map(|secs| secs * factor));
                        window_start = Instant::now();
                    }
                }
            }
        }
        rounds += 1;
    }
    spans.set_enabled(false);
    let loop_s = start.elapsed().as_secs_f64();
    let all_spans = spans.take();
    let _ = std::fs::remove_dir_all(&ctx.dir);

    let mut detail = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"prepare_s\":{prepare_s:.3},\"loop_s\":{loop_s:.3},\"rounds\":{rounds},\"inputs\":[{}],\"samples_per_input\":{{",
        cfg.workload.name(),
        cfg.seed,
        inputs.iter().map(|i| format!("\"{}\"", i.name)).collect::<Vec<_>>().join(",")
    );
    let counts: Vec<String> =
        modes.iter().map(|m| format!("\"{}\":{}", m.name(), samples.get(*m, 0).len())).collect();
    let _ = write!(detail, "{}}}", counts.join(","));
    if let Some(e) = &first_error {
        let _ = write!(detail, ",\"first_error\":{:?}", e);
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut correct = failed == 0;
    if cfg.trace {
        let conservation = spans::conservation(&all_spans);
        let share = conservation.unattributed_ns as f64 / conservation.op_ns.max(1) as f64;
        if !conservation.violations.is_empty() || share > UNATTRIBUTED_BOUND {
            correct = false;
            let _ = write!(
                detail,
                ",\"conservation\":{{\"violations\":{},\"unattributed_share\":{share}}}",
                conservation.violations.len()
            );
        }
        layer_metrics(&mut values, &all_spans, &samples, &inputs, &refs, &ctx, share);
        values.insert("failed_frac", failed as f64 / attempted.max(1) as f64);
        values.insert("bench.yardstick_ms", median(&yard.samples) * 1e3);
        let out = PathBuf::from(".perfbench_out");
        if std::fs::create_dir_all(&out).is_ok() {
            let path = out.join(format!("spans-{}.jsonl", cfg.workload.name()));
            let _ = std::fs::write(path, spans::to_jsonl(&all_spans));
        }
    } else {
        end_to_end(&mut values, &samples, &inputs, &refs, &setup_secs);
    }
    detail.push('}');

    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = values.get(name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            correct = false;
        }
        metrics.push((name, value, unit));
    }
    Outcome { correct, attempted, failed, metrics, detail }
}

fn end_to_end(
    values: &mut BTreeMap<&'static str, f64>,
    samples: &Samples,
    inputs: &[Input],
    refs: &[Result<Reference, String>],
    setup_secs: &[f64],
) {
    let n = inputs.len() as f64;
    let tasks: usize = inputs.iter().map(Input::tasks).sum();
    let rate = |mode: Mode| tasks as f64 / samples.sum_medians(false, mode, inputs.len());
    // Mean over inputs of each input's own quantile, in ms.
    let ms = |mode: Mode, q: f64| {
        (0..inputs.len()).map(|i| quantile(samples.get(mode, i), q)).sum::<f64>() / n * 1e3
    };
    values.insert("setup_s", median(setup_secs));
    values.insert("tasks_per_s", rate(Mode::Bare));
    values.insert("op_ms_p50", ms(Mode::Bare, 0.5));
    values.insert("op_ms_p90", ms(Mode::Bare, 0.9));
    values.insert("traced_tasks_per_s", rate(Mode::Traced));
    values.insert("journaled_tasks_per_s", rate(Mode::Journaled));
    values.insert("resume_ms_p50", ms(Mode::Resume, 0.5));
    values.insert("audited_tasks_per_s", rate(Mode::Audited));
    values.insert("sweep_s", samples.sum_medians(false, Mode::Sweep, inputs.len()));
    let log_ratio: f64 = inputs
        .iter()
        .zip(refs)
        .map(|(i, r)| {
            r.as_ref().map_or(f64::NAN, |r| (f64::from_bits(r.digest) / i.lower_bound).ln())
        })
        .sum();
    values.insert("makespan_ratio", (log_ratio / n).exp());
    values.insert("peak_rss_mb", peak_rss_mb());
}

fn layer_metrics(
    values: &mut BTreeMap<&'static str, f64>,
    all: &[spans::Span],
    samples: &Samples,
    inputs: &[Input],
    refs: &[Result<Reference, String>],
    ctx: &Ctx,
    unattributed_share: f64,
) {
    let total = |name: &str| spans::totals(all, name);
    // Self time per span of the layer (one span per call; per-event calls
    // folded into one span count once).
    let per_span_ms = |name: &str| {
        let t = total(name);
        t.self_ns as f64 / t.spans.max(1) as f64 / 1e6
    };
    let per_unit_ns = |name: &str| {
        let t = total(name);
        t.self_ns as f64 / t.units.max(1) as f64
    };
    for (metric, span) in [
        ("workloads.gen_ms", "workloads.gen"),
        ("taskgraph.gen_ms", "taskgraph.gen"),
        ("taskgraph.rank_ms", "taskgraph.rank"),
        ("schedulers.heft_ms", "schedulers.heft"),
        ("schedulers.dualhp_indep_ms", "schedulers.dualhp_indep"),
        ("bounds.area_ms", "bounds.area"),
        ("bounds.area_dual_ms", "bounds.area_dual"),
        ("bounds.dag_ms", "bounds.dag"),
        ("trace.file_sync_ms", "trace.file_sync"),
    ] {
        values.insert(metric, per_span_ms(span));
    }
    for (metric, span) in [
        ("core.run_ns_per_task", "core.run"),
        ("core.queue_ns_per_task", "core.queue"),
        ("simulator.run_ns_per_task", "simulator.run"),
        ("simulator.dualhp_ns_per_task", "simulator.dualhp"),
        ("trace.serialize_ns_per_event", "trace.serialize"),
        ("journal.append_ns_per_record", "journal.append"),
        ("journal.recover_ns_per_record", "journal.recover"),
        ("trace.parse_ns_per_event", "trace.parse"),
        ("durability.resume_ns_per_event", "durability.resume"),
        ("audit.ns_per_event", "audit.run"),
    ] {
        values.insert(metric, per_unit_ns(span));
    }
    let c = &ctx.counters;
    let journal_ops = c.journal_ops.get().max(1) as f64;
    values.insert("journal.sync_ms", total("journal.sync").self_ns as f64 / journal_ops / 1e6);
    values.insert("journal.syncs", c.journal_syncs.get() as f64 / journal_ops);
    values.insert(
        "journal.bytes_per_event",
        c.journal_bytes.get() as f64 / c.journal_records.get().max(1) as f64,
    );
    let picks: Vec<f64> = c.pick_p99_ns.borrow().iter().map(|&p| p as f64).collect();
    values.insert("core.pick_ns_p99", median(&picks));
    let refs: Vec<&Reference> = refs.iter().flatten().collect();
    values.insert("core.spoliations", refs.iter().map(|r| r.spoliations as f64).sum());
    let workers = refs.iter().flat_map(|r| &r.summary.workers);
    let (aborted, busy) = workers.fold((0.0, 0.0), |(a, b), w| (a + w.aborted, b + w.busy));
    values.insert("core.aborted_share", aborted / (aborted + busy));

    let sum = |on, mode| samples.sum_medians(on, mode, inputs.len());
    values.insert("metrics.metered_overhead_x", sum(false, Mode::Metered) / sum(false, Mode::Bare));
    let modes = MODES.iter().chain(&SPAN_MODES);
    let (on, off) =
        modes.fold((0.0, 0.0), |(on, off), &m| (on + sum(true, m), off + sum(false, m)));
    values.insert("bench.span_overhead_x", on / off);
    values.insert("bench.unattributed_share", unattributed_share);

    // Log-log slope of audit time against events, between the inputs with
    // the fewest and the most events.
    let mut audits: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in all.iter().filter(|s| s.name == "audit.run") {
        audits.entry(s.units).or_default().push(s.dur_ns as f64);
    }
    let slope = match (audits.first_key_value(), audits.last_key_value()) {
        (Some((&e0, t0)), Some((&e1, t1))) if e1 > e0 => {
            (median(t1) / median(t0)).ln() / (e1 as f64 / e0 as f64).ln()
        }
        _ => f64::NAN,
    };
    values.insert("audit.size_exponent", slope);
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { format!("{value}") } else { "null".to_string() };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, 20.0, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.unwrap_or_else(|| workload.default_seed());
    Ok(Config { workload, seed, seconds, trace, smoke, corrupt_digest: false })
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("error: {e}\nusage: heteroprio-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]", names.join("|"));
            std::process::exit(2);
        }
    };
    let outcome = run(&cfg);
    println!("detail: {}", outcome.detail);
    println!("{}", json_line(&outcome));
}

#[cfg(test)]
mod tests {
    use super::*;
    use heteroprio_trace::json;

    fn smoke(workload: Workload, trace: bool, corrupt_digest: bool) -> Outcome {
        let seed = workload.default_seed();
        run(&Config { workload, seed, seconds: 0.0, trace, smoke: true, corrupt_digest })
    }

    /// Names and units of one metric list in BENCHMARK.json.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let list = doc.get(key).and_then(|v| v.as_arr()).expect("metric list");
        list.iter()
            .map(|m| {
                let field =
                    |f| m.get(f).and_then(|v| v.as_str()).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_workload_reports_every_declared_metric() {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let want = declared(key);
            for w in Workload::ALL {
                let o = smoke(w, trace, false);
                assert!(o.correct && o.failed == 0, "{} trace={trace}: {}", w.name(), o.detail);
                let got: Vec<(String, String)> =
                    o.metrics.iter().map(|(n, _, u)| (n.to_string(), u.to_string())).collect();
                assert_eq!(got, want, "{} trace={trace}", w.name());
                for (name, value, _) in &o.metrics {
                    assert!(value.is_finite(), "{} {name} = {value}", w.name());
                }
            }
        }
    }

    #[test]
    fn a_wrong_digest_fails_every_op() {
        for w in Workload::ALL {
            let o = smoke(w, true, true);
            assert!(!o.correct);
            assert!(o.attempted > 0 && o.failed == o.attempted, "{}: {}", w.name(), o.detail);
            let frac = o.metrics.iter().find(|m| m.0 == "failed_frac").expect("failed_frac").1;
            assert_eq!(frac, 1.0);
        }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert!(median(&[]).is_nan());
    }
}

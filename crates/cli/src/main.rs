#![forbid(unsafe_code)]

//! Command-line interface to the HeteroPrio reproduction.
//!
//! ```text
//! heteroprio-cli schedule --cpus M --gpus N [--algo NAME] [--svg FILE] [--trace FILE] [--summary] INSTANCE
//! heteroprio-cli bounds   --cpus M --gpus N INSTANCE
//! heteroprio-cli gen      (cholesky|qr|lu) N [OUTPUT]
//! ```

use heteroprio_cli::{
    cmd_audit, cmd_bounds, cmd_dag, cmd_gen, cmd_perf, cmd_perf_gate, cmd_schedule,
    parse_platform_args, Algo, DagAlgoArg, DurableOpts, FaultOpts, OutputOpts,
};
use heteroprio_core::ClassTable;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  heteroprio-cli schedule --cpus M --gpus N [--algo NAME] [--svg FILE]
                          (--cpus M --gpus N may be replaced everywhere by
                          --platform name=count[,name=count...], e.g.
                          --platform cpu=16,gpu=4,fpga=2)
                          [--trace FILE] [--summary] [--audit] [--metrics]
                          [--journal FILE [--crash-at N] [--snapshot FILE]
                          [--checkpoint-every K]] INSTANCE
  heteroprio-cli bounds   --cpus M --gpus N INSTANCE
  heteroprio-cli gen      (cholesky|qr|lu) N [OUTPUT]
  heteroprio-cli dag      (cholesky|qr|lu) N --cpus M --gpus N [--algo NAME]
                          [--svg FILE] [--trace FILE] [--summary] [--audit]
                          [--metrics] [--faults SPEC] [--exec-jitter J]
                          [--retry-max K] [--fault-seed S]
                          [--journal FILE [--crash-at N] [--snapshot FILE]
                          [--checkpoint-every K]]
  heteroprio-cli resume   --journal FILE [--snapshot FILE] --cpus M --gpus N
                          [--algo NAME] [--no-audit] [--trace FILE]
                          [--summary] [--metrics] (INSTANCE | (cholesky|qr|lu) N
                          [--faults SPEC] [--exec-jitter J] ...)
  heteroprio-cli audit    --cpus M --gpus N [--algo NAME]
                          [--trace FILE.jsonl] INSTANCE
  heteroprio-cli audit    (cholesky|qr|lu) N --cpus M --gpus N [--algo NAME]
                          [--faults SPEC] [--exec-jitter J]
  heteroprio-cli perf     [--smoke] [--out FILE] [--against BASELINE]
                          [--platform name=count[,...]]

INSTANCE is a text file with one `cpu_time gpu_time [priority]` task per
line (`#` comments); under a k-class --platform each line carries k
per-class times. `gen` writes such a file for the kernel mix of an
N-tile factorization. Algorithms: see --algo (default hp).

--platform declares the worker classes by name and count (class 0 pops
the affinity queue from the CPU end, the last class from the GPU end).
`--cpus M --gpus N` is the two-class alias `cpu=M,gpu=N`. `dag` and
`resume` accept any two-class --platform; k>2 needs `schedule` (the
factorization timing model is two-class). `perf --platform` appends a
custom-platform case to the suite.

--trace FILE exports the scheduler's event stream: Chrome trace_event
JSON (open in https://ui.perfetto.dev) by default, or JSONL when FILE
ends in `.jsonl`. --summary appends per-worker busy/idle/aborted time,
spoliation wasted work, and ready-queue statistics to the report.

--audit (and the `audit` command) replays the recorded event stream
through the paper-invariant auditor: pop-order consistency, the no-idle
list property, spoliation legality, and the Lemma 1-2 / Theorem 7-9-12
certificates. `audit INSTANCE --trace FILE.jsonl` checks a previously
exported JSONL trace instead of running a scheduler; `audit
(cholesky|qr|lu) N` audits a fresh runtime execution. Violations are
printed with their rule name and the exit code is nonzero.

--metrics runs the scheduler with the kernel's self-profiling registry
enabled and appends the counter/gauge/histogram report (events, queue
pushes/pops, spoliations, pick latency percentiles, peak queue depths).
The kernel's own event counter is cross-checked against the recorded
trace, so dropped events fail the command. Only live kernel runs can be
metered; static algorithms (heft, minmin, ...) are rejected.

perf runs the kernel self-profiling suite (Fig. 6-scale and 1000x-scale
workloads) and prints the schema-versioned BENCH_kernel.json document;
--out FILE writes it instead, --smoke runs the tiny deterministic cases
used as a CI gate. --against BASELINE compares the run's tasks/sec
case-by-case against a committed BENCH_kernel.json and fails if any
overlapping case regressed more than 20% (run in release mode: debug
timings always regress). `scripts/bench.sh` wraps the full run.

--journal FILE appends the kernel's event stream to a crash-durable
length+CRC-framed journal as it runs. --crash-at N kills the run right
after the Nth journaled event (deterministic crash injection; the
command still exits 0 — the crash is the harness, not an error).
--snapshot FILE additionally checkpoints the kernel state every K
events (--checkpoint-every, default 64). `resume` recovers the journal
(truncating any torn tail), restores the snapshot when one is usable,
replays deterministically — verifying the journaled prefix event for
event — and continues the run to completion, re-auditing the full
stream against the paper's invariants (--no-audit skips that). Resume
must be given the same inputs (instance/workload, platform, --algo,
fault flags) as the original run; divergence is detected and reported.

--faults injects worker failures and task failures into the `dag`
command. SPEC is comma-separated clauses: `wN|cpu|gpu|all @ time[+dur]`
(no duration = permanent; `time%` = percent of the fault-free makespan,
which is measured by a baseline run first), `fail=P` (per-attempt task
failure probability), `seed=N`. Example: `--faults gpu@25%,fail=0.05`.
--exec-jitter J draws actual runtimes log-uniformly from
[est/(1+J), est*(1+J)]; --retry-max K caps attempts per task (default 3).
";

struct Args {
    positional: Vec<String>,
    /// `--platform name=count[,name=count...]`: a k-class worker spec.
    /// `--cpus M --gpus N` stays as the `cpu=M,gpu=N` alias.
    platform: Option<String>,
    cpus: Option<usize>,
    gpus: Option<usize>,
    algo: Algo,
    /// Raw `--algo` value, for subcommands with their own algorithm set.
    dag_algo: Option<String>,
    svg: Option<String>,
    trace: Option<String>,
    summary: bool,
    audit: bool,
    metrics: bool,
    /// `perf --smoke`: tiny deterministic cases only.
    smoke: bool,
    /// `perf --out FILE`: write the JSON document instead of printing it.
    out: Option<String>,
    /// `perf --against FILE`: fail if tasks/sec regressed more than the
    /// gate tolerance versus this committed baseline.
    against: Option<String>,
    faults: FaultOpts,
    durable: DurableOpts,
    /// `resume --no-audit`: skip the post-recovery invariant audit.
    no_audit: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        platform: None,
        cpus: None,
        gpus: None,
        algo: Algo::HeteroPrio,
        dag_algo: None,
        svg: None,
        trace: None,
        summary: false,
        audit: false,
        metrics: false,
        smoke: false,
        out: None,
        against: None,
        faults: FaultOpts::default(),
        durable: DurableOpts::default(),
        no_audit: false,
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--platform" => {
                args.platform = Some(argv.next().ok_or("--platform needs name=count[,...]")?);
            }
            "--cpus" => {
                let v = argv.next().ok_or("--cpus needs a value")?;
                args.cpus = Some(v.parse().map_err(|_| format!("bad --cpus `{v}`"))?);
            }
            "--gpus" => {
                let v = argv.next().ok_or("--gpus needs a value")?;
                args.gpus = Some(v.parse().map_err(|_| format!("bad --gpus `{v}`"))?);
            }
            "--algo" => {
                let v = argv.next().ok_or("--algo needs a value")?;
                args.dag_algo = Some(v.clone());
                if let Some(a) = Algo::parse(&v) {
                    args.algo = a;
                } else if DagAlgoArg::parse(&v).is_none() {
                    return Err(format!(
                        "unknown algorithm `{v}` (independent: {}; dag: {})",
                        Algo::NAMES,
                        DagAlgoArg::NAMES
                    ));
                }
            }
            "--svg" => {
                args.svg = Some(argv.next().ok_or("--svg needs a file name")?);
            }
            "--trace" => {
                args.trace = Some(argv.next().ok_or("--trace needs a file name")?);
            }
            "--summary" => args.summary = true,
            "--audit" => args.audit = true,
            "--metrics" => args.metrics = true,
            "--smoke" => args.smoke = true,
            "--out" => {
                args.out = Some(argv.next().ok_or("--out needs a file name")?);
            }
            "--against" => {
                args.against = Some(argv.next().ok_or("--against needs a baseline file")?);
            }
            "--faults" => {
                args.faults.spec = Some(argv.next().ok_or("--faults needs a spec")?);
            }
            "--exec-jitter" => {
                let v = argv.next().ok_or("--exec-jitter needs a value")?;
                args.faults.exec_jitter =
                    v.parse().map_err(|_| format!("bad --exec-jitter `{v}`"))?;
            }
            "--retry-max" => {
                let v = argv.next().ok_or("--retry-max needs a value")?;
                args.faults.retry_max =
                    Some(v.parse().map_err(|_| format!("bad --retry-max `{v}`"))?);
            }
            "--fault-seed" => {
                let v = argv.next().ok_or("--fault-seed needs a value")?;
                args.faults.seed = Some(v.parse().map_err(|_| format!("bad --fault-seed `{v}`"))?);
            }
            "--journal" => {
                args.durable.journal = Some(argv.next().ok_or("--journal needs a file name")?);
            }
            "--crash-at" => {
                let v = argv.next().ok_or("--crash-at needs an event number")?;
                let n: u64 = v.parse().map_err(|_| format!("bad --crash-at `{v}`"))?;
                if n == 0 {
                    return Err("--crash-at counts from 1 (the first journaled event)".into());
                }
                args.durable.crash_at = Some(n);
            }
            "--snapshot" => {
                args.durable.snapshot = Some(argv.next().ok_or("--snapshot needs a file name")?);
            }
            "--checkpoint-every" => {
                let v = argv.next().ok_or("--checkpoint-every needs a value")?;
                let n: u64 = v.parse().map_err(|_| format!("bad --checkpoint-every `{v}`"))?;
                if n == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
                args.durable.checkpoint_every = Some(n);
            }
            "--no-audit" => args.no_audit = true,
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            other => args.positional.push(other.to_string()),
        }
    }
    Ok(args)
}

/// Why a command line did not succeed.
enum Failure {
    /// The command line itself is wrong (or `--help`): print the usage.
    Usage(String),
    /// A well-formed command that failed while running.
    Command(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Command(msg)
    }
}

fn usage(msg: impl Into<String>) -> Failure {
    Failure::Usage(msg.into())
}

fn platform_of(args: &Args) -> Result<ClassTable, Failure> {
    parse_platform_args(args.platform.as_deref(), args.cpus, args.gpus).map_err(Failure::Usage)
}

/// The `(cholesky|qr|lu) N` tile count at `positional[1]`.
fn tile_count(args: &Args, missing: &str) -> Result<usize, Failure> {
    args.positional
        .get(1)
        .ok_or_else(|| usage(missing))?
        .parse()
        .map_err(|_| usage("bad tile count"))
}

/// The `--algo` choice for a DAG run (HeteroPrio by default).
fn dag_algo(args: &Args) -> Result<DagAlgoArg, Failure> {
    match &args.dag_algo {
        Some(name) => DagAlgoArg::parse(name).ok_or_else(|| {
            usage(format!("unknown DAG algorithm `{name}` ({})", DagAlgoArg::NAMES))
        }),
        None => Ok(DagAlgoArg::HeteroPrio),
    }
}

fn output_opts(args: &Args) -> OutputOpts {
    OutputOpts {
        svg: args.svg.is_some(),
        trace: args.trace.clone(),
        summary: args.summary,
        audit: args.audit,
        metrics: args.metrics,
        durable: args.durable.clone(),
    }
}

/// Print the report and write the artifacts a command produced.
fn emit(out: heteroprio_cli::CmdOutput, svg_path: Option<&String>) -> Result<(), String> {
    print!("{}", out.report);
    if let (Some(path), Some(svg)) = (svg_path, out.svg) {
        std::fs::write(path, svg).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some((path, contents)) = out.trace {
        std::fs::write(&path, contents).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn run() -> Result<(), Failure> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(|| usage(""))?;
    let args = parse_args(argv).map_err(Failure::Usage)?;
    match command.as_str() {
        "schedule" => {
            let platform = platform_of(&args)?;
            let file = args.positional.first().ok_or_else(|| usage("missing INSTANCE file"))?;
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let out = cmd_schedule(&text, &platform, args.algo, &output_opts(&args))?;
            Ok(emit(out, args.svg.as_ref())?)
        }
        "bounds" => {
            let platform = platform_of(&args)?;
            let file = args.positional.first().ok_or_else(|| usage("missing INSTANCE file"))?;
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            print!("{}", cmd_bounds(&text, &platform)?);
            Ok(())
        }
        "dag" => {
            let platform = platform_of(&args)?;
            let kind = args.positional.first().ok_or_else(|| usage("dag needs a workload kind"))?;
            let n = tile_count(&args, "dag needs a tile count")?;
            let algo = dag_algo(&args)?;
            let out = cmd_dag(kind, n, &platform, algo, &output_opts(&args), &args.faults)?;
            Ok(emit(out, args.svg.as_ref())?)
        }
        "resume" => {
            let platform = platform_of(&args)?;
            if args.durable.journal.is_none() {
                return Err(usage("resume needs --journal FILE"));
            }
            if args.durable.crash_at.is_some() {
                return Err(usage("--crash-at only applies to the original run"));
            }
            let mut args = args;
            args.durable.resume = true;
            // Recovery re-audits the full stream by default.
            args.audit = !args.no_audit;
            let first = args
                .positional
                .first()
                .ok_or_else(|| usage("resume needs an INSTANCE file or a workload kind"))?;
            let out = if matches!(first.as_str(), "cholesky" | "qr" | "lu") {
                let n = tile_count(&args, "resume needs a tile count")?;
                let algo = dag_algo(&args)?;
                cmd_dag(first, n, &platform, algo, &output_opts(&args), &args.faults)?
            } else {
                let text = std::fs::read_to_string(first).map_err(|e| format!("{first}: {e}"))?;
                cmd_schedule(&text, &platform, args.algo, &output_opts(&args))?
            };
            Ok(emit(out, args.svg.as_ref())?)
        }
        "audit" => {
            let platform = platform_of(&args)?;
            let first = args
                .positional
                .first()
                .ok_or_else(|| usage("audit needs an INSTANCE file or a workload kind"))?;
            if matches!(first.as_str(), "cholesky" | "qr" | "lu") {
                // Workload form: audit a fresh runtime execution.
                let n = tile_count(&args, "audit needs a tile count")?;
                let algo = dag_algo(&args)?;
                let opts = OutputOpts { audit: true, ..OutputOpts::default() };
                let out = cmd_dag(first, n, &platform, algo, &opts, &args.faults)?;
                print!("{}", out.report);
                Ok(())
            } else {
                // Instance form: audit a recorded JSONL trace, or a fresh
                // traced run when no --trace is given.
                let text = std::fs::read_to_string(first).map_err(|e| format!("{first}: {e}"))?;
                let trace_text = match &args.trace {
                    Some(path) => {
                        Some(std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
                    }
                    None => None,
                };
                print!("{}", cmd_audit(&text, &platform, args.algo, trace_text.as_deref())?);
                Ok(())
            }
        }
        "perf" => {
            let custom = match &args.platform {
                Some(spec) => Some(ClassTable::parse(spec).map_err(|e| usage(e.to_string()))?),
                None => None,
            };
            let doc = cmd_perf(args.smoke, custom.as_ref())?;
            match &args.out {
                Some(path) => {
                    std::fs::write(path, &doc).map_err(|e| format!("{path}: {e}"))?;
                    println!("wrote {path}");
                }
                None if args.against.is_none() => print!("{doc}"),
                None => {}
            }
            if let Some(path) = &args.against {
                let baseline = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                print!("{}", cmd_perf_gate(&doc, &baseline)?);
            }
            Ok(())
        }
        "gen" => {
            let kind = args.positional.first().ok_or_else(|| usage("gen needs a workload kind"))?;
            let n = tile_count(&args, "gen needs a tile count")?;
            let text = cmd_gen(kind, n)?;
            match args.positional.get(2) {
                Some(path) => {
                    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
                    println!("wrote {path}");
                }
                None => print!("{text}"),
            }
            Ok(())
        }
        other => Err(usage(format!("unknown command `{other}`"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(Failure::Command(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

//! End-to-end smoke test of the installed binary: `schedule --trace`
//! and `dag --trace` must write parseable trace files and report them.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_heteroprio-cli"))
}

/// A scratch path that each test owns (process id keeps parallel test
/// binaries from colliding).
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("heteroprio-cli-test-{}-{name}", std::process::id()))
}

#[test]
fn schedule_trace_writes_a_parseable_chrome_trace() {
    let instance = scratch("schedule.txt");
    std::fs::write(&instance, "8 1\n4 1\n2 2\n1 4\n# comment\n3 3\n").unwrap();
    let trace = scratch("schedule-trace.json");

    let out = bin()
        .args(["schedule", "--cpus", "2", "--gpus", "1", "--summary", "--trace"])
        .arg(&trace)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace summary"), "--summary missing from report:\n{stdout}");
    assert!(stdout.contains(&format!("wrote {}", trace.display())));

    let doc = std::fs::read_to_string(&trace).expect("trace file written");
    let v = heteroprio_trace::json::parse(&doc).expect("trace file is valid JSON");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    let slices =
        events.iter().filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("task")).count();
    assert_eq!(slices, 5, "one complete slice per task");

    let _ = std::fs::remove_file(&instance);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn audit_accepts_a_clean_trace_and_rejects_a_corrupted_one() {
    let instance = scratch("audit-instance.txt");
    std::fs::write(&instance, "8 1\n4 1\n2 2\n1 4\n3 3\n").unwrap();
    let trace = scratch("audit-trace.jsonl");

    // Record a JSONL trace of a HeteroPrio run.
    let out = bin()
        .args(["schedule", "--cpus", "2", "--gpus", "1", "--trace"])
        .arg(&trace)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli schedule");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Auditing the recorded trace is clean: exit 0.
    let out = bin()
        .args(["audit", "--cpus", "2", "--gpus", "1", "--trace"])
        .arg(&trace)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli audit");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("audit clean"), "clean audit missing:\n{stdout}");

    // Corrupt the trace: flip every GPU front-pop into a back-pop. The
    // auditor must reject it, naming the violated rule on stderr.
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.contains("front"), "expected at least one GPU pop in:\n{text}");
    std::fs::write(&trace, text.replace("front", "back")).unwrap();
    let out = bin()
        .args(["audit", "--cpus", "2", "--gpus", "1", "--trace"])
        .arg(&trace)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli audit (corrupted)");
    assert!(!out.status.success(), "corrupted trace must fail the audit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("pop_order_consistency"), "rule name missing from stderr:\n{stderr}");

    // A syntactically broken line is a hard error, not a clean audit.
    std::fs::write(&trace, "{\"type\":\"task_ready\",\"time\":0}\nnot json\n").unwrap();
    let out = bin()
        .args(["audit", "--cpus", "2", "--gpus", "1", "--trace"])
        .arg(&trace)
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli audit (malformed)");
    assert!(!out.status.success(), "malformed JSONL must fail");

    let _ = std::fs::remove_file(&instance);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn audit_flag_and_workload_form_audit_clean() {
    let instance = scratch("audit-flag.txt");
    std::fs::write(&instance, "28.8 1.0\n8.72 1.0\n1.72 1.0\n1.0 3.0\n2.0 6.0\n").unwrap();
    let out = bin()
        .args(["schedule", "--cpus", "2", "--gpus", "1", "--audit"])
        .arg(&instance)
        .output()
        .expect("run heteroprio-cli schedule --audit");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("audit clean"), "audit render missing:\n{stdout}");
    assert!(stdout.contains("enforced"), "independent HP certificate is enforced:\n{stdout}");

    // Workload form: audits a fresh fault-free runtime execution.
    let out = bin()
        .args(["audit", "cholesky", "4", "--cpus", "2", "--gpus", "1"])
        .output()
        .expect("run heteroprio-cli audit cholesky");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("audit clean"), "audit render missing:\n{stdout}");

    let _ = std::fs::remove_file(&instance);
}

#[test]
fn dag_trace_writes_jsonl_when_asked() {
    let trace = scratch("dag-trace.jsonl");
    let out = bin()
        .args(["dag", "cholesky", "4", "--cpus", "2", "--gpus", "1", "--trace"])
        .arg(&trace)
        .output()
        .expect("run heteroprio-cli");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(!text.is_empty());
    for line in text.lines() {
        let v = heteroprio_trace::json::parse(line).expect("every JSONL line parses");
        assert!(v.get("type").is_some(), "line carries a type tag: {line}");
    }

    let _ = std::fs::remove_file(&trace);
}

#[test]
fn unknown_flags_are_rejected_and_usage_is_for_argument_errors_only() {
    let instance = scratch("flags.txt");
    std::fs::write(&instance, "8 1\n4 1\n2 2\n1 4\n3 3\n").unwrap();

    // A typo'd flag is an argument error: it fails, names the flag, and
    // prints the usage text.
    let out = bin()
        .args(["schedule", "--cpus", "2", "--gpus", "1"])
        .arg(&instance)
        .arg("--summmary")
        .output()
        .expect("run heteroprio-cli");
    assert!(!out.status.success(), "an unknown flag must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--summmary`"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "argument errors print the usage:\n{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran:\n{}", String::from_utf8_lossy(&out.stdout));

    // A well-formed command that fails reports the error alone.
    let missing = scratch("no-such-instance.txt");
    let out = bin()
        .args(["schedule", "--cpus", "2", "--gpus", "1"])
        .arg(&missing)
        .output()
        .expect("run heteroprio-cli");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&missing.display().to_string()), "stderr: {stderr}");
    assert!(!stderr.contains("usage:"), "command failures print no usage:\n{stderr}");

    let _ = std::fs::remove_file(&instance);
}

//! JSONL exporter and the canonical event-line codec: one JSON object per
//! line, one line per event.
//!
//! The flat shape is meant for ad-hoc tooling (`jq`, pandas, grep); every
//! line carries a `"type"` tag matching [`SchedEvent::kind`], then `"time"`,
//! then the kind's fields in a fixed order.
//!
//! * [`write_event_line`] is the encoder. It writes static key strings,
//!   formats ids by hand and times with `{}` (`f64`'s shortest round-trip
//!   form), allocating nothing beyond the caller's buffer. [`event_line`],
//!   [`jsonl`] and the journal's record framing all go through it.
//! * [`parse_event_line`] is its exact inverse, and the decoder of journal
//!   payloads: a fixed-schema scanner that matches the `{"type":"<kind>",
//!   "time":` prefix and each kind's keys in their fixed order, reads numbers
//!   through the same token grammar and `str::parse::<f64>` as
//!   [`json::parse`], checks ids like the generic path does, and builds no
//!   [`Value`] tree. Any other byte shape is an error naming the byte offset
//!   and the token it expected.
//! * [`parse_jsonl`] is the lenient path for external files (`audit
//!   --trace`): each line goes through [`json::parse`], so whitespace, key
//!   order and extra keys do not matter.

use crate::json::{self, Value};
use crate::{Decision, QueueEnd, SchedEvent};
use std::fmt::Write as _;

/// Render an event stream as line-delimited JSON.
pub fn jsonl(events: &[SchedEvent]) -> String {
    let mut out = String::new();
    for e in events {
        write_event_line(&mut out, e);
        out.push('\n');
    }
    out
}

/// Render a single event as its JSONL line (no trailing newline). This is
/// the canonical wire form: the journal frames exactly these bytes, and
/// [`parse_event_line`] inverts them.
pub fn event_line(e: &SchedEvent) -> String {
    // Room for a typical line (about 80 bytes), so it is allocated once.
    let mut out = String::with_capacity(112);
    write_event_line(&mut out, e);
    out
}

// The canonical line's keys, with the separators around them. The encoder
// writes them and the decoder matches them, so the two cannot drift.
const TYPE: &str = r#"{"type":""#;
const TIME: &str = r#"","time":"#;
const TASK: &str = r#","task":"#;
const WORKER: &str = r#","worker":"#;
const EXPECTED_END: &str = r#","expected_end":"#;
const VICTIM: &str = r#","victim":"#;
const THIEF: &str = r#","thief":"#;
const WASTED_WORK: &str = r#","wasted_work":"#;
const END: &str = r#","end":""#;
const DECISION: &str = r#","decision":""#;
const TARGET: &str = r#","target":"#;
const LOST_TASK: &str = r#","lost_task":"#;
const PERMANENT: &str = r#","permanent":"#;
const LOST_WORK: &str = r#","lost_work":"#;
const ATTEMPT: &str = r#","attempt":"#;
const DELAY: &str = r#","delay":"#;

/// Append `e`'s canonical line (no trailing newline) to `out`.
pub fn write_event_line(out: &mut String, e: &SchedEvent) {
    out.push_str(TYPE);
    out.push_str(e.kind());
    out.push_str(TIME);
    push_f64(out, e.time());
    match *e {
        SchedEvent::TaskReady { task, .. } => push_id(out, TASK, task),
        SchedEvent::TaskStart { task, worker, expected_end, .. } => {
            push_id(out, TASK, task);
            push_id(out, WORKER, worker);
            push_num(out, EXPECTED_END, expected_end);
        }
        SchedEvent::TaskComplete { task, worker, .. } => {
            push_id(out, TASK, task);
            push_id(out, WORKER, worker);
        }
        SchedEvent::Spoliation { task, victim, thief, wasted_work, .. } => {
            push_id(out, TASK, task);
            push_id(out, VICTIM, victim);
            push_id(out, THIEF, thief);
            push_num(out, WASTED_WORK, wasted_work);
        }
        SchedEvent::WorkerIdleBegin { worker, .. }
        | SchedEvent::WorkerIdleEnd { worker, .. }
        | SchedEvent::WorkerUp { worker, .. } => push_id(out, WORKER, worker),
        SchedEvent::QueuePop { task, worker, end, .. } => {
            push_id(out, TASK, task);
            push_id(out, WORKER, worker);
            out.push_str(END);
            out.push_str(match end {
                QueueEnd::Front => "front\"",
                QueueEnd::Back => "back\"",
            });
        }
        SchedEvent::PolicyDecision { worker, decision, .. } => {
            push_id(out, WORKER, worker);
            out.push_str(DECISION);
            match decision {
                Decision::Pick(t) => {
                    out.push_str("pick\"");
                    push_id(out, TARGET, t);
                }
                Decision::Spoliate(v) => {
                    out.push_str("spoliate\"");
                    push_id(out, TARGET, v);
                }
                Decision::Idle => out.push_str("idle\""),
            }
        }
        SchedEvent::WorkerDown { worker, lost_task, permanent, .. } => {
            push_id(out, WORKER, worker);
            if let Some(t) = lost_task {
                push_id(out, LOST_TASK, t);
            }
            out.push_str(PERMANENT);
            out.push_str(if permanent { "true" } else { "false" });
        }
        SchedEvent::TaskFailed { task, worker, lost_work, attempt, .. } => {
            push_id(out, TASK, task);
            push_id(out, WORKER, worker);
            push_num(out, LOST_WORK, lost_work);
            push_id(out, ATTEMPT, attempt);
        }
        SchedEvent::TaskRetry { task, attempt, delay, .. } => {
            push_id(out, TASK, task);
            push_id(out, ATTEMPT, attempt);
            push_num(out, DELAY, delay);
        }
    }
    out.push('}');
}

fn push_f64(out: &mut String, x: f64) {
    // The same `Display` a `format!("{x}")` uses, so the bytes are too.
    let _ = write!(out, "{x}");
}

fn push_num(out: &mut String, key: &str, x: f64) {
    out.push_str(key);
    push_f64(out, x);
}

fn push_id(out: &mut String, key: &str, id: u32) {
    out.push_str(key);
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    let mut rest = id;
    loop {
        at -= 1;
        digits[at] = b"0123456789"[(rest % 10) as usize];
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Parse one canonical event line, as [`write_event_line`] writes it, back
/// into an event. Strict: see the module docs. For lines from other
/// writers, use [`parse_jsonl`].
pub fn parse_event_line(text: &str) -> Result<SchedEvent, String> {
    decode_event_line(text.as_bytes())
}

/// [`parse_event_line`] over raw bytes: the journal hands it record
/// payloads without a UTF-8 pass, since every byte the scanner accepts is
/// ASCII.
pub(crate) fn decode_event_line(line: &[u8]) -> Result<SchedEvent, String> {
    let mut s = Scanner { b: line, pos: 0 };
    s.lit(TYPE)?;
    let kind_at = s.pos;
    let kind_len = line[kind_at..].iter().position(|&c| c == b'"').unwrap_or(0);
    let kind = &line[kind_at..kind_at + kind_len];
    s.pos += kind.len();
    s.lit(TIME)?;
    let time = s.num()?;
    if !time.is_finite() {
        return Err(format!("non-finite time {time}"));
    }
    let e = match kind {
        b"task_ready" => SchedEvent::TaskReady { time, task: s.id(TASK)? },
        b"task_start" => SchedEvent::TaskStart {
            time,
            task: s.id(TASK)?,
            worker: s.id(WORKER)?,
            expected_end: s.field(EXPECTED_END)?,
        },
        b"task_complete" => {
            SchedEvent::TaskComplete { time, task: s.id(TASK)?, worker: s.id(WORKER)? }
        }
        b"spoliation" => SchedEvent::Spoliation {
            time,
            task: s.id(TASK)?,
            victim: s.id(VICTIM)?,
            thief: s.id(THIEF)?,
            wasted_work: s.field(WASTED_WORK)?,
        },
        b"worker_idle_begin" => SchedEvent::WorkerIdleBegin { time, worker: s.id(WORKER)? },
        b"worker_idle_end" => SchedEvent::WorkerIdleEnd { time, worker: s.id(WORKER)? },
        b"queue_pop" => SchedEvent::QueuePop {
            time,
            task: s.id(TASK)?,
            worker: s.id(WORKER)?,
            end: {
                s.lit(END)?;
                if s.opt("front\"") {
                    QueueEnd::Front
                } else {
                    s.lit("back\"")?;
                    QueueEnd::Back
                }
            },
        },
        b"policy_decision" => SchedEvent::PolicyDecision {
            time,
            worker: s.id(WORKER)?,
            decision: {
                s.lit(DECISION)?;
                if s.opt("pick\"") {
                    Decision::Pick(s.id(TARGET)?)
                } else if s.opt("spoliate\"") {
                    Decision::Spoliate(s.id(TARGET)?)
                } else {
                    s.lit("idle\"")?;
                    Decision::Idle
                }
            },
        },
        b"worker_down" => SchedEvent::WorkerDown {
            time,
            worker: s.id(WORKER)?,
            lost_task: if s.at(LOST_TASK) { Some(s.id(LOST_TASK)?) } else { None },
            permanent: {
                s.lit(PERMANENT)?;
                if s.opt("true") {
                    true
                } else {
                    s.lit("false")?;
                    false
                }
            },
        },
        b"worker_up" => SchedEvent::WorkerUp { time, worker: s.id(WORKER)? },
        b"task_failed" => SchedEvent::TaskFailed {
            time,
            task: s.id(TASK)?,
            worker: s.id(WORKER)?,
            lost_work: s.field(LOST_WORK)?,
            attempt: s.id(ATTEMPT)?,
        },
        b"task_retry" => SchedEvent::TaskRetry {
            time,
            task: s.id(TASK)?,
            attempt: s.id(ATTEMPT)?,
            delay: s.field(DELAY)?,
        },
        _ => {
            return Err(format!(
                "expected an event type at payload byte {kind_at}, found {:?}",
                String::from_utf8_lossy(kind)
            ))
        }
    };
    s.lit("}")?;
    if s.pos != line.len() {
        return Err(format!("expected the end of the line at payload byte {}", s.pos));
    }
    Ok(e)
}

/// Cursor of the canonical-line decoder.
struct Scanner<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Scanner<'_> {
    /// Whether the input continues with `token`.
    fn at(&self, token: &str) -> bool {
        self.b[self.pos..].starts_with(token.as_bytes())
    }

    /// Consume `token` if the input continues with it.
    fn opt(&mut self, token: &str) -> bool {
        let hit = self.at(token);
        if hit {
            self.pos += token.len();
        }
        hit
    }

    /// Consume `token`, which the input must continue with.
    fn lit(&mut self, token: &str) -> Result<(), String> {
        if self.opt(token) {
            Ok(())
        } else {
            Err(format!("expected {token:?} at payload byte {}", self.pos))
        }
    }

    fn num(&mut self) -> Result<f64, String> {
        let (x, end) = json::number(self.b, self.pos)
            .map_err(|e| format!("expected a number at payload byte {}: {e}", self.pos))?;
        self.pos = end;
        Ok(x)
    }

    /// The number after `key`, one of the key constants above.
    fn field(&mut self, key: &str) -> Result<f64, String> {
        self.lit(key)?;
        self.num()
    }

    /// The id after `key`, checked as the generic path checks it.
    fn id(&mut self, key: &str) -> Result<u32, String> {
        let x = self.field(key)?;
        id_value(x).ok_or_else(|| {
            let name = key.trim_start_matches(",\"").trim_end_matches("\":");
            format!("field {name:?} is not a valid id: {x}")
        })
    }
}

/// A malformed line in a JSONL trace. Carries everything salvaged before
/// the damage: a crashed writer typically leaves a truncated final line, and
/// callers that can tolerate that (journal recovery, post-mortem tooling)
/// take [`parsed`](JsonlError::parsed) instead of rejecting the whole file.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonlError {
    /// 1-based line number of the first malformed line.
    pub line: usize,
    /// Byte offset of the start of that line within the input.
    pub byte_offset: usize,
    /// What was wrong with it.
    pub message: String,
    /// Every event successfully parsed before the malformed line.
    pub parsed: Vec<SchedEvent>,
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {} (byte {}): {} ({} events parsed before the damage)",
            self.line,
            self.byte_offset,
            self.message,
            self.parsed.len()
        )
    }
}

impl std::error::Error for JsonlError {}

impl From<JsonlError> for String {
    fn from(e: JsonlError) -> String {
        e.to_string()
    }
}

/// Parse a JSONL trace produced by [`jsonl`] back into typed events.
///
/// Blank lines are skipped; the first malformed line aborts with a
/// [`JsonlError`] naming the 1-based line number and byte offset — and
/// carrying the prefix parsed so far, so a trace with only a truncated
/// final line (common after a crash) is still recoverable. This is the
/// ingestion path for `audit --trace`.
pub fn parse_jsonl(text: &str) -> Result<Vec<SchedEvent>, JsonlError> {
    let mut events = Vec::new();
    let mut offset = 0;
    for (idx, line) in text.lines().enumerate() {
        let line_start = offset;
        // `lines()` strips "\n" and "\r\n"; track offsets from the source.
        offset += line.len();
        if text[offset..].starts_with("\r\n") {
            offset += 2;
        } else if text[offset..].starts_with('\n') {
            offset += 1;
        }
        if line.trim().is_empty() {
            continue;
        }
        let fail = |message: String, parsed: Vec<SchedEvent>| JsonlError {
            line: idx + 1,
            byte_offset: line_start,
            message,
            parsed,
        };
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(e) => return Err(fail(e, events)),
        };
        match parse_event(&v) {
            Ok(e) => events.push(e),
            Err(e) => return Err(fail(e, events)),
        }
    }
    Ok(events)
}

fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("missing number field {key:?}"))
}

fn field_id(v: &Value, key: &str) -> Result<u32, String> {
    let x = field_f64(v, key)?;
    id_value(x).ok_or_else(|| format!("field {key:?} is not a valid id: {x}"))
}

/// `x` as an id: an integer in `u32` range, or `None`.
fn id_value(x: f64) -> Option<u32> {
    // lint: allow(float-eq): fract() is exactly 0.0 for integral values, no rounding involved.
    if x.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&x) {
        return None;
    }
    // lint: allow(cast-trunc): fract()==0 and range-checked above, exact conversion.
    Some(x as u32)
}

fn parse_event(v: &Value) -> Result<SchedEvent, String> {
    let kind = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string field \"type\"".to_string())?;
    let time = field_f64(v, "time")?;
    if !time.is_finite() {
        return Err(format!("non-finite time {time}"));
    }
    Ok(match kind {
        "task_ready" => SchedEvent::TaskReady { time, task: field_id(v, "task")? },
        "task_start" => SchedEvent::TaskStart {
            time,
            task: field_id(v, "task")?,
            worker: field_id(v, "worker")?,
            expected_end: field_f64(v, "expected_end")?,
        },
        "task_complete" => SchedEvent::TaskComplete {
            time,
            task: field_id(v, "task")?,
            worker: field_id(v, "worker")?,
        },
        "spoliation" => SchedEvent::Spoliation {
            time,
            task: field_id(v, "task")?,
            victim: field_id(v, "victim")?,
            thief: field_id(v, "thief")?,
            wasted_work: field_f64(v, "wasted_work")?,
        },
        "worker_idle_begin" => SchedEvent::WorkerIdleBegin { time, worker: field_id(v, "worker")? },
        "worker_idle_end" => SchedEvent::WorkerIdleEnd { time, worker: field_id(v, "worker")? },
        "queue_pop" => SchedEvent::QueuePop {
            time,
            task: field_id(v, "task")?,
            worker: field_id(v, "worker")?,
            end: match v.get("end").and_then(Value::as_str) {
                Some("front") => QueueEnd::Front,
                Some("back") => QueueEnd::Back,
                other => return Err(format!("bad queue end {other:?}")),
            },
        },
        "policy_decision" => SchedEvent::PolicyDecision {
            time,
            worker: field_id(v, "worker")?,
            decision: match v.get("decision").and_then(Value::as_str) {
                Some("pick") => Decision::Pick(field_id(v, "target")?),
                Some("spoliate") => Decision::Spoliate(field_id(v, "target")?),
                Some("idle") => Decision::Idle,
                other => return Err(format!("bad decision {other:?}")),
            },
        },
        "worker_down" => SchedEvent::WorkerDown {
            time,
            worker: field_id(v, "worker")?,
            lost_task: match v.get("lost_task") {
                Some(_) => Some(field_id(v, "lost_task")?),
                None => None,
            },
            permanent: v
                .get("permanent")
                .and_then(Value::as_bool)
                .ok_or("missing bool field \"permanent\"")?,
        },
        "worker_up" => SchedEvent::WorkerUp { time, worker: field_id(v, "worker")? },
        "task_failed" => SchedEvent::TaskFailed {
            time,
            task: field_id(v, "task")?,
            worker: field_id(v, "worker")?,
            lost_work: field_f64(v, "lost_work")?,
            attempt: field_id(v, "attempt")?,
        },
        "task_retry" => SchedEvent::TaskRetry {
            time,
            task: field_id(v, "task")?,
            attempt: field_id(v, "attempt")?,
            delay: field_f64(v, "delay")?,
        },
        other => return Err(format!("unknown event type {other:?}")),
    })
}

#[cfg(test)]
mod parity;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn every_line_parses_and_is_tagged() {
        let events = [
            SchedEvent::TaskReady { time: 0.0, task: 3 },
            SchedEvent::QueuePop { time: 0.0, task: 3, worker: 2, end: QueueEnd::Front },
            SchedEvent::PolicyDecision { time: 0.0, worker: 2, decision: Decision::Pick(3) },
            SchedEvent::TaskStart { time: 0.0, task: 3, worker: 2, expected_end: 1.5 },
            SchedEvent::PolicyDecision { time: 0.5, worker: 0, decision: Decision::Idle },
            SchedEvent::WorkerIdleBegin { time: 0.5, worker: 0 },
            SchedEvent::Spoliation { time: 1.0, task: 3, victim: 2, thief: 0, wasted_work: 1.0 },
            SchedEvent::WorkerIdleEnd { time: 1.0, worker: 0 },
            SchedEvent::TaskComplete { time: 1.25, task: 3, worker: 0 },
            SchedEvent::TaskFailed { time: 1.5, task: 4, worker: 2, lost_work: 0.5, attempt: 1 },
            SchedEvent::TaskRetry { time: 1.5, task: 4, attempt: 1, delay: 0.25 },
            SchedEvent::WorkerDown { time: 2.0, worker: 2, lost_task: None, permanent: true },
            SchedEvent::WorkerDown { time: 2.0, worker: 1, lost_task: Some(5), permanent: false },
            SchedEvent::WorkerUp { time: 3.0, worker: 1 },
        ];
        let text = jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, event) in lines.iter().zip(&events) {
            let v = json::parse(line).expect("line parses");
            assert_eq!(v.get("type").unwrap().as_str(), Some(event.kind()));
            assert_eq!(v.get("time").unwrap().as_f64(), Some(event.time()));
        }
        // And the parser inverts the exporter exactly.
        assert_eq!(parse_jsonl(&text).unwrap(), events);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_jsonl("{\"type\":\"task_ready\",\"time\":0.0}")
            .unwrap_err()
            .to_string()
            .contains("task"));
        assert!(parse_jsonl("not json\n").is_err());
        assert!(parse_jsonl("{\"type\":\"nope\",\"time\":0.0}")
            .unwrap_err()
            .to_string()
            .contains("nope"));
        assert!(parse_jsonl("{\"type\":\"task_ready\",\"time\":0.0,\"task\":1.5}").is_err());
        // Blank lines are fine.
        assert_eq!(parse_jsonl("\n\n").unwrap(), vec![]);
    }

    #[test]
    fn truncated_final_line_salvages_the_prefix() {
        let events = [
            SchedEvent::TaskReady { time: 0.0, task: 0 },
            SchedEvent::TaskStart { time: 0.0, task: 0, worker: 1, expected_end: 2.0 },
            SchedEvent::TaskComplete { time: 2.0, task: 0, worker: 1 },
        ];
        let full = jsonl(&events);
        // Simulate a crash mid-write: chop the last line in half.
        let cut = full.len() - 14;
        let damaged = &full[..cut];
        let err = parse_jsonl(damaged).unwrap_err();
        assert_eq!(err.parsed, events[..2].to_vec());
        assert_eq!(err.line, 3);
        let line3_start = full.lines().take(2).map(|l| l.len() + 1).sum::<usize>();
        assert_eq!(err.byte_offset, line3_start);
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn single_event_line_round_trips() {
        let e =
            SchedEvent::Spoliation { time: 1.5, task: 7, victim: 0, thief: 3, wasted_work: 0.5 };
        assert_eq!(parse_event_line(&event_line(&e)).unwrap(), e);
        assert!(parse_event_line("{\"type\":").is_err());
    }
}

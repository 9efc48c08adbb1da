//! Parity pins for the canonical event-line codec.
//!
//! [`reference_line`] is a frozen copy of the `format!` encoder that
//! [`write_event_line`] replaced; the encoder must reproduce its bytes on
//! every variant, edge values included. The decoder is held to the generic
//! path: on canonical lines [`decode_event_line`], [`parse_event`] over
//! [`json::parse`] and the original event agree, and on mutated lines the
//! strict decoder accepts nothing the generic path would reject or read
//! differently. Do not "fix" the frozen copy: it is the specification of
//! the wire format.

use super::*;
use proptest::prelude::*;

/// The pre-codec `format!` encoder, frozen.
fn reference_line(e: &SchedEvent) -> String {
    let kind = e.kind();
    match *e {
        SchedEvent::TaskReady { time, task } => {
            format!(r#"{{"type":"{kind}","time":{time},"task":{task}}}"#)
        }
        SchedEvent::TaskStart { time, task, worker, expected_end } => format!(
            r#"{{"type":"{kind}","time":{time},"task":{task},"worker":{worker},"expected_end":{expected_end}}}"#
        ),
        SchedEvent::TaskComplete { time, task, worker } => {
            format!(r#"{{"type":"{kind}","time":{time},"task":{task},"worker":{worker}}}"#)
        }
        SchedEvent::Spoliation { time, task, victim, thief, wasted_work } => format!(
            r#"{{"type":"{kind}","time":{time},"task":{task},"victim":{victim},"thief":{thief},"wasted_work":{wasted_work}}}"#
        ),
        SchedEvent::WorkerIdleBegin { time, worker }
        | SchedEvent::WorkerIdleEnd { time, worker } => {
            format!(r#"{{"type":"{kind}","time":{time},"worker":{worker}}}"#)
        }
        SchedEvent::QueuePop { time, task, worker, end } => {
            let end = match end {
                QueueEnd::Front => "front",
                QueueEnd::Back => "back",
            };
            format!(
                r#"{{"type":"{kind}","time":{time},"task":{task},"worker":{worker},"end":"{end}"}}"#
            )
        }
        SchedEvent::PolicyDecision { time, worker, decision } => {
            let (verdict, target) = match decision {
                Decision::Pick(t) => ("pick", Some(t)),
                Decision::Spoliate(v) => ("spoliate", Some(v)),
                Decision::Idle => ("idle", None),
            };
            match target {
                Some(t) => format!(
                    r#"{{"type":"{kind}","time":{time},"worker":{worker},"decision":"{verdict}","target":{t}}}"#
                ),
                None => format!(
                    r#"{{"type":"{kind}","time":{time},"worker":{worker},"decision":"{verdict}"}}"#
                ),
            }
        }
        SchedEvent::WorkerDown { time, worker, lost_task, permanent } => match lost_task {
            Some(t) => format!(
                r#"{{"type":"{kind}","time":{time},"worker":{worker},"lost_task":{t},"permanent":{permanent}}}"#
            ),
            None => format!(
                r#"{{"type":"{kind}","time":{time},"worker":{worker},"permanent":{permanent}}}"#
            ),
        },
        SchedEvent::WorkerUp { time, worker } => {
            format!(r#"{{"type":"{kind}","time":{time},"worker":{worker}}}"#)
        }
        SchedEvent::TaskFailed { time, task, worker, lost_work, attempt } => format!(
            r#"{{"type":"{kind}","time":{time},"task":{task},"worker":{worker},"lost_work":{lost_work},"attempt":{attempt}}}"#
        ),
        SchedEvent::TaskRetry { time, task, attempt, delay } => format!(
            r#"{{"type":"{kind}","time":{time},"task":{task},"attempt":{attempt},"delay":{delay}}}"#
        ),
    }
}

/// Times and amounts at the edges of `f64`'s `Display`: both zeros, the
/// smallest subnormal, a 301-digit integer, the largest finite value, and a
/// few ordinary fractions.
const EDGE_FLOATS: [f64; 9] = [0.0, -0.0, 5e-324, 1e300, f64::MAX, 1.5, 0.1, 2559.558807, -7.25];
const EDGE_IDS: [u32; 4] = [0, 1, 4_294_967_295, 1_000_000_000];

/// One event of kind `kind % 14` (the two `lost_task` arms and the three
/// decisions count as kinds of their own) from the given field values.
fn event(kind: u8, f: [f64; 3], id: [u32; 4], flag: bool) -> SchedEvent {
    let [time, x, y] = f;
    let [a, b, c, d] = id;
    match kind % 14 {
        0 => SchedEvent::TaskReady { time, task: a },
        1 => SchedEvent::TaskStart { time, task: a, worker: b, expected_end: x },
        2 => SchedEvent::TaskComplete { time, task: a, worker: b },
        3 => SchedEvent::Spoliation { time, task: a, victim: b, thief: c, wasted_work: y },
        4 => SchedEvent::WorkerIdleBegin { time, worker: a },
        5 => SchedEvent::WorkerIdleEnd { time, worker: b },
        6 => SchedEvent::QueuePop {
            time,
            task: a,
            worker: b,
            end: if flag { QueueEnd::Front } else { QueueEnd::Back },
        },
        7 => SchedEvent::PolicyDecision { time, worker: a, decision: Decision::Pick(d) },
        8 => SchedEvent::PolicyDecision { time, worker: a, decision: Decision::Spoliate(c) },
        9 => SchedEvent::PolicyDecision { time, worker: b, decision: Decision::Idle },
        10 => SchedEvent::WorkerDown { time, worker: a, lost_task: Some(d), permanent: flag },
        11 => SchedEvent::WorkerDown { time, worker: c, lost_task: None, permanent: !flag },
        12 => SchedEvent::WorkerUp { time, worker: d },
        _ => {
            if flag {
                SchedEvent::TaskFailed { time, task: a, worker: b, lost_work: x, attempt: c }
            } else {
                SchedEvent::TaskRetry { time, task: a, attempt: d, delay: y }
            }
        }
    }
}

/// Every variant and arm over every combination of edge values.
fn edge_events() -> Vec<SchedEvent> {
    let mut events = Vec::new();
    for kind in 0..14 {
        for (i, &time) in EDGE_FLOATS.iter().enumerate() {
            for (j, &id) in EDGE_IDS.iter().enumerate() {
                let x = EDGE_FLOATS[(i + j + 1) % EDGE_FLOATS.len()];
                let y = EDGE_FLOATS[(i + 2 * j + 3) % EDGE_FLOATS.len()];
                let other = EDGE_IDS[(j + 1) % EDGE_IDS.len()];
                for flag in [false, true] {
                    events.push(event(kind, [time, x, y], [id, other, id, other], flag));
                }
            }
        }
    }
    events
}

/// A finite float from random bits: an edge value one time in four.
fn float(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if bits & 3 == 0 || !x.is_finite() {
        EDGE_FLOATS[(bits >> 2) as usize % EDGE_FLOATS.len()]
    } else {
        x
    }
}

/// An id from random bits: `u32::MAX` or a small id now and then.
fn id(bits: u32) -> u32 {
    match bits % 8 {
        0 => u32::MAX,
        1 => bits >> 24,
        _ => bits,
    }
}

/// The generic path: the `Value` tree, then the field lookups.
fn generic(line: &str) -> Result<SchedEvent, String> {
    parse_event(&json::parse(line)?)
}

/// `Debug` keeps the sign of zero, so equal strings mean equal bits.
fn bits(e: &SchedEvent) -> String {
    format!("{e:?}")
}

/// The strict decoder accepts nothing the generic path rejects or reads
/// differently.
fn assert_strict_implies_generic(line: &[u8]) {
    if let Ok(strict) = decode_event_line(line) {
        let text = std::str::from_utf8(line).expect("the strict decoder accepts ASCII only");
        let loose = generic(text).unwrap_or_else(|e| panic!("{text}: strict ok, generic {e}"));
        assert_eq!(bits(&strict), bits(&loose), "{text}");
    }
}

/// Swap the `index`-th and the following member of a canonical line.
fn swap_members(line: &str, index: usize) -> String {
    let body = &line[1..line.len() - 1];
    let mut members: Vec<&str> = body.split(',').collect();
    let i = index % (members.len() - 1);
    members.swap(i, i + 1);
    format!("{{{}}}", members.join(","))
}

/// Mutants of a canonical line, one per kind of damage, positioned by `at`
/// and shaped by `byte`.
fn mutants(line: &str, at: usize, byte: u8) -> Vec<Vec<u8>> {
    let b = line.as_bytes();
    let at = at % b.len();
    let mut out = Vec::new();
    let mut flipped = b.to_vec();
    flipped[at] ^= 1 << (byte % 8);
    out.push(flipped);
    let mut replaced = b.to_vec();
    replaced[at] = byte;
    out.push(replaced);
    out.push(b[..at].to_vec());
    for ws in [" ", "\t", "\n", "\r"] {
        out.push(format!("{}{ws}{}", &line[..at], &line[at..]).into_bytes());
    }
    out.push(format!("{line} ").into_bytes());
    out.push(swap_members(line, at).into_bytes());
    out.extend(
        with_leading_zeros(line, 1 + (byte % 3) as usize).into_iter().map(String::into_bytes),
    );
    out
}

/// The line with `zeros` leading zeros on one number, for every number.
/// Both decoders read `007` as `7`, so each of these must still decode.
fn with_leading_zeros(line: &str, zeros: usize) -> Vec<String> {
    let b = line.as_bytes();
    (1..b.len())
        .filter(|&i| b[i - 1] == b':' && (b[i] == b'-' || b[i].is_ascii_digit()))
        .map(|i| {
            let i = if b[i] == b'-' { i + 1 } else { i };
            format!("{}{}{}", &line[..i], "0".repeat(zeros), &line[i..])
        })
        .collect()
}

#[test]
fn encoder_is_byte_identical_to_the_format_reference() {
    let events = edge_events();
    assert_eq!(events.len(), 14 * 9 * 4 * 2);
    let mut buf = String::new();
    for e in &events {
        buf.clear();
        write_event_line(&mut buf, e);
        assert_eq!(buf, reference_line(e), "{e:?}");
        assert_eq!(event_line(e), buf);
    }
    let expected: String = events.iter().map(|e| reference_line(e) + "\n").collect();
    assert_eq!(jsonl(&events), expected);
}

#[test]
fn edge_events_round_trip_through_both_decoders() {
    for e in edge_events() {
        let line = event_line(&e);
        let strict = parse_event_line(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
        assert_eq!(bits(&strict), bits(&e), "{line}");
        assert_eq!(bits(&generic(&line).expect("generic path")), bits(&e), "{line}");
    }
}

#[test]
fn strict_decoder_rejects_what_only_the_generic_path_accepts() {
    let canonical = r#"{"type":"task_start","time":1.5,"task":7,"worker":2,"expected_end":4}"#;
    let e = SchedEvent::TaskStart { time: 1.5, task: 7, worker: 2, expected_end: 4.0 };
    assert_eq!(parse_event_line(canonical), Ok(e));
    let lenient = [
        (r#"{"type":"task_start", "time":1.5,"task":7,"worker":2,"expected_end":4}"#, 19),
        (r#"{"type":"task_start","time": 1.5,"task":7,"worker":2,"expected_end":4}"#, 28),
        (r#"{"type":"task_start","time":1.5 ,"task":7,"worker":2,"expected_end":4}"#, 31),
        (r#"{"type":"task_start","task":7,"time":1.5,"worker":2,"expected_end":4}"#, 19),
        (r#"{"type":"task_start","time":1.5,"task":7,"worker":2,"expected_end":4,"x":1}"#, 68),
        (r#"{"type":"task_start","time":1.5,"task":7,"worker":2,"expected_end":4} "#, 69),
        (r#"{"type":"task\u005fstart","time":1.5,"task":7,"worker":2,"expected_end":4}"#, 9),
    ];
    for (line, at) in lenient {
        assert_eq!(generic(line), Ok(e), "{line}");
        let err = parse_event_line(line).expect_err(line);
        assert!(err.contains(&format!("payload byte {at}")), "{line}: {err}");
    }
    // Number tokens are read as the generic path reads them.
    let zeros = r#"{"type":"task_start","time":01.50,"task":007,"worker":2.0,"expected_end":4e0}"#;
    assert_eq!(parse_event_line(zeros), Ok(e));
    assert_eq!(generic(zeros), Ok(e));
    let err = parse_event_line(r#"{"type":"task_ready","time":0,"task":1.5}"#).unwrap_err();
    assert!(err.contains("\"task\" is not a valid id"), "{err}");
    let err = parse_event_line(r#"{"type":"task_ready","time":.5,"task":1}"#).unwrap_err();
    assert!(err.contains("expected a number at payload byte 28"), "{err}");
    let err = parse_event_line(r#"{"type":"nope","time":0,"task":1}"#).unwrap_err();
    assert!(err.contains("\"nope\""), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_events_decode_identically_on_both_paths(
        kind in 0u8..14,
        floats in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        ids in (0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX),
        flag in 0u8..2,
    ) {
        let e = event(
            kind,
            [float(floats.0), float(floats.1), float(floats.2)],
            [id(ids.0), id(ids.1), id(ids.2), id(ids.3)],
            flag == 1,
        );
        let line = event_line(&e);
        prop_assert_eq!(&line, &reference_line(&e));
        let strict = parse_event_line(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
        prop_assert_eq!(bits(&strict), bits(&e));
        prop_assert_eq!(bits(&generic(&line).expect("generic path")), bits(&e));
    }

    #[test]
    fn strict_acceptance_implies_generic_agreement(
        kind in 0u8..14,
        floats in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        ids in (0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX),
        damage in (0usize..4096, 0u8..=255),
    ) {
        let e = event(
            kind,
            [float(floats.0), float(floats.1), float(floats.2)],
            [id(ids.0), id(ids.1), id(ids.2), id(ids.3)],
            damage.1 % 2 == 0,
        );
        let line = event_line(&e);
        for mutant in mutants(&line, damage.0, damage.1) {
            assert_strict_implies_generic(&mutant);
        }
        for zeroed in with_leading_zeros(&line, 1 + usize::from(damage.1 % 3)) {
            let strict = parse_event_line(&zeroed).unwrap_or_else(|err| panic!("{zeroed}: {err}"));
            prop_assert_eq!(bits(&strict), bits(&e));
        }
    }
}

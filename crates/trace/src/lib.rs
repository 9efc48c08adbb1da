//! Structured tracing for the HeteroPrio schedulers and simulator.
//!
//! The paper's experimental argument (Figs. 6–9) rests on *transient*
//! behaviour — where idle time accrues, how much work spoliation throws
//! away, how deep the ready queue runs — which a finished `Schedule`
//! cannot reconstruct. This crate is the observability substrate: the
//! schedulers emit a typed stream of [`SchedEvent`]s into a [`TraceSink`],
//! and everything else (per-worker accounting, Chrome-trace and JSONL
//! exports, sparkline timelines) is derived from that stream.
//!
//! Design constraints:
//!
//! * **Dependency-free and id-based.** `heteroprio-core` depends on this
//!   crate, not the other way round, so events carry raw `u32` task/worker
//!   ids and `f64` times instead of core's newtypes.
//! * **Zero cost when disabled.** [`NullSink::emit`] is an empty inlined
//!   body; the instrumented hot loops are generic over the sink so the
//!   compiler erases the tracing entirely (the `scheduler_cost` bench
//!   guards this).
//!
//! The event stream doubles as the durability substrate: the [`journal`]
//! module persists it as CRC-framed records ([`FileJournal`]) so a crashed
//! run can be recovered and resumed deterministically (see
//! `heteroprio_core::kernel::resume`).
//!
//! `Schedule` above refers to `heteroprio_core::Schedule`.

#![forbid(unsafe_code)]

mod chrome;
mod event;
pub mod journal;
pub mod json;
mod jsonl;
mod sink;
mod summary;

pub use chrome::{chrome_trace, ChromeTraceOptions};
pub use event::{sort_causal, Decision, QueueEnd, SchedEvent};
pub use journal::{
    DamageKind, FileJournal, Journal, JournalDamage, JournalError, JournalSink, MemJournal,
    SyncPolicy,
};
pub use jsonl::{event_line, jsonl, parse_event_line, parse_jsonl, write_event_line, JsonlError};
pub use sink::{NullSink, TeeSink, TraceSink, VecSink};
pub use summary::{TraceSummary, WorkerStats};

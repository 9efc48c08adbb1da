//! Write-ahead journaling of [`SchedEvent`] streams.
//!
//! The kernel's event stream is a complete, deterministic record of a run:
//! replaying it (or re-executing the run and checking against it) recovers
//! every scheduling decision. This module makes that stream durable:
//!
//! * [`Journal`] — the persistence trait (append, sync, replay);
//! * [`MemJournal`] — in-memory implementation for tests and embedding;
//! * [`FileJournal`] — file-backed implementation framing each event as a
//!   `[len: u32 LE][crc32: u32 LE][payload]` record, where the payload is
//!   the event's canonical JSONL line ([`crate::jsonl::event_line`]),
//!   encoded into a reused buffer, and the CRC-32 is computed eight bytes
//!   per step ([`crc32`], slicing-by-8);
//! * [`JournalSink`] — a [`TraceSink`] adapter appending every emitted
//!   event, so any instrumented engine journals without modification.
//!
//! A journal hit by a torn write, truncation or bit corruption never takes
//! the run's history down with it: [`FileJournal::open`] scans the file,
//! keeps the longest valid prefix of records, truncates the damage away and
//! reports it precisely as a typed [`JournalDamage`] instead of failing.
//!
//! Payloads are decoded strictly, as canonical lines
//! ([`crate::jsonl::parse_event_line`]): only [`FileJournal`] writes them,
//! so a payload that passes its CRC but differs from the canonical byte
//! shape — whitespace, reordered or extra keys, escapes — is
//! [`DamageKind::BadPayload`], with a detail naming the payload byte and the
//! token expected there.
//!
//! All durable writes in the workspace must go through this module — the
//! audit lint (`raw-journal-io`) flags raw `std::fs` writes aimed at
//! journal paths elsewhere, so the CRC framing and fsync discipline cannot
//! be bypassed.

use crate::jsonl::{decode_event_line, write_event_line};
use crate::{SchedEvent, TraceSink};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies a HeteroPrio journal, version 1.
pub const MAGIC: &[u8; 6] = b"HPJL1\n";

/// Upper bound on a single record's payload. Real event lines are ~100
/// bytes; anything claiming more is a corrupt length field, not a record.
const MAX_PAYLOAD: u32 = 1 << 20;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
/// zero bytes, so eight input bytes fold into the register per step.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected) of `bytes`, eight bytes per step
/// (slicing-by-8). Journal records and checkpoint files share it.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let byte = |x: u32, shift: u32| ((x >> shift) & 0xFF) as usize;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t7[byte(lo, 0)]
            ^ t6[byte(lo, 8)]
            ^ t5[byte(lo, 16)]
            ^ t4[byte(lo, 24)]
            ^ t3[byte(hi, 0)]
            ^ t2[byte(hi, 8)]
            ^ t1[byte(hi, 16)]
            ^ t0[byte(hi, 24)];
    }
    for &b in words.remainder() {
        c = t0[byte(c ^ b as u32, 0)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// An unrecoverable journal failure (I/O error, unreadable header).
/// Recoverable damage inside the record stream is reported as
/// [`JournalDamage`] instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The underlying storage failed.
    Io { op: &'static str, detail: String },
    /// The file exists but is not a journal (bad or missing magic).
    BadHeader { detail: String },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { op, detail } => write!(f, "journal {op} failed: {detail}"),
            JournalError::BadHeader { detail } => write!(f, "not a journal: {detail}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<JournalError> for String {
    fn from(e: JournalError) -> String {
        e.to_string()
    }
}

fn io_err(op: &'static str) -> impl FnOnce(std::io::Error) -> JournalError {
    move |e| JournalError::Io { op, detail: e.to_string() }
}

/// What kind of damage cut the record stream short.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DamageKind {
    /// The file ends mid-record: a torn write or truncation.
    TornWrite,
    /// A length field claims an implausible record size (corrupt framing).
    BadLength,
    /// A record's payload does not match its CRC-32 (bit corruption).
    BadChecksum,
    /// The CRC matched but the payload is not a canonical event line.
    BadPayload,
}

/// Precise report of journal damage found during recovery. Everything
/// before [`valid_records`](JournalDamage::valid_records) is intact and was
/// kept; everything from [`offset`](JournalDamage::offset) on was
/// unrecoverable.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalDamage {
    pub kind: DamageKind,
    /// Records successfully decoded before the damage (all preserved).
    pub valid_records: usize,
    /// Byte offset of the first damaged record.
    pub offset: u64,
    /// Bytes from `offset` to the end of the file, dropped by recovery.
    pub lost_bytes: u64,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for JournalDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} at byte {}: {} ({} valid records kept, {} bytes dropped)",
            self.kind, self.offset, self.detail, self.valid_records, self.lost_bytes
        )
    }
}

/// How often a [`FileJournal`] commits appended records to stable storage.
///
/// Appends are group-committed: records accumulate in an in-process
/// buffer and reach the file in one write (plus one fsync) per cadence
/// window — the textbook trade of bounded loss for throughput. The
/// cadence bounds what a killed process or failed machine can lose;
/// an orderly shutdown loses nothing ([`Journal::sync`] and `Drop` both
/// flush the buffer, and `Drop` of an unsynced journal also writes it
/// out). Recovery tolerates any prefix, so a lost window never corrupts
/// what was committed before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never fsync explicitly; rely on the OS writeback.
    Never,
    /// fsync after every record. Maximum durability, maximum latency.
    EveryRecord,
    /// fsync once every `n` records (and on [`Journal::sync`]).
    EveryN(u64),
}

impl SyncPolicy {
    /// The default cadence: every 4096 records (roughly 300 KiB).
    ///
    /// The window can afford to be wide because the journaled run is
    /// deterministic and recomputable: an OS or power crash inside the
    /// window costs re-executing at most 4096 events from the last
    /// committed prefix — microseconds of kernel time — not data. A
    /// process crash loses even less (the OS still writes back whatever
    /// was flushed to the page cache). A tight cadence would buy
    /// thousands of fsyncs per second at kernel event rates and protect
    /// nothing that replay does not already recover.
    pub const DEFAULT: SyncPolicy = SyncPolicy::EveryN(4096);
}

impl Default for SyncPolicy {
    fn default() -> Self {
        SyncPolicy::DEFAULT
    }
}

/// Append-only persistence for an event stream.
///
/// `append` returns the number of bytes the record occupied, so callers
/// can meter write volume without knowing the framing.
pub trait Journal {
    /// Durably order `event` after everything appended so far.
    fn append(&mut self, event: &SchedEvent) -> Result<usize, JournalError>;

    /// Force everything appended so far to stable storage.
    fn sync(&mut self) -> Result<(), JournalError>;

    /// Number of records in the journal (recovered + appended).
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read back every record currently in the journal, in append order.
    fn replay(&mut self) -> Result<Vec<SchedEvent>, JournalError>;

    /// Stable-storage syncs performed so far, explicit *and*
    /// cadence-triggered — so metering layers wrapping a journal can
    /// observe group commits they did not initiate themselves.
    fn syncs(&self) -> u64 {
        0
    }
}

/// In-memory journal: the persistence trait without the persistence. Used
/// by tests and by crash-injection harnesses that only need the journal's
/// *contents*, not a file.
#[derive(Clone, Debug, Default)]
pub struct MemJournal {
    events: Vec<SchedEvent>,
    synced: usize,
    sync_calls: u64,
    /// Reused encode buffer: an append measures its record without
    /// allocating.
    scratch: String,
}

impl MemJournal {
    pub fn new() -> Self {
        MemJournal::default()
    }

    /// The journaled events, in order.
    pub fn events(&self) -> &[SchedEvent] {
        &self.events
    }

    /// Records covered by the last [`Journal::sync`] (for harnesses
    /// asserting fsync discipline).
    pub fn synced(&self) -> usize {
        self.synced
    }
}

impl Journal for MemJournal {
    fn append(&mut self, event: &SchedEvent) -> Result<usize, JournalError> {
        self.events.push(*event);
        self.scratch.clear();
        write_event_line(&mut self.scratch, event);
        Ok(8 + self.scratch.len())
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        self.synced = self.events.len();
        self.sync_calls += 1;
        Ok(())
    }

    fn len(&self) -> usize {
        self.events.len()
    }

    fn replay(&mut self) -> Result<Vec<SchedEvent>, JournalError> {
        Ok(self.events.clone())
    }

    fn syncs(&self) -> u64 {
        self.sync_calls
    }
}

/// Decode the record stream of a journal file body (after the magic).
/// Returns the events of the longest valid prefix, the byte offset where
/// that prefix ends, and the damage that stopped the scan, if any.
fn decode_records(body: &[u8], body_start: u64) -> (Vec<SchedEvent>, u64, Option<JournalDamage>) {
    let mut events = Vec::new();
    let mut pos = 0usize;
    let damage = loop {
        if pos == body.len() {
            break None;
        }
        let at = body_start + pos as u64;
        let fail = |kind, detail: String| JournalDamage {
            kind,
            valid_records: events.len(),
            offset: at,
            lost_bytes: (body.len() - pos) as u64,
            detail,
        };
        if body.len() - pos < 8 {
            break Some(fail(
                DamageKind::TornWrite,
                format!("{} trailing bytes, record header needs 8", body.len() - pos),
            ));
        }
        let len = u32::from_le_bytes(body[pos..pos + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(body[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            break Some(fail(
                DamageKind::BadLength,
                format!("record claims {len} payload bytes (max {MAX_PAYLOAD})"),
            ));
        }
        let len = len as usize;
        if body.len() - pos - 8 < len {
            break Some(fail(
                DamageKind::TornWrite,
                format!("record needs {len} payload bytes, {} remain", body.len() - pos - 8),
            ));
        }
        let payload = &body[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break Some(fail(DamageKind::BadChecksum, "payload CRC-32 mismatch".to_string()));
        }
        match decode_event_line(payload) {
            Ok(e) => events.push(e),
            Err(e) => break Some(fail(DamageKind::BadPayload, e)),
        }
        pos += 8 + len;
    };
    (events, body_start + pos as u64, damage)
}

/// Frames not yet handed to the OS are flushed once they exceed this, so
/// the group-commit buffer stays bounded even under [`SyncPolicy::Never`].
const FLUSH_THRESHOLD: usize = 64 * 1024;

/// File-backed journal with group commit: appends frame into an in-process
/// buffer; one write (and, per [`SyncPolicy`], one fsync) commits a whole
/// cadence window. See the module docs for the record framing.
#[derive(Debug)]
pub struct FileJournal {
    file: std::fs::File,
    path: PathBuf,
    records: usize,
    since_sync: u64,
    policy: SyncPolicy,
    /// Framed records not yet written to `file`.
    buf: Vec<u8>,
    sync_count: u64,
    /// Reused encode buffer for the record being framed.
    scratch: String,
}

impl FileJournal {
    /// Create (or truncate) a journal at `path`, writing the magic header.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::File::create(&path).map_err(io_err("create"))?;
        file.write_all(MAGIC).map_err(io_err("write header"))?;
        Ok(FileJournal {
            file,
            path,
            records: 0,
            since_sync: 0,
            policy: SyncPolicy::DEFAULT,
            buf: Vec::new(),
            sync_count: 0,
            scratch: String::new(),
        })
    }

    /// Set the fsync cadence (builder style).
    pub fn with_sync(mut self, policy: SyncPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Open an existing journal for appending, recovering its contents.
    ///
    /// Scans every record, keeps the longest valid prefix, **truncates the
    /// file** to that prefix if anything after it is damaged, and returns
    /// the recovered events plus the damage report (if any). The returned
    /// journal appends after the last valid record.
    pub fn open<P: AsRef<Path>>(
        path: P,
    ) -> Result<(Self, Vec<SchedEvent>, Option<JournalDamage>), JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file =
            std::fs::File::options().read(true).write(true).open(&path).map_err(io_err("open"))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err("read"))?;
        let (events, valid_end, damage) = Self::decode(&bytes)?;
        if damage.is_some() {
            file.set_len(valid_end).map_err(io_err("truncate damage"))?;
            file.sync_all().map_err(io_err("sync truncation"))?;
        }
        file.seek(SeekFrom::Start(valid_end)).map_err(io_err("seek"))?;
        let records = events.len();
        Ok((
            FileJournal {
                file,
                path,
                records,
                since_sync: 0,
                policy: SyncPolicy::DEFAULT,
                buf: Vec::new(),
                sync_count: 0,
                scratch: String::new(),
            },
            events,
            damage,
        ))
    }

    /// Read-only recovery: decode `path` without modifying the file.
    pub fn recover<P: AsRef<Path>>(
        path: P,
    ) -> Result<(Vec<SchedEvent>, Option<JournalDamage>), JournalError> {
        let bytes = std::fs::read(path).map_err(io_err("read"))?;
        let (events, _, damage) = Self::decode(&bytes)?;
        Ok((events, damage))
    }

    fn decode(bytes: &[u8]) -> Result<(Vec<SchedEvent>, u64, Option<JournalDamage>), JournalError> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(JournalError::BadHeader {
                detail: format!(
                    "expected {:?} magic, found {:?}",
                    MAGIC,
                    &bytes[..bytes.len().min(MAGIC.len())]
                ),
            });
        }
        let (events, valid_end, damage) = decode_records(&bytes[MAGIC.len()..], MAGIC.len() as u64);
        Ok((events, valid_end, damage))
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Hand buffered frames to the OS (one write, no fsync).
    fn flush_buf(&mut self) -> Result<(), JournalError> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf).map_err(io_err("append"))?;
            self.buf.clear();
        }
        Ok(())
    }
}

impl Drop for FileJournal {
    /// Best-effort: an orderly shutdown (including panics that unwind)
    /// writes out the buffered tail, so only a killed process or failed
    /// machine can lose the unsynced window.
    fn drop(&mut self) {
        let _ = self.flush_buf();
    }
}

impl Journal for FileJournal {
    fn append(&mut self, event: &SchedEvent) -> Result<usize, JournalError> {
        self.scratch.clear();
        write_event_line(&mut self.scratch, event);
        let payload = self.scratch.as_bytes();
        self.buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(payload);
        let framed = 8 + payload.len();
        self.records += 1;
        self.since_sync += 1;
        let due = match self.policy {
            SyncPolicy::Never => false,
            SyncPolicy::EveryRecord => true,
            SyncPolicy::EveryN(n) => self.since_sync >= n.max(1),
        };
        if due {
            self.sync()?;
        } else if self.buf.len() >= FLUSH_THRESHOLD {
            self.flush_buf()?;
        }
        Ok(framed)
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        self.flush_buf()?;
        if self.since_sync > 0 {
            self.file.sync_data().map_err(io_err("sync"))?;
            self.since_sync = 0;
            self.sync_count = self.sync_count.checked_add(1).expect("u64 sync tally");
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.records
    }

    fn replay(&mut self) -> Result<Vec<SchedEvent>, JournalError> {
        self.flush_buf()?;
        let (events, _damage) = Self::recover(&self.path)?;
        Ok(events)
    }

    fn syncs(&self) -> u64 {
        self.sync_count
    }
}

/// Adapts a [`Journal`] into a [`TraceSink`], so any engine that emits a
/// trace journals for free (typically behind a
/// [`TeeSink`](crate::TeeSink)).
///
/// [`TraceSink::emit`] cannot fail, so the first append error is latched
/// and appending stops; callers check [`JournalSink::error`] after the run.
/// On resume, [`JournalSink::resuming`] skips the first `skip` events — the
/// prefix already present in the journal — and appends only the
/// continuation.
pub struct JournalSink<'j, J: Journal> {
    journal: &'j mut J,
    skip: usize,
    seen: usize,
    error: Option<JournalError>,
}

impl<'j, J: Journal> JournalSink<'j, J> {
    pub fn new(journal: &'j mut J) -> Self {
        JournalSink { journal, skip: 0, seen: 0, error: None }
    }

    /// A sink for resumed runs: the first `skip` emitted events are already
    /// in the journal (verified replay of the recovered prefix) and must
    /// not be appended again.
    pub fn resuming(journal: &'j mut J, skip: usize) -> Self {
        JournalSink { journal, skip, seen: 0, error: None }
    }

    /// The first append failure, if any. A run whose sink reports an error
    /// completed in memory but is not durably recorded past that point.
    pub fn error(&self) -> Option<&JournalError> {
        self.error.as_ref()
    }

    /// Events offered to the sink (including skipped prefix events).
    pub fn seen(&self) -> usize {
        self.seen
    }
}

impl<J: Journal> TraceSink for JournalSink<'_, J> {
    fn emit(&mut self, event: SchedEvent) {
        self.seen = self.seen.checked_add(1).expect("event tally fits in usize");
        if self.seen <= self.skip || self.error.is_some() {
            return;
        }
        if let Err(e) = self.journal.append(&event) {
            self.error = Some(e);
        }
    }

    fn is_enabled(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<SchedEvent> {
        vec![
            SchedEvent::TaskReady { time: 0.0, task: 0 },
            SchedEvent::TaskStart { time: 0.0, task: 0, worker: 1, expected_end: 2.5 },
            SchedEvent::WorkerIdleBegin { time: 0.0, worker: 0 },
            SchedEvent::TaskComplete { time: 2.5, task: 0, worker: 1 },
            SchedEvent::WorkerIdleBegin { time: 2.5, worker: 1 },
        ]
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hpj_test_{}_{name}.hpj", std::process::id()))
    }

    /// The bytewise CRC that slicing-by-8 replaced: the reference it is
    /// held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_by_8_matches_bytewise_at_every_length_up_to_64() {
        let data: Vec<u8> = (0..72u32).map(|i| (i.wrapping_mul(167) ^ 0xA5) as u8).collect();
        for len in 0..=64 {
            // Every alignment of the eight-byte steps against the buffer.
            for start in 0..8 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "len {len}, start {start}");
            }
        }
        assert_eq!(crc32(&[0xFF; 64]), crc32_bytewise(&[0xFF; 64]));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn slicing_by_8_matches_bytewise_on_random_buffers(
            bytes in proptest::prop::collection::vec(0u8..=255, 0..1500),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }

    #[test]
    fn mem_journal_round_trips() {
        let mut j = MemJournal::new();
        for e in sample_events() {
            assert!(j.append(&e).unwrap() > 8);
        }
        assert_eq!(j.len(), 5);
        assert_eq!(j.synced(), 0);
        j.sync().unwrap();
        assert_eq!(j.synced(), 5);
        assert_eq!(j.replay().unwrap(), sample_events());
    }

    #[test]
    fn file_journal_round_trips_through_reopen() {
        let path = tmp("roundtrip");
        let events = sample_events();
        {
            let mut j = FileJournal::create(&path).unwrap().with_sync(SyncPolicy::EveryRecord);
            for e in &events {
                j.append(e).unwrap();
            }
            assert_eq!(j.replay().unwrap(), events);
        }
        let (mut j, recovered, damage) = FileJournal::open(&path).unwrap();
        assert_eq!(recovered, events);
        assert!(damage.is_none());
        // Appending after reopen extends the same stream.
        j.append(&events[0]).unwrap();
        j.sync().unwrap();
        let (replayed, damage) = FileJournal::recover(&path).unwrap();
        assert_eq!(replayed.len(), events.len() + 1);
        assert!(damage.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_reported_and_healed() {
        let path = tmp("torn");
        let events = sample_events();
        {
            let mut j = FileJournal::create(&path).unwrap();
            for e in &events {
                j.append(e).unwrap();
            }
            j.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Chop mid-way through the final record: a torn write.
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let (j, recovered, damage) = FileJournal::open(&path).unwrap();
        drop(j);
        assert_eq!(recovered, events[..events.len() - 1].to_vec());
        let damage = damage.expect("torn write must be reported");
        assert_eq!(damage.kind, DamageKind::TornWrite);
        assert_eq!(damage.valid_records, events.len() - 1);
        // open() healed the file: a second open is clean.
        let (_, again, damage) = FileJournal::open(&path).unwrap();
        assert_eq!(again, recovered);
        assert!(damage.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_is_caught_by_crc() {
        let path = tmp("flip");
        let events = sample_events();
        {
            let mut j = FileJournal::create(&path).unwrap();
            for e in &events {
                j.append(e).unwrap();
            }
            j.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload bit in the second record's body.
        let target = bytes.len() / 2;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let (recovered, damage) = FileJournal::recover(&path).unwrap();
        let damage = damage.expect("bit flip must be reported");
        assert!(
            matches!(
                damage.kind,
                DamageKind::BadChecksum
                    | DamageKind::BadLength
                    | DamageKind::TornWrite
                    | DamageKind::BadPayload
            ),
            "{damage:?}"
        );
        // The valid prefix is intact.
        assert_eq!(recovered, events[..recovered.len()].to_vec());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_canonical_payload_is_bad_payload_naming_the_byte() {
        let path = tmp("loose");
        let good = crate::jsonl::event_line(&sample_events()[0]);
        // Valid JSON with a correct CRC, but not the canonical byte shape.
        let loose = r#"{"type":"task_ready", "time":0,"task":1}"#;
        let mut bytes = MAGIC.to_vec();
        for payload in [good.as_str(), loose] {
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
            bytes.extend_from_slice(payload.as_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let (recovered, damage) = FileJournal::recover(&path).unwrap();
        assert_eq!(recovered, sample_events()[..1].to_vec());
        let damage = damage.expect("a non-canonical payload is damage");
        assert_eq!(damage.kind, DamageKind::BadPayload);
        assert_eq!(damage.offset, (MAGIC.len() + 8 + good.len()) as u64);
        assert!(
            damage.detail.contains(r#"expected "\",\"time\":" at payload byte 19"#),
            "{damage}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_journal_file_is_a_header_error() {
        let path = tmp("hdr");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert!(matches!(FileJournal::open(&path), Err(JournalError::BadHeader { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_sink_skips_the_resumed_prefix() {
        let events = sample_events();
        let mut j = MemJournal::new();
        for e in &events[..2] {
            j.append(e).unwrap();
        }
        {
            let mut sink = JournalSink::resuming(&mut j, 2);
            for e in &events {
                sink.emit(*e);
            }
            assert!(sink.error().is_none());
            assert_eq!(sink.seen(), events.len());
        }
        assert_eq!(j.events(), &events[..]);
    }
}

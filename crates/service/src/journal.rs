//! Crash-safe durability for the service: a write-ahead churn journal
//! plus periodic checksummed snapshots (DESIGN.md §18).
//!
//! Every state *mutation* the service performs — job install, churn
//! application, supervisor polish — is appended to an on-disk journal
//! **before** the in-memory state is touched, while the state write
//! lock is held, so the journal's frame order is exactly the execution
//! order. Map requests (the read-locked hot path) never touch the
//! journal: durability costs land only on the churn/commit path.
//!
//! Both files are written with the `codec` module's `Wire` encoding: a
//! 12-byte file header `(magic, version)`, then frames whose head is
//! `(payload len: u32, crc32: u32, seq: u64)` followed by the
//! `JournalRecord` payload. The CRC (IEEE 802.3, table-driven,
//! implemented in-tree) covers the sequence number and payload.
//! Sequence numbers are monotonic from 1 and never reused, which is
//! what lets recovery skip frames a snapshot already covers and detect
//! any non-append corruption as a torn tail.
//!
//! Crash injection: [`CrashSwitch`] is the `ServiceClock`-style seam
//! for the chaos harness. Armed with a [`CrashPoint`] and an
//! occurrence count, it fires deterministically inside the write path
//! — before / mid / after a frame, and around every snapshot fsync and
//! rename — after which the sink permanently refuses writes
//! ([`JournalError::Crashed`]), simulating a killed process whose
//! surviving bytes are exactly the prefix flushed so far.

use std::borrow::Cow;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use umpa_core::ChurnEvent;
use umpa_graph::TaskGraph;

use crate::codec::Wire;
use crate::config::DurabilityConfig;

/// Journal file magic (8 bytes) followed by a `u32` format version.
pub(crate) const JOURNAL_MAGIC: &[u8; 8] = b"UMPAJNL\0";
/// Snapshot file magic (8 bytes) followed by a `u32` format version.
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"UMPASNP\0";
/// Current on-disk format version (journal and snapshot move together).
/// Version 2 dropped version 1's retry record and the snapshot's
/// pending-repair field; a version-1 file is refused, not misread.
pub(crate) const FORMAT_VERSION: u32 = 2;
/// Bytes of the journal's `(magic, version)` header.
pub(crate) const HEADER_LEN: u64 = 12;
/// Frames whose declared payload exceeds this are torn/corrupt by fiat
/// (no legitimate record comes close; a flipped length byte must not
/// make the scanner try to allocate gigabytes).
const MAX_FRAME_PAYLOAD: u32 = 1 << 28;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven, in-tree.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// IEEE 802.3 CRC32 of `bytes` (the checksum protecting every journal
/// frame and snapshot payload).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// A frame's checksum: the CRC32 of its sequence number and payload.
fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &seq.to_le_bytes()), payload)
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A durability write-path failure. The service *counts* these
/// (`journal_errors` in the stats) and keeps serving from memory —
/// availability over durability — so a full disk degrades persistence,
/// never placement.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O operation on a journal or snapshot file failed.
    Io {
        /// Which operation failed (static description).
        context: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The injected [`CrashSwitch`] fired: the sink wrote its
    /// deterministic partial prefix and now refuses all writes,
    /// simulating the killed process of the chaos harness.
    Crashed,
    /// The file exists but does not start with this crate's
    /// magic/version — refusing to touch a file we did not write.
    ForeignFile {
        /// Which file was rejected (static description).
        context: &'static str,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { context, source } => write!(f, "journal io ({context}): {source}"),
            JournalError::Crashed => write!(f, "journal sink crashed (injected)"),
            JournalError::ForeignFile { context } => {
                write!(f, "not a journal/snapshot file ({context})")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> JournalError {
    move |source| JournalError::Io { context, source }
}

// ---------------------------------------------------------------------------
// Crash injection seam
// ---------------------------------------------------------------------------

/// A point in the durability write path where the chaos harness can
/// kill the process-under-simulation. The frame points fire once per
/// journal append; the snapshot points once per snapshot attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before any byte of a frame is written: the op is lost entirely.
    BeforeFrame,
    /// Mid-frame: a deterministic partial prefix (half the frame) is
    /// flushed, leaving a torn tail recovery must truncate.
    MidFrame,
    /// After the frame is fully written and flushed, before the append
    /// is acknowledged: the op survives on disk.
    AfterFrame,
    /// Before the snapshot temp file is created.
    BeforeSnapshot,
    /// Mid snapshot write: a partial temp file exists (never renamed
    /// into place, so it can never be mistaken for a snapshot).
    MidSnapshot,
    /// Temp file fully written and fsynced, before any rename.
    AfterSnapshotSync,
    /// Between rotating `snapshot.bin → snapshot.old.bin` and renaming
    /// the temp file into place: only the rotated fallback exists.
    BetweenRenames,
    /// After the new snapshot is atomically in place.
    AfterSnapshot,
}

impl CrashPoint {
    /// Every injection point, in write-path order — the sweep domain
    /// of `tests/recovery.rs`.
    pub const ALL: [CrashPoint; 8] = [
        CrashPoint::BeforeFrame,
        CrashPoint::MidFrame,
        CrashPoint::AfterFrame,
        CrashPoint::BeforeSnapshot,
        CrashPoint::MidSnapshot,
        CrashPoint::AfterSnapshotSync,
        CrashPoint::BetweenRenames,
        CrashPoint::AfterSnapshot,
    ];
}

#[derive(Debug, Default)]
struct CrashSwitchInner {
    /// `(point, remaining occurrences before firing)`.
    armed: Mutex<Option<(CrashPoint, u32)>>,
    fired: AtomicBool,
}

/// Deterministic crash injection for the durability write path — the
/// test seam of the chaos harness (`ServiceClock`-style: always
/// compiled, inert unless armed). Clone handles share the switch.
#[derive(Clone, Debug, Default)]
pub struct CrashSwitch {
    inner: Arc<CrashSwitchInner>,
}

impl CrashSwitch {
    /// A disarmed switch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the switch to fire at the `nth` occurrence (1-based) of
    /// `point`. Re-arming replaces any previous arming.
    pub fn arm(&self, point: CrashPoint, nth: u32) {
        let mut armed = self.inner.armed.lock().unwrap_or_else(|e| e.into_inner());
        *armed = Some((point, nth.max(1)));
    }

    /// Whether the switch has fired (the simulated process died).
    pub fn fired(&self) -> bool {
        self.inner.fired.load(Ordering::Acquire)
    }

    /// Decrements the occurrence countdown when `point` matches;
    /// returns `true` exactly once, when the armed occurrence is hit.
    fn check(&self, point: CrashPoint) -> bool {
        let mut armed = self.inner.armed.lock().unwrap_or_else(|e| e.into_inner());
        match armed.as_mut() {
            Some((p, n)) if *p == point => {
                *n -= 1;
                if *n == 0 {
                    *armed = None;
                    self.inner.fired.store(true, Ordering::Release);
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One journaled state transition. The journal logs *operations*, not
/// state: recovery replays each record through the same deterministic
/// engine paths an uninterrupted run takes, which is what makes the
/// recovered mapping bit-identical rather than merely equivalent.
/// A record borrows what it logs, so building one copies nothing.
#[derive(Debug)]
pub(crate) enum JournalRecord<'a> {
    /// `install_job`: the resident task graph, re-mapped from scratch
    /// on replay exactly as the original install did.
    Install(Arc<TaskGraph>),
    /// `apply_churn`: one accepted churn batch.
    Churn(Cow<'a, [ChurnEvent]>),
    /// A forced supervisor pass (`polish_now`).
    Polish,
}

const REC_INSTALL: u8 = 0;
const REC_CHURN: u8 = 1;
// Tag 2 was version 1's retry record; it decodes as unknown.
const REC_POLISH: u8 = 3;

impl Wire for JournalRecord<'_> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            JournalRecord::Install(tasks) => {
                REC_INSTALL.put(out);
                tasks.put(out);
            }
            JournalRecord::Churn(events) => {
                REC_CHURN.put(out);
                events.put(out);
            }
            JournalRecord::Polish => REC_POLISH.put(out),
        }
    }

    fn take(bytes: &mut &[u8]) -> Option<Self> {
        Some(match u8::take(bytes)? {
            REC_INSTALL => JournalRecord::Install(Wire::take(bytes)?),
            REC_CHURN => JournalRecord::Churn(Wire::take(bytes)?),
            REC_POLISH => JournalRecord::Polish,
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// The write side
// ---------------------------------------------------------------------------

/// What one successful append wrote.
#[derive(Clone, Copy, Debug)]
pub struct AppendInfo {
    /// The frame's monotonic sequence number.
    pub seq: u64,
    /// Bytes appended (frame head + payload).
    pub bytes: u64,
}

/// The durability sink: an append-only journal plus the snapshot
/// writer, both rooted in one directory
/// (`journal.bin`, `snapshot.bin`, `snapshot.old.bin`,
/// `snapshot.tmp`). Frames are appended under the service's state
/// write lock, so frame order is execution order. A snapshot's payload
/// is encoded under that lock; its file is written, synced and renamed
/// after the lock is released, under the sink's own mutex, so no later
/// frame lands before the snapshot is published.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    file: File,
    fsync: bool,
    snapshot_every: u64,
    crash: Option<CrashSwitch>,
    /// Injected crash happened: refuse all further writes.
    crashed: bool,
    next_seq: u64,
    frames_since_snapshot: u64,
    buf: Vec<u8>,
    frame: Vec<u8>,
}

pub(crate) fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.bin")
}

pub(crate) fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.bin")
}

pub(crate) fn snapshot_old_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.old.bin")
}

fn snapshot_tmp_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.tmp")
}

/// Creates `journal.bin` in `dir`, or truncates it, holding just the
/// file header — the one writer of that header, for a fresh service
/// and for recovery when the journal is missing or its header is torn.
pub(crate) fn create_journal(dir: &Path) -> Result<File, JournalError> {
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(journal_path(dir))
        .map_err(io_err("create journal"))?;
    file.write_all(&(*JOURNAL_MAGIC, FORMAT_VERSION).to_bytes())
        .and_then(|()| file.flush())
        .map_err(io_err("write journal header"))?;
    Ok(file)
}

impl Durability {
    /// Starts a **fresh** durability root for a brand-new service:
    /// creates the directory, truncates any previous journal to an
    /// empty header, and removes stale snapshots (a new service is a
    /// new history — resuming an old one is [`recover`]'s job).
    ///
    /// [`recover`]: crate::MappingService::recover
    pub fn create(cfg: &DurabilityConfig) -> Result<Self, JournalError> {
        fs::create_dir_all(&cfg.dir).map_err(io_err("create durability dir"))?;
        for stale in [
            snapshot_path(&cfg.dir),
            snapshot_old_path(&cfg.dir),
            snapshot_tmp_path(&cfg.dir),
        ] {
            match fs::remove_file(&stale) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err("remove stale snapshot")(e)),
            }
        }
        Ok(Self::assemble(cfg, create_journal(&cfg.dir)?, 1, 0))
    }

    /// Re-opens an existing journal for appending after recovery
    /// validated it (and truncated any torn tail). `next_seq` continues
    /// the monotonic numbering; `frames_since_snapshot` seeds the
    /// snapshot ration with the replayed suffix length.
    pub(crate) fn resume(
        cfg: &DurabilityConfig,
        next_seq: u64,
        frames_since_snapshot: u64,
    ) -> Result<Self, JournalError> {
        let file = OpenOptions::new()
            .append(true)
            .open(journal_path(&cfg.dir))
            .map_err(io_err("reopen journal"))?;
        Ok(Self::assemble(cfg, file, next_seq, frames_since_snapshot))
    }

    fn assemble(cfg: &DurabilityConfig, file: File, next_seq: u64, frames: u64) -> Self {
        Durability {
            dir: cfg.dir.clone(),
            file,
            fsync: cfg.fsync,
            snapshot_every: cfg.snapshot_every,
            crash: cfg.crash.clone(),
            crashed: false,
            next_seq,
            frames_since_snapshot: frames,
            buf: Vec::new(),
            frame: Vec::new(),
        }
    }

    /// Sequence number of the most recently appended frame (0 when
    /// nothing has been appended yet).
    pub(crate) fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Whether the sink is dead: it crashed earlier, or the armed crash
    /// point matches `point` and fires now. A dead sink refuses every
    /// write.
    fn fires(&mut self, point: CrashPoint) -> bool {
        self.crashed = self.crashed || self.crash.as_ref().is_some_and(|c| c.check(point));
        self.crashed
    }

    fn crash_check(&mut self, point: CrashPoint) -> Result<(), JournalError> {
        match self.fires(point) {
            true => Err(JournalError::Crashed),
            false => Ok(()),
        }
    }

    /// Appends one record: WAL discipline means callers invoke this
    /// **before** mutating in-memory state, and a frame is either
    /// fully flushed or (under an injected crash) a truncatable torn
    /// prefix.
    pub(crate) fn append(&mut self, rec: &JournalRecord<'_>) -> Result<AppendInfo, JournalError> {
        self.crash_check(CrashPoint::BeforeFrame)?;
        let seq = self.next_seq;
        self.buf.clear();
        rec.put(&mut self.buf);
        self.frame.clear();
        (self.buf.len() as u32, frame_crc(seq, &self.buf), seq).put(&mut self.frame);
        self.frame.extend_from_slice(&self.buf);
        if self.fires(CrashPoint::MidFrame) {
            // Deterministic torn write: half the frame reaches disk.
            let half = &self.frame[..self.frame.len() / 2];
            let _ = self.file.write_all(half).and_then(|()| self.file.flush());
            return Err(JournalError::Crashed);
        }
        self.file
            .write_all(&self.frame)
            .and_then(|()| self.file.flush())
            .map_err(io_err("append frame"))?;
        if self.fsync {
            self.file.sync_data().map_err(io_err("fsync journal"))?;
        }
        self.next_seq += 1;
        self.frames_since_snapshot += 1;
        let bytes = self.frame.len() as u64;
        self.crash_check(CrashPoint::AfterFrame)?;
        Ok(AppendInfo { seq, bytes })
    }

    /// Appends a churn batch — the public entry the bench harness uses
    /// to measure steady-state journal overhead in isolation.
    pub fn append_churn(&mut self, events: &[ChurnEvent]) -> Result<AppendInfo, JournalError> {
        self.append(&JournalRecord::Churn(Cow::Borrowed(events)))
    }

    /// Whether the snapshot ration has elapsed (`snapshot_every`
    /// appended frames since the last successful snapshot).
    pub(crate) fn should_snapshot(&self) -> bool {
        !self.crashed
            && self.snapshot_every > 0
            && self.frames_since_snapshot >= self.snapshot_every
    }

    /// Writes a checksummed snapshot atomically: temp file, fsync,
    /// rotate the previous snapshot to `snapshot.old.bin`, rename into
    /// place. A crash anywhere in this sequence leaves either the old
    /// snapshot, the rotated fallback, or the new one — never a
    /// half-written file under the live name.
    pub(crate) fn write_snapshot(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        self.crash_check(CrashPoint::BeforeSnapshot)?;
        self.frame.clear();
        (*SNAPSHOT_MAGIC, FORMAT_VERSION, crc32(payload)).put(&mut self.frame);
        self.frame.extend_from_slice(payload);
        let tmp = snapshot_tmp_path(&self.dir);
        if self.fires(CrashPoint::MidSnapshot) {
            let _ = fs::write(&tmp, &self.frame[..self.frame.len() / 2]);
            return Err(JournalError::Crashed);
        }
        let mut f = File::create(&tmp).map_err(io_err("create snapshot tmp"))?;
        f.write_all(&self.frame)
            .and_then(|()| f.flush())
            .map_err(io_err("write snapshot tmp"))?;
        f.sync_data().map_err(io_err("fsync snapshot tmp"))?;
        drop(f);
        self.crash_check(CrashPoint::AfterSnapshotSync)?;
        let live = snapshot_path(&self.dir);
        match fs::rename(&live, snapshot_old_path(&self.dir)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("rotate snapshot")(e)),
        }
        self.crash_check(CrashPoint::BetweenRenames)?;
        fs::rename(&tmp, &live).map_err(io_err("publish snapshot"))?;
        self.crash_check(CrashPoint::AfterSnapshot)?;
        self.frames_since_snapshot = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The read side (used by recovery)
// ---------------------------------------------------------------------------

/// Result of scanning a journal file: the valid frame prefix and where
/// (if anywhere) the torn/corrupt tail starts.
#[derive(Debug)]
pub(crate) struct JournalScan {
    /// `(seq, payload)` for every valid frame, in file order.
    pub frames: Vec<(u64, Vec<u8>)>,
    /// Byte offset just past the last valid frame.
    pub valid_len: u64,
    /// Total file length (`> valid_len` means a torn tail exists).
    pub file_len: u64,
}

/// Scans the journal's frames, verifying length, CRC and sequence
/// monotonicity; stops at the first invalid frame (everything after a
/// bad frame is untrustworthy). `Ok(None)` when the file is absent.
pub(crate) fn scan_journal(path: &Path) -> Result<Option<JournalScan>, JournalError> {
    let Some(bytes) = read_file(path, "read journal")? else {
        return Ok(None);
    };
    let file_len = bytes.len() as u64;
    let mut rest = bytes.as_slice();
    let Some((magic, version)) = <([u8; 8], u32)>::take(&mut rest) else {
        // Shorter than a header: even the header is torn. Treat the
        // whole file as tail; recovery recreates it.
        return Ok(Some(JournalScan {
            frames: Vec::new(),
            valid_len: 0,
            file_len,
        }));
    };
    if (magic, version) != (*JOURNAL_MAGIC, FORMAT_VERSION) {
        return Err(JournalError::ForeignFile {
            context: "journal magic or version",
        });
    }
    let mut frames = Vec::new();
    let mut valid_len = HEADER_LEN;
    let mut prev_seq = 0u64;
    // Ends on a torn frame head (or clean EOF), a torn payload, a
    // corrupt frame, or a sequence number that is not an append of ours.
    while let Some((len, crc, seq)) = <(u32, u32, u64)>::take(&mut rest) {
        let Some((payload, after)) = rest.split_at_checked(len as usize) else {
            break;
        };
        if len > MAX_FRAME_PAYLOAD || frame_crc(seq, payload) != crc || seq <= prev_seq {
            break;
        }
        prev_seq = seq;
        frames.push((seq, payload.to_vec()));
        rest = after;
        valid_len = file_len - rest.len() as u64;
    }
    Ok(Some(JournalScan {
        frames,
        valid_len,
        file_len,
    }))
}

/// Outcome of reading one snapshot file.
#[derive(Debug)]
pub(crate) enum SnapshotRead {
    /// File absent.
    Missing,
    /// File present but torn/corrupt (bad magic, version, CRC, or
    /// truncation) — the caller falls back, it never trusts the bytes.
    Corrupt,
    /// Checksum-valid payload.
    Valid(Vec<u8>),
}

/// The bytes of `path`, or `None` when the file does not exist.
fn read_file(path: &Path, context: &'static str) -> Result<Option<Vec<u8>>, JournalError> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(context)(e)),
    }
}

/// Reads and checksum-verifies a snapshot file.
pub(crate) fn read_snapshot(path: &Path) -> Result<SnapshotRead, JournalError> {
    let Some(bytes) = read_file(path, "read snapshot")? else {
        return Ok(SnapshotRead::Missing);
    };
    let mut payload = bytes.as_slice();
    match <([u8; 8], u32, u32)>::take(&mut payload) {
        Some((magic, version, crc))
            if magic == *SNAPSHOT_MAGIC && version == FORMAT_VERSION && crc32(payload) == crc =>
        {
            Ok(SnapshotRead::Valid(payload.to_vec()))
        }
        _ => Ok(SnapshotRead::Corrupt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// `TaskGraph` has no `PartialEq`, so a record round-trips when
    /// decoding its bytes and encoding the result gives the same bytes.
    #[test]
    fn record_round_trips() {
        let tasks =
            TaskGraph::from_messages(3, [(0, 1, 2.5), (1, 2, 0.5)], Some(vec![1.0, 2.0, 3.0]));
        let events = [
            ChurnEvent::NodeFailed { node: 7 },
            ChurnEvent::NodesRemoved { nodes: vec![1, 2] },
            ChurnEvent::NodesAdded { nodes: vec![9] },
            ChurnEvent::LinkDegraded {
                link: 4,
                factor: 0.25,
            },
        ];
        let records = [
            JournalRecord::Install(Arc::new(tasks)),
            JournalRecord::Churn(Cow::Borrowed(&events)),
            JournalRecord::Polish,
        ];
        for rec in &records {
            let bytes = rec.to_bytes();
            let decoded = JournalRecord::from_bytes(&bytes).expect("decodes");
            assert_eq!(decoded.to_bytes(), bytes, "{rec:?}");
        }
        // Trailing garbage inside a frame is a decode failure.
        let mut buf = JournalRecord::Polish.to_bytes();
        buf.push(0);
        assert!(JournalRecord::from_bytes(&buf).is_none());
        assert!(JournalRecord::from_bytes(&[]).is_none());
        assert!(JournalRecord::from_bytes(&[99]).is_none());
        // The retired retry tag is unknown.
        assert!(JournalRecord::from_bytes(&[2]).is_none());
    }

    #[test]
    fn crash_switch_fires_once_on_nth_occurrence() {
        let sw = CrashSwitch::new();
        sw.arm(CrashPoint::MidFrame, 3);
        assert!(!sw.check(CrashPoint::MidFrame));
        assert!(
            !sw.check(CrashPoint::BeforeFrame),
            "other points don't count"
        );
        assert!(!sw.check(CrashPoint::MidFrame));
        assert!(!sw.fired());
        assert!(sw.check(CrashPoint::MidFrame));
        assert!(sw.fired());
        assert!(!sw.check(CrashPoint::MidFrame), "fires exactly once");
    }
}

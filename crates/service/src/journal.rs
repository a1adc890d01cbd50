//! Crash-safe durability for the service: a write-ahead churn journal
//! plus periodic checksummed snapshots (DESIGN.md §18).
//!
//! Every state *mutation* the service performs — job install, churn
//! application, retry of a pending repair, supervisor polish — is
//! appended to an on-disk journal **before** the in-memory state is
//! touched, while the state write lock is held, so the journal's frame
//! order is exactly the execution order. Map requests (the read-locked
//! hot path) never touch the journal: durability costs land only on
//! the churn/commit path.
//!
//! The format is hand-rolled std-only binary (the §9 shim rule — no
//! serde): little-endian throughout, a 12-byte file header
//! (`magic + version`), then frames of
//! `[payload len: u32][crc32: u32][seq: u64][payload]` where the CRC
//! (IEEE 802.3, table-driven, implemented in-tree) covers the sequence
//! number and payload. Sequence numbers are monotonic from 1 and never
//! reused, which is what lets recovery skip frames a snapshot already
//! covers and detect any non-append corruption as a torn tail.
//!
//! Crash injection: [`CrashSwitch`] is the `ServiceClock`-style seam
//! for the chaos harness. Armed with a [`CrashPoint`] and an
//! occurrence count, it fires deterministically inside the write path
//! — before / mid / after a frame, and around every snapshot fsync and
//! rename — after which the sink permanently refuses writes
//! ([`JournalError::Crashed`]), simulating a killed process whose
//! surviving bytes are exactly the prefix flushed so far.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use umpa_core::ChurnEvent;
use umpa_graph::TaskGraph;

use crate::config::DurabilityConfig;

/// Journal file magic (8 bytes) followed by a `u32` format version.
pub(crate) const JOURNAL_MAGIC: &[u8; 8] = b"UMPAJNL\0";
/// Snapshot file magic (8 bytes) followed by a `u32` format version.
pub(crate) const SNAPSHOT_MAGIC: &[u8; 8] = b"UMPASNP\0";
/// Current on-disk format version (journal and snapshot move together).
pub(crate) const FORMAT_VERSION: u32 = 1;
/// Bytes of `magic + version` at the head of both file kinds.
pub(crate) const HEADER_LEN: u64 = 12;
/// Bytes of `[len][crc][seq]` in front of every frame payload.
const FRAME_HEAD: usize = 16;
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

/// IEEE 802.3 CRC32 of `bytes` (the checksum protecting every journal
/// frame and snapshot payload).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
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
// Byte-level codec helpers (shared with `recovery`)
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A bounds-checked reader over a decode buffer: every read returns
/// `None` past the end, so corrupt input can only ever be a typed
/// decode failure — never a panic (the recovery never-panic contract).
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, off: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.off >= self.bytes.len()
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.off.checked_add(n)?;
        let s = self.bytes.get(self.off..end)?;
        self.off = end;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    pub(crate) fn f64_bits(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

/// One journaled state transition. The journal logs *operations*, not
/// state: recovery replays each record through the same deterministic
/// engine paths an uninterrupted run takes, which is what makes the
/// recovered mapping bit-identical rather than merely equivalent.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum JournalRecord {
    /// `install_job`: the resident task graph, re-mapped from scratch
    /// on replay exactly as the original install did.
    Install {
        /// Task count of the graph.
        num_tasks: usize,
        /// Directed messages in CSR iteration order (`TaskGraph::
        /// messages`) — re-building from these is a bit-exact fixed
        /// point because CSR rows are dedup-merged and sorted.
        messages: Vec<(u32, u32, f64)>,
        /// Per-task weights.
        weights: Vec<f64>,
    },
    /// `apply_churn`: one accepted churn batch.
    Churn(Vec<ChurnEvent>),
    /// A retry of the pending infeasible repair actually executed.
    Retry,
    /// A forced supervisor pass (`polish_now`).
    Polish,
}

const REC_INSTALL: u8 = 0;
const REC_CHURN: u8 = 1;
const REC_RETRY: u8 = 2;
const REC_POLISH: u8 = 3;

const EV_NODE_FAILED: u8 = 0;
const EV_NODES_REMOVED: u8 = 1;
const EV_NODES_ADDED: u8 = 2;
const EV_LINK_DEGRADED: u8 = 3;

fn put_node_list(out: &mut Vec<u8>, nodes: &[u32]) {
    put_u32(out, nodes.len() as u32);
    for &n in nodes {
        put_u32(out, n);
    }
}

fn take_node_list(cur: &mut Cursor<'_>) -> Option<Vec<u32>> {
    let len = cur.u32()? as usize;
    let mut nodes = Vec::with_capacity(len.min(1 << 20));
    for _ in 0..len {
        nodes.push(cur.u32()?);
    }
    Some(nodes)
}

pub(crate) fn encode_events(events: &[ChurnEvent], out: &mut Vec<u8>) {
    put_u32(out, events.len() as u32);
    for ev in events {
        match ev {
            ChurnEvent::NodeFailed { node } => {
                out.push(EV_NODE_FAILED);
                put_u32(out, *node);
            }
            ChurnEvent::NodesRemoved { nodes } => {
                out.push(EV_NODES_REMOVED);
                put_node_list(out, nodes);
            }
            ChurnEvent::NodesAdded { nodes } => {
                out.push(EV_NODES_ADDED);
                put_node_list(out, nodes);
            }
            ChurnEvent::LinkDegraded { link, factor } => {
                out.push(EV_LINK_DEGRADED);
                put_u32(out, *link);
                put_f64(out, *factor);
            }
        }
    }
}

pub(crate) fn decode_events(cur: &mut Cursor<'_>) -> Option<Vec<ChurnEvent>> {
    let count = cur.u32()? as usize;
    let mut events = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let ev = match cur.u8()? {
            EV_NODE_FAILED => ChurnEvent::NodeFailed { node: cur.u32()? },
            EV_NODES_REMOVED => ChurnEvent::NodesRemoved {
                nodes: take_node_list(cur)?,
            },
            EV_NODES_ADDED => ChurnEvent::NodesAdded {
                nodes: take_node_list(cur)?,
            },
            // Range checks belong to `Machine::check_link_event`, which
            // recovery runs on every decoded event before replay.
            EV_LINK_DEGRADED => ChurnEvent::LinkDegraded {
                link: cur.u32()?,
                factor: cur.f64_bits()?,
            },
            _ => return None,
        };
        events.push(ev);
    }
    Some(events)
}

/// Serializes a task graph as `num_tasks`, per-task weights, and the
/// directed messages in CSR iteration order. `f64`s travel as raw bits
/// so decode → [`TaskGraph::from_messages`] reproduces the CSR arrays
/// bit-exactly (rows are dedup-merged and sorted on build, and the
/// serialized order is already sorted).
pub(crate) fn encode_task_graph(tg: &TaskGraph, out: &mut Vec<u8>) {
    let n = tg.num_tasks();
    put_u64(out, n as u64);
    for t in 0..n as u32 {
        put_f64(out, tg.task_weight(t));
    }
    put_u64(out, tg.num_messages() as u64);
    for (s, t, v) in tg.messages() {
        put_u32(out, s);
        put_u32(out, t);
        put_f64(out, v);
    }
}

/// Decoded-and-validated task-graph parts: endpoints in range, weights
/// and volumes finite, so [`TaskGraphParts::build`] can hand them to
/// graph construction without tripping its preconditions.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct TaskGraphParts {
    pub num_tasks: usize,
    pub messages: Vec<(u32, u32, f64)>,
    pub weights: Vec<f64>,
}

impl TaskGraphParts {
    /// Rebuilds the task graph. Bit-exact: the serialized message
    /// order is the CSR iteration order, and CSR construction
    /// dedup-merges and sorts rows, so the rebuilt arrays (and every
    /// float accumulation order downstream) match the original.
    pub(crate) fn build(self) -> TaskGraph {
        TaskGraph::from_messages(self.num_tasks, self.messages, Some(self.weights))
    }
}

/// Decodes and *validates* task-graph parts — corrupt bytes are a
/// `None`, never a panic inside graph construction.
pub(crate) fn decode_task_graph_parts(cur: &mut Cursor<'_>) -> Option<TaskGraphParts> {
    let n = usize::try_from(cur.u64()?).ok()?;
    if n > (u32::MAX as usize) {
        return None;
    }
    let mut weights = Vec::with_capacity(n.min(1 << 24));
    for _ in 0..n {
        let w = cur.f64_bits()?;
        if !w.is_finite() {
            return None;
        }
        weights.push(w);
    }
    let m = usize::try_from(cur.u64()?).ok()?;
    let mut messages = Vec::with_capacity(m.min(1 << 24));
    for _ in 0..m {
        let s = cur.u32()?;
        let t = cur.u32()?;
        let v = cur.f64_bits()?;
        if (s as usize) >= n || (t as usize) >= n || !v.is_finite() {
            return None;
        }
        messages.push((s, t, v));
    }
    Some(TaskGraphParts {
        num_tasks: n,
        messages,
        weights,
    })
}

impl JournalRecord {
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            JournalRecord::Install {
                num_tasks,
                messages,
                weights,
            } => {
                out.push(REC_INSTALL);
                put_u64(out, *num_tasks as u64);
                for w in weights {
                    put_f64(out, *w);
                }
                put_u64(out, messages.len() as u64);
                for &(s, t, v) in messages {
                    put_u32(out, s);
                    put_u32(out, t);
                    put_f64(out, v);
                }
            }
            JournalRecord::Churn(events) => {
                out.push(REC_CHURN);
                encode_events(events, out);
            }
            JournalRecord::Retry => out.push(REC_RETRY),
            JournalRecord::Polish => out.push(REC_POLISH),
        }
    }

    /// Decodes a record from a CRC-verified frame payload. `None`
    /// means the payload is structurally invalid despite a valid
    /// checksum — a format/version defect, reported by recovery as a
    /// typed corrupt-record error.
    pub(crate) fn decode(bytes: &[u8]) -> Option<JournalRecord> {
        let mut cur = Cursor::new(bytes);
        let rec = match cur.u8()? {
            REC_INSTALL => {
                let parts = decode_task_graph_parts(&mut cur)?;
                JournalRecord::Install {
                    num_tasks: parts.num_tasks,
                    messages: parts.messages,
                    weights: parts.weights,
                }
            }
            REC_CHURN => JournalRecord::Churn(decode_events(&mut cur)?),
            REC_RETRY => JournalRecord::Retry,
            REC_POLISH => JournalRecord::Polish,
            _ => return None,
        };
        if !cur.is_empty() {
            return None; // trailing garbage inside a checksummed frame
        }
        Some(rec)
    }

    /// Builds the install record for a task graph.
    pub(crate) fn install(tg: &TaskGraph) -> JournalRecord {
        JournalRecord::Install {
            num_tasks: tg.num_tasks(),
            messages: tg.messages().collect(),
            weights: (0..tg.num_tasks() as u32)
                .map(|t| tg.task_weight(t))
                .collect(),
        }
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
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(journal_path(&cfg.dir))
            .map_err(io_err("create journal"))?;
        file.write_all(JOURNAL_MAGIC)
            .and_then(|()| file.write_all(&FORMAT_VERSION.to_le_bytes()))
            .and_then(|()| file.flush())
            .map_err(io_err("write journal header"))?;
        Ok(Self::assemble(cfg, file, 1, 0))
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

    /// Fires the armed crash point if it matches; afterwards the sink
    /// refuses every write.
    fn crash_check(&mut self, point: CrashPoint) -> Result<(), JournalError> {
        if self.crash.as_ref().is_some_and(|c| c.check(point)) {
            self.crashed = true;
            return Err(JournalError::Crashed);
        }
        Ok(())
    }

    /// Appends one record: WAL discipline means callers invoke this
    /// **before** mutating in-memory state, and a frame is either
    /// fully flushed or (under an injected crash) a truncatable torn
    /// prefix.
    pub(crate) fn append(&mut self, rec: &JournalRecord) -> Result<AppendInfo, JournalError> {
        if self.crashed {
            return Err(JournalError::Crashed);
        }
        self.crash_check(CrashPoint::BeforeFrame)?;
        let seq = self.next_seq;
        self.buf.clear();
        rec.encode_into(&mut self.buf);
        self.frame.clear();
        put_u32(&mut self.frame, self.buf.len() as u32);
        let mut crc_input = Vec::with_capacity(8 + self.buf.len());
        put_u64(&mut crc_input, seq);
        crc_input.extend_from_slice(&self.buf);
        put_u32(&mut self.frame, crc32(&crc_input));
        put_u64(&mut self.frame, seq);
        self.frame.extend_from_slice(&self.buf);
        if self
            .crash
            .as_ref()
            .is_some_and(|c| c.check(CrashPoint::MidFrame))
        {
            // Deterministic torn write: half the frame reaches disk.
            let half = self.frame.len() / 2;
            let partial: Vec<u8> = self.frame.iter().take(half).copied().collect();
            let _ = self
                .file
                .write_all(&partial)
                .and_then(|()| self.file.flush());
            self.crashed = true;
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
        self.append(&JournalRecord::Churn(events.to_vec()))
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
        if self.crashed {
            return Err(JournalError::Crashed);
        }
        self.crash_check(CrashPoint::BeforeSnapshot)?;
        self.frame.clear();
        self.frame.extend_from_slice(SNAPSHOT_MAGIC);
        put_u32(&mut self.frame, FORMAT_VERSION);
        put_u32(&mut self.frame, crc32(payload));
        self.frame.extend_from_slice(payload);
        let tmp = snapshot_tmp_path(&self.dir);
        if self
            .crash
            .as_ref()
            .is_some_and(|c| c.check(CrashPoint::MidSnapshot))
        {
            let half = self.frame.len() / 2;
            let partial: Vec<u8> = self.frame.iter().take(half).copied().collect();
            let _ = fs::write(&tmp, &partial);
            self.crashed = true;
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
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes).map_err(io_err("read journal"))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("open journal")(e)),
    }
    let file_len = bytes.len() as u64;
    let header = bytes.get(..HEADER_LEN as usize);
    let Some(header) = header else {
        // Shorter than a header: even the header is torn. Treat the
        // whole file as tail; recovery truncates to zero and recreates.
        return Ok(Some(JournalScan {
            frames: Vec::new(),
            valid_len: 0,
            file_len,
        }));
    };
    if &header[..8] != JOURNAL_MAGIC {
        return Err(JournalError::ForeignFile {
            context: "journal magic",
        });
    }
    if header[8..12] != FORMAT_VERSION.to_le_bytes() {
        return Err(JournalError::ForeignFile {
            context: "journal version",
        });
    }
    let mut frames = Vec::new();
    let mut off = HEADER_LEN as usize;
    let mut prev_seq = 0u64;
    // Loop ends on a torn frame head (or clean EOF when off == len).
    while let Some(head) = bytes.get(off..off + FRAME_HEAD) {
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
        let crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
        let seq = u64::from_le_bytes([
            head[8], head[9], head[10], head[11], head[12], head[13], head[14], head[15],
        ]);
        if len > MAX_FRAME_PAYLOAD {
            break;
        }
        let Some(payload) = bytes.get(off + FRAME_HEAD..off + FRAME_HEAD + len as usize) else {
            break; // torn payload
        };
        let mut crc_input = Vec::with_capacity(8 + payload.len());
        put_u64(&mut crc_input, seq);
        crc_input.extend_from_slice(payload);
        if crc32(&crc_input) != crc {
            break; // corrupt frame
        }
        if seq <= prev_seq {
            break; // non-monotonic: not an append of ours
        }
        prev_seq = seq;
        frames.push((seq, payload.to_vec()));
        off += FRAME_HEAD + len as usize;
    }
    Ok(Some(JournalScan {
        frames,
        valid_len: off as u64,
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

/// Reads and checksum-verifies a snapshot file.
pub(crate) fn read_snapshot(path: &Path) -> Result<SnapshotRead, JournalError> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes).map_err(io_err("read snapshot"))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(SnapshotRead::Missing),
        Err(e) => return Err(io_err("open snapshot")(e)),
    }
    let Some(header) = bytes.get(..16) else {
        return Ok(SnapshotRead::Corrupt);
    };
    if &header[..8] != SNAPSHOT_MAGIC || header[8..12] != FORMAT_VERSION.to_le_bytes() {
        return Ok(SnapshotRead::Corrupt);
    }
    let crc = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    let Some(payload) = bytes.get(16..) else {
        return Ok(SnapshotRead::Corrupt);
    };
    if crc32(payload) != crc {
        return Ok(SnapshotRead::Corrupt);
    }
    Ok(SnapshotRead::Valid(payload.to_vec()))
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

    #[test]
    fn record_round_trips() {
        let records = [
            JournalRecord::Install {
                num_tasks: 3,
                messages: vec![(0, 1, 2.5), (1, 2, 0.5)],
                weights: vec![1.0, 2.0, 3.0],
            },
            JournalRecord::Churn(vec![
                ChurnEvent::NodeFailed { node: 7 },
                ChurnEvent::NodesRemoved { nodes: vec![1, 2] },
                ChurnEvent::NodesAdded { nodes: vec![9] },
                ChurnEvent::LinkDegraded {
                    link: 4,
                    factor: 0.25,
                },
            ]),
            JournalRecord::Retry,
            JournalRecord::Polish,
        ];
        for rec in &records {
            let mut buf = Vec::new();
            rec.encode_into(&mut buf);
            assert_eq!(JournalRecord::decode(&buf).as_ref(), Some(rec));
        }
        // Trailing garbage inside a frame is a decode failure.
        let mut buf = Vec::new();
        JournalRecord::Retry.encode_into(&mut buf);
        buf.push(0);
        assert!(JournalRecord::decode(&buf).is_none());
        assert!(JournalRecord::decode(&[]).is_none());
        assert!(JournalRecord::decode(&[99]).is_none());
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

//! Deterministic crash recovery: snapshot load, torn-tail truncation,
//! journal replay (DESIGN.md §18).
//!
//! [`MappingService::recover`] rebuilds a service from its durability
//! directory: it loads the newest *valid* snapshot (`snapshot.bin`,
//! falling back to the rotated `snapshot.old.bin`, falling back to
//! genesis — the machine/allocation the caller passes in), truncates
//! any torn or corrupt journal tail in place, and replays the
//! surviving frame suffix through the same engine entry points an
//! uninterrupted run uses (`install` → from-scratch map, `churn` →
//! `remap_incremental`, `retry`/`polish` → the identical write-lock
//! paths). Because every replayed step is deterministic — CSR rebuild
//! is a bit-exact fixed point, repair is scratch-warmth-independent,
//! and the supervisor baseline is a pure function of the fault state
//! it is keyed on — the recovered resident job is **bit-identical**
//! to the uninterrupted run over the surviving operation prefix: same
//! mapping words, same `RemapDrift` bits, same fault mask.
//!
//! Corrupt input is *never* a panic: checksum failures truncate
//! (reported via [`RecoveryReport`]), structural failures inside
//! checksum-valid bytes surface as a typed [`RecoveryError`].

use std::fs::OpenOptions;
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use umpa_core::MapperScratch;
use umpa_topology::{Allocation, FaultSnapshot, Machine};

use crate::clock::ServiceClock;
use crate::config::ServiceConfig;
use crate::journal::{
    self, decode_task_graph_parts, encode_task_graph, journal_path, read_snapshot, scan_journal,
    snapshot_old_path, snapshot_path, Cursor, Durability, JournalRecord, SnapshotRead,
    FORMAT_VERSION, HEADER_LEN, JOURNAL_MAGIC,
};
use crate::service::{
    first_invalid_event, MappingService, PendingRepair, ResidentJob, SharedState,
};
use crate::supervisor::Supervisor;

/// Why recovery could not complete. Torn tails and corrupt snapshots
/// are *not* errors — they are expected crash artifacts, truncated or
/// skipped and reported in [`RecoveryReport`]. These are the
/// unrecoverable cases.
#[derive(Debug)]
pub enum RecoveryError {
    /// `ServiceConfig::durability` was `None` — there is nothing to
    /// recover from.
    NotConfigured,
    /// An I/O operation on the durability directory failed.
    Io {
        /// Which operation failed (static description).
        context: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The journal file exists but is not ours (wrong magic or
    /// version): refusing to truncate or replay a foreign file.
    ForeignJournal,
    /// A frame passed its CRC but its payload failed structural
    /// decoding — a format/version defect, not storage corruption
    /// (storage corruption fails the CRC and truncates instead).
    CorruptRecord {
        /// Sequence number of the offending frame.
        seq: u64,
    },
    /// A decoded record references entities this machine does not
    /// have (e.g. a link id past the topology) — the journal belongs
    /// to a different machine shape.
    InvalidReplay {
        /// Sequence number of the offending frame.
        seq: u64,
        /// What failed validation (static description).
        context: &'static str,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NotConfigured => write!(f, "recovery: durability is not configured"),
            RecoveryError::Io { context, source } => {
                write!(f, "recovery io ({context}): {source}")
            }
            RecoveryError::ForeignJournal => write!(f, "recovery: journal magic/version mismatch"),
            RecoveryError::CorruptRecord { seq } => {
                write!(f, "recovery: frame {seq} is checksum-valid but undecodable")
            }
            RecoveryError::InvalidReplay { seq, context } => {
                write!(
                    f,
                    "recovery: frame {seq} does not fit this machine ({context})"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<journal::JournalError> for RecoveryError {
    fn from(e: journal::JournalError) -> Self {
        match e {
            journal::JournalError::Io { context, source } => RecoveryError::Io { context, source },
            journal::JournalError::ForeignFile { .. } => RecoveryError::ForeignJournal,
            // The crash switch only fires on writes; reads never see it.
            journal::JournalError::Crashed => RecoveryError::Io {
                context: "crashed sink",
                source: std::io::Error::other("injected crash"),
            },
        }
    }
}

/// Which snapshot recovery restored from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SnapshotSource {
    /// No usable snapshot: recovery started from the genesis
    /// machine/allocation and replayed the whole journal.
    #[default]
    Genesis,
    /// `snapshot.bin`, the newest snapshot.
    Primary,
    /// `snapshot.old.bin`, the rotated fallback (the newest snapshot
    /// was missing or corrupt).
    Fallback,
}

/// What recovery found and did — the harness's window into truncation
/// and replay, so a bad frame is never *silently* accepted or dropped.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Snapshot the state was restored from.
    pub snapshot_source: SnapshotSource,
    /// Journal sequence number the snapshot covered (0 = genesis).
    pub snapshot_seq: u64,
    /// Snapshot files present but rejected (bad checksum or failed
    /// validation against this machine).
    pub corrupt_snapshots: usize,
    /// Frames replayed through the engine (sequence > snapshot).
    pub frames_replayed: usize,
    /// Valid frames skipped because the snapshot already covered them.
    pub frames_skipped: usize,
    /// Sequence number of the last surviving frame (or the snapshot
    /// watermark if the journal had none) — the recovered history's
    /// length, which the chaos harness uses to build its reference run.
    pub last_seq: u64,
    /// Torn/corrupt tail bytes truncated from the journal. Nonzero
    /// whenever a crash or corruption cut a frame short.
    pub truncated_bytes: u64,
    /// Whether a resident job survived recovery.
    pub had_job: bool,
}

// ---------------------------------------------------------------------------
// Snapshot payload codec
// ---------------------------------------------------------------------------

/// Serializes the post-mutation service state for a snapshot:
/// `(covers_seq, FaultSnapshot, Allocation, resident job)` with every
/// `f64` as raw bits. Called under the state write lock.
pub(crate) fn encode_snapshot_payload(st: &SharedState, covers_seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    journal::put_u64(&mut out, covers_seq);
    st.machine.fault_snapshot().encode_into(&mut out);
    let nodes = st.alloc.nodes();
    journal::put_u32(&mut out, nodes.len() as u32);
    for &n in nodes {
        journal::put_u32(&mut out, n);
    }
    let procs = st.alloc.procs_all();
    journal::put_u32(&mut out, procs.len() as u32);
    for &p in procs {
        journal::put_u32(&mut out, p);
    }
    match &st.job {
        None => out.push(0),
        Some(job) => {
            out.push(1);
            encode_task_graph(&job.tasks, &mut out);
            journal::put_u64(&mut out, job.mapping.len() as u64);
            for &node in &job.mapping {
                journal::put_u32(&mut out, node);
            }
            journal::put_u64(&mut out, job.drift.repairs);
            journal::put_u64(&mut out, job.drift.displaced_total);
            journal::put_f64(&mut out, job.drift.wh_delta_total);
            journal::put_f64(&mut out, job.drift.wh_last);
            match &job.pending {
                None => out.push(0),
                Some(p) => {
                    out.push(1);
                    journal::put_u32(&mut out, p.attempts);
                }
            }
            journal::put_u32(&mut out, job.supervisor.repairs_since_check());
        }
    }
    out
}

/// Decoded snapshot, not yet validated against a machine.
struct SnapshotState {
    covers_seq: u64,
    fault: FaultSnapshot,
    alloc_nodes: Vec<u32>,
    alloc_procs: Vec<u32>,
    job: Option<SnapshotJob>,
}

struct SnapshotJob {
    graph: journal::TaskGraphParts,
    mapping: Vec<u32>,
    drift_repairs: u64,
    drift_displaced: u64,
    drift_wh_delta: f64,
    drift_wh_last: f64,
    pending_attempts: Option<u32>,
    repairs_since_check: u32,
}

fn decode_snapshot_payload(bytes: &[u8]) -> Option<SnapshotState> {
    let mut cur = Cursor::new(bytes);
    let covers_seq = cur.u64()?;
    let fault_bytes = bytes.get(8..)?;
    let (fault, used) = FaultSnapshot::decode(fault_bytes)?;
    let mut cur = Cursor::new(bytes.get(8 + used..)?);
    let n_nodes = cur.u32()? as usize;
    let mut alloc_nodes = Vec::with_capacity(n_nodes.min(1 << 20));
    for _ in 0..n_nodes {
        alloc_nodes.push(cur.u32()?);
    }
    let n_procs = cur.u32()? as usize;
    if n_procs != n_nodes {
        return None;
    }
    let mut alloc_procs = Vec::with_capacity(n_procs.min(1 << 20));
    for _ in 0..n_procs {
        alloc_procs.push(cur.u32()?);
    }
    let job = match cur.u8()? {
        0 => None,
        1 => {
            let graph = decode_task_graph_parts(&mut cur)?;
            let map_len = usize::try_from(cur.u64()?).ok()?;
            if map_len != graph.num_tasks {
                return None;
            }
            let mut mapping = Vec::with_capacity(map_len.min(1 << 24));
            for _ in 0..map_len {
                mapping.push(cur.u32()?);
            }
            let drift_repairs = cur.u64()?;
            let drift_displaced = cur.u64()?;
            let drift_wh_delta = cur.f64_bits()?;
            let drift_wh_last = cur.f64_bits()?;
            if !drift_wh_delta.is_finite() || !drift_wh_last.is_finite() {
                return None;
            }
            let pending_attempts = match cur.u8()? {
                0 => None,
                1 => Some(cur.u32()?),
                _ => return None,
            };
            let repairs_since_check = cur.u32()?;
            Some(SnapshotJob {
                graph,
                mapping,
                drift_repairs,
                drift_displaced,
                drift_wh_delta,
                drift_wh_last,
                pending_attempts,
                repairs_since_check,
            })
        }
        _ => return None,
    };
    if !cur.is_empty() {
        return None;
    }
    Some(SnapshotState {
        covers_seq,
        fault,
        alloc_nodes,
        alloc_procs,
        job,
    })
}

/// Validates a decoded snapshot's allocation and job against the
/// genesis machine (pure — nothing is mutated until every check passes,
/// so a late failure can still fall back to the next snapshot in the
/// chain). Its fault mask is checked by `Machine::apply_fault_snapshot`,
/// which leaves the machine untouched when the mask does not fit.
fn validate_snapshot(state: &SnapshotState, machine: &Machine) -> bool {
    let num_nodes = machine.num_nodes();
    let mut seen = vec![false; num_nodes];
    for &n in &state.alloc_nodes {
        let Some(slot) = seen.get_mut(n as usize) else {
            return false;
        };
        if *slot {
            return false; // duplicate node
        }
        *slot = true;
    }
    if let Some(job) = &state.job {
        for &node in &job.mapping {
            if node != u32::MAX && (node as usize) >= num_nodes {
                return false;
            }
        }
    }
    true
}

fn restore_job(job: SnapshotJob) -> ResidentJob {
    let drift = umpa_core::RemapDrift {
        repairs: job.drift_repairs,
        displaced_total: job.drift_displaced,
        wh_delta_total: job.drift_wh_delta,
        wh_last: job.drift_wh_last,
    };
    ResidentJob {
        tasks: Arc::new(job.graph.build()),
        mapping: job.mapping,
        drift,
        pending: job.pending_attempts.map(|attempts| PendingRepair {
            attempts,
            // The pre-crash deadline is meaningless on the new clock:
            // an armed pending repair is due immediately.
            next_due_ns: 0,
        }),
        supervisor: Supervisor::restored(job.repairs_since_check),
        scratch: MapperScratch::new(),
    }
}

// ---------------------------------------------------------------------------
// Recovery driver
// ---------------------------------------------------------------------------

impl MappingService {
    /// Recovers a service from its durability directory
    /// (`cfg.durability`) on the wall clock. `machine` and `alloc`
    /// are the *genesis* arguments the original service was built
    /// with: snapshots store only the fault mask and allocation
    /// membership, which are re-imposed on the pristine machine
    /// through the same `degrade_link` path an uninterrupted run
    /// takes.
    ///
    /// The recovered resident job (mapping, drift, fault state,
    /// allocation) is bit-identical to an uninterrupted run over the
    /// surviving operation prefix (`RecoveryReport::last_seq`).
    /// Journaling then resumes on the surviving file, so repeated
    /// crash/recover cycles compose.
    pub fn recover(
        machine: Machine,
        alloc: Allocation,
        cfg: ServiceConfig,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        Self::recover_with_clock(machine, alloc, cfg, ServiceClock::monotonic())
    }

    /// [`MappingService::recover`] on an explicit clock.
    pub fn recover_with_clock(
        mut machine: Machine,
        alloc: Allocation,
        cfg: ServiceConfig,
        clock: ServiceClock,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        let Some(dur_cfg) = cfg.durability.clone() else {
            return Err(RecoveryError::NotConfigured);
        };
        let mut report = RecoveryReport::default();
        let mut alloc = alloc;
        let mut restored: Option<ResidentJob> = None;

        // 1. Newest valid snapshot wins: primary, then the rotated
        //    fallback, then genesis. "Valid" = checksum AND structural
        //    validation against this machine; nothing is applied until
        //    both pass.
        let chain = [
            (snapshot_path(&dur_cfg.dir), SnapshotSource::Primary),
            (snapshot_old_path(&dur_cfg.dir), SnapshotSource::Fallback),
        ];
        for (path, source) in chain {
            match read_snapshot(&path)? {
                SnapshotRead::Missing => continue,
                SnapshotRead::Corrupt => {
                    report.corrupt_snapshots += 1;
                    continue;
                }
                SnapshotRead::Valid(payload) => {
                    let Some(state) = decode_snapshot_payload(&payload) else {
                        report.corrupt_snapshots += 1;
                        continue;
                    };
                    if !validate_snapshot(&state, &machine) {
                        report.corrupt_snapshots += 1;
                        continue;
                    }
                    if !machine.apply_fault_snapshot(&state.fault) {
                        report.corrupt_snapshots += 1;
                        continue;
                    }
                    let mut rebuilt = Allocation::from_nodes(
                        &machine,
                        state.alloc_nodes,
                        machine.procs_per_node(),
                    );
                    rebuilt.set_procs(state.alloc_procs);
                    alloc = rebuilt;
                    restored = state.job.map(restore_job);
                    report.snapshot_seq = state.covers_seq;
                    report.snapshot_source = source;
                    break;
                }
            }
        }

        // 2. Scan the journal; truncate any torn/corrupt tail in
        //    place so the file ends on the last checksum-valid frame.
        let jpath = journal_path(&dur_cfg.dir);
        let (frames, valid_len, file_len) = match scan_journal(&jpath)? {
            Some(scan) => (scan.frames, scan.valid_len, scan.file_len),
            None => {
                // No journal at all (the snapshot carries everything):
                // start a fresh one so appends can resume.
                let mut f = OpenOptions::new()
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&jpath)
                    .map_err(|source| RecoveryError::Io {
                        context: "create journal",
                        source,
                    })?;
                f.write_all(JOURNAL_MAGIC)
                    .and_then(|()| f.write_all(&FORMAT_VERSION.to_le_bytes()))
                    .map_err(|source| RecoveryError::Io {
                        context: "write journal header",
                        source,
                    })?;
                (Vec::new(), HEADER_LEN, HEADER_LEN)
            }
        };
        if valid_len < file_len {
            report.truncated_bytes = file_len - valid_len;
            let f = OpenOptions::new()
                .write(true)
                .open(&jpath)
                .map_err(|source| RecoveryError::Io {
                    context: "open journal for truncation",
                    source,
                })?;
            f.set_len(valid_len.max(HEADER_LEN))
                .map_err(|source| RecoveryError::Io {
                    context: "truncate torn tail",
                    source,
                })?;
            if valid_len < HEADER_LEN {
                // Even the header was torn: rewrite it.
                let mut f = OpenOptions::new()
                    .write(true)
                    .truncate(true)
                    .open(&jpath)
                    .map_err(|source| RecoveryError::Io {
                        context: "rewrite journal header",
                        source,
                    })?;
                f.write_all(JOURNAL_MAGIC)
                    .and_then(|()| f.write_all(&FORMAT_VERSION.to_le_bytes()))
                    .map_err(|source| RecoveryError::Io {
                        context: "rewrite journal header",
                        source,
                    })?;
            }
        }

        // 3. Decode and validate the replay suffix up front (pure):
        //    a checksum-valid but undecodable frame is a typed error,
        //    never a panic or a silent skip.
        let covers_seq = report.snapshot_seq;
        let mut last_seq = covers_seq;
        let mut replay = Vec::new();
        for (seq, payload) in &frames {
            last_seq = last_seq.max(*seq);
            if *seq <= covers_seq {
                report.frames_skipped += 1;
                continue;
            }
            let Some(rec) = JournalRecord::decode(payload) else {
                return Err(RecoveryError::CorruptRecord { seq: *seq });
            };
            if let JournalRecord::Churn(events) = &rec {
                if let Some((_, reason)) = first_invalid_event(&machine, events) {
                    return Err(RecoveryError::InvalidReplay {
                        seq: *seq,
                        context: reason,
                    });
                }
            }
            replay.push(rec);
        }
        report.last_seq = last_seq;

        // 4. Assemble the inner state (no workers yet — a timed retry
        //    racing the replay would fork history) and re-run the
        //    suffix through the real operation paths. The journal stays
        //    detached during replay so nothing is re-journaled.
        let inner = Self::build_inner(machine, alloc, cfg, clock);
        {
            let mut st = inner.write_state();
            st.job = restored;
            if let Some(job) = &st.job {
                inner.mirror_drift(&job.drift);
                if job.pending.is_some() {
                    inner.pending_due_ns.store(0, Ordering::Release);
                }
            }
        }
        for rec in replay {
            match rec {
                JournalRecord::Install {
                    num_tasks,
                    messages,
                    weights,
                } => {
                    let parts = journal::TaskGraphParts {
                        num_tasks,
                        messages,
                        weights,
                    };
                    inner.install_job(Arc::new(parts.build()));
                }
                JournalRecord::Churn(events) => {
                    inner.apply_churn(&events);
                }
                JournalRecord::Retry => {
                    inner.retry_pending(true);
                }
                JournalRecord::Polish => {
                    inner.polish_now();
                }
            }
            report.frames_replayed += 1;
        }
        report.had_job = inner.read_state().job.is_some();

        // 5. Resume journaling on the surviving file and open for
        //    business.
        match Durability::resume(&dur_cfg, last_seq + 1, report.frames_replayed as u64) {
            Ok(journal) => {
                *inner.journal.lock().unwrap_or_else(|e| e.into_inner()) = Some(journal);
            }
            Err(_) => {
                inner.stats.journal_errors.fetch_add(1, Ordering::AcqRel);
            }
        }
        Ok((Self::start(inner), report))
    }
}

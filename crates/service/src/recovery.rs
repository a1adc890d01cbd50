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
//! `remap_incremental`, `polish` → the identical write-lock path).
//! Because every replayed step is deterministic — CSR rebuild is a
//! bit-exact fixed point, repair is scratch-warmth-independent, and
//! the supervisor baseline is a pure function of the fault state it
//! is keyed on — the recovered resident job is **bit-identical**
//! to the uninterrupted run over the surviving operation prefix: same
//! mapping words, same `RemapDrift` bits, same fault mask.
//!
//! A snapshot is one `Snapshot` record, whose one `wire_struct!`
//! field list both writes and reads it. Decoding checks only the
//! encoding; a snapshot must then pass validation against the genesis
//! machine and allocation — allocation nodes with processor counts a
//! node can hold, fault mask, and a resident job whose values pass
//! [`check_job_values`] and whose placed tasks sit on allocated nodes
//! within capacity — or it counts as corrupt and recovery falls back
//! along the chain.
//!
//! Corrupt input is *never* a panic: checksum failures truncate
//! (reported via [`RecoveryReport`]), structural failures inside
//! checksum-valid bytes surface as a typed [`RecoveryError`].

use std::borrow::Cow;
use std::sync::Arc;

use umpa_core::{check_job_values, fits, MapperScratch, RemapDrift};
use umpa_graph::TaskGraph;
use umpa_topology::{Allocation, FaultSnapshot, Machine};

use crate::clock::ServiceClock;
use crate::codec::{wire_struct, PerTask, Wire};
use crate::config::ServiceConfig;
use crate::journal::{
    self, create_journal, journal_path, read_snapshot, scan_journal, snapshot_old_path,
    snapshot_path, Durability, JournalRecord, SnapshotRead, HEADER_LEN,
};
use crate::request::ServiceError;
use crate::service::{first_invalid_event, MappingService, ResidentJob, SharedState};
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
    /// to a different machine shape — or installs a job that fails
    /// [`check_job`](umpa_core::check_job) on the allocation replay has
    /// reached, or that the mapper cannot place there.
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
// Snapshots
// ---------------------------------------------------------------------------

/// The post-mutation service state a snapshot holds, and the journal
/// sequence number it covers. Built under the state write lock, it
/// borrows the allocation and the mapping and shares the task graph,
/// so encoding copies nothing but the fault mask.
pub(crate) struct Snapshot<'a> {
    covers_seq: u64,
    fault: FaultSnapshot,
    alloc_nodes: Cow<'a, [u32]>,
    alloc_procs: Cow<'a, [u32]>,
    job: Option<SnapshotJob<'a>>,
}

/// The resident job inside a [`Snapshot`].
struct SnapshotJob<'a> {
    tasks: Arc<TaskGraph>,
    mapping: PerTask<'a, u32>,
    drift: RemapDrift,
    repairs_since_check: u32,
}

wire_struct! { Snapshot<'a> { covers_seq, fault, alloc_nodes, alloc_procs, job } }
wire_struct! { SnapshotJob<'a> { tasks, mapping, drift, repairs_since_check } }

impl<'a> Snapshot<'a> {
    /// The snapshot of `st` after the frame numbered `covers_seq`.
    pub(crate) fn of(st: &'a SharedState, covers_seq: u64) -> Self {
        Snapshot {
            covers_seq,
            fault: st.machine.fault_snapshot(),
            alloc_nodes: Cow::Borrowed(st.alloc.nodes()),
            alloc_procs: Cow::Borrowed(st.alloc.procs_all()),
            job: st.job.as_ref().map(|job| SnapshotJob {
                tasks: Arc::clone(&job.tasks),
                mapping: PerTask(Cow::Borrowed(&job.mapping)),
                drift: job.drift,
                repairs_since_check: job.supervisor.repairs_since_check(),
            }),
        }
    }

    /// Whether the decoded snapshot fits the genesis machine (pure —
    /// nothing is mutated until every check passes, so a late failure
    /// can still fall back to the next snapshot in the chain). The
    /// fault mask is checked by `Machine::apply_fault_snapshot`, which
    /// leaves the machine untouched when the mask does not fit.
    ///
    /// The allocation's nodes must be unique and in range, with one
    /// processor count each, and that count one a node can hold: the
    /// `genesis` allocation's for that node, or the machine's per-node
    /// count, which `NodesAdded` grants. A resident job's values must
    /// pass [`check_job_values`], its drift must be finite, and every
    /// placed task must sit on an allocated node whose load [`fits`]
    /// its processors. Unplaced tasks (`u32::MAX`) are allowed: an
    /// infeasible repair left them, and the job's total weight may
    /// then exceed the allocation.
    fn is_valid_for(&self, machine: &Machine, genesis: &Allocation) -> bool {
        if self.alloc_procs.len() != self.alloc_nodes.len() {
            return false;
        }
        let mut slot_of = vec![None; machine.num_nodes()];
        for (slot, (&n, &procs)) in self
            .alloc_nodes
            .iter()
            .zip(self.alloc_procs.iter())
            .enumerate()
        {
            match slot_of.get_mut(n as usize) {
                Some(s @ None) => *s = Some(slot),
                _ => return false, // out of range, or a duplicate
            }
            let genesis_procs = genesis.slot_of(n).map(|s| genesis.procs(s as usize));
            if procs != machine.procs_per_node() && Some(procs) != genesis_procs {
                return false;
            }
        }
        let Some(job) = &self.job else {
            return true;
        };
        let (tasks, mapping) = (&job.tasks, &job.mapping.0);
        if mapping.len() != tasks.num_tasks()
            || !(job.drift.wh_delta_total.is_finite() && job.drift.wh_last.is_finite())
            || check_job_values(tasks).is_err()
        {
            return false;
        }
        let mut load = vec![0.0f64; self.alloc_nodes.len()];
        for (t, &node) in mapping.iter().enumerate() {
            if node == u32::MAX {
                continue;
            }
            let slot = slot_of.get(node as usize).copied().flatten();
            let Some(l) = slot.and_then(|s| load.get_mut(s)) else {
                return false; // an unallocated node
            };
            *l += tasks.task_weight(t as u32);
        }
        load.iter()
            .zip(self.alloc_procs.iter())
            .all(|(&l, &procs)| fits(f64::from(procs), l))
    }
}

fn restore_job(job: SnapshotJob<'_>) -> ResidentJob {
    ResidentJob {
        tasks: job.tasks,
        mapping: job.mapping.0.into_owned(),
        drift: job.drift,
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
        mut machine: Machine,
        mut alloc: Allocation,
        cfg: ServiceConfig,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        let Some(dur_cfg) = cfg.durability.clone() else {
            return Err(RecoveryError::NotConfigured);
        };
        let mut report = RecoveryReport::default();
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
                    let snap = match Snapshot::from_bytes(&payload) {
                        Some(snap)
                            if snap.is_valid_for(&machine, &alloc)
                                && machine.apply_fault_snapshot(&snap.fault) =>
                        {
                            snap
                        }
                        _ => {
                            report.corrupt_snapshots += 1;
                            continue;
                        }
                    };
                    alloc = Allocation::from_nodes(
                        &machine,
                        snap.alloc_nodes.into_owned(),
                        machine.procs_per_node(),
                    );
                    alloc.set_procs(snap.alloc_procs.into_owned());
                    restored = snap.job.map(restore_job);
                    report.snapshot_seq = snap.covers_seq;
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
                create_journal(&dur_cfg.dir)?;
                (Vec::new(), HEADER_LEN, HEADER_LEN)
            }
        };
        if valid_len < file_len {
            report.truncated_bytes = file_len - valid_len;
            if valid_len < HEADER_LEN {
                // Even the header was torn: rewrite it.
                create_journal(&dur_cfg.dir)?;
            } else {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&jpath)
                    .and_then(|f| f.set_len(valid_len))
                    .map_err(|source| RecoveryError::Io {
                        context: "truncate torn tail",
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
            let Some(rec) = JournalRecord::from_bytes(payload) else {
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
            replay.push((*seq, rec));
        }
        report.last_seq = last_seq;

        // 4. Assemble the inner state (no workers or admission yet)
        //    and re-run the suffix through the real operation paths.
        //    The journal stays detached during replay so nothing is
        //    re-journaled.
        let inner = Self::build_inner(machine, alloc, cfg, ServiceClock::monotonic());
        inner.write_state().job = restored;
        for (seq, rec) in replay {
            match rec {
                JournalRecord::Install(tasks) => {
                    inner.install_job(tasks).map_err(|e| {
                        let context = match e {
                            ServiceError::InvalidJob { reason } => reason,
                            _ => "the mapper cannot place the job",
                        };
                        RecoveryError::InvalidReplay { seq, context }
                    })?;
                }
                JournalRecord::Churn(events) => {
                    inner.apply_churn(&events);
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
            Err(_) => inner.with_stats(|s| s.journal_errors += 1),
        }
        Ok((Self::start(inner), report))
    }
}

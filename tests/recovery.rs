//! Crash-point chaos harness for the durability subsystem
//! (DESIGN.md §18).
//!
//! Sweeps every [`CrashPoint`] — before/inside/after each journal
//! frame write and each snapshot fsync/rename step — over
//! `umpa_matgen::churn` streams on three topology backends, killing
//! the write path at the injected point, then recovering from disk
//! and asserting the contract:
//!
//! * the recovered resident job (mapping words, `RemapDrift` bits,
//!   fault mask, allocation membership, live WH bits) is
//!   **bit-identical** to an uninterrupted run over the surviving
//!   operation prefix (`RecoveryReport::last_seq`);
//! * torn frames are *truncated*, never parsed
//!   (`truncated_bytes > 0` whenever a frame was cut short);
//! * seeded byte corruption of the journal tail truncates to the last
//!   checksum-valid frame, and a corrupt snapshot falls back
//!   (`snapshot.old.bin`, then genesis + full replay) — a bad frame
//!   or snapshot is never silently accepted;
//! * recovery never panics — corrupt input surfaces as truncation
//!   (reported) or a typed `RecoveryError`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use umpa::core::ChurnEvent;
use umpa::graph::TaskGraph;
use umpa::matgen::churn::{churn_sequence, ChurnSpec};
use umpa::matgen::corruption_points;
use umpa::service::journal::Durability;
use umpa::service::{
    CrashPoint, CrashSwitch, DurabilityConfig, MappingService, RecoveryError, ServiceConfig,
    ServiceError, SnapshotSource,
};
use umpa::topology::{
    AllocSpec, Allocation, DragonflyConfig, FatTreeConfig, FaultSnapshot, Machine, MachineConfig,
};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh, empty durability directory unique to this process + call.
fn fresh_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("umpa-recovery-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Ring + chords with skewed weights — structure to lose, so drift
/// and repair decisions are data-dependent.
fn task_graph(n: u32, seed: u64) -> TaskGraph {
    let n = n.max(4);
    let msgs = (0..n).flat_map(move |i| {
        let w = 1.0 + f64::from((i + seed as u32) % 5);
        [
            (i, (i + 1) % n, 2.0 * w),
            (i, (i + n / 3).max(i + 1) % n, w),
        ]
    });
    TaskGraph::from_messages(n as usize, msgs, None)
}

/// Three backends, each with an allocation that stays
/// capacity-feasible at the churn generator's 25 % removal cap.
fn backends() -> Vec<(&'static str, u32, Machine, Allocation)> {
    let torus = MachineConfig::small(&[4, 4, 4], 2, 2).build();
    let torus_alloc = Allocation::generate(&torus, &AllocSpec::sparse(24, 7));
    let fattree = FatTreeConfig::small(4, 2, 2).build();
    let ft_alloc = Allocation::generate(&fattree, &AllocSpec::sparse(12, 3));
    let dragonfly = DragonflyConfig {
        procs_per_node: 2,
        ..DragonflyConfig::small(4, 3, 2)
    }
    .build();
    let df_alloc = Allocation::generate(&dragonfly, &AllocSpec::sparse(16, 5));
    vec![
        ("torus", 32, torus, torus_alloc),
        ("fattree", 16, fattree, ft_alloc),
        ("dragonfly", 20, dragonfly, df_alloc),
    ]
}

fn durable_cfg(dir: &Path, snapshot_every: u64, crash: Option<CrashSwitch>) -> ServiceConfig {
    ServiceConfig {
        workers: 0,
        durability: Some(DurabilityConfig {
            snapshot_every,
            crash,
            ..DurabilityConfig::new(dir)
        }),
        ..ServiceConfig::default()
    }
}

fn plain_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 0,
        ..ServiceConfig::default()
    }
}

/// Everything the bit-identity contract covers, with floats as raw
/// bits so `==` is exact.
#[derive(Debug, PartialEq)]
struct StateDigest {
    mapping: Option<Vec<u32>>,
    drift: Option<(u64, u64, u64, u64)>,
    wh_bits: Option<u64>,
    fault: FaultSnapshot,
    alloc_nodes: Vec<u32>,
}

fn digest(service: &MappingService) -> StateDigest {
    StateDigest {
        mapping: service.live_mapping(),
        drift: service.drift().map(|d| {
            (
                d.repairs,
                d.displaced_total,
                d.wh_delta_total.to_bits(),
                d.wh_last.to_bits(),
            )
        }),
        wh_bits: service.live_wh().map(f64::to_bits),
        fault: service.with_state(|m, _| m.fault_snapshot()),
        alloc_nodes: service.with_state(|_, a| a.nodes().to_vec()),
    }
}

/// Drives the journaled operation sequence the sweep uses: one
/// install frame, then one churn frame per event. With `workers: 0`
/// nothing else touches the journal, so frame `seq` `k+1` is exactly
/// `events[k]` (seq 1 is the install).
fn run_ops(service: &MappingService, graph: &Arc<TaskGraph>, events: &[ChurnEvent]) {
    service.install_job(Arc::clone(graph)).expect("job fits");
    for ev in events {
        service.apply_churn(std::slice::from_ref(ev));
    }
}

/// Reference run for a surviving prefix: a fresh *non-durable*
/// service replaying `last_seq` operations from genesis.
fn reference_digest(
    machine: &Machine,
    alloc: &Allocation,
    graph: &Arc<TaskGraph>,
    events: &[ChurnEvent],
    last_seq: u64,
) -> StateDigest {
    let reference = MappingService::new(machine.clone(), alloc.clone(), plain_cfg());
    if last_seq >= 1 {
        reference.install_job(Arc::clone(graph)).expect("job fits");
        let surviving = (last_seq - 1) as usize;
        for ev in &events[..surviving] {
            reference.apply_churn(std::slice::from_ref(ev));
        }
    }
    digest(&reference)
}

#[test]
fn crash_sweep_recovers_bit_identical_on_all_backends() {
    for (name, tasks, machine, alloc) in backends() {
        let streams = [
            ("mixed", ChurnSpec::new(10, 11)),
            ("nodes", ChurnSpec::nodes_only(10, 23)),
        ];
        for (stream_tag, spec) in streams {
            let events = churn_sequence(&machine, &alloc, &spec);
            let graph = Arc::new(task_graph(tasks, 1));
            for point in CrashPoint::ALL {
                for nth in [1u32, 2, 5] {
                    let ctx = format!("{name}/{stream_tag}/{point:?}/nth={nth}");
                    let dir = fresh_dir(name);
                    let switch = CrashSwitch::new();
                    switch.arm(point, nth);
                    let service = MappingService::new(
                        machine.clone(),
                        alloc.clone(),
                        durable_cfg(&dir, 4, Some(switch.clone())),
                    );
                    run_ops(&service, &graph, &events);
                    // The crash already severed the journal; the
                    // in-memory state dies with the process (here:
                    // with the drop).
                    drop(service);

                    let (recovered, report) = MappingService::recover(
                        machine.clone(),
                        alloc.clone(),
                        durable_cfg(&dir, 4, None),
                    )
                    .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));

                    let total = events.len() as u64 + 1;
                    assert!(report.last_seq <= total, "{ctx}: impossible history length");
                    if !switch.fired() {
                        // Crash point never reached: nothing may be lost.
                        assert_eq!(report.last_seq, total, "{ctx}: lost frames without a crash");
                        assert_eq!(report.truncated_bytes, 0, "{ctx}");
                    }
                    if switch.fired() && point == CrashPoint::MidFrame {
                        assert!(
                            report.truncated_bytes > 0,
                            "{ctx}: a mid-frame crash must leave a torn tail"
                        );
                    }
                    let expect =
                        reference_digest(&machine, &alloc, &graph, &events, report.last_seq);
                    assert_eq!(
                        digest(&recovered),
                        expect,
                        "{ctx}: recovered state diverged"
                    );
                    drop(recovered);
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }
}

/// Crash, recover, *keep going*, crash again: journaling resumes on
/// the surviving file (sequence numbers continue), so crash/recover
/// cycles compose into one consistent history.
#[test]
fn recovery_composes_across_repeated_crashes() {
    let (_, tasks, machine, alloc) = backends().swap_remove(0);
    let events = churn_sequence(&machine, &alloc, &ChurnSpec::new(12, 31));
    let graph = Arc::new(task_graph(tasks, 1));
    let dir = fresh_dir("compose");

    let switch = CrashSwitch::new();
    switch.arm(CrashPoint::MidFrame, 4);
    let service = MappingService::new(
        machine.clone(),
        alloc.clone(),
        durable_cfg(&dir, 4, Some(switch.clone())),
    );
    run_ops(&service, &graph, &events);
    drop(service);
    assert!(switch.fired());

    // First recovery: resume from the torn journal, then apply the
    // ops the crash swallowed.
    let (recovered, report) =
        MappingService::recover(machine.clone(), alloc.clone(), durable_cfg(&dir, 4, None))
            .expect("first recovery");
    assert!(report.truncated_bytes > 0);
    let done = (report.last_seq.saturating_sub(1)) as usize;
    for ev in &events[done..] {
        recovered.apply_churn(std::slice::from_ref(ev));
    }
    drop(recovered);

    // Second recovery sees the full history.
    let (recovered, report) =
        MappingService::recover(machine.clone(), alloc.clone(), durable_cfg(&dir, 4, None))
            .expect("second recovery");
    assert_eq!(report.last_seq, events.len() as u64 + 1);
    assert_eq!(report.truncated_bytes, 0);
    let expect = reference_digest(&machine, &alloc, &graph, &events, report.last_seq);
    assert_eq!(digest(&recovered), expect);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded byte corruption of the journal tail: recovery truncates to
/// the last checksum-valid frame and restores that prefix
/// bit-identically — never parses a corrupt frame, never panics.
#[test]
fn corrupted_journal_tail_truncates_to_valid_prefix() {
    let (_, tasks, machine, alloc) = backends().swap_remove(0);
    let events = churn_sequence(&machine, &alloc, &ChurnSpec::new(10, 47));
    let graph = Arc::new(task_graph(tasks, 1));

    for seed in [1u64, 2, 3] {
        let dir = fresh_dir("corrupt");
        let service = MappingService::new(
            machine.clone(),
            alloc.clone(),
            // Journal-only (no snapshots): corruption must cost
            // exactly the frames at and after the first flipped byte.
            durable_cfg(&dir, 0, None),
        );
        run_ops(&service, &graph, &events);
        drop(service);

        let jpath = dir.join("journal.bin");
        let mut bytes = std::fs::read(&jpath).expect("read journal");
        let len = bytes.len() as u64;
        let tail_from = len * 3 / 4;
        let points = corruption_points(len, tail_from, 3, seed);
        assert!(!points.is_empty());
        for &(off, mask) in &points {
            bytes[off as usize] ^= mask;
        }
        std::fs::write(&jpath, &bytes).expect("write corrupted journal");

        let (recovered, report) =
            MappingService::recover(machine.clone(), alloc.clone(), durable_cfg(&dir, 0, None))
                .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        assert!(
            report.truncated_bytes > 0,
            "seed {seed}: flipped bytes must truncate the tail"
        );
        assert!(report.last_seq < events.len() as u64 + 1, "seed {seed}");
        let expect = reference_digest(&machine, &alloc, &graph, &events, report.last_seq);
        assert_eq!(digest(&recovered), expect, "seed {seed}: prefix diverged");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A corrupt primary snapshot falls back (rotated snapshot, then
/// genesis) and replays the journal — with the journal intact the
/// final state must still be the full-history state.
#[test]
fn corrupt_snapshot_falls_back_and_replays() {
    let (_, tasks, machine, alloc) = backends().swap_remove(0);
    let events = churn_sequence(&machine, &alloc, &ChurnSpec::new(10, 61));
    let graph = Arc::new(task_graph(tasks, 1));
    let dir = fresh_dir("snapfall");

    let service = MappingService::new(machine.clone(), alloc.clone(), durable_cfg(&dir, 3, None));
    run_ops(&service, &graph, &events);
    drop(service);

    let spath = dir.join("snapshot.bin");
    let mut bytes = std::fs::read(&spath).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(&spath, &bytes).expect("write corrupted snapshot");

    let (recovered, report) =
        MappingService::recover(machine.clone(), alloc.clone(), durable_cfg(&dir, 3, None))
            .expect("recovery with corrupt snapshot");
    assert!(report.corrupt_snapshots >= 1);
    assert_ne!(report.snapshot_source, SnapshotSource::Primary);
    assert_eq!(report.last_seq, events.len() as u64 + 1);
    let expect = reference_digest(&machine, &alloc, &graph, &events, report.last_seq);
    assert_eq!(digest(&recovered), expect);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retry and polish mutations are journaled and replayed through the
/// same paths, so a history containing infeasible repairs, forced
/// retries, capacity restoration and an explicit polish recovers
/// bit-identically — including across a snapshot boundary mid-stream.
#[test]
fn retry_and_polish_frames_replay_bit_identical() {
    let machine = FatTreeConfig::small(4, 2, 1).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(6, 3));
    let graph = Arc::new(task_graph(6, 2));
    let doomed: Vec<u32> = alloc.nodes()[..2].to_vec();
    let dir = fresh_dir("retry");

    let drive = |service: &MappingService| {
        service.install_job(Arc::clone(&graph)).expect("job fits");
        // Shrink below capacity: repair goes Infeasible, pending arms.
        service.apply_churn(&[ChurnEvent::NodesRemoved {
            nodes: doomed.clone(),
        }]);
        // Forced retry while still infeasible (journals a retry frame).
        service.retry_now();
        // Capacity back; the forced retry now succeeds.
        service.apply_churn(&[ChurnEvent::NodesAdded {
            nodes: doomed.clone(),
        }]);
        service.retry_now();
        // Explicit polish (journals a polish frame).
        service.polish_now();
    };

    let durable = MappingService::new(machine.clone(), alloc.clone(), durable_cfg(&dir, 3, None));
    drive(&durable);
    drop(durable);

    let (recovered, report) =
        MappingService::recover(machine.clone(), alloc.clone(), durable_cfg(&dir, 3, None))
            .expect("recovery");
    assert!(report.had_job);
    let reference = MappingService::new(machine.clone(), alloc.clone(), plain_cfg());
    drive(&reference);
    assert_eq!(digest(&recovered), digest(&reference));
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovering a directory that has never seen a service is legal:
/// genesis state, empty history, and the recovered service is fully
/// operational (journal created on the spot).
#[test]
fn recover_from_empty_directory_is_genesis() {
    let (_, tasks, machine, alloc) = backends().swap_remove(1);
    let dir = fresh_dir("genesis");
    std::fs::create_dir_all(&dir).expect("create dir");

    let (service, report) =
        MappingService::recover(machine.clone(), alloc.clone(), durable_cfg(&dir, 4, None))
            .expect("genesis recovery");
    assert_eq!(report.snapshot_source, SnapshotSource::Genesis);
    assert_eq!(report.last_seq, 0);
    assert_eq!(report.frames_replayed, 0);
    assert!(!report.had_job);

    // The recovered (empty) service journals from seq 1 like a fresh one.
    let graph = Arc::new(task_graph(tasks, 1));
    service.install_job(Arc::clone(&graph)).expect("job fits");
    drop(service);
    let (recovered, report) =
        MappingService::recover(machine.clone(), alloc.clone(), durable_cfg(&dir, 4, None))
            .expect("second recovery");
    assert_eq!(report.last_seq, 1);
    assert!(report.had_job);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a durability config there is nothing to recover from —
/// typed error, not a panic or a silent empty service.
#[test]
fn recover_without_durability_is_a_typed_error() {
    let (_, _, machine, alloc) = backends().swap_remove(0);
    let err = MappingService::recover(machine, alloc, plain_cfg());
    assert!(matches!(err, Err(RecoveryError::NotConfigured)));
}

/// A clean shutdown (no crash) recovers the exact full-history state.
#[test]
fn clean_shutdown_recovers_full_history() {
    for (name, tasks, machine, alloc) in backends() {
        let events = churn_sequence(&machine, &alloc, &ChurnSpec::new(8, 77));
        let graph = Arc::new(task_graph(tasks, 1));
        let dir = fresh_dir("clean");
        let service =
            MappingService::new(machine.clone(), alloc.clone(), durable_cfg(&dir, 4, None));
        run_ops(&service, &graph, &events);
        let stats = service.shutdown();
        assert_eq!(stats.journal_errors, 0, "{name}");
        assert!(stats.journal_appends > events.len() as u64, "{name}");

        let (recovered, report) =
            MappingService::recover(machine.clone(), alloc.clone(), durable_cfg(&dir, 4, None))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.last_seq, events.len() as u64 + 1, "{name}");
        assert_eq!(report.truncated_bytes, 0, "{name}");
        let expect = reference_digest(&machine, &alloc, &graph, &events, report.last_seq);
        assert_eq!(digest(&recovered), expect, "{name}");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Link events that do not fit the machine, with the reason
/// `Machine::check_link_event` gives: a link id past the topology, and
/// factors above 1, below 0 and NaN.
fn malformed_link_events() -> [(ChurnEvent, &'static str); 4] {
    let ev = |link, factor| ChurnEvent::LinkDegraded { link, factor };
    let bad_factor = "bandwidth factor is NaN or outside 0.0..=1.0";
    [
        (ev(1_000_000, 0.5), "link id past this topology"),
        (ev(1, 1.5), bad_factor),
        (ev(1, -0.5), bad_factor),
        (ev(1, f64::NAN), bad_factor),
    ]
}

/// A malformed link event is refused whole, with a typed error, before
/// anything is journaled or mutated — alone or behind a valid event —
/// so durable state survives it and recovery returns the job as it was
/// before the event.
#[test]
fn malformed_link_events_are_refused_before_the_journal() {
    let machine = MachineConfig::small(&[4, 4], 1, 2).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 1));
    let graph = Arc::new(task_graph(16, 1));
    let valid = ChurnEvent::LinkDegraded {
        link: 2,
        factor: 0.5,
    };
    for (bad, reason) in malformed_link_events() {
        let dir = fresh_dir("malformed");
        let service =
            MappingService::new(machine.clone(), alloc.clone(), durable_cfg(&dir, 64, None));
        service.install_job(Arc::clone(&graph)).expect("job fits");
        let before = digest(&service);
        let appends = service.stats().journal_appends;
        let journal_len = || {
            std::fs::metadata(dir.join("journal.bin"))
                .expect("journal exists")
                .len()
        };
        let len = journal_len();
        for (batch, index) in [
            (vec![bad.clone()], 0),
            (vec![valid.clone(), bad.clone()], 1),
        ] {
            let report = catch_unwind(AssertUnwindSafe(|| service.apply_churn(&batch)))
                .unwrap_or_else(|_| panic!("{bad:?}: apply_churn panicked"));
            assert_eq!(report.applied_events, 0, "{bad:?}");
            assert_eq!(
                report.error,
                Some(ServiceError::InvalidEvent { index, reason }),
                "{bad:?}"
            );
            assert_eq!(service.stats().journal_appends, appends, "{bad:?}");
            assert_eq!(journal_len(), len, "{bad:?}: a frame was appended");
            assert_eq!(digest(&service), before, "{bad:?}: state changed");
        }
        drop(service);
        let (recovered, report) =
            MappingService::recover(machine.clone(), alloc.clone(), durable_cfg(&dir, 64, None))
                .unwrap_or_else(|e| panic!("{bad:?}: {e}"));
        assert_eq!(report.last_seq, 1, "{bad:?}");
        assert_eq!(digest(&recovered), before, "{bad:?}");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A journal holding a malformed link event (written straight through
/// the sink, since the service refuses such batches) fails recovery
/// with the same check's typed error, never a panic.
#[test]
fn replay_refuses_malformed_link_events_with_a_typed_error() {
    let machine = MachineConfig::small(&[4, 4], 1, 2).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 1));
    for (bad, reason) in malformed_link_events() {
        let dir = fresh_dir("malformed-replay");
        let cfg = durable_cfg(&dir, 64, None);
        let mut sink =
            Durability::create(cfg.durability.as_ref().expect("durable")).expect("create journal");
        sink.append_churn(std::slice::from_ref(&bad))
            .expect("append");
        drop(sink);
        let result = catch_unwind(AssertUnwindSafe(|| {
            MappingService::recover(machine.clone(), alloc.clone(), cfg)
        }))
        .unwrap_or_else(|_| panic!("{bad:?}: recover panicked"));
        match result {
            Err(RecoveryError::InvalidReplay { seq: 1, context }) if context == reason => {}
            other => panic!(
                "{bad:?}: expected InvalidReplay for frame 1, got {:?}",
                other.map(|_| ())
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The oversized-job setup: a 4×4 torus with one node per router and
/// two processors per node, and an 8-node allocation (16 processors).
fn sixteen_processors() -> (Machine, Allocation) {
    let machine = MachineConfig::small(&[4, 4], 1, 2).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 1));
    (machine, alloc)
}

const TOO_HEAVY: &str = "total task weight exceeds the allocation's processors";

/// A 16-task ring with one NaN, infinite or negative message volume.
fn ring_with_volume(bad: f64) -> TaskGraph {
    let ring = (0..16u32).map(|i| (i, (i + 1) % 16, if i == 5 { bad } else { 1.0 }));
    TaskGraph::from_messages(16, ring, None)
}

const BAD_VOLUME: &str = "message volume is NaN, infinite or negative";

/// An oversized job, and a job with a NaN or infinite message volume,
/// are refused before the journal: no frame is appended, so recovery
/// never meets a frame it cannot decode, and the resident job comes
/// back as it was.
#[test]
fn oversized_job_is_refused_before_the_journal() {
    let (machine, alloc) = sixteen_processors();
    let dir = fresh_dir("oversized");
    let service = MappingService::new(machine.clone(), alloc.clone(), durable_cfg(&dir, 64, None));
    service
        .install_job(Arc::new(task_graph(16, 1)))
        .expect("16 tasks fit 16 processors");
    let before = digest(&service);
    let appends = service.stats().journal_appends;
    let journal_len = || {
        std::fs::metadata(dir.join("journal.bin"))
            .expect("journal exists")
            .len()
    };
    let len = journal_len();
    for (label, tasks, reason) in [
        ("20 tasks", task_graph(20, 1), TOO_HEAVY),
        ("NaN volume", ring_with_volume(f64::NAN), BAD_VOLUME),
        (
            "infinite volume",
            ring_with_volume(f64::INFINITY),
            BAD_VOLUME,
        ),
    ] {
        let refused = catch_unwind(AssertUnwindSafe(|| service.install_job(Arc::new(tasks))))
            .unwrap_or_else(|_| panic!("install_job panicked on {label}"));
        assert_eq!(refused, Err(ServiceError::InvalidJob { reason }), "{label}");
        assert_eq!(service.stats().journal_appends, appends, "{label}");
        assert_eq!(journal_len(), len, "{label}: a frame was appended");
        assert_eq!(digest(&service), before, "{label}: state changed");
    }
    drop(service);
    let (recovered, report) = MappingService::recover(machine, alloc, durable_cfg(&dir, 64, None))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.last_seq, 1);
    assert_eq!(digest(&recovered), before);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An install frame whose job no longer fits the allocation replay
/// starts from fails recovery with the job check's typed error, never
/// a panic.
#[test]
fn replay_refuses_an_oversized_install_with_a_typed_error() {
    let (machine, alloc) = sixteen_processors();
    let dir = fresh_dir("oversized-replay");
    let service = MappingService::new(machine.clone(), alloc, durable_cfg(&dir, 64, None));
    service
        .install_job(Arc::new(task_graph(16, 1)))
        .expect("16 tasks fit 16 processors");
    drop(service);
    let smaller = Allocation::generate(&machine, &AllocSpec::sparse(4, 1));
    let result = catch_unwind(AssertUnwindSafe(|| {
        MappingService::recover(machine.clone(), smaller, durable_cfg(&dir, 64, None))
    }))
    .unwrap_or_else(|_| panic!("recover panicked on an oversized install frame"));
    match result {
        Err(RecoveryError::InvalidReplay { seq: 1, context }) if context == TOO_HEAVY => {}
        other => panic!(
            "expected InvalidReplay for frame 1, got {:?}",
            other.map(|_| ())
        ),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

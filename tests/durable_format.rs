//! Pins the bytes the service writes to disk.
//!
//! A consumerless (`workers: 0`) durable service runs a fixed sequence
//! of journaled operations with `snapshot_every: 5`, so the journal and
//! both snapshot files exist at the end:
//!
//! * install a 32-task job with non-uniform task weights;
//! * apply a seeded churn stream holding a hard link failure;
//! * force a supervisor pass;
//! * apply one batch holding a hard and a soft link event.
//!
//! The length and 64-bit FNV-1a digest of `journal.bin`,
//! `snapshot.bin` and `snapshot.old.bin` are compared with recorded
//! constants. A change that moves any journal record or snapshot field
//! by one bit fails here with the new figures printed; a journal or
//! snapshot written before such a change would no longer recover.
//! Recovering the directory must then give back the live mapping.
//!
//! The files are at format version 2; a journal written at version 1,
//! which held a retry record type, is refused whole.

use std::sync::Arc;

use umpa::core::ChurnEvent;
use umpa::graph::TaskGraph;
use umpa::matgen::churn::{churn_sequence, ChurnSpec};
use umpa::service::{DurabilityConfig, MappingService, RecoveryError, ServiceConfig};
use umpa::topology::{AllocSpec, Allocation, MachineConfig};

/// 64-bit FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Ring plus chords, with task weights that are not all equal and not
/// all exact in binary.
fn job() -> TaskGraph {
    let n = 32u32;
    let msgs = (0..n).flat_map(move |i| {
        let w = 1.0 + f64::from(i % 5);
        [
            (i, (i + 1) % n, 2.0 * w),
            (i, (i + n / 3).max(i + 1) % n, w),
            (i, (i * 7 + 3) % n, 0.3),
        ]
    });
    let weights = (0..n).map(|i| 0.5 + 0.3 * f64::from(i % 5)).collect();
    TaskGraph::from_messages(n as usize, msgs, Some(weights))
}

fn is_hard(ev: &ChurnEvent) -> bool {
    matches!(ev, ChurnEvent::LinkDegraded { factor, .. } if *factor == 0.0)
}

#[test]
fn durable_bytes_are_pinned() {
    let machine = MachineConfig::small(&[4, 4, 4], 2, 2).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(24, 7));
    let dir = std::env::temp_dir().join(format!("umpa-durable-format-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServiceConfig {
        workers: 0,
        durability: Some(DurabilityConfig {
            snapshot_every: 5,
            ..DurabilityConfig::new(&dir)
        }),
        ..ServiceConfig::default()
    };

    let events = churn_sequence(&machine, &alloc, &ChurnSpec::new(14, 5));
    assert!(
        events.iter().any(is_hard),
        "the stream must hold a hard link failure"
    );
    let service = MappingService::new(machine.clone(), alloc.clone(), cfg.clone());
    service.install_job(Arc::new(job())).expect("job fits");
    for ev in &events {
        service.apply_churn(std::slice::from_ref(ev));
    }
    service.polish_now();
    let last = [
        ChurnEvent::LinkDegraded {
            link: 40,
            factor: 0.0,
        },
        ChurnEvent::LinkDegraded {
            link: 77,
            factor: 0.625,
        },
    ];
    let report = service.apply_churn(&last);
    assert_eq!(report.error, None);
    let live = service.live_mapping().expect("job resident");
    let stats = service.shutdown();
    assert_eq!(stats.journal_errors, 0);
    assert_eq!(stats.journal_appends, events.len() as u64 + 3);

    let got: Vec<(&str, usize, u64)> = ["journal.bin", "snapshot.bin", "snapshot.old.bin"]
        .into_iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(name)).expect("durable file exists");
            (name, bytes.len(), fnv1a(&bytes))
        })
        .collect();
    let want: [(&str, usize, u64); 3] = [
        ("journal.bin", 2301, 0xe694_2618_cf85_552b),
        ("snapshot.bin", 2185, 0x016e_0f11_91c0_e5ac),
        ("snapshot.old.bin", 2193, 0xb96e_a984_57ce_ec48),
    ];
    if got != want {
        for (name, len, digest) in &got {
            eprintln!("(\"{name}\", {len}, {digest:#018x}),");
        }
        panic!("durable bytes changed");
    }

    let (recovered, recovery) = MappingService::recover(machine, alloc, cfg).expect("recovers");
    assert_eq!(recovery.last_seq, events.len() as u64 + 3);
    assert_eq!(recovered.live_mapping(), Some(live));
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal whose header carries format version 1 is refused with
/// `RecoveryError::ForeignJournal`, before any frame is read: its
/// records may include a type version 2 no longer has.
#[test]
fn version_1_journal_is_refused() {
    let machine = MachineConfig::small(&[4, 4, 4], 2, 2).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(24, 7));
    let dir = std::env::temp_dir().join(format!("umpa-durable-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServiceConfig {
        workers: 0,
        durability: Some(DurabilityConfig::new(&dir)),
        ..ServiceConfig::default()
    };
    let service = MappingService::new(machine.clone(), alloc.clone(), cfg.clone());
    service.install_job(Arc::new(job())).expect("job fits");
    drop(service);

    let path = dir.join("journal.bin");
    let mut bytes = std::fs::read(&path).expect("journal exists");
    assert_eq!(&bytes[..12], b"UMPAJNL\0\x02\0\0\0", "a version-2 header");
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write journal");
    assert!(matches!(
        MappingService::recover(machine, alloc, cfg),
        Err(RecoveryError::ForeignJournal)
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

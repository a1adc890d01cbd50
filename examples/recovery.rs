//! Crash-safe service state: kill the journal mid-stream, recover
//! from disk, and verify the resident job came back bit-identical.
//!
//! A durable service (write-ahead churn journal + checksummed
//! snapshots, DESIGN.md §18) runs a resident job through a seeded
//! churn stream with a crash injected *inside* a frame write — the
//! torn tail a real `kill -9` leaves behind. `MappingService::recover`
//! then loads the newest valid snapshot, truncates the torn tail,
//! replays the surviving frames, and the example checks the recovered
//! mapping, drift counters and fault state against an uninterrupted
//! reference run over the same surviving prefix — exact to the bit.
//!
//! ```bash
//! cargo run --release --example recovery
//! ```

use std::sync::Arc;

use umpa::matgen::churn::{churn_sequence, ChurnSpec};
use umpa::prelude::*;
use umpa::service::{CrashPoint, CrashSwitch};

/// Ring + chords with skewed weights.
fn ring_with_chords(n: u32, seed: u64) -> TaskGraph {
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

fn main() {
    let machine = MachineConfig::small(&[4, 4, 4], 2, 2).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(48, 7));
    let resident = Arc::new(ring_with_chords(64, 3));
    let events = churn_sequence(&machine, &alloc, &ChurnSpec::new(24, 42));

    let dir = std::env::temp_dir().join("umpa-recovery-example");
    let _ = std::fs::remove_dir_all(&dir);
    let durable = |crash: Option<CrashSwitch>| ServiceConfig {
        workers: 0,
        durability: Some(DurabilityConfig {
            snapshot_every: 8,
            crash,
            ..DurabilityConfig::new(&dir)
        }),
        ..ServiceConfig::default()
    };

    // 1. Run the durable service into a crash: the switch kills the
    //    sink halfway through the 18th frame — a torn tail on disk,
    //    exactly what pulling the plug leaves behind.
    let switch = CrashSwitch::new();
    switch.arm(CrashPoint::MidFrame, 18);
    let svc = MappingService::new(
        machine.clone(),
        alloc.clone(),
        durable(Some(switch.clone())),
    );
    svc.install_job(Arc::clone(&resident))
        .expect("the resident job fits the allocation");
    for ev in &events {
        svc.apply_churn(std::slice::from_ref(ev));
    }
    let stats = svc.shutdown();
    println!(
        "crashed run: {} of {} ops journaled before the plug was pulled ({} write errors absorbed)",
        stats.journal_appends,
        events.len() + 1,
        stats.journal_errors
    );

    // 2. Recover from the durability directory alone.
    let (recovered, report) =
        MappingService::recover(machine.clone(), alloc.clone(), durable(None))
            .expect("recovery must handle a torn tail");
    println!(
        "recovered: snapshot {:?} (seq {}), {} frames replayed, {} torn bytes truncated, history length {}",
        report.snapshot_source,
        report.snapshot_seq,
        report.frames_replayed,
        report.truncated_bytes,
        report.last_seq
    );

    // 3. Reference: an uninterrupted in-memory run over the surviving
    //    prefix (frame 1 is the install; frame k+1 is events[k]).
    let reference = MappingService::new(
        machine,
        alloc,
        ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    );
    reference
        .install_job(Arc::clone(&resident))
        .expect("the resident job fits the allocation");
    let surviving = (report.last_seq - 1) as usize;
    for ev in &events[..surviving] {
        reference.apply_churn(std::slice::from_ref(ev));
    }

    let same_mapping = recovered.live_mapping() == reference.live_mapping();
    let same_wh = recovered.live_wh().map(f64::to_bits) == reference.live_wh().map(f64::to_bits);
    let same_fault = recovered.with_state(|m, _| m.fault_snapshot())
        == reference.with_state(|m, _| m.fault_snapshot());
    println!(
        "bit-identity vs uninterrupted run over {} surviving ops: mapping {}, WH bits {}, fault state {}",
        surviving,
        if same_mapping { "identical" } else { "DIVERGED" },
        if same_wh { "identical" } else { "DIVERGED" },
        if same_fault { "identical" } else { "DIVERGED" },
    );
    assert!(same_mapping && same_wh && same_fault);

    // 4. The recovered service is live: finish the stream on it.
    for ev in &events[surviving..] {
        recovered.apply_churn(std::slice::from_ref(ev));
    }
    println!(
        "recovered service finished the remaining {} ops; live WH {:.0}",
        events.len() - surviving,
        recovered.live_wh().unwrap_or(f64::NAN)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

//! The always-on mapping service: bounded admission, a deadline
//! degradation ladder, and a churn-drift supervisor in one shell.
//!
//! A 128-task resident job runs on a sparse 96-node allocation of a
//! 4×4×4 torus while a seeded stream of map requests and churn events
//! plays against the service: requests flow through the bounded
//! admission queue (overload is shed explicitly, never buffered
//! unboundedly), tight deadlines step the ladder down
//! `cong_refine → wh_refine → greedy-only → projection`, and every
//! churn event triggers an incremental repair with the drift
//! supervisor watching the live mapping's quality against a
//! from-scratch baseline.
//!
//! ```bash
//! cargo run --release --example service
//! ```

use std::sync::Arc;
use std::time::Instant;

use umpa::core::greedy::weighted_hops;
use umpa::core::{greedy_map_into, wh_refine_scratch, MapperScratch};
use umpa::prelude::*;

/// Ring + chords with skewed weights — structure to lose, so churn
/// drift shows up in WH.
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
    // 1. Machine + allocation: a 4×4×4 torus (128 nodes, 2 cores
    //    each), 96 nodes sparsely allocated — enough headroom that the
    //    resident job survives the churn generator's removal cap.
    let machine = MachineConfig::small(&[4, 4, 4], 2, 2).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(96, 7));

    // 2. The service: two workers behind a 16-deep admission queue;
    //    past depth 8 the ladder pre-sheds one rung. Durability is on:
    //    churn and job transitions are journaled (write-ahead) with
    //    periodic checksummed snapshots — map requests never touch it.
    let journal_dir = std::env::temp_dir().join("umpa-service-example");
    let _ = std::fs::remove_dir_all(&journal_dir);
    let svc = MappingService::new(
        machine,
        alloc,
        ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            pressure_depth: 8,
            durability: Some(DurabilityConfig::new(&journal_dir)),
            ..ServiceConfig::default()
        },
    );
    let resident = Arc::new(ring_with_chords(128, 3));
    let wh0 = svc
        .install_job(Arc::clone(&resident))
        .expect("the resident job fits the allocation");
    println!(
        "resident job installed: {} tasks, initial WH {:.0}\n",
        resident.num_tasks(),
        wh0
    );

    // 3. The load: a seeded request/churn stream with exponential
    //    inter-arrival gaps; deadlines cycle unbounded → comfortable →
    //    tight so every rung of the ladder gets exercised.
    let spec = LoadSpec {
        churn_fraction: 0.2,
        tasks: (32, 96),
        ..LoadSpec::new(400, 42)
    };
    let stream = svc.with_state(|m, a| load_sequence(m, a, &spec));
    let deadlines: [u64; 3] = [u64::MAX, 2_000_000, 150_000];
    println!(
        "replaying {} events (~20% churn, mean gap {} µs) ...",
        stream.len(),
        spec.mean_gap_ns / 1_000
    );

    let mut lat_us: Vec<f64> = Vec::new();
    let mut pending: Vec<MapTicket> = Vec::new();
    let mut refused = 0usize;
    let (mut reqs, mut churns) = (0usize, 0usize);
    for ev in &stream {
        // Pace arrivals, yielding the core to the workers.
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ev.gap_ns() {
            std::thread::yield_now();
        }
        match ev {
            LoadEvent::Churn { event, .. } => {
                churns += 1;
                let report = svc.apply_churn(std::slice::from_ref(event));
                if report.error.is_some() {
                    refused += 1;
                }
            }
            LoadEvent::Request { tasks, seed, .. } => {
                let job = MapJob::new(Arc::new(ring_with_chords(*tasks, *seed)))
                    .with_deadline_ns(deadlines[reqs % deadlines.len()]);
                reqs += 1;
                if let Submit::Accepted(ticket) = svc.submit_map(job) {
                    pending.push(ticket);
                }
                if pending.len() >= 24 {
                    for t in pending.drain(..) {
                        if let Ok(reply) = t.wait() {
                            lat_us.push(reply.total_ns as f64 / 1_000.0);
                        }
                    }
                }
            }
        }
    }
    for t in pending.drain(..) {
        if let Ok(reply) = t.wait() {
            lat_us.push(reply.total_ns as f64 / 1_000.0);
        }
    }

    // 4. Force one supervisor pass, then compare the live mapping
    //    against mapping the *final* machine state from scratch.
    svc.polish_now();
    let live_wh = svc.live_wh();
    let drift = svc.drift().unwrap_or_default();
    let scratch_wh = svc.with_state(|m, a| {
        let mut scratch = MapperScratch::new();
        let mut mapping = Vec::new();
        greedy_map_into(
            &resident,
            m,
            a,
            &Default::default(),
            &mut scratch.greedy,
            &mut mapping,
        );
        wh_refine_scratch(
            &resident,
            m,
            a,
            &mut mapping,
            &Default::default(),
            &mut scratch.wh,
        );
        weighted_hops(&resident, m, &mapping)
    });
    let snap = svc.shutdown();

    // 5. The report: admission, the ladder, repairs, and drift.
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "\nadmission: {} requests, {} accepted, {} shed (rate {:.3}), max queue depth {}",
        reqs,
        snap.accepted,
        snap.rejected,
        snap.shed_rate(),
        snap.max_queue_depth
    );
    if !lat_us.is_empty() {
        println!(
            "reply latency: p50 {:.0} µs, p99 {:.0} µs ({} deadline misses, {} panics caught)",
            lat_us[lat_us.len() / 2],
            lat_us[(lat_us.len() * 99 / 100).min(lat_us.len() - 1)],
            snap.deadline_misses,
            snap.panics
        );
    }
    let rungs = snap.rung_counts();
    println!(
        "ladder: {} {}, {} {}, {} {}, {} {}",
        rungs[0].1,
        rungs[0].0,
        rungs[1].1,
        rungs[1].0,
        rungs[2].1,
        rungs[2].0,
        rungs[3].1,
        rungs[3].0
    );
    println!(
        "churn: {} events, {} repairs, {} infeasible, {} batches refused",
        churns, snap.repairs, snap.infeasible, refused
    );
    println!(
        "supervisor: {} drift checks, {} polishes, {} baseline adoptions",
        snap.drift_checks, snap.polishes, snap.baseline_adoptions
    );
    println!(
        "repair drift: {} repairs, {} tasks displaced total, ΔWH {:+.0} cumulative ({:+.0} last)",
        drift.repairs, drift.displaced_total, drift.wh_delta_total, drift.wh_last
    );
    if snap.journal_appends > 0 || snap.journal_errors > 0 {
        println!(
            "durability: {} frames ({} B), {} snapshots, {} journal errors",
            snap.journal_appends, snap.journal_bytes, snap.snapshots_written, snap.journal_errors
        );
    }
    match live_wh {
        Some(live) => println!(
            "live WH {:.0} vs from-scratch {:.0} on the final machine state ({:+.1}%)",
            live,
            scratch_wh,
            (live / scratch_wh - 1.0) * 100.0
        ),
        None => println!("resident job still partially placed after the stream"),
    }
}

//! Failover: survive node failures and link degradation without
//! re-mapping the whole job.
//!
//! A 512-task halo-exchange application runs on a sparse 320-node
//! allocation of an 8×8×4 torus. Nodes then start failing (and coming
//! back), a link browns out, and finally a link dies outright. Each
//! time, `remap_incremental` repairs just the damaged neighborhood —
//! the example times every repair and compares the p50/p99 against
//! mapping the job from scratch.
//!
//! ```bash
//! cargo run --release --example failover
//! ```

use std::time::Instant;

use umpa::core::greedy::weighted_hops;
use umpa::core::{greedy_map_into, wh_refine_scratch, GreedyConfig, WhRefineConfig};
use umpa::prelude::*;

fn main() {
    // 1. Machine + allocation: an 8×8×4 torus (2 nodes per router,
    //    2 cores each), with 320 nodes scattered across it by a busy
    //    scheduler.
    let mut machine = MachineConfig::small(&[8, 8, 4], 2, 2).build();
    let mut alloc = Allocation::generate(&machine, &AllocSpec::sparse(320, 7));

    // 2. Application: 512 MPI tasks in a 3-D halo-exchange pattern.
    let side = 8u32;
    let idx = |x: u32, y: u32, z: u32| (z * side + y) * side + x;
    let mut messages = Vec::new();
    for z in 0..side {
        for y in 0..side {
            for x in 0..side {
                if x + 1 < side {
                    messages.push((idx(x, y, z), idx(x + 1, y, z), 8.0));
                    messages.push((idx(x + 1, y, z), idx(x, y, z), 8.0));
                }
                if y + 1 < side {
                    messages.push((idx(x, y, z), idx(x, y + 1, z), 8.0));
                    messages.push((idx(x, y + 1, z), idx(x, y, z), 8.0));
                }
                if z + 1 < side {
                    messages.push((idx(x, y, z), idx(x, y, z + 1), 8.0));
                    messages.push((idx(x, y, z + 1), idx(x, y, z), 8.0));
                }
            }
        }
    }
    let tasks = TaskGraph::from_messages(512, messages, None);

    // 3. Initial mapping: greedy + WH refinement (the full re-map this
    //    example races against).
    let greedy_cfg = GreedyConfig::default();
    let wh_cfg = WhRefineConfig::default();
    let mut scratch = MapperScratch::new();
    let mut mapping: Vec<u32> = Vec::new();
    let t = Instant::now();
    greedy_map_into(
        &tasks,
        &machine,
        &alloc,
        &greedy_cfg,
        &mut scratch.greedy,
        &mut mapping,
    );
    wh_refine_scratch(
        &tasks,
        &machine,
        &alloc,
        &mut mapping,
        &wh_cfg,
        &mut scratch.wh,
    );
    let full_map_us = t.elapsed().as_secs_f64() * 1e6;
    let initial_wh = weighted_hops(&tasks, &machine, &mapping);
    println!(
        "initial map: {} tasks on {} nodes, WH {:.0} ({:.0} µs from scratch)\n",
        tasks.num_tasks(),
        alloc.num_nodes(),
        initial_wh,
        full_map_us
    );

    // 4. Node churn: a seeded stream of failures and re-additions, one
    //    incremental repair per event.
    let spec = ChurnSpec::nodes_only(40, 99);
    let events = churn_sequence(&machine, &alloc, &spec);
    let cfg = RemapConfig::default();
    let mut repair_us: Vec<f64> = Vec::new();
    println!(
        "{:>3}  {:>22}  {:>9}  {:>8}  {:>8}",
        "ev", "event", "displaced", "WH", "µs"
    );
    for (i, ev) in events.iter().enumerate() {
        let t = Instant::now();
        let outcome = remap_incremental(
            &tasks,
            &mut machine,
            &mut alloc,
            &mut mapping,
            std::slice::from_ref(ev),
            &cfg,
            &mut scratch,
        );
        let us = t.elapsed().as_secs_f64() * 1e6;
        repair_us.push(us);
        let label = match ev {
            ChurnEvent::NodeFailed { .. } => "node failed".to_string(),
            ChurnEvent::NodesRemoved { nodes } => format!("{} nodes reclaimed", nodes.len()),
            ChurnEvent::NodesAdded { nodes } => format!("{} nodes returned", nodes.len()),
            ChurnEvent::LinkDegraded { factor, .. } => format!("link at {factor:.2}x"),
        };
        match outcome {
            RemapOutcome::Repaired(stats) => println!(
                "{:>3}  {:>22}  {:>9}  {:>8.0}  {:>8.0}",
                i,
                label,
                stats.displaced,
                weighted_hops(&tasks, &machine, &mapping),
                us
            ),
            RemapOutcome::Infeasible { unplaced } => println!(
                "{:>3}  {:>22}  {:>9}  {:>8}  {:>8.0}   INFEASIBLE ({} unplaced)",
                i,
                label,
                "-",
                "-",
                us,
                unplaced.len()
            ),
        }
    }

    // 5. Link trouble: a brown-out keeps routes but reweights costs; a
    //    hard failure runs the masked BFS sweep (the one cold-path
    //    repair: ≈ 2 ms on this torus, ≈ 0.28 s on Hopper, on a 2-CPU
    //    VM) and routes around the dead link.
    for (factor, what) in [(0.5, "brown-out (0.5x bandwidth)"), (0.0, "hard failure")] {
        let ev = ChurnEvent::LinkDegraded { link: 0, factor };
        let t = Instant::now();
        let outcome = remap_incremental(
            &tasks,
            &mut machine,
            &mut alloc,
            &mut mapping,
            &[ev],
            &cfg,
            &mut scratch,
        );
        let us = t.elapsed().as_secs_f64() * 1e6;
        println!(
            "\nlink 0 {}: repaired={} in {:.0} µs (WH {:.0})",
            what,
            outcome.is_repaired(),
            us,
            weighted_hops(&tasks, &machine, &mapping)
        );
    }
    let ev = ChurnEvent::LinkDegraded {
        link: 0,
        factor: 1.0,
    };
    ev.apply(&mut machine, &mut alloc);

    // 6. The headline comparison: incremental repair vs full re-map.
    repair_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = repair_us[repair_us.len() / 2];
    let p99 = repair_us[(repair_us.len() * 99 / 100).min(repair_us.len() - 1)];
    let t = Instant::now();
    greedy_map_into(
        &tasks,
        &machine,
        &alloc,
        &greedy_cfg,
        &mut scratch.greedy,
        &mut mapping,
    );
    wh_refine_scratch(
        &tasks,
        &machine,
        &alloc,
        &mut mapping,
        &wh_cfg,
        &mut scratch.wh,
    );
    let full_us = t.elapsed().as_secs_f64() * 1e6;
    println!(
        "\nrepair latency over {} node-churn events: p50 {:.0} µs, p99 {:.0} µs",
        repair_us.len(),
        p50,
        p99
    );
    println!(
        "full re-map (greedy + WH): {:.0} µs → p99 repair is {:.1}x faster",
        full_us,
        full_us / p99
    );
}

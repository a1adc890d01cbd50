//! Map a task graph 10–100× larger than the machine with the
//! multilevel coarsen–map–refine engine.
//!
//! Generates a 3-D stencil halo-exchange pattern (10⁵ tasks by
//! default, `--tasks 1000000` for the million-task run), allocates most
//! of the Hopper-preset torus, and runs `multilevel_map_into` with the
//! `UWH` mapper — the workload the direct pipeline's phase-1
//! partitioner cannot touch at this scale.
//!
//! ```bash
//! cargo run --release --example large_graph            # 10^5 tasks
//! cargo run --release --example large_graph -- --tasks 1000000
//! ```

use std::time::Instant;

use umpa::core::multilevel::multilevel_map_into;
use umpa::core::scratch::MapperScratch;
use umpa::matgen::taskgen::{stencil3d_tasks, total_weight_for};
use umpa::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tasks: usize = args
        .windows(2)
        .find(|w| w[0] == "--tasks")
        .map(|w| w[1].parse().expect("--tasks wants a number"))
        .unwrap_or(100_000);

    // The paper's machine: 17×8×24 Gemini torus, 6528 nodes. Allocate
    // 80 % of it the way a busy scheduler would.
    let machine = MachineConfig::hopper().build();
    let alloc = Allocation::generate(
        &machine,
        &AllocSpec::sparse(machine.num_nodes() * 8 / 10, 42),
    );
    println!(
        "machine: {} ({} nodes); allocated {} nodes / {} procs",
        machine.topology().summary(),
        machine.num_nodes(),
        alloc.num_nodes(),
        alloc.total_procs()
    );

    // A near-cubic 3-D stencil with `tasks` cells, filling half the
    // allocation's processor capacity (the fill factor is what the
    // capacity-aware matching coarsens into — see DESIGN.md §12).
    let side = (tasks as f64).cbrt().round() as usize;
    let (nx, ny) = (side, side);
    let nz = tasks.div_ceil(nx * ny);
    let t0 = Instant::now();
    let tg = stencil3d_tasks(nx, ny, nz, 8.0, 2.0, total_weight_for(&alloc, 0.5));
    println!(
        "task graph: {}×{}×{} stencil, {} tasks, {} messages (generated in {:.2?})",
        nx,
        ny,
        nz,
        tg.num_tasks(),
        tg.num_messages(),
        t0.elapsed()
    );

    // Map it. The engine coarsens by capacity-aware heavy-edge
    // matching, maps the coarsest graph with greedy + WH refinement,
    // and refines on the way back up.
    let cfg = PipelineConfig::default();
    let mut scratch = MapperScratch::new();
    let mut mapping = Vec::new();
    let t1 = Instant::now();
    let stats = multilevel_map_into(
        &tg,
        &machine,
        &alloc,
        MapperKind::GreedyWh,
        &cfg,
        &mut scratch,
        &mut mapping,
    );
    let elapsed = t1.elapsed();
    println!(
        "mapped in {elapsed:.2?}: {} hierarchy levels, coarsest graph {} vertices",
        stats.levels, stats.coarsest_tasks
    );

    umpa::core::validate_mapping(&tg, &alloc, &mapping).expect("mapping must be feasible");
    let report = evaluate(&tg, &machine, &mapping);
    println!(
        "metrics: TH {:.3e}  WH {:.3e}  MMC {:.0}  MC {:.1}",
        report.th, report.wh, report.mmc, report.mc
    );
    println!(
        "  avg hops per message: {:.2} (diameter {})",
        report.th / tg.num_messages() as f64,
        machine.diameter()
    );
}

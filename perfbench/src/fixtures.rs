//! Seeded inputs: machines, allocations and task graphs.
//!
//! The mix of machines, allocations, graph structures and mappers is
//! fixed. The run seed numbers the closed loops' tasks, times the open
//! loops' arrivals, renumbers their power-law requests and picks the
//! links that fail, so two seeds exercise the same shapes of work on
//! different inputs.

use std::sync::Arc;

use umpa_core::MapperKind;
use umpa_graph::TaskGraph;
use umpa_matgen::gen::{stencil2d, Stencil2D};
use umpa_matgen::{power_law_tasks, spmv_task_graph, stencil3d_tasks, total_weight_for as weight};
use umpa_partition::PartitionerKind;
use umpa_topology::{
    AllocSpec, Allocation, DragonflyConfig, FatTreeConfig, Machine, MachineConfig,
};

/// Seed of the fixed part of every workload: allocation placements,
/// graph structures and matrix partitions, the open loops' churn
/// events.
pub const FIXED_SEED: u64 = 11;

/// Mixes a sub-stream id into the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .rotate_left(17)
}

/// The three topology backends: Hopper's 3-D torus, a fat-tree
/// cluster and a dragonfly supercomputer (small stand-ins when tiny).
pub fn machines(tiny: bool) -> Vec<Machine> {
    if tiny {
        vec![
            MachineConfig::small(&[4, 4], 1, 4).build(),
            FatTreeConfig::small(4, 2, 4).build(),
            DragonflyConfig {
                procs_per_node: 4,
                ..DragonflyConfig::small(3, 3, 2)
            }
            .build(),
        ]
    } else {
        vec![
            MachineConfig::hopper().build(),
            FatTreeConfig::cluster().build(),
            DragonflyConfig::supercomputer().build(),
        ]
    }
}

/// Hopper (3264 routers), or a small torus when tiny.
pub fn hopper(tiny: bool) -> Machine {
    if tiny {
        MachineConfig::small(&[4, 4, 2], 2, 4).build()
    } else {
        MachineConfig::hopper().build()
    }
}

/// Builds the lazily derived distance oracle and route memo, so the
/// first timed request does not pay for them.
pub fn warm(machine: &Machine) {
    std::hint::black_box(machine.oracle());
    std::hint::black_box(machine.route_cache());
}

/// One map request's inputs.
pub struct Fixture {
    /// Index into the machine list.
    pub machine: usize,
    /// The allocated nodes.
    pub alloc: Allocation,
    /// The application's task graph, its tasks numbered by the run seed.
    pub tasks: TaskGraph,
    /// The same graph numbered as its generator numbers it; the DEF
    /// mapping places tasks in this order.
    pub natural: Arc<TaskGraph>,
    /// Mappers this input is requested with.
    pub kinds: &'static [MapperKind],
    /// Which numbering of its shape this is; set-up warms numbering 0.
    pub copy: usize,
}

/// Adds one fixture per entry of `labels`: the graph renumbered by that
/// seed, or as generated for `None`.
fn push_shape(
    pool: &mut Vec<Fixture>,
    machine: usize,
    alloc: Allocation,
    natural: TaskGraph,
    kinds: &'static [MapperKind],
    labels: &[Option<u64>],
) {
    let natural = Arc::new(natural);
    for (copy, label) in labels.iter().enumerate() {
        pool.push(Fixture {
            machine,
            alloc: alloc.clone(),
            tasks: match label {
                Some(seed) => relabeled(&natural, *seed),
                None => (*natural).clone(),
            },
            natural: Arc::clone(&natural),
            kinds,
            copy,
        });
    }
}

/// `copies` seed-chosen numberings of the shape of sub-stream `stream`.
fn numberings(seed: u64, stream: u64, copies: usize) -> Vec<Option<u64>> {
    (0..copies as u64)
        .map(|c| Some(sub_seed(sub_seed(seed, stream), c)))
        .collect()
}

/// Numberings of each closed-loop shape per run. A request's cost moves
/// by up to a quarter with the numbering of its tasks, so a run maps
/// several numberings of every shape, and its quantiles average over
/// them instead of riding on one.
fn copies(tiny: bool) -> usize {
    if tiny {
        1
    } else {
        4
    }
}

/// Mappers the direct workload cycles through.
pub const DIRECT_KINDS: &[MapperKind] = &[
    MapperKind::Greedy,
    MapperKind::GreedyWh,
    MapperKind::GreedyMc,
    MapperKind::GreedyMmc,
];

/// Multilevel mappers: WH refinement everywhere, congestion refinement
/// only where its per-level cost stays within a request's budget.
const ML_WH: &[MapperKind] = &[MapperKind::GreedyWh];
const ML_WH_MC: &[MapperKind] = &[MapperKind::GreedyWh, MapperKind::GreedyMc];

/// Machine-sized requests: row-partitioned SpMV on a 5-point stencil
/// (one task per processor) and power-law graphs of up to 1.6 k tasks,
/// on sparse 16–64-node allocations of every machine, each shape in
/// four numberings of its tasks chosen by `seed`.
///
/// Shapes and allocations are fixed: placing the allocations by seed
/// made the slowest requests, and with them `map_p99_ms`, swing by a
/// third from seed to seed. For the same reason the largest power-law
/// shape, whose congestion-refined requests are the slowest ones and
/// cost 60–140 ms depending on the numbering, keeps four fixed
/// numberings: `map_p99_ms` falls among them.
pub fn direct_pool(machines: &[Machine], tiny: bool, seed: u64) -> Vec<Fixture> {
    // (allocated nodes, power-law tasks, fill) per size class.
    let (spmv_nodes, plaw): (&[usize], &[(usize, usize, f64)]) = if tiny {
        (&[4], &[(6, 40, 0.8)])
    } else {
        (
            &[16, 32],
            &[
                (32, 600, 0.8),
                (32, 800, 0.8),
                (48, 1200, 0.85),
                (64, 1600, 0.85),
            ],
        )
    };
    let mut pool = Vec::new();
    let mut stream = 0u64;
    for (mi, machine) in machines.iter().enumerate() {
        for &nodes in spmv_nodes {
            stream += 1;
            let s = sub_seed(FIXED_SEED, stream);
            let alloc = Allocation::generate(machine, &AllocSpec::sparse(nodes, s));
            let parts = alloc.total_procs() as usize;
            // About eight matrix rows per task.
            let side = ((8 * parts) as f64).sqrt().ceil() as usize;
            let a = stencil2d(side, side, Stencil2D::FivePoint);
            let part = PartitionerKind::Metis.partition_matrix(&a, parts, s);
            let natural = spmv_task_graph(&a, &part, parts);
            let labels = numberings(seed, stream, copies(tiny));
            push_shape(&mut pool, mi, alloc, natural, DIRECT_KINDS, &labels);
        }
        let largest = plaw.iter().map(|p| p.1).max();
        for &(nodes, n, fill) in plaw {
            stream += 1;
            let s = sub_seed(FIXED_SEED, stream);
            let alloc = Allocation::generate(machine, &AllocSpec::sparse(nodes, s));
            let natural = power_law_tasks(n, 3, s, weight(&alloc, fill));
            let by = if Some(n) == largest { FIXED_SEED } else { seed };
            let labels = numberings(by, stream, copies(tiny));
            push_shape(&mut pool, mi, alloc, natural, DIRECT_KINDS, &labels);
        }
    }
    pool
}

/// Graphs 10–100× the allocation's processor count (3-D halo stencils
/// and power-law graphs) at half fill, for the multilevel engine. As in
/// [`direct_pool`], shapes and allocations are fixed and `seed` chooses
/// four numberings of each, except for the one shape also requested
/// with GreedyMc: that request's congestion refinement costs 0.2–0.55 s
/// depending on the numbering, so it alone would move `map_p99_ms` by
/// half; it keeps its generated numbering.
pub fn multilevel_pool(machines: &[Machine], tiny: bool, seed: u64) -> Vec<Fixture> {
    /// Allocated nodes, graph shape, mappers.
    enum Shape {
        Stencil(usize, (usize, usize, usize), &'static [MapperKind]),
        PowerLaw(usize, usize, &'static [MapperKind]),
    }
    use Shape::{PowerLaw, Stencil};
    // Per machine (torus, fat tree, dragonfly).
    let shapes: [[Shape; 2]; 3] = if tiny {
        [
            [Stencil(4, (8, 8, 4), ML_WH), PowerLaw(4, 300, ML_WH)],
            [Stencil(4, (8, 6, 4), ML_WH_MC), PowerLaw(4, 200, ML_WH)],
            [Stencil(4, (6, 6, 6), ML_WH), PowerLaw(4, 400, ML_WH)],
        ]
    } else {
        [
            [Stencil(16, (24, 24, 16), ML_WH), PowerLaw(16, 8_000, ML_WH)],
            [
                Stencil(16, (16, 16, 12), ML_WH_MC),
                PowerLaw(16, 12_000, ML_WH),
            ],
            [Stencil(32, (32, 32, 20), ML_WH), PowerLaw(32, 6_000, ML_WH)],
        ]
    };
    let mut pool = Vec::new();
    for (mi, (machine, row)) in machines.iter().zip(&shapes).enumerate() {
        for (j, shape) in row.iter().enumerate() {
            let stream = 100 + 2 * mi as u64 + j as u64;
            let s = sub_seed(FIXED_SEED, stream);
            let (nodes, kinds) = match shape {
                Stencil(n, _, k) | PowerLaw(n, _, k) => (*n, *k),
            };
            let alloc = Allocation::generate(machine, &AllocSpec::sparse(nodes, s));
            let weight = weight(&alloc, 0.5);
            let natural = match shape {
                Stencil(_, (x, y, z), _) => stencil3d_tasks(*x, *y, *z, 8.0, 2.0, weight),
                PowerLaw(_, n, _) => power_law_tasks(*n, 3, s, weight),
            };
            let labels = if kinds.contains(&MapperKind::GreedyMc) {
                vec![None]
            } else {
                numberings(seed, stream, copies(tiny))
            };
            push_shape(&mut pool, mi, alloc, natural, kinds, &labels);
        }
    }
    pool
}

/// A resident 96-task halo-exchange job filling 60 % of `alloc`, so it
/// stays placeable after the churn generator's 25 % node-removal cap.
pub fn resident_job(alloc: &Allocation, tiny: bool) -> TaskGraph {
    let (x, y, z) = if tiny { (4, 4, 2) } else { (8, 4, 3) };
    stencil3d_tasks(x, y, z, 8.0, 2.0, weight(alloc, 0.6))
}

/// Request `k` of a served pool: task counts step evenly through
/// `lo..=hi`; even requests are 3-D halo stencils, odd ones power-law
/// graphs relabeled by `seed`. Unit task weights.
pub fn request_graph(k: usize, pool: usize, (lo, hi): (u32, u32), seed: u64) -> TaskGraph {
    let n = lo as usize + k * (hi - lo) as usize / pool.saturating_sub(1).max(1);
    if k.is_multiple_of(2) {
        let z = (n / 16).max(1);
        stencil3d_tasks(4, 4, z, 8.0, 2.0, (16 * z) as f64)
    } else {
        let base = power_law_tasks(n, 2, sub_seed(FIXED_SEED, k as u64), n as f64);
        relabeled(&base, seed)
    }
}

/// `tg` with its task ids permuted by a seeded shuffle.
pub fn relabeled(tg: &TaskGraph, seed: u64) -> TaskGraph {
    let n = tg.num_tasks();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        perm.swap(i, (z % (i as u64 + 1)) as usize);
    }
    let mut weights = vec![0.0; n];
    for (t, &p) in perm.iter().enumerate() {
        weights[p as usize] = tg.task_weight(t as u32);
    }
    let msgs = tg
        .messages()
        .map(|(s, t, w)| (perm[s as usize], perm[t as usize], w));
    TaskGraph::from_messages(n, msgs, Some(weights))
}

//! Microbenchmarks: the building blocks whose complexity the paper
//! analyzes (routing, BFS, heap ops, metric evaluation) and the
//! end-to-end mappers of Figure 3.
//!
//! Criterion is unavailable offline; this uses the `umpa_bench::timing`
//! harness (`cargo bench -p umpa-bench`). Pass `--fast` for a smoke run.

use umpa_bench::timing::{bench_ns, print_samples, BenchOpts, Sample};
use umpa_core::prelude::*;
use umpa_graph::{Bfs, TaskGraph};
use umpa_matgen::spmv::spmv_task_graph;
use umpa_partition::PartitionerKind;
use umpa_topology::prelude::*;

fn machine() -> Machine {
    MachineConfig::hopper().build()
}

fn bench_routing(opts: &BenchOpts, out: &mut Vec<Sample>) {
    let m = machine();
    let pairs: Vec<(u32, u32)> = (0..256u32)
        .map(|i| (i * 13 % m.num_nodes() as u32, i * 97 % m.num_nodes() as u32))
        .collect();
    let mut links = Vec::new();
    out.push(bench_ns("torus_route_256_pairs", opts, || {
        let mut total = 0usize;
        for &(x, y) in &pairs {
            links.clear();
            m.route_links(x, y, &mut links);
            total += links.len();
        }
        total
    }));
    out.push(bench_ns("torus_distance_256_pairs", opts, || {
        let mut total = 0u32;
        for &(x, y) in &pairs {
            total += m.hops(x, y);
        }
        total
    }));
}

/// The dispatch experiment behind the `Topology` enum decision: route
/// the same pair set through the enum (static, inlinable) and through a
/// `dyn` wrapper (what a trait-object design would pay per call). The
/// enum consistently wins or ties; the losing design would buy
/// flexibility the workspace has no use for (backends are a closed,
/// compiled-in set). Recorded in DESIGN.md §10.
fn bench_dispatch(opts: &BenchOpts, out: &mut Vec<Sample>) {
    use umpa_topology::Topology;

    trait DynRoute {
        fn route(&self, a: u32, b: u32, out: &mut Vec<u32>);
    }
    impl DynRoute for Topology {
        fn route(&self, a: u32, b: u32, out: &mut Vec<u32>) {
            self.route_links(a, b, out);
        }
    }

    let machines: Vec<(&str, Machine)> = vec![
        ("torus", machine()),
        ("fattree", FatTreeConfig::small(8, 2, 16).build()),
        ("dragonfly", DragonflyConfig::small(9, 8, 2).build()),
    ];
    for (name, m) in &machines {
        let nr = m.num_terminal_routers() as u32;
        let pairs: Vec<(u32, u32)> = (0..256u32).map(|i| (i * 13 % nr, i * 97 % nr)).collect();
        let topo = m.topology();
        let dynamic: &dyn DynRoute = topo;
        let mut links = Vec::new();
        out.push(bench_ns(&format!("dispatch_enum/{name}"), opts, || {
            let mut total = 0usize;
            for &(x, y) in &pairs {
                links.clear();
                topo.route_links(x, y, &mut links);
                total += links.len();
            }
            total
        }));
        out.push(bench_ns(&format!("dispatch_dyn/{name}"), opts, || {
            let mut total = 0usize;
            for &(x, y) in &pairs {
                links.clear();
                dynamic.route(x, y, &mut links);
                total += links.len();
            }
            total
        }));
    }
}

fn bench_bfs(opts: &BenchOpts, out: &mut Vec<Sample>) {
    let m = machine();
    let g = m.router_graph();
    let mut bfs = Bfs::new(g.num_vertices());
    out.push(bench_ns("router_graph_full_bfs", opts, || {
        bfs.start([0u32]);
        let mut count = 0usize;
        while bfs.next(g).is_some() {
            count += 1;
        }
        count
    }));
}

fn bench_heap(opts: &BenchOpts, out: &mut Vec<Sample>) {
    use umpa_ds::IndexedMaxHeap;
    out.push(bench_ns("indexed_heap_10k_mixed_ops", opts, || {
        let mut h = IndexedMaxHeap::new(10_000);
        for i in 0..10_000u32 {
            h.push(i, f64::from(i * 2654435761 % 10_000));
        }
        for i in 0..5_000u32 {
            h.change_key(i, f64::from(i % 97));
        }
        let mut sum = 0.0;
        while let Some((_, k)) = h.pop() {
            sum += k;
        }
        sum
    }));
}

/// Shared fixture: a PATOH-partitioned stencil task graph.
fn fixture(parts: usize) -> (Machine, Allocation, TaskGraph) {
    let m = machine();
    let a = umpa_matgen::gen::stencil2d(64, 64, umpa_matgen::gen::Stencil2D::FivePoint);
    let part = PartitionerKind::Patoh.partition_matrix(&a, parts, 42);
    let tg = spmv_task_graph(&a, &part, parts);
    let alloc = Allocation::generate(&m, &AllocSpec::sparse(parts / 16, 11));
    (m, alloc, tg)
}

fn bench_metrics(opts: &BenchOpts, out: &mut Vec<Sample>) {
    let (m, alloc, tg) = fixture(256);
    let cfg = PipelineConfig::default();
    let mapped = map_tasks(&tg, &m, &alloc, MapperKind::Greedy, &cfg);
    out.push(bench_ns("evaluate_metrics_256_tasks", opts, || {
        evaluate(&tg, &m, &mapped.fine_mapping).wh
    }));
}

fn bench_mappers(opts: &BenchOpts, out: &mut Vec<Sample>) {
    // Figure 3's measurement: wall time per mapping algorithm.
    for parts in [128usize, 256] {
        let (m, alloc, tg) = fixture(parts);
        let cfg = PipelineConfig::default();
        for kind in MapperKind::all() {
            out.push(bench_ns(
                &format!("mappers_fig3/{}/{parts}", kind.name()),
                opts,
                || map_tasks(&tg, &m, &alloc, kind, &cfg).fine_mapping.len(),
            ));
        }
    }
}

fn bench_partitioner(opts: &BenchOpts, out: &mut Vec<Sample>) {
    let a = umpa_matgen::gen::stencil2d(64, 64, umpa_matgen::gen::Stencil2D::FivePoint);
    for kind in [PartitionerKind::Scotch, PartitionerKind::Patoh] {
        out.push(bench_ns(
            &format!("partitioner/{}", kind.name()),
            opts,
            || kind.partition_matrix(&a, 64, 7).len(),
        ));
    }
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let opts = if fast {
        BenchOpts::fast()
    } else {
        BenchOpts::default()
    };
    let mut out = Vec::new();
    bench_routing(&opts, &mut out);
    bench_dispatch(&opts, &mut out);
    bench_bfs(&opts, &mut out);
    bench_heap(&opts, &mut out);
    bench_metrics(&opts, &mut out);
    bench_mappers(&opts, &mut out);
    bench_partitioner(&opts, &mut out);
    print_samples(&out);
}

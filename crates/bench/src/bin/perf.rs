//! Perf tracker: times the mapping engine's hot paths and the service
//! round trip, then emits `BENCH_mapping.json` so subsequent changes
//! have a perf trajectory to regress against.
//!
//! Measured (median ns/op over warm scratch — the steady-state serving
//! path), per topology backend:
//!
//! * `greedy` — Algorithm 1 through [`greedy_map_into`] (torus rows
//!   keep their historical unsuffixed names; fat-tree and dragonfly
//!   rows are suffixed `/fattree` and `/dragonfly`);
//! * `wh_refine` — Algorithm 2 from a fresh greedy mapping each op;
//! * `cong_refine` — Algorithm 3 (volume) from a fresh greedy mapping;
//! * `dist_table` vs `dist_analytic` — the distance-oracle microbench:
//!   the same pseudo-random router-pair sweep through the dense table
//!   and through the analytic `Topology::distance`;
//! * `multilevel` — the coarsen–map–refine engine on a 3-D stencil
//!   task graph far larger than the allocation (warm hierarchy +
//!   scratch; UWH kind), per backend;
//! * `remap` — one incremental repair cycle (fail the node hosting
//!   task 0, repair, return the node, repair) through
//!   [`remap_incremental`] with warm scratch, per backend; the metrics
//!   block adds `remap_p50_ns` / `remap_p99_ns` per-repair latency,
//!   the mean displaced-task count, the p99 speedup over a
//!   from-scratch greedy+WH re-map, and the repaired-vs-from-scratch
//!   WH / AC / MC ratios for a single node failure;
//! * `service` — one request round-trip through the always-on
//!   [`MappingService`] (torus, empty queue, one worker): submit via
//!   the bounded admission queue, block on the reply. The metrics
//!   block adds a seeded request+churn replay under burst overload:
//!   `service_p50_ns` / `service_p99_ns` reply latency (including
//!   queue wait), `service_shed_rate` (admission rejections), and the
//!   `service_ladder_*` per-rung serve counts showing how the deadline
//!   ladder degraded under pressure.
//!
//! The metrics block records `oracle_enabled` and `oracle_build_ns` per
//! backend so the perf trajectory distinguishes table-backed runs.
//!
//! Usage: `cargo run --release -p umpa-bench --bin perf [--preset
//! tiny|default] [--topo torus|fattree|dragonfly|all] [--out PATH]`;
//! any other argument, or a flag without its value, prints the usage
//! and exits 2 before anything is measured or written. The `tiny`
//! preset is the CI smoke configuration; CI runs it once per backend.
//! The default preset is the regression-gate configuration (see
//! `perf_gate`).

use umpa_bench::timing::{bench_ns, fmt_ns, print_samples, to_json, BenchOpts, Sample};
use umpa_core::cong_refine::{congestion_refine_scratch, CongRefineConfig};
use umpa_core::greedy::{greedy_map_into, GreedyConfig};
use umpa_core::metrics::evaluate;
use umpa_core::multilevel::multilevel_map_into;
use umpa_core::pipeline::{MapperKind, PipelineConfig};
use umpa_core::remap::{remap_incremental, ChurnEvent, RemapConfig};
use umpa_core::scratch::MapperScratch;
use umpa_core::wh_refine::{wh_refine_scratch, WhRefineConfig};
use umpa_graph::TaskGraph;
use umpa_matgen::gen::{stencil2d, Stencil2D};
use umpa_matgen::spmv::spmv_task_graph;
use umpa_matgen::taskgen::{stencil3d_tasks, total_weight_for};
use umpa_matgen::{load_sequence, ChurnSpec, LoadEvent, LoadSpec};
use umpa_partition::PartitionerKind;
use umpa_service::journal::Durability;
use umpa_service::{DurabilityConfig, MapJob, MapTicket, MappingService, ServiceConfig, Submit};
use umpa_topology::{
    AllocSpec, Allocation, DragonflyConfig, FatTreeConfig, Machine, MachineConfig,
};

use std::sync::Arc;

struct Preset {
    name: &'static str,
    /// Stencil grid edge (tasks = edge²).
    grid: usize,
    /// Parts = fine tasks of the pipeline benchmarks.
    parts: usize,
    /// Allocated nodes.
    nodes: usize,
    /// 3-D stencil dimensions of the multilevel fixture (tasks ≫ the
    /// allocation, so the coarsen–map–refine path is what's measured).
    ml_grid: (usize, usize, usize),
    opts: BenchOpts,
}

impl Preset {
    fn tiny() -> Self {
        Self {
            name: "tiny",
            grid: 16,
            parts: 32,
            nodes: 8,
            ml_grid: (16, 16, 8), // 2048 tasks
            opts: BenchOpts::fast(),
        }
    }

    fn default() -> Self {
        Self {
            name: "default",
            grid: 64,
            parts: 256,
            nodes: 16,
            ml_grid: (30, 30, 22), // 19800 tasks
            opts: BenchOpts::default(),
        }
    }

    /// One machine per topology backend, sized to the preset. Torus is
    /// the historical fixture; the others open the fat-tree cluster and
    /// dragonfly supercomputer scenario families.
    fn machines(&self) -> Vec<(&'static str, Machine)> {
        if self.name == "tiny" {
            vec![
                ("torus", MachineConfig::small(&[4, 4], 1, 4).build()),
                ("fattree", FatTreeConfig::small(4, 2, 4).build()),
                (
                    "dragonfly",
                    DragonflyConfig {
                        procs_per_node: 4,
                        ..DragonflyConfig::small(3, 3, 2)
                    }
                    .build(),
                ),
            ]
        } else {
            vec![
                ("torus", MachineConfig::hopper().build()),
                ("fattree", FatTreeConfig::cluster().build()),
                ("dragonfly", DragonflyConfig::supercomputer().build()),
            ]
        }
    }
}

/// The engine-level fixture: a partitioned SpMV task graph shared by
/// every backend, plus a per-machine sparse allocation.
fn task_graph(preset: &Preset) -> TaskGraph {
    let a = stencil2d(preset.grid, preset.grid, Stencil2D::FivePoint);
    let part = PartitionerKind::Patoh.partition_matrix(&a, preset.parts, 42);
    spmv_task_graph(&a, &part, preset.parts)
}

/// Ring + chords with skewed weights — the service replay's per-request
/// graphs, seeded from the load stream so each request differs.
fn service_request_graph(n: u32, seed: u64) -> TaskGraph {
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

const USAGE: &str =
    "usage: perf [--preset tiny|default] [--topo torus|fattree|dragonfly|all] [--out PATH]";

/// The command line, parsed.
struct Args {
    preset: Preset,
    topo: String,
    out: String,
}

/// Accepts exactly `--preset <tiny|default>`, `--topo
/// <torus|fattree|dragonfly|all>` and `--out <path>`, each with its
/// value; anything else is an error, so a mistyped flag cannot fall
/// back to a default (`--out` defaults to the committed
/// `BENCH_mapping.json`).
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        preset: Preset::default(),
        topo: "all".to_string(),
        out: "BENCH_mapping.json".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !matches!(flag.as_str(), "--preset" | "--topo" | "--out") {
            return Err(format!("unknown argument {flag:?}"));
        }
        let Some(value) = it.next().filter(|v| !v.starts_with("--")) else {
            return Err(format!("{flag} needs a value"));
        };
        match (flag.as_str(), value.as_str()) {
            ("--preset", "tiny") => parsed.preset = Preset::tiny(),
            ("--preset", "default") => parsed.preset = Preset::default(),
            ("--topo", "torus" | "fattree" | "dragonfly" | "all") => parsed.topo = value.clone(),
            ("--out", _) => parsed.out = value.clone(),
            _ => return Err(format!("unknown {flag} {value:?}")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        preset,
        topo: topo_filter,
        out: out_path,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("perf: {e}\n{USAGE}");
        std::process::exit(2);
    });
    eprintln!(
        "perf [{}]: grid {}x{}, {} parts, {} nodes, topo filter {topo_filter}",
        preset.name, preset.grid, preset.grid, preset.parts, preset.nodes
    );

    let tg = task_graph(&preset);
    let greedy_cfg = GreedyConfig::default();
    let wh_cfg = WhRefineConfig::default();
    let mc_cfg = CongRefineConfig::volume();
    let mut samples: Vec<Sample> = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();

    let machines: Vec<(&'static str, Machine)> = preset
        .machines()
        .into_iter()
        .filter(|(name, _)| topo_filter == "all" || topo_filter == *name)
        .collect();

    for (backend, machine) in &machines {
        // Torus rows keep PR-1's unsuffixed names so the perf
        // trajectory stays comparable across PRs.
        let row = |stem: &str| -> String {
            if *backend == "torus" {
                stem.to_string()
            } else {
                format!("{stem}/{backend}")
            }
        };
        // One-time oracle build cost, measured before anything touches
        // distances (the OnceLock builds on first use).
        let t0 = std::time::Instant::now();
        let oracle_on = machine.oracle().is_some();
        let build_ns = t0.elapsed().as_nanos() as f64;
        let metric = |stem: &str| -> String {
            if *backend == "torus" {
                stem.to_string()
            } else {
                format!("{stem}_{backend}")
            }
        };
        metrics.push((metric("oracle_enabled"), f64::from(u8::from(oracle_on))));
        metrics.push((metric("oracle_build_ns"), build_ns));

        let alloc = Allocation::generate(machine, &AllocSpec::sparse(preset.nodes, 11));
        eprintln!(
            "backend {backend}: {} ({} nodes allocated, oracle {})",
            machine.topology().summary(),
            preset.nodes,
            if oracle_on { "on" } else { "off" }
        );

        // --- Distance microbench: table vs analytic ------------------
        // A fixed pseudo-random terminal-router pair sweep, identical
        // for both implementations.
        let nt = machine.num_terminal_routers() as u64;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let pairs: Vec<(u32, u32)> = (0..1024)
            .map(|_| ((rnd() % nt) as u32, (rnd() % nt) as u32))
            .collect();
        let topo = machine.topology();
        samples.push(bench_ns(&row("dist_analytic"), &preset.opts, || {
            pairs
                .iter()
                .map(|&(a, b)| u64::from(topo.distance(a, b)))
                .sum::<u64>()
        }));
        if let Some(oracle) = machine.oracle() {
            samples.push(bench_ns(&row("dist_table"), &preset.opts, || {
                pairs
                    .iter()
                    .map(|&(a, b)| u64::from(oracle.distance(a, b)))
                    .sum::<u64>()
            }));
        }

        // --- Engine primitives, warm scratch -------------------------
        let mut scratch = MapperScratch::new();
        let mut mapping: Vec<u32> = Vec::new();
        let greedy_sample = bench_ns(&row("greedy"), &preset.opts, || {
            greedy_map_into(
                &tg,
                machine,
                &alloc,
                &greedy_cfg,
                &mut scratch.greedy,
                &mut mapping,
            )
        });
        let greedy_ns = greedy_sample.median_ns;
        samples.push(greedy_sample);
        // Gain-kernel counters of the row just measured (the scratch
        // keeps the last run's stats): candidate placements the batch
        // kernel scored, and distance lookups the compact slot panel
        // absorbed (0 = per-lookup fallback ran instead).
        let greedy_stats = scratch.greedy.stats();
        metrics.push((metric("greedy_probes"), greedy_stats.probes as f64));
        metrics.push((metric("greedy_row_hits"), greedy_stats.row_hits as f64));
        eprintln!(
            "  greedy: {} kernel probes, {} panel row hits",
            greedy_stats.probes, greedy_stats.row_hits
        );
        // Refinements start from a fresh greedy mapping each op
        // (refining a fixed point is a no-op and would flatter the
        // numbers).
        greedy_map_into(
            &tg,
            machine,
            &alloc,
            &greedy_cfg,
            &mut scratch.greedy,
            &mut mapping,
        );
        let base = mapping.clone();
        let wh_sample = bench_ns(&row("wh_refine"), &preset.opts, || {
            mapping.copy_from_slice(&base);
            wh_refine_scratch(&tg, machine, &alloc, &mut mapping, &wh_cfg, &mut scratch.wh)
        });
        let wh_ns = wh_sample.median_ns;
        samples.push(wh_sample);
        samples.push(bench_ns(&row("cong_refine"), &preset.opts, || {
            mapping.copy_from_slice(&base);
            congestion_refine_scratch(
                &tg,
                machine,
                &alloc,
                &mut mapping,
                &mc_cfg,
                &mut scratch.cong,
            )
        }));
        // Per-run engine counters of the row just measured (the scratch
        // keeps the last run's stats): probe volume and the fraction of
        // route computations served from the RouteCache slices.
        let cong_stats = scratch.cong.stats();
        metrics.push((metric("cong_probes"), cong_stats.probes as f64));
        metrics.push((metric("cong_moves"), cong_stats.moves as f64));
        metrics.push((
            metric("cong_route_hit_rate"),
            cong_stats.route_cache_hit_rate(),
        ));
        eprintln!(
            "  cong_refine: {} probes, {} moves, route-cache hit rate {:.3}",
            cong_stats.probes,
            cong_stats.moves,
            cong_stats.route_cache_hit_rate()
        );

        // --- Multilevel coarsen–map–refine (warm hierarchy) ----------
        // A task graph ~10²× the allocation: the full engine run —
        // capacity-aware matching, per-level quotient rebuilds, the
        // coarsest greedy+WH map, bounded per-level refinement.
        let (nx, ny, nz) = preset.ml_grid;
        let ml_tg = stencil3d_tasks(nx, ny, nz, 8.0, 2.0, total_weight_for(&alloc, 0.5));
        let ml_cfg = PipelineConfig::default();
        let mut ml_mapping: Vec<u32> = Vec::new();
        let mut ml_levels = 0usize;
        samples.push(bench_ns(&row("multilevel"), &preset.opts, || {
            let stats = multilevel_map_into(
                &ml_tg,
                machine,
                &alloc,
                MapperKind::GreedyWh,
                &ml_cfg,
                &mut scratch,
                &mut ml_mapping,
            );
            ml_levels = stats.levels;
            stats.coarsest_tasks
        }));
        metrics.push((metric("multilevel_levels"), ml_levels as f64));

        // --- Incremental remap (fault-tolerance layer) ---------------
        // One repair cycle per op: fail the node currently hosting
        // task 0 (its co-residents are re-placed and a 1-hop frontier
        // polished), then return the node via a cheap no-displacement
        // repair, so every cycle starts from full capacity. Node churn
        // only — the cycle never enters the masked BFS sweep a hard link
        // failure runs, a cold-path cost the failover example times
        // instead (≈ 2 ms on its 8×8×4 torus, ≈ 0.28 s on Hopper, on a
        // 2-CPU VM). The fixture gets two spare nodes of headroom so a
        // single node failure is always repairable.
        let remap_cfg = RemapConfig::default();
        let mut rmach = machine.clone();
        let mut ralloc = Allocation::generate(machine, &AllocSpec::sparse(preset.nodes + 2, 11));
        greedy_map_into(
            &tg,
            &rmach,
            &ralloc,
            &greedy_cfg,
            &mut scratch.greedy,
            &mut mapping,
        );
        samples.push(bench_ns(&row("remap"), &preset.opts, || {
            let victim = mapping[0];
            let fail = [ChurnEvent::NodeFailed { node: victim }];
            let repaired = remap_incremental(
                &tg,
                &mut rmach,
                &mut ralloc,
                &mut mapping,
                &fail,
                &remap_cfg,
                &mut scratch,
            )
            .is_repaired();
            let back = [ChurnEvent::NodesAdded {
                nodes: vec![victim],
            }];
            remap_incremental(
                &tg,
                &mut rmach,
                &mut ralloc,
                &mut mapping,
                &back,
                &remap_cfg,
                &mut scratch,
            );
            repaired
        }));
        // Per-repair latency distribution (the tail is the acceptance
        // number: p99 repair vs a full re-map), displaced-task volume,
        // and the quality of the churned mapping vs mapping the same
        // allocation from scratch.
        let reps = 256;
        let mut lat: Vec<f64> = Vec::with_capacity(reps);
        let mut displaced_sum = 0usize;
        for _ in 0..reps {
            let victim = mapping[0];
            let fail = [ChurnEvent::NodeFailed { node: victim }];
            let t = std::time::Instant::now();
            let out = remap_incremental(
                &tg,
                &mut rmach,
                &mut ralloc,
                &mut mapping,
                &fail,
                &remap_cfg,
                &mut scratch,
            );
            lat.push(t.elapsed().as_nanos() as f64);
            displaced_sum += out.stats().map_or(0, |s| s.displaced);
            let back = [ChurnEvent::NodesAdded {
                nodes: vec![victim],
            }];
            remap_incremental(
                &tg,
                &mut rmach,
                &mut ralloc,
                &mut mapping,
                &back,
                &remap_cfg,
                &mut scratch,
            );
        }
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = lat[lat.len() / 2];
        let p99 = lat[(lat.len() * 99 / 100).min(lat.len() - 1)];
        metrics.push((metric("remap_p50_ns"), p50));
        metrics.push((metric("remap_p99_ns"), p99));
        metrics.push((
            metric("remap_displaced_mean"),
            displaced_sum as f64 / reps as f64,
        ));
        // A full re-map of the job is greedy + WH refinement; the p99
        // repair should sit far under it.
        let full_ns = greedy_ns + wh_ns;
        metrics.push((metric("remap_p99_speedup_vs_full"), full_ns / p99));
        // Per-repair quality (the documented contract: one damage
        // batch against a polished mapping): repair a fresh greedy+WH
        // mapping after a single node failure and compare its WH to
        // mapping the damaged allocation from scratch. Measured at the
        // quality operating point — the wider polish budget the
        // differential harness pins — not the latency-first default.
        let quality_cfg = RemapConfig {
            frontier_hops: 2,
            wh: Some(WhRefineConfig {
                delta: 16,
                max_passes: 4,
                ..WhRefineConfig::default()
            }),
        };
        greedy_map_into(
            &tg,
            &rmach,
            &ralloc,
            &greedy_cfg,
            &mut scratch.greedy,
            &mut mapping,
        );
        wh_refine_scratch(&tg, &rmach, &ralloc, &mut mapping, &wh_cfg, &mut scratch.wh);
        let victim = mapping[0];
        let fail = [ChurnEvent::NodeFailed { node: victim }];
        remap_incremental(
            &tg,
            &mut rmach,
            &mut ralloc,
            &mut mapping,
            &fail,
            &quality_cfg,
            &mut scratch,
        );
        let repaired = evaluate(&tg, &rmach, &mapping);
        let mut fresh: Vec<u32> = Vec::new();
        greedy_map_into(
            &tg,
            &rmach,
            &ralloc,
            &greedy_cfg,
            &mut scratch.greedy,
            &mut fresh,
        );
        wh_refine_scratch(&tg, &rmach, &ralloc, &mut fresh, &wh_cfg, &mut scratch.wh);
        let fresh = evaluate(&tg, &rmach, &fresh);
        metrics.push((metric("remap_quality_vs_full"), repaired.wh / fresh.wh));
        metrics.push((metric("remap_ac_vs_full"), repaired.ac / fresh.ac));
        metrics.push((metric("remap_mc_vs_full"), repaired.mc / fresh.mc));
        eprintln!(
            "  remap: p50 {} p99 {} ({:.1} tasks displaced/repair, \
             p99 {:.1}x faster than full re-map; vs from-scratch: \
             WH {:.3}x, AC {:.3}x, MC {:.3}x)",
            fmt_ns(p50),
            fmt_ns(p99),
            displaced_sum as f64 / reps as f64,
            full_ns / p99,
            repaired.wh / fresh.wh,
            repaired.ac / fresh.ac,
            repaired.mc / fresh.mc
        );
    }

    // --- Always-on mapping service (torus fixture) -------------------
    if let Some((_, machine)) = machines.iter().find(|(n, _)| *n == "torus") {
        let tasks = Arc::new(tg.clone());

        // Round-trip latency with an empty queue and one worker:
        // submit through the bounded admission queue, block on the
        // reply. Tracks the serving overhead (queue hop, ladder
        // selection, reply channel) on top of the mapper itself.
        let svc = MappingService::new(
            machine.clone(),
            Allocation::generate(machine, &AllocSpec::sparse(preset.nodes, 11)),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let service_sample = bench_ns("service", &preset.opts, || {
            match svc.submit_map(MapJob::new(Arc::clone(&tasks))) {
                Submit::Accepted(ticket) => ticket.wait().is_ok(),
                Submit::Rejected { .. } => false,
            }
        });
        let service_ns = service_sample.median_ns;
        samples.push(service_sample);
        let _ = svc.shutdown();

        // Seeded request+churn replay near saturation: exponential
        // inter-arrival gaps scaled to the measured round-trip put the
        // two workers around 80 % utilization, so arrival bursts
        // deepen the queue enough to engage pressure shedding and the
        // deadline ladder; reply latency includes queue wait.
        let svc = MappingService::new(
            machine.clone(),
            Allocation::generate(machine, &AllocSpec::sparse(preset.nodes, 11)),
            ServiceConfig {
                workers: 2,
                queue_capacity: 16,
                pressure_depth: 8,
                ..ServiceConfig::default()
            },
        );
        svc.install_job(Arc::clone(&tasks))
            .expect("the resident job fits the allocation");
        // Requests must stay direct-mappable even after the churn
        // generator's 25 % node-removal cap, so cap them at half the
        // initial processor capacity.
        let slots = svc.with_state(|_, a| a.total_procs());
        // λ = 1/(0.6·service_ns) against μ = 2 workers/service_ns
        // ≈ 0.83 utilization.
        let spec = LoadSpec {
            churn_fraction: 0.2,
            tasks: (slots / 4, slots / 2),
            mean_gap_ns: ((service_ns * 0.6) as u64).max(10_000),
            // Node churn only: a hard link failure runs the masked BFS
            // sweep under the write lock (≈ 0.28 s on Hopper on a 2-CPU
            // VM; the failover example times it on its own torus), so
            // it would turn the reply p99 into a sweep benchmark, and
            // adding it needs a new BENCH_mapping.json baseline.
            churn: ChurnSpec::nodes_only(0, 0),
            ..LoadSpec::new(if preset.name == "tiny" { 96 } else { 256 }, 7)
        };
        let stream = svc.with_state(|m, a| load_sequence(m, a, &spec));
        // Pre-build the request graphs so generation stays out of the
        // measured latencies.
        let graphs: Vec<Arc<TaskGraph>> = stream
            .iter()
            .filter_map(|ev| match ev {
                LoadEvent::Request { tasks, seed, .. } => {
                    Some(Arc::new(service_request_graph(*tasks, *seed)))
                }
                LoadEvent::Churn { .. } => None,
            })
            .collect();
        // Unbounded / comfortable / sub-cost deadlines cycle so the
        // ladder has something to degrade and somewhere to stay.
        let deadlines: [u64; 3] = [
            u64::MAX,
            (service_ns * 4.0) as u64,
            ((service_ns * 0.5) as u64).max(1),
        ];
        let mut lat: Vec<f64> = Vec::new();
        let mut pending: Vec<MapTicket> = Vec::new();
        let drain = |pending: &mut Vec<MapTicket>, lat: &mut Vec<f64>| {
            for ticket in pending.drain(..) {
                if let Ok(reply) = ticket.wait() {
                    lat.push(reply.total_ns as f64);
                }
            }
        };
        let (mut reqs, mut next_graph) = (0usize, 0usize);
        for ev in &stream {
            // Wait out the inter-arrival gap, yielding so the workers
            // keep the core on small boxes (sleep granularity is
            // coarser than the tiny preset's gaps).
            let t0 = std::time::Instant::now();
            while (t0.elapsed().as_nanos() as u64) < ev.gap_ns() {
                std::thread::yield_now();
            }
            match ev {
                LoadEvent::Churn { event, .. } => {
                    svc.apply_churn(std::slice::from_ref(event));
                }
                LoadEvent::Request { .. } => {
                    let job = MapJob::new(Arc::clone(&graphs[next_graph]))
                        .with_deadline_ns(deadlines[reqs % deadlines.len()]);
                    next_graph += 1;
                    reqs += 1;
                    if let Submit::Accepted(ticket) = svc.submit_map(job) {
                        pending.push(ticket);
                    }
                    if pending.len() >= 24 {
                        drain(&mut pending, &mut lat);
                    }
                }
            }
        }
        drain(&mut pending, &mut lat);
        let snap = svc.shutdown();
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (p50, p99) = if lat.is_empty() {
            (0.0, 0.0)
        } else {
            (
                lat[lat.len() / 2],
                lat[(lat.len() * 99 / 100).min(lat.len() - 1)],
            )
        };
        metrics.push(("service_p50_ns".to_string(), p50));
        metrics.push(("service_p99_ns".to_string(), p99));
        metrics.push(("service_shed_rate".to_string(), snap.shed_rate()));
        for (label, count) in snap.rung_counts() {
            metrics.push((format!("service_ladder_{label}"), count as f64));
        }
        eprintln!(
            "service replay: {reqs} requests ({} served), shed rate {:.3}, \
             reply p50 {} p99 {}, rungs {:?}",
            lat.len(),
            snap.shed_rate(),
            fmt_ns(p50),
            fmt_ns(p99),
            snap.rung_counts()
        );
    }

    // --- Journal overhead (durability subsystem) ---------------------
    // Cost of one write-ahead churn frame: encode + CRC + buffered
    // write + flush, no fsync — the durability tax each churn
    // mutation pays. A tracked metric, not a gated row; the gated
    // `service` row above runs durability-off, pinning the promise
    // that journaling stays off the map-request hot path.
    {
        let dir = std::env::temp_dir().join(format!("umpa-perf-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        match Durability::create(&DurabilityConfig::new(&dir)) {
            Ok(mut journal) => {
                let events = [
                    ChurnEvent::NodesRemoved { nodes: vec![3, 5] },
                    ChurnEvent::LinkDegraded {
                        link: 1,
                        factor: 0.5,
                    },
                ];
                let sample = bench_ns("journal_append", &preset.opts, || {
                    journal.append_churn(&events).is_ok()
                });
                metrics.push(("journal_append_ns".to_string(), sample.median_ns));
                eprintln!(
                    "journal append: {} per 2-event churn frame",
                    fmt_ns(sample.median_ns)
                );
            }
            Err(e) => eprintln!("perf: journal bench skipped: {e}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    metrics.push(("threads".to_string(), threads as f64));

    print_samples(&samples);
    let json = to_json(&samples, &metrics);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("perf: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parser_accepts_the_ci_and_gate_command_lines() {
        for topo in ["torus", "fattree", "dragonfly"] {
            let args = parse(&format!(
                "--preset tiny --topo {topo} --out bench_smoke_{topo}.json"
            ))
            .expect("CI's smoke line");
            assert_eq!(args.preset.name, "tiny");
            assert_eq!(args.topo, topo);
            assert_eq!(args.out, format!("bench_smoke_{topo}.json"));
        }
        let args =
            parse("--preset default --topo all --out bench_fresh.json").expect("CI's gate line");
        assert_eq!((args.preset.name, args.topo.as_str()), ("default", "all"));
        assert_eq!(args.out, "bench_fresh.json");
        let args = parse("--preset default --topo fattree --out /tmp/retry.json")
            .expect("perf_gate's retry line");
        assert_eq!(args.topo, "fattree");
        let args = parse("").expect("no arguments");
        assert_eq!((args.preset.name, args.topo.as_str()), ("default", "all"));
        assert_eq!(args.out, "BENCH_mapping.json");
    }

    #[test]
    fn parser_refuses_unknown_flags_values_and_missing_values() {
        for line in [
            "--preset tiny --topo torus --outt mine.json",
            "--tiny",
            "--preset huge",
            "--topo mesh",
            "--out",
            "--out --preset tiny",
            "--preset",
            "stray",
        ] {
            assert!(parse(line).is_err(), "{line:?} was accepted");
        }
    }
}

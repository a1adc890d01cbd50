//! Closed-loop workloads: one caller issues map requests back to back
//! through a warm scratch.
//!
//! * `direct` serves machine-sized requests that arrive as message
//!   lists: it builds each request's task graph, then calls
//!   `map_tasks_with`, cycling Greedy/GreedyWh/GreedyMc/GreedyMmc. Its
//!   traced run re-runs every request through the same graph build and
//!   the same phase-1 and phase-2 calls one by one, timing each, and
//!   checks the result is bit-identical.
//! * `multilevel` calls `map_multilevel_with` (the entry point
//!   `MapStrategy::Multilevel` dispatches to) on graphs 10–100× the
//!   allocation, with GreedyWh and GreedyMc. Its traced run times
//!   `multilevel_map_into`.

use std::time::Instant;

use umpa_core::{
    congestion_refine_scratch, def_mapping, evaluate, greedy_map_into, map_multilevel_with,
    map_tasks_with, multilevel_map_into, validate_mapping, wh_refine_scratch, MapperKind,
    MapperScratch, PipelineConfig,
};
use umpa_graph::{TaskGraph, TaskGraphScratch};
use umpa_partition::{fix_balance, recursive_bisection};
use umpa_topology::{Allocation, Machine};

use crate::fixtures::{self, Fixture};
use crate::metrics::Report;
use crate::stats::{geomean, Best};
use crate::trace::Tracer;
use crate::Opts;

/// Which engine a closed loop drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Two-phase pipeline (`map_tasks_with`).
    Direct,
    /// Coarsen–map–refine (`map_multilevel_with`).
    Multilevel,
}

/// A direct request as the caller hands it over: the application's
/// messages and task weights.
pub struct Request {
    messages: Vec<(u32, u32, f64)>,
    weights: Vec<f64>,
}

impl Request {
    fn of(tasks: &TaskGraph) -> Self {
        Self {
            messages: tasks.messages().collect(),
            weights: (0..tasks.num_tasks() as u32)
                .map(|t| tasks.task_weight(t))
                .collect(),
        }
    }
}

/// Builds request task graphs (directed, reversed and symmetric CSR
/// views) into reused buffers.
pub struct GraphBuild {
    graph: TaskGraph,
    scratch: TaskGraphScratch,
}

impl GraphBuild {
    fn new() -> Self {
        Self {
            graph: TaskGraph::default(),
            scratch: TaskGraphScratch::new(),
        }
    }

    fn build(&mut self, req: &Request) -> &TaskGraph {
        self.graph.rebuild_from_messages(
            req.weights.len(),
            req.messages.iter().copied(),
            Some(&req.weights),
            &mut self.scratch,
        );
        &self.graph
    }
}

/// Everything a closed loop needs, built before timing starts.
pub struct Setup {
    /// Machines, caches warm.
    pub machines: Vec<Machine>,
    /// Request inputs.
    pub pool: Vec<Fixture>,
    /// The direct requests, one per fixture (empty for multilevel).
    pub requests: Vec<Request>,
    /// One cycle of requests: (fixture, mapper), fixtures interleaved.
    pub cycle: Vec<(usize, MapperKind)>,
    /// Warm scratch.
    pub scratch: MapperScratch,
    /// Warm graph-build buffers.
    pub build: GraphBuild,
}

/// Builds machines, fixtures and a warm scratch.
pub fn setup(engine: Engine, opts: &Opts) -> Setup {
    let machines = fixtures::machines(opts.tiny);
    for m in &machines {
        fixtures::warm(m);
    }
    let pool = match engine {
        Engine::Direct => fixtures::direct_pool(&machines, opts.tiny, opts.seed),
        Engine::Multilevel => fixtures::multilevel_pool(&machines, opts.tiny, opts.seed),
    };
    let requests = match engine {
        Engine::Direct => pool.iter().map(|f| Request::of(&f.tasks)).collect(),
        Engine::Multilevel => Vec::new(),
    };
    let most = pool.iter().map(|f| f.kinds.len()).max().unwrap_or(0);
    let cycle: Vec<(usize, MapperKind)> = (0..most)
        .flat_map(|k| {
            pool.iter()
                .enumerate()
                .filter_map(move |(fi, f)| f.kinds.get(k).map(|&kind| (fi, kind)))
        })
        .collect();
    let mut st = Setup {
        machines,
        pool,
        requests,
        cycle,
        scratch: MapperScratch::new(),
        build: GraphBuild::new(),
    };
    // Every shape × mapper once: the numberings of a shape share its
    // allocation, hence the route rows and scratch sizes it warms.
    let cfg = PipelineConfig::default();
    for k in 0..st.cycle.len() {
        let (fi, kind) = st.cycle[k];
        if st.pool[fi].copy == 0 {
            std::hint::black_box(map_once(engine, &mut st, fi, kind, &cfg));
        }
    }
    st
}

/// One untraced request for fixture `fi`: a direct request builds its
/// task graph and maps it, a multilevel one maps the fixture's graph.
fn map_once(
    engine: Engine,
    st: &mut Setup,
    fi: usize,
    kind: MapperKind,
    cfg: &PipelineConfig,
) -> Vec<u32> {
    let f = &st.pool[fi];
    let m = &st.machines[f.machine];
    match engine {
        Engine::Direct => {
            let tasks = st.build.build(&st.requests[fi]);
            map_tasks_with(tasks, m, &f.alloc, kind, cfg, &mut st.scratch).fine_mapping
        }
        Engine::Multilevel => {
            map_multilevel_with(&f.tasks, m, &f.alloc, kind, cfg, &mut st.scratch).fine_mapping
        }
    }
}

/// Runs the closed loop for whole cycles of fixture × mapper, at least
/// `opts.seconds` long, and fills `report`. Every pair is requested
/// once per cycle, and the latency quantiles run over the pairs, each
/// at its fastest call of the run (see [`Best`]).
pub fn run(engine: Engine, opts: &Opts, report: &mut Report) {
    let mut st = opts.timed_setup(report, || setup(engine, opts));
    if opts.trace {
        traced(engine, opts, &mut st, report);
    } else {
        untraced(engine, opts, &mut st, report);
    }
}

fn untraced(engine: Engine, opts: &Opts, st: &mut Setup, report: &mut Report) {
    let cfg = PipelineConfig::default();
    let cycle = st.cycle.len();
    let mut first: Vec<Option<Vec<u32>>> = vec![None; cycle];
    let mut best = Best::new();
    let start = Instant::now();
    let mut i = 0usize;
    while !i.is_multiple_of(cycle) || i == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let (fi, kind) = st.cycle[i % cycle];
        let t = Instant::now();
        let mapping = map_once(engine, st, fi, kind, &cfg);
        best.push(i % cycle, t.elapsed().as_secs_f64() * 1e3);
        check_mapping(report, &st.pool[fi], &mapping, i);
        let slot = &mut first[i % cycle];
        match slot {
            None => *slot = Some(mapping),
            Some(prev) => report.check(*prev == mapping, || {
                format!("request {i}: same input mapped differently")
            }),
        }
        i += 1;
    }
    let (wh, mc) = quality(st, &first);
    // Quantiles over the cycle's input × mapper pairs, each at its
    // fastest call of the run.
    let mut lat = best.dist();
    let (p50, p99) = (lat.p50(), lat.p99());
    report.set("map_p50_ms", p50);
    report.set("map_p99_ms", p99);
    report.set("reply_p50_ms", p50);
    report.set("reply_p99_ms", p99);
    report.set("maps_per_s", lat.len() as f64 / (lat.sum() / 1e3));
    report.set("wh_vs_def", wh);
    report.set("mc_vs_def", mc);
}

/// Checks that request `i`'s mapping is feasible on its allocation.
pub fn check_mapping(report: &mut Report, f: &Fixture, mapping: &[u32], i: usize) {
    let valid = validate_mapping(&f.tasks, &f.alloc, mapping);
    report.check(valid.is_ok(), || format!("request {i}: {valid:?}"));
}

/// Geometric means of WH and MC against the DEF mapping of the same
/// request, over one mapping per fixture × mapper.
fn quality(st: &Setup, mappings: &[Option<Vec<u32>>]) -> (f64, f64) {
    let mut def = Vec::new();
    for f in &st.pool {
        let m = &st.machines[f.machine];
        def.push(evaluate(&f.natural, m, &def_mapping(&f.natural, &f.alloc)));
    }
    let (mut wh, mut mc) = (Vec::new(), Vec::new());
    for (i, mapping) in mappings.iter().enumerate() {
        let Some(mapping) = mapping else { continue };
        let (fi, _) = st.cycle[i];
        let f = &st.pool[fi];
        let got = evaluate(&f.tasks, &st.machines[f.machine], mapping);
        if def[fi].wh > 0.0 && def[fi].mc > 0.0 && got.wh > 0.0 && got.mc > 0.0 {
            wh.push(got.wh / def[fi].wh);
            mc.push(got.mc / def[fi].mc);
        }
    }
    (geomean(&wh), geomean(&mc))
}

fn traced(engine: Engine, opts: &Opts, st: &mut Setup, report: &mut Report) {
    let cfg = PipelineConfig::default();
    let mut tracer = Tracer::new();
    let mut traced_scratch = MapperScratch::new();
    let mut traced_build = GraphBuild::new();
    // Sums over requests: untraced call time, traced path time, ns.
    let (mut e2e_ns, mut traced_total_ns) = (0.0, 0.0);
    let (mut greedy_probes, mut greedy_rows) = (0.0, 0.0);
    let (mut cong_probes, mut cong_moves, mut cong_q, mut cong_hits) = (0.0, 0.0, 0.0, 0.0);
    let (mut levels, mut coarsest) = (0.0, 0.0);
    let cycle = st.cycle.len();
    let start = Instant::now();
    let mut i = 0usize;
    while !i.is_multiple_of(cycle) || i == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let (fi, kind) = st.cycle[i % cycle];
        // Alternate which path runs first, so neither gets the other's
        // warm caches every time.
        let run_plain = |st: &mut Setup| {
            let t = Instant::now();
            let out = map_once(engine, st, fi, kind, &cfg);
            (out, t.elapsed().as_nanos() as f64)
        };
        let mut run_traced = |st: &Setup, tracer: &mut Tracer, scratch: &mut MapperScratch| {
            let f = &st.pool[fi];
            let machine = &st.machines[f.machine];
            tracer.begin_request(i as u32);
            let t = Instant::now();
            let out = match engine {
                Engine::Direct => traced_direct(
                    tracer,
                    &st.requests[fi],
                    &mut traced_build,
                    machine,
                    &f.alloc,
                    kind,
                    &cfg,
                    scratch,
                ),
                Engine::Multilevel => tracer.span("core.multilevel", |_| {
                    let mut out = Vec::new();
                    let stats = multilevel_map_into(
                        &f.tasks, machine, &f.alloc, kind, &cfg, scratch, &mut out,
                    );
                    levels += stats.levels as f64;
                    coarsest += stats.coarsest_tasks as f64;
                    out
                }),
            };
            (out, t.elapsed().as_nanos() as f64)
        };
        let ((plain, plain_ns), (traced, traced_ns)) = if i.is_multiple_of(2) {
            let p = run_plain(st);
            (p, run_traced(st, &mut tracer, &mut traced_scratch))
        } else {
            let t = run_traced(st, &mut tracer, &mut traced_scratch);
            (run_plain(st), t)
        };
        report.check(plain == traced, || {
            format!("request {i}: traced path differs from the library call")
        });
        check_mapping(report, &st.pool[fi], &traced, i);
        if engine == Engine::Direct {
            let g = traced_scratch.greedy.stats();
            greedy_probes += g.probes as f64;
            greedy_rows += g.row_hits as f64;
            if matches!(kind, MapperKind::GreedyMc | MapperKind::GreedyMmc) {
                let c = traced_scratch.cong.stats();
                cong_probes += c.probes as f64;
                cong_moves += c.moves as f64;
                cong_q += c.route_queries as f64;
                cong_hits += c.route_cache_hits as f64;
            }
        }
        e2e_ns += plain_ns;
        traced_total_ns += traced_ns;
        i += 1;
    }
    let n = i as f64;
    let by_name = tracer.self_ns_by_name();
    let layer_ms = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / n / 1e6;
    let layers = [
        ("partition.bisect", "partition.bisect_ms"),
        ("partition.balance", "partition.balance_ms"),
        ("graph.symmetric", "graph.symmetric_ms"),
        ("graph.quotient", "graph.quotient_ms"),
        ("core.greedy", "core.greedy_ms"),
        ("core.wh_refine", "core.wh_refine_ms"),
        ("core.cong_refine", "core.cong_refine_ms"),
        ("core.multilevel", "core.multilevel_ms"),
    ];
    let mut layer_sum = 0.0;
    for (span, metric) in layers {
        let v = layer_ms(span);
        layer_sum += v;
        report.set(metric, v);
    }
    let request_ms = e2e_ns / n / 1e6;
    let phase1: f64 = [
        "partition.bisect",
        "partition.balance",
        "graph.symmetric",
        "graph.quotient",
    ]
    .iter()
    .map(|s| layer_ms(s))
    .sum();
    report.set("core.pipeline.request_ms", request_ms);
    report.set("core.pipeline.unaccounted_ms", request_ms - layer_sum);
    report.set("phase1_share", phase1 / request_ms);
    report.set("bench.trace_overhead", traced_total_ns / e2e_ns - 1.0);
    report.set("core.greedy.probes", greedy_probes / n);
    report.set("core.greedy.row_hits", greedy_rows / n);
    report.set("core.cong_refine.probes", cong_probes / n);
    report.set("core.cong_refine.moves", cong_moves / n);
    report.set(
        "core.cong_refine.route_hit_rate",
        if cong_q > 0.0 {
            cong_hits / cong_q
        } else {
            0.0
        },
    );
    report.set("core.multilevel.levels", levels / n);
    report.set("core.multilevel.coarsest_tasks", coarsest / n);
    opts.write_spans(&tracer);
}

/// A direct request, one public call per span: the task graph build
/// (its symmetric view is what phase 1 partitions), then the two-phase
/// pipeline in the order `map_tasks_with` runs it; compose is re-done
/// here.
#[allow(clippy::too_many_arguments)]
fn traced_direct(
    tracer: &mut Tracer,
    req: &Request,
    build: &mut GraphBuild,
    machine: &Machine,
    alloc: &Allocation,
    kind: MapperKind,
    cfg: &PipelineConfig,
    scratch: &mut MapperScratch,
) -> Vec<u32> {
    tracer.span("core.pipeline", |t| {
        let n_groups = alloc.num_nodes();
        let targets: Vec<f64> = (0..n_groups).map(|s| f64::from(alloc.procs(s))).collect();
        let fine = t.span("graph.symmetric", move |_| build.build(req));
        let g = fine.symmetric();
        let mut group = t.span("partition.bisect", |_| {
            recursive_bisection(g, &targets, &cfg.ml)
        });
        t.span("partition.balance", |_| {
            fix_balance(g, &mut group, &targets, 0.0)
        });
        let coarse_vol = t.span("graph.quotient", |_| {
            fine.group_quotient(&group, n_groups, false)
        });
        let mut coarse = Vec::new();
        t.span("core.greedy", |_| {
            greedy_map_into(
                &coarse_vol,
                machine,
                alloc,
                &cfg.greedy,
                &mut scratch.greedy,
                &mut coarse,
            )
        });
        match kind {
            MapperKind::GreedyWh => {
                t.span("core.wh_refine", |_| {
                    wh_refine_scratch(
                        &coarse_vol,
                        machine,
                        alloc,
                        &mut coarse,
                        &cfg.wh,
                        &mut scratch.wh,
                    )
                });
            }
            MapperKind::GreedyMc => {
                t.span("core.cong_refine", |_| {
                    congestion_refine_scratch(
                        &coarse_vol,
                        machine,
                        alloc,
                        &mut coarse,
                        &cfg.cong_volume,
                        &mut scratch.cong,
                    )
                });
            }
            MapperKind::GreedyMmc => {
                let coarse_cnt = t.span("graph.quotient", |_| {
                    fine.group_quotient(&group, n_groups, true)
                });
                t.span("core.cong_refine", |_| {
                    congestion_refine_scratch(
                        &coarse_cnt,
                        machine,
                        alloc,
                        &mut coarse,
                        &cfg.cong_messages,
                        &mut scratch.cong,
                    )
                });
            }
            _ => {}
        }
        group.iter().map(|&g| coarse[g as usize]).collect()
    })
}

//! Steady-state allocation test for the mapping engine.
//!
//! The perf contract of the scratch architecture (DESIGN.md §8): once a
//! [`MapperScratch`]'s buffers are warm, the phase-2 mapping engine —
//! greedy growth, WH refinement, congestion refinement — performs
//! **zero heap allocations**. Verified with a counting global
//! allocator that counts per thread: libtest's main thread and the
//! sibling tests allocate concurrently, and none of that lands in a
//! measured window. No measured path spawns threads — `greedy_map_into`
//! evaluates its `NBFS` candidates sequentially in both feature
//! configurations, and the refinement, multilevel and repair engines
//! are single-threaded — so the calling thread's count is the engine's
//! whole count.
//!
//! Phase 1 (the METIS-role partitioner, shared by all mappers and
//! excluded from the paper's timings) builds coarse graphs and still
//! allocates; the full `map_tasks_with` is therefore checked for a
//! strict allocation *reduction* against the cold path rather than
//! zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use umpa::core::cong_refine::{congestion_refine_scratch, CongRefineConfig};
use umpa::core::greedy::{greedy_map_into, GreedyConfig};
use umpa::core::multilevel::{multilevel_map_into, MultilevelConfig};
use umpa::core::pipeline::{map_tasks, map_tasks_with, MapperKind, PipelineConfig};
use umpa::core::scratch::MapperScratch;
use umpa::core::wh_refine::{wh_refine_scratch, WhRefineConfig};
use umpa::graph::TaskGraph;
use umpa::topology::{AllocSpec, Allocation, Machine, MachineConfig};

struct CountingAlloc;

thread_local! {
    /// Allocation calls made by this thread. `const`-initialised with
    /// no destructor, so the allocator can touch it without allocating
    /// or recursing.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: never panic inside the allocator, even while a
    // thread is being torn down.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls made so far by the calling thread.
fn allocs() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Counts the calling thread's allocations over 5 runs of `f`.
fn measure_steady_state(mut f: impl FnMut()) -> u64 {
    let before = allocs();
    for _ in 0..5 {
        f();
    }
    allocs() - before
}

#[test]
fn warm_scratch_mapping_engine_is_allocation_free() {
    // A 32-task graph on 8 nodes × 4 procs — the coarse problem the
    // phase-2 engine sees after grouping — on every topology backend:
    // the §8 perf contract is backend-generic. One scratch serves all
    // three machines in sequence (buffers grow to the union high-water
    // mark and are then reused verbatim).
    // Each backend runs three times: once with the distance-oracle
    // table and route cache (both built during warmup — the OnceLock
    // builds are one-time costs, not steady state), once with the
    // oracle disabled, and once with the §13 route cache disabled, so
    // the oracle path, the analytic-distance fallback and the
    // analytic-routing fallback of the rewritten congestion engine all
    // honor the contract.
    let machines: Vec<Machine> = [
        MachineConfig::small(&[4, 4], 1, 4).build(),
        umpa::topology::FatTreeConfig::small(4, 1, 4).build(),
        umpa::topology::DragonflyConfig {
            procs_per_node: 4,
            ..umpa::topology::DragonflyConfig::small(3, 3, 1)
        }
        .build(),
    ]
    .into_iter()
    .flat_map(|m| {
        let mut no_oracle = m.clone();
        no_oracle.set_oracle_threshold(0);
        let mut no_routes = m.clone();
        no_routes.set_route_cache_threshold(0);
        [m, no_oracle, no_routes]
    })
    .collect();
    let tg = TaskGraph::from_messages(
        32,
        (0..32u32).flat_map(|i| [(i, (i + 1) % 32, 4.0), (i, (i + 5) % 32, 1.0)]),
        None,
    );
    let greedy_cfg = GreedyConfig::default();
    let wh_cfg = WhRefineConfig::default();
    let mc_cfg = CongRefineConfig::volume();
    let mut scratch = MapperScratch::new();
    let mut mapping: Vec<u32> = Vec::new();

    for machine in &machines {
        let alloc = Allocation::generate(machine, &AllocSpec::sparse(8, 2));
        let run = |scratch: &mut MapperScratch, mapping: &mut Vec<u32>| {
            greedy_map_into(
                &tg,
                machine,
                &alloc,
                &greedy_cfg,
                &mut scratch.greedy,
                mapping,
            );
            wh_refine_scratch(&tg, machine, &alloc, mapping, &wh_cfg, &mut scratch.wh);
            congestion_refine_scratch(&tg, machine, &alloc, mapping, &mc_cfg, &mut scratch.cong);
        };

        // Warmup: size every buffer to this problem's high-water mark.
        run(&mut scratch, &mut mapping);
        run(&mut scratch, &mut mapping);
        let reference = mapping.clone();

        let counted = measure_steady_state(|| run(&mut scratch, &mut mapping));
        assert_eq!(
            counted,
            0,
            "steady-state mapping engine allocated {} times over 5 warm runs on {} (oracle {}, route cache {})",
            counted,
            machine.topology().summary(),
            if machine.oracle().is_some() {
                "on"
            } else {
                "off"
            },
            if machine.route_cache().is_some() {
                "on"
            } else {
                "off"
            }
        );
        // And the warm runs still compute the real thing.
        assert_eq!(mapping, reference);
    }
}

#[test]
fn warm_multilevel_run_is_allocation_free() {
    // The DESIGN.md §12 contract: once the hierarchy and scratch are
    // warm, a full multilevel run — matching, per-level quotient graph
    // rebuilds, coarsest greedy map, per-level refinement, projection —
    // performs zero heap allocations, on every topology backend with
    // the distance oracle on AND off, for every greedy-family kind
    // (UMMC exercises the parallel message-count hierarchy).
    let machines: Vec<Machine> = [
        MachineConfig::small(&[4, 4], 1, 4).build(),
        umpa::topology::FatTreeConfig::small(4, 1, 4).build(),
        umpa::topology::DragonflyConfig {
            procs_per_node: 4,
            ..umpa::topology::DragonflyConfig::small(3, 3, 1)
        }
        .build(),
    ]
    .into_iter()
    .flat_map(|m| {
        let mut fallback = m.clone();
        fallback.set_oracle_threshold(0);
        [m, fallback]
    })
    .collect();
    // 96 tasks at fill 0.375 of the 8-node allocation: several
    // hierarchy levels under the eager coarsening config below.
    let tg = TaskGraph::from_messages(
        96,
        (0..96u32).flat_map(|i| [(i, (i + 1) % 96, 4.0), (i, (i + 7) % 96, 1.0)]),
        Some(vec![0.125; 96]),
    );
    let cfg = PipelineConfig {
        multilevel: MultilevelConfig {
            coarsen_min: 8,
            coarsen_factor: 1.5,
        },
        ..PipelineConfig::default()
    };
    let kinds = [
        MapperKind::Greedy,
        MapperKind::GreedyWh,
        MapperKind::GreedyMc,
        MapperKind::GreedyMmc,
    ];
    let mut scratch = MapperScratch::new();
    let mut mapping: Vec<u32> = Vec::new();
    for machine in &machines {
        let alloc = Allocation::generate(machine, &AllocSpec::sparse(8, 2));
        for kind in kinds {
            let run = |scratch: &mut MapperScratch, mapping: &mut Vec<u32>| {
                multilevel_map_into(&tg, machine, &alloc, kind, &cfg, scratch, mapping);
            };
            // Warmup: size the hierarchy and every engine buffer (and
            // build the oracle table where enabled).
            run(&mut scratch, &mut mapping);
            run(&mut scratch, &mut mapping);
            let reference = mapping.clone();
            let counted = measure_steady_state(|| run(&mut scratch, &mut mapping));
            assert_eq!(
                counted,
                0,
                "warm multilevel run allocated {} times over 5 runs on {} ({}, oracle {})",
                counted,
                machine.topology().summary(),
                kind.name(),
                if machine.oracle().is_some() {
                    "on"
                } else {
                    "off"
                }
            );
            assert_eq!(mapping, reference, "warm multilevel run diverged");
        }
    }
}

#[test]
fn heavy_first_pre_pass_is_also_allocation_free() {
    // Non-uniform node capacities with a low heavy threshold drive
    // every task through the Section III-A heavy-first pre-pass (and
    // its sort), the one greedy path the uniform test never reaches.
    let machine = MachineConfig::small(&[4, 4], 1, 8).build();
    let mut alloc = Allocation::generate(&machine, &AllocSpec::contiguous(8));
    alloc.set_procs(vec![5, 4, 4, 4, 4, 4, 4, 3]);
    let tg = TaskGraph::from_messages(
        32,
        (0..32u32).flat_map(|i| [(i, (i + 1) % 32, 4.0), (i, (i + 5) % 32, 1.0)]),
        None,
    );
    let greedy_cfg = GreedyConfig {
        nbfs_candidates: vec![0, 1],
        // Every unit-weight task exceeds 0.01 × max_cap → all "heavy".
        heavy_first_fraction: 0.01,
    };
    let mut scratch = MapperScratch::new();
    let mut mapping: Vec<u32> = Vec::new();
    greedy_map_into(
        &tg,
        &machine,
        &alloc,
        &greedy_cfg,
        &mut scratch.greedy,
        &mut mapping,
    );
    let counted = measure_steady_state(|| {
        greedy_map_into(
            &tg,
            &machine,
            &alloc,
            &greedy_cfg,
            &mut scratch.greedy,
            &mut mapping,
        );
    });
    assert_eq!(
        counted, 0,
        "heavy-first greedy path allocated {counted} times over 5 warm runs"
    );
}

#[test]
fn warm_incremental_remap_is_allocation_free() {
    // The DESIGN.md §14 contract: once the scratch is warm, repairing
    // node churn and *soft* link degradation allocates nothing — on
    // every topology backend. Hard link failures are excluded by
    // design: they rebuild the distance oracle and route cache, which
    // inherently allocates. The soft-degradation cycle alternates
    // between two factors (never back to exactly 1.0) so the failure
    // mask persists and the patch stays in place; a full restore drops
    // the mask and the next degradation would re-create it.
    use umpa::core::remap::{remap_incremental, ChurnEvent, RemapConfig};
    let machines: Vec<Machine> = vec![
        MachineConfig::small(&[4, 4], 1, 4).build(),
        umpa::topology::FatTreeConfig::small(4, 1, 4).build(),
        umpa::topology::DragonflyConfig {
            procs_per_node: 4,
            ..umpa::topology::DragonflyConfig::small(3, 3, 1)
        }
        .build(),
    ];
    let tg = TaskGraph::from_messages(
        24,
        (0..24u32).flat_map(|i| [(i, (i + 1) % 24, 4.0), (i, (i + 5) % 24, 1.0)]),
        None,
    );
    let cfg = RemapConfig::default();
    let mut scratch = MapperScratch::new();
    for machine in machines {
        let mut machine = machine;
        // 8 nodes × 4 procs for 24 unit tasks: headroom for a failure.
        let mut alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 2));
        let mut mapping = Vec::new();
        greedy_map_into(
            &tg,
            &machine,
            &alloc,
            &GreedyConfig::default(),
            &mut scratch.greedy,
            &mut mapping,
        );
        let victim = alloc.node(3);
        // Events pre-constructed: the `NodesAdded` payload vector is
        // part of the churn input, not of the repair.
        let cycle = [
            ChurnEvent::NodeFailed { node: victim },
            ChurnEvent::NodesAdded {
                nodes: vec![victim],
            },
            ChurnEvent::LinkDegraded {
                link: 0,
                factor: 0.5,
            },
            ChurnEvent::LinkDegraded {
                link: 0,
                factor: 0.75,
            },
        ];
        let mut run = |scratch: &mut MapperScratch, mapping: &mut Vec<u32>| {
            for ev in &cycle {
                let out = remap_incremental(
                    &tg,
                    &mut machine,
                    &mut alloc,
                    mapping,
                    std::slice::from_ref(ev),
                    &cfg,
                    scratch,
                );
                assert!(out.is_repaired());
            }
        };
        // Warmup: size every repair buffer, build the oracle/route
        // cache and the fault mask's factor vector.
        run(&mut scratch, &mut mapping);
        run(&mut scratch, &mut mapping);
        let counted = measure_steady_state(|| run(&mut scratch, &mut mapping));
        assert_eq!(
            counted, 0,
            "warm incremental remap allocated {counted} times over 5 warm cycles"
        );
    }
}

#[test]
fn congestion_refinement_under_a_hard_link_failure_allocates_nothing_after_its_first_run() {
    // The DESIGN.md §13/§14 contract under failures: the masked route
    // cache builds its rows on demand, and congestion refinement's
    // setup builds every allocated router's rows on its first run. So
    // once that run is done, later runs allocate nothing — even when
    // they start from other mappings, whose probes reach routers the
    // first run's probes never did. The scratch is sized beforehand on
    // a copy of the machine, so the measured window sees only the row
    // contract.
    let machines: Vec<Machine> = vec![
        MachineConfig::small(&[4, 4], 1, 4).build(),
        umpa::topology::FatTreeConfig::small(4, 1, 4).build(),
        umpa::topology::DragonflyConfig {
            procs_per_node: 4,
            ..umpa::topology::DragonflyConfig::small(3, 3, 1)
        }
        .build(),
    ];
    let tg = TaskGraph::from_messages(
        32,
        (0..32u32).flat_map(|i| [(i, (i + 1) % 32, 4.0), (i, (i + 5) % 32, 1.0)]),
        None,
    );
    let cfg = CongRefineConfig::volume();
    let mut scratch = MapperScratch::new();
    for mut machine in machines {
        let n = machine.num_terminal_routers() as u32;
        let first_hop = machine.route_links_vec(0, machine.nodes_of_router(n - 1).start)[0];
        machine.degrade_link(umpa::topology::Topology::channel_link(first_hop), 0.0);
        let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 2));
        let mut mapping = Vec::new();
        greedy_map_into(
            &tg,
            &machine,
            &alloc,
            &GreedyConfig::default(),
            &mut scratch.greedy,
            &mut mapping,
        );
        // Unit task weights: every rotation of a feasible mapping is
        // feasible.
        let starts: Vec<Vec<u32>> = (0..6)
            .map(|k| {
                let mut start = mapping.clone();
                start.rotate_left(k * 5);
                start
            })
            .collect();
        let run =
            |machine: &Machine, scratch: &mut MapperScratch, mapping: &mut Vec<u32>, k: usize| {
                mapping.copy_from_slice(&starts[k]);
                congestion_refine_scratch(&tg, machine, &alloc, mapping, &cfg, &mut scratch.cong);
            };
        let fresh = machine.clone();
        for k in 0..starts.len() {
            run(&machine, &mut scratch, &mut mapping, k);
        }
        assert_eq!(fresh.route_cache().unwrap().built_rows(), 0);
        run(&fresh, &mut scratch, &mut mapping, 0);
        let mut k = 0;
        let counted = measure_steady_state(|| {
            k += 1;
            run(&fresh, &mut scratch, &mut mapping, k);
        });
        assert_eq!(
            counted,
            0,
            "congestion refinement under a hard link failure allocated {counted} times over \
             5 runs after the first on {}",
            machine.topology().summary()
        );
    }
}

#[test]
fn warm_pipeline_allocates_strictly_less_than_cold() {
    let machine = MachineConfig::small(&[4, 4], 1, 4).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 2));
    let tg = TaskGraph::from_messages(
        32,
        (0..32u32).flat_map(|i| [(i, (i + 1) % 32, 4.0), (i, (i + 5) % 32, 1.0)]),
        None,
    );
    let cfg = PipelineConfig::default();
    let mut scratch = MapperScratch::new();
    // Warm the scratch.
    let warm_out = map_tasks_with(
        &tg,
        &machine,
        &alloc,
        MapperKind::GreedyWh,
        &cfg,
        &mut scratch,
    );

    let before_cold = allocs();
    let cold_out = map_tasks(&tg, &machine, &alloc, MapperKind::GreedyWh, &cfg);
    let cold = allocs() - before_cold;

    let before_warm = allocs();
    let rewarm_out = map_tasks_with(
        &tg,
        &machine,
        &alloc,
        MapperKind::GreedyWh,
        &cfg,
        &mut scratch,
    );
    let warm = allocs() - before_warm;

    assert_eq!(warm_out.fine_mapping, cold_out.fine_mapping);
    assert_eq!(rewarm_out.fine_mapping, cold_out.fine_mapping);
    assert!(
        warm < cold,
        "warm pipeline should allocate strictly less: warm={warm} cold={cold}"
    );
}

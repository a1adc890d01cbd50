//! Cross-crate integration tests: matrix → partition → task graph →
//! mapping → metrics → simulation, end to end.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use umpa::matgen::dataset::{self, Scale};
use umpa::matgen::gen::{stencil2d, Stencil2D};
use umpa::matgen::spmv::{partition_loads, spmv_task_graph};
use umpa::netsim::prelude::*;
use umpa::prelude::*;

fn small_setup() -> (Machine, Allocation, TaskGraph) {
    let machine = MachineConfig::small(&[4, 4, 4], 2, 4).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(16, 3));
    let a = stencil2d(16, 16, Stencil2D::FivePoint);
    let part = PartitionerKind::Patoh.partition_matrix(&a, 64, 1);
    let tg = spmv_task_graph(&a, &part, 64);
    (machine, alloc, tg)
}

#[test]
fn every_mapper_end_to_end() {
    let (machine, alloc, tg) = small_setup();
    let cfg = PipelineConfig::default();
    for kind in MapperKind::all() {
        let out = map_tasks(&tg, &machine, &alloc, kind, &cfg);
        umpa::core::mapping::validate_mapping(&tg, &alloc, &out.fine_mapping)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let m = evaluate(&tg, &machine, &out.fine_mapping);
        assert!(m.th >= 0.0 && m.wh >= 0.0 && m.mc >= 0.0);
        // The identity TH = Σ_e Congestion(e) (Section II).
        let sum: f64 = m.msg_congestion.iter().sum();
        assert!((m.th - sum).abs() < 1e-6, "{}", kind.name());
    }
}

#[test]
fn refined_mappers_improve_their_target_metrics() {
    let (machine, alloc, tg) = small_setup();
    let cfg = PipelineConfig::default();
    let ug = map_tasks(&tg, &machine, &alloc, MapperKind::Greedy, &cfg);
    let uwh = map_tasks(&tg, &machine, &alloc, MapperKind::GreedyWh, &cfg);
    let umc = map_tasks(&tg, &machine, &alloc, MapperKind::GreedyMc, &cfg);
    let ummc = map_tasks(&tg, &machine, &alloc, MapperKind::GreedyMmc, &cfg);
    let m_ug = evaluate(&tg, &machine, &ug.fine_mapping);
    let m_uwh = evaluate(&tg, &machine, &uwh.fine_mapping);
    let m_umc = evaluate(&tg, &machine, &umc.fine_mapping);
    let m_ummc = evaluate(&tg, &machine, &ummc.fine_mapping);
    assert!(m_uwh.wh <= m_ug.wh + 1e-9, "UWH must not worsen UG's WH");
    assert!(m_umc.mc <= m_ug.mc + 1e-9, "UMC must not worsen UG's MC");
    assert!(
        m_ummc.mmc <= m_ug.mmc + 1e-9,
        "UMMC must not worsen UG's MMC"
    );
}

#[test]
fn simulation_prefers_lower_wh_mappings_on_volume_bound_patterns() {
    let (machine, alloc, tg) = small_setup();
    let cfg = PipelineConfig::default();
    let def = map_tasks(&tg, &machine, &alloc, MapperKind::Def, &cfg);
    let uwh = map_tasks(&tg, &machine, &alloc, MapperKind::GreedyWh, &cfg);
    let m_def = evaluate(&tg, &machine, &def.fine_mapping);
    let m_uwh = evaluate(&tg, &machine, &uwh.fine_mapping);
    // Only a meaningful check when UWH actually improved the metrics.
    if m_uwh.wh < 0.9 * m_def.wh && m_uwh.mc < 0.9 * m_def.mc {
        let app = AppConfig {
            des: DesConfig {
                scale: 4096.0,
                ..DesConfig::default()
            },
            repetitions: 1,
            ..AppConfig::default()
        };
        let t_def = comm_only_time(&machine, &tg, &def.fine_mapping, &app);
        let t_uwh = comm_only_time(&machine, &tg, &uwh.fine_mapping, &app);
        assert!(
            t_uwh.mean_us <= t_def.mean_us * 1.05,
            "UWH sim time {} should not exceed DEF {} by >5%",
            t_uwh.mean_us,
            t_def.mean_us
        );
    }
}

#[test]
fn dataset_to_mapping_pipeline_runs_for_every_class() {
    let machine = MachineConfig::small(&[4, 4, 4], 2, 4).build();
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 5));
    let cfg = PipelineConfig::default();
    for entry in dataset::registry().iter().step_by(3) {
        let a = entry.build(Scale::Tiny);
        let part = PartitionerKind::Metis.partition_matrix(&a, 32, 2);
        let tg = spmv_task_graph(&a, &part, 32);
        let out = map_tasks(&tg, &machine, &alloc, MapperKind::GreedyWh, &cfg);
        umpa::core::mapping::validate_mapping(&tg, &alloc, &out.fine_mapping)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
    }
}

#[test]
fn spmv_simulation_is_deterministic_and_scales() {
    let (machine, alloc, tg) = small_setup();
    let cfg = PipelineConfig::default();
    let out = map_tasks(&tg, &machine, &alloc, MapperKind::Greedy, &cfg);
    let loads = vec![100.0; tg.num_tasks()];
    let app = AppConfig::default();
    let a = spmv_time(&machine, &tg, &out.fine_mapping, &loads, 50, &app);
    let b = spmv_time(&machine, &tg, &out.fine_mapping, &loads, 50, &app);
    assert_eq!(a.mean_us, b.mean_us);
    let c = spmv_time(&machine, &tg, &out.fine_mapping, &loads, 100, &app);
    assert!((c.mean_us / a.mean_us - 2.0).abs() < 1e-9);
}

#[test]
fn partition_loads_conserve_total_work() {
    let a = stencil2d(20, 20, Stencil2D::FivePoint);
    for kind in PartitionerKind::all() {
        let part = kind.partition_matrix(&a, 16, 9);
        let loads = partition_loads(&a, &part, 16);
        let total: f64 = loads.iter().sum();
        assert!(
            (total - (a.nrows() + a.nnz()) as f64).abs() < 1e-9,
            "{}",
            kind.name()
        );
    }
}

/// A random task graph of `n` tasks with 1–39 messages.
fn random_task_graph(rng: &mut ChaCha8Rng, n: u32) -> TaskGraph {
    let m = rng.gen_range(1..40usize);
    TaskGraph::from_messages(
        n as usize,
        (0..m).map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                f64::from(rng.gen_range(1..100u32)),
            )
        }),
        None,
    )
}

#[test]
fn warm_scratch_map_tasks_with_matches_fresh_map_tasks() {
    // One scratch carried through every request, as a service worker
    // carries it: 4 random graphs × 3 allocations × all 7 kinds, each
    // equal to a fresh `map_tasks` in mapping, grouping and fallback.
    let machine = MachineConfig::small(&[4, 4], 1, 2).build();
    let mut rng = ChaCha8Rng::seed_from_u64(0x9A9);
    let cfg = PipelineConfig::default();
    let graphs: Vec<TaskGraph> = (0..4).map(|_| random_task_graph(&mut rng, 12)).collect();
    let allocs: Vec<Allocation> = (0..3)
        .map(|i| Allocation::generate(&machine, &AllocSpec::sparse(6, 40 + i)))
        .collect();
    let kinds = [
        MapperKind::Def,
        MapperKind::Greedy,
        MapperKind::GreedyWh,
        MapperKind::GreedyMc,
        MapperKind::GreedyMmc,
        MapperKind::Tmap,
        MapperKind::Smap,
    ];
    let mut warm = MapperScratch::new();
    for (gi, tg) in graphs.iter().enumerate() {
        for (ai, alloc) in allocs.iter().enumerate() {
            for kind in kinds {
                let label = format!("graph {gi}, alloc {ai}, {}", kind.name());
                let served = map_tasks_with(tg, &machine, alloc, kind, &cfg, &mut warm);
                let fresh = map_tasks(tg, &machine, alloc, kind, &cfg);
                assert_eq!(served.fine_mapping, fresh.fine_mapping, "{label}");
                assert_eq!(served.group_of, fresh.group_of, "{label}");
                assert_eq!(served.tmap_fell_back, fresh.tmap_fell_back, "{label}");
                umpa::core::mapping::validate_mapping(tg, alloc, &served.fine_mapping)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
            }
        }
    }
}

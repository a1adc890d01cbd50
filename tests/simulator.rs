//! Behavioral tests of the network simulator — the substrate whose
//! fidelity the Figure 4/5 reproductions rest on.

use umpa::netsim::des::{simulate, DesConfig};
use umpa::netsim::prelude::*;
use umpa::prelude::*;

fn line(n: u32) -> Machine {
    MachineConfig::small(&[n], 1, 1).build()
}

#[test]
fn adding_a_message_never_speeds_things_up() {
    let m = line(8);
    let base: Vec<(u32, u32, f64)> = vec![(0, 1, 500.0), (2, 3, 700.0)];
    let tg1 = TaskGraph::from_messages(6, base.clone(), None);
    let mut more = base;
    more.push((4, 5, 900.0));
    let tg2 = TaskGraph::from_messages(6, more, None);
    let mapping: Vec<u32> = (0..6).collect();
    let t1 = simulate(&m, &tg1, &mapping, &DesConfig::default()).makespan_us;
    let t2 = simulate(&m, &tg2, &mapping, &DesConfig::default()).makespan_us;
    assert!(t2 >= t1);
}

#[test]
fn growing_a_message_never_speeds_things_up() {
    let m = line(8);
    let mapping = vec![0u32, 3];
    let mut last = 0.0;
    for vol in [10.0, 100.0, 1000.0, 10_000.0] {
        let tg = TaskGraph::from_messages(2, [(0, 1, vol)], None);
        let t = simulate(&m, &tg, &mapping, &DesConfig::default()).makespan_us;
        assert!(t > last, "volume {vol}: {t} vs {last}");
        last = t;
    }
}

#[test]
fn makespan_at_least_the_critical_path() {
    let m = line(8);
    let tg = TaskGraph::from_messages(2, [(0, 1, 4000.0)], None);
    let mapping = vec![0u32, 5]; // 3 hops via wraparound
    let cfg = DesConfig::default();
    let t = simulate(&m, &tg, &mapping, &cfg).makespan_us;
    let bytes = 4000.0 * 8.0;
    let lower = m.base_latency_us()
        + 3.0 * (bytes / (m.link_bandwidth(0) * 1000.0))
        + bytes / (m.nic_bw() * 1000.0);
    assert!(
        t >= lower,
        "makespan {t} below physical lower bound {lower}"
    );
}

#[test]
fn analytic_model_ranks_like_the_des() {
    // Across several mappings of the same pattern, the analytic bound
    // and the DES should agree on the ordering (Spearman-ish check).
    let m = MachineConfig::small(&[4, 4], 1, 1).build();
    let tg = TaskGraph::from_messages(8, (0..8u32).map(|i| (i, (i + 1) % 8, 20_000.0)), None);
    let mappings: Vec<Vec<u32>> = vec![
        (0..8).collect(),                // packed
        (0..8).map(|t| t * 2).collect(), // spread
        vec![0, 5, 10, 15, 3, 6, 9, 12], // scattered
    ];
    let cfg = DesConfig::default();
    let des: Vec<f64> = mappings
        .iter()
        .map(|mp| simulate(&m, &tg, mp, &cfg).makespan_us)
        .collect();
    let ana: Vec<f64> = mappings
        .iter()
        .map(|mp| analytic_comm_time(&m, &tg, mp, &cfg))
        .collect();
    // Same argmin and argmax.
    let argmin = |v: &[f64]| {
        v.iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0
    };
    let argmax = |v: &[f64]| {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0
    };
    assert_eq!(argmin(&des), argmin(&ana), "des {des:?} ana {ana:?}");
    assert_eq!(argmax(&des), argmax(&ana), "des {des:?} ana {ana:?}");
}

#[test]
fn slow_links_hurt_proportionally() {
    let mut cfg = MachineConfig::small(&[4, 4], 1, 1);
    cfg.bw_per_dim = vec![10.0, 1.0];
    cfg.nic_bw = 100.0; // keep endpoints out of the way of the link term
    let m = cfg.build();
    let tg = TaskGraph::from_messages(2, [(0, 1, 50_000.0)], None);
    // One hop along the fast dimension vs one along the slow one.
    let fast = simulate(&m, &tg, &[0, 1], &DesConfig::default()).makespan_us;
    let slow = simulate(&m, &tg, &[0, 4], &DesConfig::default()).makespan_us;
    assert!(
        slow > 3.0 * fast,
        "slow-dim route {slow} should dwarf fast-dim {fast}"
    );
}

#[test]
fn wormhole_helps_more_on_longer_routes() {
    let m = line(16);
    let tg = TaskGraph::from_messages(2, [(0, 1, 100_000.0)], None);
    let saf = DesConfig::default();
    let worm = DesConfig {
        packet_bytes: Some(100_000.0 * 8.0 / 16.0),
        ..DesConfig::default()
    };
    let gain_short = {
        let s = simulate(&m, &tg, &[0, 2], &saf).makespan_us;
        let w = simulate(&m, &tg, &[0, 2], &worm).makespan_us;
        s / w
    };
    let gain_long = {
        let s = simulate(&m, &tg, &[0, 8], &saf).makespan_us;
        let w = simulate(&m, &tg, &[0, 8], &worm).makespan_us;
        s / w
    };
    assert!(
        gain_long > gain_short,
        "pipelining gain should grow with hops: {gain_short} vs {gain_long}"
    );
}

#[test]
fn comm_only_repetitions_differ_under_noise_but_share_the_mean() {
    let m = line(8);
    let tg = TaskGraph::from_messages(4, [(0, 1, 800.0), (1, 2, 800.0), (2, 3, 800.0)], None);
    let mapping: Vec<u32> = (0..4).collect();
    let quiet = AppConfig {
        repetitions: 3,
        ..AppConfig::default()
    };
    let noisy = AppConfig {
        des: DesConfig {
            noise: 0.05,
            seed: 42,
            ..DesConfig::default()
        },
        repetitions: 8,
        ..AppConfig::default()
    };
    let q = comm_only_time(&m, &tg, &mapping, &quiet);
    let n = comm_only_time(&m, &tg, &mapping, &noisy);
    assert_eq!(q.std_us, 0.0);
    assert!(n.std_us > 0.0);
    assert!((n.mean_us - q.mean_us).abs() / q.mean_us < 0.10);
}

#[test]
fn metrics_link_loads_agree_with_netsim_reconstruction() {
    // Cross-check between the two link accountings in the workspace:
    // `umpa_core::metrics::evaluate` (volume traffic per channel, and
    // WH = Σ per-link volume when bandwidths are 1) and the loads
    // `umpa_netsim` reconstructs by routing every message — for the
    // same mapping, on every topology family, for both the direct
    // pipeline and the multilevel engine.
    use umpa::core::multilevel::MultilevelConfig;
    use umpa::netsim::link_loads;

    let machines = vec![
        MachineConfig::small(&[4, 4], 1, 4).build(),
        umpa::topology::FatTreeConfig::small(4, 2, 4).build(),
        umpa::topology::DragonflyConfig {
            procs_per_node: 4,
            ..umpa::topology::DragonflyConfig::small(3, 3, 2)
        }
        .build(),
    ];
    let tg = TaskGraph::from_messages(
        64,
        (0..64u32).flat_map(|i| [(i, (i + 1) % 64, 4.0), (i, (i + 9) % 64, 1.5)]),
        Some(vec![0.25; 64]),
    );
    let cfg = PipelineConfig {
        multilevel: MultilevelConfig {
            coarsen_min: 8,
            coarsen_factor: 1.5,
        },
        ..PipelineConfig::default()
    };
    let des = DesConfig::default();
    for m in &machines {
        let alloc = Allocation::generate(m, &AllocSpec::sparse(8, 5));
        let direct = map_tasks(&tg, m, &alloc, MapperKind::GreedyWh, &cfg);
        let ml = map_multilevel_with(
            &tg,
            m,
            &alloc,
            MapperKind::GreedyWh,
            &cfg,
            &mut MapperScratch::new(),
        );
        for (label, mapping) in [
            ("direct", &direct.fine_mapping),
            ("multilevel", &ml.fine_mapping),
        ] {
            let report = evaluate(&tg, m, mapping);
            let loads = link_loads(m, &tg, mapping, &des);
            assert_eq!(loads.len(), report.vol_traffic.len(), "{label}");
            let bytes_per_word = des.bytes_per_word * des.scale;
            for (l, (&bytes, &vol)) in loads.iter().zip(report.vol_traffic.iter()).enumerate() {
                assert!(
                    (bytes - vol * bytes_per_word).abs() <= 1e-9 * (1.0 + bytes.abs()),
                    "{label} {}: link {l} loads disagree: netsim {bytes} vs metrics {vol}",
                    m.topology().summary()
                );
            }
            // WH identity: unit bandwidths on these presets make WH the
            // sum of per-link volume traffic.
            let total: f64 = report.vol_traffic.iter().sum();
            assert!(
                (report.wh - total).abs() <= 1e-9 * (1.0 + report.wh),
                "{label}: WH {} vs summed link volume {total}",
                report.wh
            );
        }
    }
}

//! The benchmark's own tests: every workload runs at tiny size and
//! prints exactly the metrics BENCHMARK.json names; the correctness
//! checks catch a corrupted mapping and a recovery mismatch; the
//! open-loop schedules are fixed by the seed.

use std::path::PathBuf;
use std::sync::Arc;

use perfbench::closed::check_mapping;
use perfbench::fixtures::{self, Fixture};
use perfbench::metrics::{Report, END_TO_END, PER_LAYER};
use perfbench::serve::{self, check_recovery, link_schedule, service_schedule, Mode};
use perfbench::{run, Opts, Workload};
use umpa_matgen::{churn_sequence, ChurnSpec};
use umpa_service::MappingService;
use umpa_topology::{AllocSpec, Allocation};

/// Metric names listed under `key` in the repository's BENCHMARK.json.
fn benchmark_names(key: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn tiny(workload: Workload, trace: bool) -> Opts {
    let mut opts = Opts::new(workload, 3, 0.3);
    opts.tiny = true;
    opts.trace = trace;
    opts.tmp_dir = scratch_dir(workload.name());
    opts
}

#[test]
fn metric_lists_match_benchmark_json() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(benchmark_names("end_to_end"), e2e);
    assert_eq!(benchmark_names("per_layer"), layers);
}

#[test]
fn every_workload_runs_tiny_and_is_correct() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = tiny(workload, trace);
            let report = run(&opts);
            let defs = opts.metric_defs();
            assert!(
                report.correct(defs),
                "{} trace={trace}: {:?}",
                workload.name(),
                report.broken
            );
            assert_eq!(report.failed, 0, "{} trace={trace}", workload.name());
            let line = report.to_json(defs);
            for d in defs {
                assert!(line.contains(&format!("\"{}\": {{\"value\": ", d.name)));
            }
            if !trace {
                for d in END_TO_END {
                    let v = report.get(d.name).unwrap_or(0.0);
                    assert!(v > 0.0, "{}: {} = {v}", workload.name(), d.name);
                }
            }
            let _ = std::fs::remove_dir_all(&opts.tmp_dir);
        }
    }
}

#[test]
fn corrupted_mapping_is_caught() {
    let machines = fixtures::machines(true);
    let pool = fixtures::direct_pool(&machines, true, 1);
    let f: &Fixture = &pool[0];
    let mapping = umpa_core::map_tasks(
        &f.tasks,
        &machines[f.machine],
        &f.alloc,
        umpa_core::MapperKind::GreedyWh,
        &umpa_core::PipelineConfig::default(),
    )
    .fine_mapping;
    let mut ok = Report::default();
    check_mapping(&mut ok, f, &mapping, 0);
    assert!(ok.broken.is_empty());

    let unallocated = (0..machines[f.machine].num_nodes() as u32)
        .find(|n| !f.alloc.contains(*n))
        .expect("sparse allocation leaves nodes free");
    let mut bad = mapping.clone();
    bad[0] = unallocated;
    let mut report = Report::default();
    check_mapping(&mut report, f, &bad, 0);
    assert_eq!(report.failed, 1);
    assert!(!report.correct(END_TO_END));
}

#[test]
fn recovery_mismatch_is_caught() {
    let dir = scratch_dir("recovery");
    let machine = fixtures::hopper(true);
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 9));
    let cfg = serve::service_config(Mode::Service, &dir);
    let svc = MappingService::new(machine.clone(), alloc.clone(), cfg.clone());
    svc.install_job(Arc::new(fixtures::resident_job(&alloc, true)));
    for ev in churn_sequence(&machine, &alloc, &ChurnSpec::nodes_only(6, 4)) {
        svc.apply_churn(std::slice::from_ref(&ev));
    }
    let live = svc.live_mapping();
    let live_wh = svc.live_wh();
    svc.shutdown();

    let genesis = || (machine.clone(), alloc.clone());
    let mut good = Report::default();
    check_recovery(
        genesis(),
        cfg.clone(),
        live.clone(),
        live_wh,
        &mut None,
        &mut good,
    );
    assert!(good.broken.is_empty(), "{:?}", good.broken);
    assert!(good.get("recover_ms").is_some_and(|v| v > 0.0));

    let mut corrupted = live.clone().expect("resident job");
    let last = corrupted.len() - 1;
    corrupted.swap(0, last);
    if Some(&corrupted) == live.as_ref() {
        corrupted[0] = u32::MAX;
    }
    let mut bad = Report::default();
    check_recovery(
        genesis(),
        cfg,
        Some(corrupted),
        live_wh,
        &mut None,
        &mut bad,
    );
    assert_eq!(bad.failed, 1, "{:?}", bad.broken);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_loop_schedule_is_fixed_by_the_seed() {
    let machine = fixtures::hopper(true);
    let alloc = Allocation::generate(&machine, &AllocSpec::sparse(8, 1));
    let a = service_schedule(&machine, &alloc, 11, 2.0);
    let b = service_schedule(&machine, &alloc, 11, 2.0);
    let c = service_schedule(&machine, &alloc, 12, 2.0);
    assert_eq!(a.arrivals, b.arrivals);
    assert_eq!(a.graphs, b.graphs);
    assert_ne!(a.arrivals, c.arrivals);
    assert!(a.arrivals.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    assert_eq!(a.arrivals.last().map(|x| x.step), Some(a.steps - 1));

    // The seed moves arrival times, not which arrivals are churn.
    let churn_at = |s: &serve::Schedule| -> Vec<bool> {
        s.arrivals
            .iter()
            .map(|x| matches!(x.what, serve::What::Churn { .. }))
            .collect()
    };
    assert_eq!(churn_at(&a), churn_at(&c));

    let l1 = link_schedule(&machine, 11, 4.0);
    let l2 = link_schedule(&machine, 11, 4.0);
    assert_eq!(l1.arrivals, l2.arrivals);
    assert_eq!(l1.graphs, l2.graphs);
}

#[test]
fn closed_loop_seed_renumbers_fixed_shapes() {
    let machines = fixtures::machines(true);
    for (a, b) in [
        (
            fixtures::direct_pool(&machines, true, 1),
            fixtures::direct_pool(&machines, true, 2),
        ),
        (
            fixtures::multilevel_pool(&machines, true, 1),
            fixtures::multilevel_pool(&machines, true, 2),
        ),
    ] {
        assert_eq!(a.len(), b.len());
        let mut renumbered = 0;
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.alloc.nodes(), y.alloc.nodes());
            assert_eq!(x.natural.num_tasks(), y.natural.num_tasks());
            assert!(x.natural.messages().eq(y.natural.messages()));
            renumbered += usize::from(!x.tasks.messages().eq(y.tasks.messages()));
        }
        assert!(renumbered > 0);
    }
}

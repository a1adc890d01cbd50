//! Open-loop workloads against the always-on `MappingService`.
//!
//! * `service`: Poisson arrivals from `load_sequence` at a ladder of
//!   fixed absolute rates, ~20 % of them churn (node failures, removals
//!   and additions, soft link degradations), durability on. The run
//!   ends by timing `MappingService::recover` on its journal.
//! * `link-failure`: a resident job on Hopper goes through cycles of
//!   hard link failure, serving, and restore, with requests arriving
//!   at a low fixed rate.
//!
//! The whole schedule is fixed before the run; nothing in it depends
//! on a measured latency. One generator thread submits requests and
//! applies churn on time; the service runs one worker. Every latency
//! is timed from the moment its arrival was due.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use umpa_core::greedy::weighted_hops;
use umpa_core::{
    def_mapping, evaluate, map_tasks, remap_incremental, validate_mapping, ChurnEvent, MapperKind,
    MapperScratch, PipelineConfig, RemapConfig,
};
use umpa_graph::TaskGraph;
use umpa_matgen::{churn_sequence, load_sequence, ChurnSpec, LoadEvent, LoadSpec};
use umpa_service::{
    DurabilityConfig, LadderRung, MapJob, MapTicket, MappingService, ServiceConfig, Submit,
};
use umpa_topology::{AllocSpec, Allocation, Machine};

use crate::fixtures::{self, sub_seed};
use crate::metrics::Report;
use crate::stats::{geomean, median, Best, Dist};
use crate::trace::Tracer;
use crate::Opts;

/// Arrival rates (requests plus churn, per second) of the `service`
/// ladder: well below, near and above one worker's capacity (about
/// 400 per second at seed). Frozen constants — a faster mapper meets
/// the same load.
pub const SERVICE_RATES: [f64; 3] = [75.0, 250.0, 900.0];
/// Share of the run each rate gets. The reported rate gets most: over
/// 25 s that is about 1300 requests, each graph of the pool about ten
/// times, and the raw `reply_p99_ms` has thirteen beyond it.
pub const SERVICE_SHARES: [f64; 3] = [0.85, 0.075, 0.075];
/// The ladder step whose reply latency is reported end to end: the
/// lowest rate, where the worker is busy about 17 % of the time. Nearer
/// capacity, queueing multiplies the machine's run-to-run speed swings
/// into the reply latency, and the figure stops repeating.
pub const REPORTED_STEP: usize = 0;
/// Share of `service` arrivals that are churn events.
pub const CHURN_FRACTION: f64 = 0.2;
/// Task-count range of `service` requests.
pub const REQUEST_TASKS: (u32, u32) = (96, 256);
/// The service's default deadline: the latency limit `max_rate_rps`
/// holds the reply p99 to.
pub const DEADLINE_MS: f64 = 50.0;
/// `link-failure` background request rate, per second.
pub const LINK_RATE: f64 = 10.0;
/// `link-failure` cycle: hard failure at the start, restore at
/// `LINK_RESTORE_S`, next failure at `LINK_PERIOD_S`. A failure stalls
/// serving for 2.5–3.5 s; six of them fit a 25-s run.
pub const LINK_PERIOD_S: f64 = 4.0;
/// See [`LINK_PERIOD_S`].
pub const LINK_RESTORE_S: f64 = 3.5;
/// Deadline of `link-failure` requests: long enough that the stall
/// shows as latency, not as misses.
pub const LINK_DEADLINE_MS: f64 = 10_000.0;
/// How often the generator polls for replies it is waiting on. Reply
/// latency comes from the service's own timestamps, so polling late
/// costs nothing.
const POLL_GAP: Duration = Duration::from_micros(200);
/// Distinct request graphs per `service` run. Requests cycle through
/// them in order, so at the reported rate each graph is requested about
/// every two seconds, ten times in a 25-s run.
const GRAPH_POOL: usize = 128;
/// Replies whose quality is evaluated against DEF.
const QUALITY_SAMPLES: usize = 512;

/// What is due at one point of the schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum What {
    /// A map request for graph `graph` of the pool.
    Request {
        /// Index into the graph pool.
        graph: usize,
    },
    /// A churn event; `probe` submits a request right after it.
    Churn {
        /// The event.
        event: ChurnEvent,
        /// Whether a request is due at the same moment.
        probe: bool,
    },
}

/// One scheduled arrival.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// Due time, ns after the run starts.
    pub due_ns: u64,
    /// Rate-ladder step the arrival belongs to.
    pub step: usize,
    /// Which repeated piece of work a request is: its graph in
    /// `service`, its slot of the failure cycle in `link-failure` (0 is
    /// the request due at the failure). A request's reported time is
    /// the fastest of its key's (see [`Best`]).
    pub key: usize,
    /// What arrives.
    pub what: What,
}

/// The fixed schedule and the graphs its requests carry.
pub struct Schedule {
    /// Arrivals in due order.
    pub arrivals: Vec<Arrival>,
    /// Seed of each pool graph.
    pub graphs: Vec<u64>,
    /// Number of ladder steps.
    pub steps: usize,
}

/// The `service` schedule: one `load_sequence` stream of Poisson
/// arrivals cut into equal-duration steps, step `k`'s exponential gaps
/// scaled to mean `1 / SERVICE_RATES[k]`, lasting `SERVICE_SHARES[k]`
/// of the run.
///
/// Every fifth arrival is churn, from one fixed event sequence, and the
/// requests in between cycle through the graph pool in order. So the
/// k-th request always meets the same allocation, whatever the seed:
/// the seed moves arrival times and renumbers the power-law graphs, not
/// which allocation a request is mapped on, which alone would move the
/// reply quality by a tenth.
pub fn service_schedule(
    machine: &Machine,
    alloc: &Allocation,
    seed: u64,
    seconds: f64,
) -> Schedule {
    let counts: Vec<usize> = SERVICE_RATES
        .iter()
        .zip(SERVICE_SHARES)
        .map(|(r, share)| ((r * share * seconds).round() as usize).max(8))
        .collect();
    let total: usize = counts.iter().sum();
    const UNIT_GAP_NS: f64 = 1e6;
    let spec = LoadSpec {
        events: total,
        mean_gap_ns: UNIT_GAP_NS as u64,
        churn_fraction: 0.0,
        tasks: REQUEST_TASKS,
        churn: ChurnSpec::new(0, 0),
        seed,
    };
    let churn_every = (1.0 / CHURN_FRACTION).round() as usize;
    let churn = ChurnSpec {
        max_link_failures: 0,
        ..ChurnSpec::new(total / churn_every, fixtures::FIXED_SEED)
    };
    let mut events = churn_sequence(machine, alloc, &churn).into_iter();
    let mut arrivals = Vec::with_capacity(total);
    let mut graphs = Vec::new();
    let mut due = 0.0f64;
    let mut step = 0usize;
    let mut left = counts[0];
    for (k, ev) in load_sequence(machine, alloc, &spec).into_iter().enumerate() {
        while left == 0 {
            step += 1;
            left = counts[step];
        }
        left -= 1;
        due += ev.gap_ns() as f64 * (1e9 / SERVICE_RATES[step]) / UNIT_GAP_NS;
        let what = match (ev, (k + 1) % churn_every == 0) {
            (_, true) => What::Churn {
                event: events.next().expect("one fixed event per churn slot"),
                probe: false,
            },
            (LoadEvent::Request { seed, .. }, false) => {
                if graphs.len() < GRAPH_POOL {
                    graphs.push(seed);
                }
                What::Request { graph: 0 }
            }
            (LoadEvent::Churn { .. }, false) => unreachable!("no churn was asked for"),
        };
        arrivals.push(Arrival {
            due_ns: due as u64,
            step,
            key: 0,
            what,
        });
    }
    // The requests, in order, cycle through the pool.
    let mut k = 0usize;
    for a in &mut arrivals {
        if let What::Request { graph } = &mut a.what {
            *graph = k % graphs.len().max(1);
            a.key = *graph;
            k += 1;
        }
    }
    Schedule {
        arrivals,
        graphs,
        steps: SERVICE_RATES.len(),
    }
}

/// The `link-failure` schedule: every `LINK_PERIOD_S` a seeded link
/// fails hard, with a request due at the same moment, and is restored
/// `LINK_RESTORE_S` later; while it is down, stencil requests fall due
/// at a fixed interval. Every cycle has the same request slots with the
/// same graphs; only the failing link changes.
pub fn link_schedule(machine: &Machine, seed: u64, seconds: f64) -> Schedule {
    let cycles = ((seconds / LINK_PERIOD_S).floor() as usize).max(1);
    let lead_ns = 200_000_000u64;
    let period_ns = (LINK_PERIOD_S * 1e9) as u64;
    let restore_ns = (LINK_RESTORE_S * 1e9) as u64;
    let gap_ns = (1e9 / LINK_RATE) as u64;
    let links = machine.topology().num_physical_links() as u64;
    let mut arrivals = Vec::new();
    for c in 0..cycles as u64 {
        let link = (sub_seed(seed, 500 + c) % links) as u32;
        let t0 = lead_ns + c * period_ns;
        for (at, factor, probe) in [(t0, 0.0, true), (t0 + restore_ns, 1.0, false)] {
            arrivals.push(Arrival {
                due_ns: at,
                step: 0,
                key: 0,
                what: What::Churn {
                    event: ChurnEvent::LinkDegraded { link, factor },
                    probe,
                },
            });
        }
        // Stencil requests only (the pool's even entries): the requests
        // served while the link is down must cost the same whatever the
        // seed.
        for slot in 1..=(restore_ns / gap_ns) as usize {
            arrivals.push(Arrival {
                due_ns: t0 + (slot as u64 - 1) * gap_ns + gap_ns / 2,
                step: 0,
                key: slot,
                what: What::Request {
                    graph: (2 * slot) % GRAPH_POOL,
                },
            });
        }
    }
    arrivals.sort_by_key(|a| a.due_ns);
    let graphs: Vec<u64> = (0..GRAPH_POOL as u64)
        .map(|k| sub_seed(seed, 700 + k))
        .collect();
    Schedule {
        arrivals,
        graphs,
        steps: 1,
    }
}

/// Which open-loop workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Rate ladder with node and soft-link churn, durable.
    Service,
    /// Hard link failure cycles on Hopper.
    LinkFailure,
}

/// Everything built before the schedule starts.
pub struct Setup {
    /// The running service, resident job installed, worker warm.
    pub svc: MappingService,
    /// Machine and allocation the service started from.
    pub genesis: (Machine, Allocation),
    /// The resident job.
    pub job: Arc<TaskGraph>,
    /// The schedule.
    pub schedule: Schedule,
    /// The request graphs.
    pub graphs: Vec<Arc<TaskGraph>>,
    /// The service's configuration.
    pub cfg: ServiceConfig,
}

/// The service configuration the workload runs with: one worker, the
/// 50 ms default deadline, durability rooted at `dir` for `service`.
pub fn service_config(mode: Mode, dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        default_deadline_ns: (DEADLINE_MS * 1e6) as u64,
        durability: (mode == Mode::Service).then(|| DurabilityConfig::new(dir)),
        ..ServiceConfig::default()
    }
}

/// Builds machine, allocation, schedule and graphs, starts the
/// service, installs the resident job and warms the worker.
pub fn setup(mode: Mode, opts: &Opts, dir: &Path) -> Setup {
    let machine = fixtures::hopper(opts.tiny);
    fixtures::warm(&machine);
    let nodes = if opts.tiny { 8 } else { 32 };
    let spec = AllocSpec::sparse(nodes, fixtures::FIXED_SEED);
    let alloc = Allocation::generate(&machine, &spec);
    let schedule = match mode {
        Mode::Service => service_schedule(&machine, &alloc, opts.seed, opts.seconds),
        Mode::LinkFailure => link_schedule(&machine, opts.seed, opts.seconds),
    };
    // Requests stay placeable after the churn generator's 25 % node
    // removal cap.
    let cap = alloc.total_procs() / 2;
    let range = (REQUEST_TASKS.0.min(cap / 2), REQUEST_TASKS.1.min(cap));
    let pool = schedule.graphs.len();
    let graphs: Vec<Arc<TaskGraph>> = schedule
        .graphs
        .iter()
        .enumerate()
        .map(|(k, &s)| Arc::new(fixtures::request_graph(k, pool, range, s)))
        .collect();
    let job = Arc::new(fixtures::resident_job(&alloc, opts.tiny));
    let _ = std::fs::remove_dir_all(dir);
    let cfg = service_config(mode, dir);
    let genesis = (machine.clone(), alloc.clone());
    let svc = MappingService::new(machine, alloc, cfg.clone());
    svc.install_job(Arc::clone(&job));
    for g in graphs.iter().take(8) {
        if let Submit::Accepted(t) = svc.submit_map(MapJob::new(Arc::clone(g))) {
            let _ = t.wait();
        }
    }
    Setup {
        svc,
        genesis,
        job,
        schedule,
        graphs,
        cfg,
    }
}

/// An admitted request awaiting its reply.
struct Pending {
    ticket: MapTicket,
    graph: usize,
    /// The arrival's [`Arrival::key`].
    key: usize,
    step: usize,
    /// How late the submission ran behind its due time, ns.
    late_ns: u64,
    /// Allocation epoch at submission.
    epoch: usize,
    /// The hard failure this request probes: its index and how late
    /// the failure call itself started, ns.
    probe: Option<(usize, u64)>,
    /// Kept for the quality sample.
    sample: bool,
}

/// Measurements of one open-loop run.
#[derive(Default)]
struct Tally {
    /// Per ladder step: ms from due to reply.
    reply: Vec<Dist>,
    /// The ladder step whose requests give the end-to-end metrics.
    map_step: usize,
    /// At that step: each key's fastest `service_ns` and its fastest
    /// reply from due, ms.
    map_best: Best,
    reply_best: Best,
    shed: Vec<u64>,
    misses: Vec<u64>,
    map: Dist,
    queue: Dist,
    overhead: Dist,
    admit: Dist,
    late: Dist,
    churn: Dist,
    hard: Dist,
    displaced: Dist,
    fail_to_serve: Vec<f64>,
    first_reply: Dist,
    rungs: [u64; LadderRung::COUNT],
    samples: Vec<(usize, usize, Vec<u32>)>,
    topo_degrade: Dist,
    topo_oracle: Dist,
    topo_routes: Dist,
    remap: Dist,
    /// Hard failures and the live mapping before each (traced run).
    failures: Vec<(ChurnEvent, Option<Vec<u32>>)>,
}

/// Runs the workload for its fixed schedule and fills `report`.
pub fn run(mode: Mode, opts: &Opts, report: &mut Report) {
    let dir = opts.tmp_dir.join(match mode {
        Mode::Service => "service",
        Mode::LinkFailure => "link-failure",
    });
    let st = opts.timed_setup(report, || setup(mode, opts, &dir));
    let mut tracer = opts.trace.then(Tracer::new);
    let (tally, allocs, steps) = drive(mode, &st, tracer.as_mut(), report);
    finish(mode, st, tally, &allocs, steps, tracer.as_mut(), report);
    if let Some(t) = &tracer {
        opts.write_spans(t);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn span<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The generator loop: submits and applies every arrival when due,
/// then drains the replies.
fn drive(
    mode: Mode,
    st: &Setup,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> (Tally, Vec<Allocation>, usize) {
    let svc = &st.svc;
    let steps = st.schedule.steps;
    let mut tally = Tally {
        reply: vec![Dist::new(); steps],
        map_step: if mode == Mode::Service {
            REPORTED_STEP
        } else {
            0
        },
        shed: vec![0; steps],
        misses: vec![0; steps],
        ..Tally::default()
    };
    // Quality is sampled on the stencil requests (their structure is
    // fixed, so only the allocation under churn varies) at the reported
    // rate, where the ladder's top rung serves all of them.
    let map_step = tally.map_step;
    let sampled = |a: &Arrival| match a.what {
        What::Request { graph } => graph % 2 == 0 && a.step == map_step,
        What::Churn { .. } => false,
    };
    let eligible = st.schedule.arrivals.iter().filter(|a| sampled(a)).count();
    let sample_every = (eligible / QUALITY_SAMPLES).max(1);
    let mut n_sampled = 0usize;
    let mut allocs = vec![svc.with_state(|_, a| a.clone())];
    let mut pending: Vec<Pending> = Vec::new();
    // The traced run replays each hard failure on a benchmark-owned
    // machine copy once the service is down; keep what it needs.
    let record_failures = mode == Mode::LinkFailure && tracer.is_some();
    let deadline_ns = match mode {
        Mode::Service => None,
        Mode::LinkFailure => Some((LINK_DEADLINE_MS * 1e6) as u64),
    };
    let mut n_fail = 0usize;
    let start = Instant::now();
    for (idx, a) in st.schedule.arrivals.iter().enumerate() {
        loop {
            let now = start.elapsed().as_nanos() as u64;
            if now >= a.due_ns {
                break;
            }
            poll(&mut pending, &mut tally, &allocs, st, report);
            // Sleep until due, never spin: on a 2-CPU machine a spinning
            // generator takes the CPU the worker and the kernel need.
            let now = start.elapsed().as_nanos() as u64;
            std::thread::sleep(Duration::from_nanos(a.due_ns.saturating_sub(now)));
        }
        let late_ns = (start.elapsed().as_nanos() as u64).saturating_sub(a.due_ns);
        if a.step == tally.map_step {
            tally.late.push(ms(late_ns));
        }
        let mut submit = |graph: usize,
                          key: usize,
                          probe: Option<(usize, u64)>,
                          epoch: usize,
                          tally: &mut Tally,
                          tracer: &mut Option<&mut Tracer>,
                          report: &mut Report| {
            let mut job = MapJob::new(Arc::clone(&st.graphs[graph]));
            if let Some(d) = deadline_ns {
                job = job.with_deadline_ns(d);
            }
            let late_ns = (start.elapsed().as_nanos() as u64).saturating_sub(a.due_ns);
            let t = Instant::now();
            let sub = span(tracer, "service.submit_map", || svc.submit_map(job));
            if a.step == tally.map_step {
                tally.admit.push(t.elapsed().as_secs_f64() * 1e3);
            }
            match sub {
                Submit::Accepted(ticket) => {
                    pending.push(Pending {
                        ticket,
                        graph,
                        key,
                        step: a.step,
                        late_ns,
                        epoch,
                        probe,
                        sample: sampled(a) && {
                            n_sampled += 1;
                            (n_sampled - 1).is_multiple_of(sample_every)
                        },
                    });
                }
                Submit::Rejected { .. } => {
                    tally.shed[a.step] += 1;
                    report.op(a.step + 1 == steps && steps > 1);
                }
            }
        };
        match &a.what {
            What::Request { graph } => {
                if let Some(t) = tracer.as_deref_mut() {
                    t.begin_request(idx as u32);
                }
                submit(
                    *graph,
                    a.key,
                    None,
                    allocs.len() - 1,
                    &mut tally,
                    &mut tracer,
                    report,
                );
            }
            What::Churn { event, probe } => {
                if let Some(t) = tracer.as_deref_mut() {
                    t.begin_request(idx as u32);
                }
                let hard =
                    matches!(event, ChurnEvent::LinkDegraded { factor, .. } if *factor == 0.0);
                if hard && record_failures {
                    tally.failures.push((event.clone(), svc.live_mapping()));
                }
                let t = Instant::now();
                let rep = span(&mut tracer, "service.apply_churn", || {
                    svc.apply_churn(std::slice::from_ref(event))
                });
                let took = t.elapsed().as_secs_f64() * 1e3;
                if hard {
                    tally.hard.push(took);
                } else {
                    tally.churn.push(took);
                }
                tally.displaced.push(rep.displaced as f64);
                report.op(rep.error.is_none());
                allocs.push(svc.with_state(|_, a| a.clone()));
                if *probe {
                    submit(
                        0,
                        a.key,
                        Some((n_fail, late_ns)),
                        allocs.len() - 1,
                        &mut tally,
                        &mut tracer,
                        report,
                    );
                    n_fail += 1;
                }
                // The request due at the failure is first in line: the
                // requests that fell due during the stall follow once it
                // is served, so its rung never depends on their backlog.
                while pending.iter().any(|p| p.probe.is_some()) {
                    poll(&mut pending, &mut tally, &allocs, st, report);
                    std::thread::sleep(POLL_GAP);
                }
            }
        }
    }
    while !pending.is_empty() {
        poll(&mut pending, &mut tally, &allocs, st, report);
        std::thread::sleep(POLL_GAP);
    }
    (tally, allocs, steps)
}

/// Replays each hard failure of the run on the benchmark's own copy of
/// the starting machine and times the topology and repair layers:
/// `degrade_link`, the masked `oracle` and `route_cache` rebuilds, then
/// `remap_incremental` of the mapping the service held before that
/// failure. Each failure is restored (untimed) before the next.
fn replay_failures(
    genesis: &(Machine, Allocation),
    job: &TaskGraph,
    tally: &mut Tally,
    tracer: &mut Option<&mut Tracer>,
) {
    let (mut machine, mut alloc) = genesis.clone();
    let mut scratch = MapperScratch::new();
    let cfg = RemapConfig::default();
    let timed = |tracer: &mut Option<&mut Tracer>, name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        span(tracer, name, f);
        t.elapsed().as_secs_f64() * 1e3
    };
    for (event, before) in std::mem::take(&mut tally.failures) {
        let ChurnEvent::LinkDegraded { link, factor } = event else {
            continue;
        };
        let m = &mut machine;
        let degrade = timed(tracer, "topology.degrade_link", &mut || {
            m.degrade_link(link, factor)
        });
        let oracle = timed(tracer, "topology.oracle", &mut || {
            std::hint::black_box(m.oracle());
        });
        let routes = timed(tracer, "topology.route_cache", &mut || {
            std::hint::black_box(m.route_cache());
        });
        tally.topo_degrade.push(degrade);
        tally.topo_oracle.push(oracle);
        tally.topo_routes.push(routes);
        // The event is already applied, so only the repair is timed.
        if let Some(mut mapping) = before {
            let events = std::slice::from_ref(&event);
            let remap = timed(tracer, "core.remap", &mut || {
                std::hint::black_box(remap_incremental(
                    job,
                    m,
                    &mut alloc,
                    &mut mapping,
                    events,
                    &cfg,
                    &mut scratch,
                ));
            });
            tally.remap.push(remap);
        }
        machine.restore_link(link);
        fixtures::warm(&machine);
    }
}

/// Collects every reply that has arrived and checks it.
fn poll(
    pending: &mut Vec<Pending>,
    tally: &mut Tally,
    allocs: &[Allocation],
    st: &Setup,
    report: &mut Report,
) {
    let mut i = 0;
    while i < pending.len() {
        let Some(res) = pending[i].ticket.try_wait() else {
            i += 1;
            continue;
        };
        let p = pending.swap_remove(i);
        let reply = match res {
            Ok(r) => r,
            Err(e) => {
                report.check(false, || format!("request failed: {e}"));
                continue;
            }
        };
        let tasks = &st.graphs[p.graph];
        // The mapping was computed on some allocation between its
        // submission and now.
        let epoch = (p.epoch..allocs.len())
            .find(|&e| validate_mapping(tasks, &allocs[e], &reply.mapping).is_ok());
        report.check(epoch.is_some(), || {
            format!("reply for graph {} is not a valid mapping", p.graph)
        });
        let from_due = ms(p.late_ns + reply.total_ns);
        tally.reply[p.step].push(from_due);
        if p.step == tally.map_step {
            tally.map.push(ms(reply.service_ns));
            tally.reply_best.push(p.key, from_due);
            // The request due at a hard failure pays the masked rebuild;
            // it is timed by the failure-to-reply figure.
            if p.probe.is_none() {
                tally.map_best.push(p.key, ms(reply.service_ns));
            }
            tally.queue.push(ms(reply.queue_ns));
            // Everything between due and reply that is neither queueing
            // nor mapping: generator lateness, admission, reply hop.
            tally.overhead.push(ms(
                (p.late_ns + reply.total_ns).saturating_sub(reply.queue_ns + reply.service_ns)
            ));
        }
        tally.rungs[reply.rung.index()] += 1;
        let missed = !reply.met_deadline();
        if missed {
            tally.misses[p.step] += 1;
        }
        let steps = tally.reply.len();
        report.op(!missed || (p.step + 1 == steps && steps > 1));
        if let Some((k, call_late_ns)) = p.probe {
            if tally.fail_to_serve.len() <= k {
                tally.fail_to_serve.resize(k + 1, 0.0);
            }
            // From the moment the failure call started: a generator
            // running late before the failure is not the failure's cost.
            tally.fail_to_serve[k] = from_due - ms(call_late_ns);
            tally.first_reply.push(ms(reply.total_ns));
        }
        if let (true, Some(e)) = (p.sample, epoch) {
            tally.samples.push((p.graph, e, reply.mapping));
        }
    }
}

/// End-of-run checks and metrics: quality, drift, recovery.
#[allow(clippy::too_many_arguments)]
fn finish(
    mode: Mode,
    st: Setup,
    mut tally: Tally,
    allocs: &[Allocation],
    steps: usize,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) {
    let Setup {
        svc,
        genesis,
        job,
        graphs,
        cfg,
        ..
    } = st;
    // Reply quality against DEF on the allocation it was computed for,
    // both scored on the pristine machine.
    let (mut wh, mut mc) = (Vec::new(), Vec::new());
    for (g, e, mapping) in &tally.samples {
        let tasks = &graphs[*g];
        let got = evaluate(tasks, &genesis.0, mapping);
        let def = evaluate(tasks, &genesis.0, &def_mapping(tasks, &allocs[*e]));
        if def.wh > 0.0 && def.mc > 0.0 && got.wh > 0.0 && got.mc > 0.0 {
            wh.push(got.wh / def.wh);
            mc.push(got.mc / def.mc);
        }
    }
    report.set("wh_vs_def", geomean(&wh));
    report.set("mc_vs_def", geomean(&mc));
    // `reply_p99_ms` is every request's, queueing included; the
    // end-to-end figures take each key at its fastest.
    match mode {
        Mode::Service => {
            report.set("reply_p50_ms", tally.reply_best.dist().p50());
            report.set("reply_p99_ms", tally.reply[REPORTED_STEP].p99());
        }
        // What a user sees of a hard failure: the request due at the
        // moment a link fails, at the run's fastest failure.
        Mode::LinkFailure => {
            let mut probes = Dist::new();
            tally.fail_to_serve.iter().for_each(|&x| probes.push(x));
            report.set("reply_p50_ms", probes.quantile(0.0));
            report.set("reply_p99_ms", probes.p99());
        }
    }
    let mut map = tally.map_best.dist();
    report.set("map_p50_ms", map.p50());
    report.set("map_p99_ms", map.p99());
    report.set("maps_per_s", map.len() as f64 / (map.sum() / 1e3));

    // Live quality after the stream against a from-scratch map of the
    // same job on the final machine state.
    let live_wh = svc.live_wh();
    let fresh_wh = svc.with_state(|m, a| {
        let out = map_tasks(&job, m, a, MapperKind::GreedyWh, &PipelineConfig::default());
        weighted_hops(&job, m, &out.fine_mapping)
    });
    report.check(live_wh.is_some(), || {
        "resident job left unplaced".to_string()
    });
    report.set("live_wh_vs_fresh", live_wh.unwrap_or(0.0) / fresh_wh);

    if mode == Mode::Service {
        let max_rate = (0..steps)
            .filter(|&k| tally.shed[k] == 0 && tally.reply[k].p99() <= DEADLINE_MS)
            .map(|k| SERVICE_RATES[k])
            .fold(0.0, f64::max);
        report.set("max_rate_rps", max_rate);
    }
    let shed: u64 = tally.shed.iter().sum();
    let misses: u64 = tally.misses.iter().sum();
    report.set("service.shed", shed as f64);
    report.set("service.deadline_misses", misses as f64);
    report.set("service.admit_ms.p99", tally.admit.p99());
    report.set("service.queue_wait_ms.p50", tally.queue.p50());
    report.set("service.queue_wait_ms.p99", tally.queue.p99());
    report.set("service.map_ms.p50", tally.map.p50());
    report.set("service.map_ms.p99", tally.map.p99());
    report.set("service.reply_overhead_ms.p99", tally.overhead.p99());
    for rung in LadderRung::all() {
        let name = match rung {
            LadderRung::Full => "service.ladder.full",
            LadderRung::Refined => "service.ladder.refined",
            LadderRung::GreedyOnly => "service.ladder.greedy",
            LadderRung::Projection => "service.ladder.projection",
        };
        report.set(name, tally.rungs[rung.index()] as f64);
    }
    report.set("service.apply_churn_ms.p50", tally.churn.p50());
    report.set("service.apply_churn_ms.p99", tally.churn.p99());
    report.set("repair_p99_ms", tally.churn.p99());
    report.set("core.remap.displaced_mean", tally.displaced.mean());
    report.set("bench.generator_late_ms.p99", tally.late.p99());
    if mode == Mode::LinkFailure {
        report.set("service.apply_churn_ms.hard", tally.hard.p50());
        report.set("service.first_reply_ms", tally.first_reply.p50());
        report.set("link_fail_to_serve_ms", median(tally.fail_to_serve.clone()));
    }

    let live = svc.live_mapping();
    let stats = svc.shutdown();
    report.set("service.max_queue_depth", stats.max_queue_depth as f64);
    report.set("service.drift.polishes", stats.polishes as f64);
    report.set("service.drift.adoptions", stats.baseline_adoptions as f64);
    report.set("service.journal.appends", stats.journal_appends as f64);
    report.set("service.journal.bytes", stats.journal_bytes as f64);
    report.set("service.snapshots", stats.snapshots_written as f64);
    report.check(stats.journal_errors == 0, || {
        format!("{} journal writes failed", stats.journal_errors)
    });
    // `failed` leaves out what the overload rate is expected to shed
    // or miss; the fraction counts it.
    let overload = if steps > 1 {
        tally.shed[steps - 1] + tally.misses[steps - 1]
    } else {
        0
    };
    report.set(
        "failed_frac",
        (report.failed + overload) as f64 / report.attempted.max(1) as f64,
    );

    match mode {
        Mode::Service => check_recovery(genesis, cfg, live, live_wh, &mut tracer, report),
        Mode::LinkFailure => {
            replay_failures(&genesis, &job, &mut tally, &mut tracer);
            report.set("topology.degrade_link_ms", tally.topo_degrade.p50());
            report.set("topology.oracle_rebuild_ms", tally.topo_oracle.p50());
            report.set("topology.route_cache_rebuild_ms", tally.topo_routes.p50());
            report.set("core.remap_ms", tally.remap.p50());
        }
    }
}

/// Restarts a shut-down durable service from its journal, times the
/// recovery and checks the resident job came back bit-identical to
/// `live` / `live_wh` (the pre-crash service's).
pub fn check_recovery(
    genesis: (Machine, Allocation),
    cfg: ServiceConfig,
    live: Option<Vec<u32>>,
    live_wh: Option<f64>,
    tracer: &mut Option<&mut Tracer>,
    report: &mut Report,
) {
    let (machine, alloc) = genesis;
    let t = Instant::now();
    let out = span(tracer, "service.recover", || {
        MappingService::recover(machine, alloc, cfg)
    });
    let took = t.elapsed().as_secs_f64() * 1e3;
    match out {
        Ok((svc, rep)) => {
            report.set("recover_ms", took);
            report.set(
                "service.recover.frames_replayed",
                rep.frames_replayed as f64,
            );
            let same_map = svc.live_mapping() == live;
            let same_wh = svc.live_wh().map(f64::to_bits) == live_wh.map(f64::to_bits);
            report.check(same_map && same_wh, || {
                "recovered resident job differs from the pre-crash service".to_string()
            });
            svc.shutdown();
        }
        Err(e) => report.check(false, || format!("recovery failed: {e}")),
    }
}

//! The four workloads. Each is one user command, built from the seed and
//! run to completion through the crates' public APIs. A command returns
//! its checkable outputs as `(key, value)` units; values are exact
//! (`{:?}` of an `f64` round-trips its bits), so a speed-only change must
//! reproduce every one of them.

use crate::trace::Tracer;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use windtunnel::analytic::screen::{Rel, ScreenVerdict};
use windtunnel::cluster::screen::{availability_screen, perf_screen};
use windtunnel::cluster::AvailabilityModel;
use windtunnel::des::{RngFactory, SimDuration};
use windtunnel::prelude::*;
use windtunnel::sw::Placer;
use windtunnel::sweep::{Assignment, SweepGrid};
use windtunnel::Surrogate;
use wt_bench::fig1::{self, Fig1Config, Fig1Curves};
use wt_wtql::{
    apply_assignment, parse, run_query, store_stats, Comparison, ExecOptions, Plan, Query,
    QueryOutcome,
};

/// Every workload the benchmark can run. `BENCHMARK.json` gates all but
/// `scale_avail` (see README.md, "Workloads").
pub const WORKLOADS: [&str; 5] = [
    "scale_avail",
    "scale_slice",
    "design_sweep",
    "guided_sweep",
    "fig1_curves",
];

/// `fig1_curves` runs the paper's figure with root seed
/// `FIG1_SEED + seed`, so seed 0 is exactly `results/fig1.csv`.
pub const FIG1_SEED: u64 = 2014;

/// Prefix of units that are invariants: their value must be `true` on
/// every seed, pinned or not.
pub const INVARIANT: &str = "check:";

/// The `design_sweep` query. Its bounds sit far from the values they
/// test (replication 2 reaches about 0.99999 and 3 reaches 1.0; HDD p99
/// is about 13.5 ms and SSD about 0.1 ms), so every seed gets the same
/// verdicts and prunes the same points.
pub const DESIGN_QUERY: &str = "\
EXPLORE availability, shop_p99_s, tco_usd_per_year
SWEEP replication IN [2, 3], placement IN [\"R\", \"RR\"], disk IN [\"hdd\", \"ssd\"],
      mem_gb IN [32, 128], repair_parallel IN [1, 4]
SUBJECT TO availability >= 0.999998, shop_p99_s <= 0.01
MINIMIZE tco_usd_per_year
OPTIONS replications = 3";

/// Independent simulation seeds per `guided_sweep` query. Every point
/// of one seed shares its random streams, so how many replications early
/// stop saves varies with the seed as a whole. Several seeds per query
/// average that out of the run-to-run spread.
pub const GUIDED_SEEDS: u64 = 10;

/// The `guided_sweep` query for a benchmark seed.
pub fn guided_query(seed: u64) -> String {
    let seeds: Vec<String> = (0..GUIDED_SEEDS)
        .map(|j| seed.wrapping_mul(GUIDED_SEEDS).wrapping_add(j).to_string())
        .collect();
    format!(
        "EXPLORE availability, tco_usd_per_year
SWEEP replication IN [1, 2, 5], repair_parallel IN [1, 4], nic IN [\"1g\", \"10g\"],
      placement IN [\"R\", \"CS\"], seed IN [{}]
SUBJECT TO availability >= 0.9, mean_rebuild_wait_s <= 5000
MINIMIZE tco_usd_per_year
GUIDED OPTIONS prune = FALSE, replications = 10",
        seeds.join(", ")
    )
}

/// One user command's outcome.
pub struct Command {
    /// Checked outputs, in a stable order.
    pub units: Vec<(String, String)>,
    /// Everything the command computed, for the run's determinism check
    /// and the printed digest; a superset of `units`.
    pub detail: String,
    /// Simulated work: DES events, or Monte-Carlo trials on
    /// `fig1_curves`, whose kernel is not a DES.
    pub sim_events: u64,
    /// Design points given a verdict.
    pub points: u64,
    /// Future-event-list backend the adaptive picker chose.
    pub queue: String,
    /// Layer numbers only the command can see (counts, engine busy time).
    pub layer: BTreeMap<&'static str, f64>,
    /// What a traced run's extra layer calls need from this command.
    pub leftover: Leftover,
}

/// State a traced command hands to [`extras`].
pub enum Leftover {
    None,
    Scale(Box<ScaleState>),
    Sweep(Box<SweepState>),
    Fig1(Box<(Fig1Config, Fig1Curves)>),
}

pub struct ScaleState {
    sc: Scenario,
    model: AvailabilityModel,
    runner: SweepRunner,
    grid: SweepGrid,
    /// The command's result per replication.
    probed: Vec<AvailabilityResult>,
}

pub struct SweepState {
    query: Query,
    plan: Plan,
    base: Scenario,
    opts: ExecOptions,
    out: QueryOutcome,
    tunnel: WindTunnel,
}

/// Layer numbers from calls a traced run makes once, outside any
/// command, plus invariants they check.
#[derive(Debug, Default)]
pub struct Extras {
    pub layer: BTreeMap<&'static str, f64>,
    pub units: Vec<(String, String)>,
}

/// The extra layer calls for the command that left `leftover`.
pub fn extras(leftover: &Leftover, tr: &Tracer) -> Extras {
    match leftover {
        Leftover::None => Extras::default(),
        Leftover::Scale(s) => scale_extras(s, tr),
        Leftover::Sweep(s) => sweep_extras(s, tr),
        Leftover::Fig1(f) => fig1_extras(&f.0, &f.1, tr),
    }
}

fn exact(x: f64) -> String {
    format!("{x:?}")
}

fn invariant(units: &mut Vec<(String, String)>, name: &str, holds: bool) {
    units.push((format!("{INVARIANT}{name}"), holds.to_string()));
}

/// Runs one command of `workload`; spans go to `tr` under `root`.
pub fn command(
    workload: &str,
    seed: u64,
    workers: usize,
    tr: &Tracer,
    root: Option<u64>,
) -> Command {
    match workload {
        "scale_avail" | "scale_slice" => {
            scale_avail(ScaleSize::of(workload), seed, workers, tr, root)
        }
        "design_sweep" | "guided_sweep" => {
            sweep(sweep_setup(workload, seed, workers, tr, root), tr, root)
        }
        "fig1_curves" => fig1_curves(fig1_setup(seed, workers), tr, root),
        other => panic!("unknown workload {other}"),
    }
}

/// Host seconds of one command's set-up: everything from its start to
/// its first call into a simulation entry point (scenario and query
/// construction, topology build, model derivation, parse and plan).
pub fn setup_s(workload: &str, seed: u64, workers: usize) -> f64 {
    let off = Tracer::new(false, "setup");
    let t0 = Instant::now();
    match workload {
        "scale_avail" | "scale_slice" => drop(scale_setup(
            ScaleSize::of(workload),
            seed,
            workers,
            &off,
            None,
        )),
        "design_sweep" | "guided_sweep" => drop(sweep_setup(workload, seed, workers, &off, None)),
        "fig1_curves" => drop(fig1_setup(seed, workers)),
        other => panic!("unknown workload {other}"),
    }
    t0.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------- scale

/// The `e14_scale` build-out: racks of 40 nodes × 48 disks with node,
/// disk and switch failures live, so every component is a failure domain
/// with its own pending timer.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSize {
    racks: usize,
    /// Replications per command, run on the farm (seeds `seed + r`).
    replications: u64,
    objects: u64,
    horizon_years: f64,
    /// Floor on live failure domains: the component regime is the point
    /// of the workload.
    floor: usize,
}

impl ScaleSize {
    /// `scale_avail`: the full build-out, 500 racks (1,000,501 components).
    const FULL: ScaleSize = ScaleSize {
        racks: 500,
        replications: 1,
        objects: 200_000,
        horizon_years: 0.5,
        floor: 1_000_000,
    };
    /// `scale_slice`: the `e14_scale --smoke` slice, 50 racks (100,051
    /// components), over the full build-out's half year. Like
    /// `e14_scale`, it runs two replications on the farm; that also keeps
    /// both cores of a two-core host busy, which steadies its timing.
    const SLICE: ScaleSize = ScaleSize {
        racks: 50,
        replications: 2,
        objects: 20_000,
        horizon_years: 0.5,
        floor: 100_000,
    };

    fn of(workload: &str) -> ScaleSize {
        if workload == "scale_avail" {
            ScaleSize::FULL
        } else {
            ScaleSize::SLICE
        }
    }
}

pub fn scale_scenario(size: ScaleSize, seed: u64) -> Scenario {
    ScenarioBuilder::new("perfbench-scale")
        .racks(size.racks)
        .nodes_per_rack(40)
        .disk(catalog::hdd_7200_4t())
        .disks_per_node(48)
        .objects(size.objects)
        .object_gb(8.0)
        .repair(RepairPolicy::parallel(64))
        .switch_failures(true)
        .disk_failures(true)
        .horizon_years(size.horizon_years)
        .seed(seed)
        .build()
}

/// Scale set-up: the scenario, its component count, the availability
/// model, and the farm with one grid point per replication.
fn scale_setup(
    size: ScaleSize,
    seed: u64,
    workers: usize,
    tr: &Tracer,
    root: Option<u64>,
) -> (Scenario, usize, AvailabilityModel, SweepRunner, SweepGrid) {
    let sc = tr.span("core.scenario", "core", root, |_| {
        scale_scenario(size, seed)
    });
    let components = tr.span("hw.topology_build", "hw", root, |_| {
        sc.topology.build().components_iter().count()
    });
    let model = tr.span("core.availability_model", "core", root, |_| {
        WindTunnel::availability_model(&sc)
    });
    let reps = (0..size.replications)
        .map(|r| vec![("rep".to_string(), (r as usize).into())])
        .collect();
    let grid = SweepGrid::explicit("scale", sc.seed, reps);
    let runner = SweepRunner::new(Farm::new(workers.min(size.replications as usize)));
    (sc, components, model, runner, grid)
}

fn scale_avail(
    size: ScaleSize,
    seed: u64,
    workers: usize,
    tr: &Tracer,
    root: Option<u64>,
) -> Command {
    let (sc, components, model, runner, grid) = scale_setup(size, seed, workers, tr, root);
    let horizon = SimDuration::from_years(sc.horizon_years);
    let runs = tr.span("core.map_points", "core", root, |parent| {
        runner.map_points(&grid, |point, _ctx| {
            let rep = point.axis_num("rep") as u64;
            tr.span("cluster.run_observed", "cluster", parent, |_| {
                model.run_observed(sc.seed.wrapping_add(rep), horizon, None)
            })
        })
    });

    // Replication 0's outputs keep bare keys; later ones are prefixed.
    // Queue-depth gauges describe the engine, not the simulated system,
    // so they are layer metrics, not checked outputs.
    let mut units: Vec<(String, String)> = Vec::new();
    for (rep, (r, _)) in runs.iter().enumerate() {
        let key = |name: &str| match rep {
            0 => name.to_string(),
            _ => format!("rep{rep}.{name}"),
        };
        units.extend([
            (key("availability"), exact(r.availability)),
            (key("nines"), exact(r.nines)),
            (
                key("unavailability_events"),
                r.unavailability_events.to_string(),
            ),
            (key("objects_lost"), r.objects_lost.to_string()),
            (key("node_failures"), r.node_failures.to_string()),
            (key("switch_failures"), r.switch_failures.to_string()),
            (key("disk_failures"), r.disk_failures.to_string()),
            (key("rebuilds_completed"), r.rebuilds_completed.to_string()),
            (key("mean_rebuild_wait_s"), exact(r.mean_rebuild_wait_s)),
            (key("horizon_s"), exact(r.horizon_s)),
            (key("sim_events"), r.sim_events.to_string()),
        ]);
    }
    invariant(&mut units, "components_at_scale", components >= size.floor);
    invariant(
        &mut units,
        "telemetry_counts_every_event",
        runs.iter().all(|(r, tel)| tel.events == r.sim_events),
    );
    invariant(
        &mut units,
        "availability_in_unit_interval",
        runs.iter()
            .all(|(r, _)| (0.0..=1.0).contains(&r.availability)),
    );
    let events: u64 = runs.iter().map(|(r, _)| r.sim_events).sum();
    let peak = runs
        .iter()
        .map(|(_, t)| t.peak_queue_depth)
        .max()
        .unwrap_or(0);
    let queue = model.queue.as_str().to_string();
    Command {
        detail: format!("{units:?}"),
        units,
        sim_events: events,
        points: 1,
        queue,
        layer: BTreeMap::from([
            ("des.events", events as f64),
            ("des.peak_pending", peak as f64),
            ("hw.components", components as f64),
            ("cluster.replications", runs.len() as f64),
        ]),
        leftover: if tr.enabled() {
            Leftover::Scale(Box::new(ScaleState {
                sc,
                model,
                runner,
                grid,
                probed: runs.into_iter().map(|(r, _)| r).collect(),
            }))
        } else {
            Leftover::None
        },
    }
}

/// Layer numbers a scale workload gets from extra calls on a traced
/// command's model, each per replication: the set-up vs loop split and
/// the unprobed run (whose result must equal the probed one), run on the
/// command's farm so that they share its conditions; and a standalone
/// placement pass.
fn scale_extras(st: &ScaleState, tr: &Tracer) -> Extras {
    let horizon = SimDuration::from_years(st.sc.horizon_years);
    // Runs `f` once per replication seed; returns the results and the
    // mean host seconds of one call.
    let per_rep = |name: &'static str, f: &(dyn Fn(u64) -> AvailabilityResult + Sync)| {
        let runs = st.runner.map_points(&st.grid, |point, _ctx| {
            let seed = st.sc.seed.wrapping_add(point.axis_num("rep") as u64);
            let t = Instant::now();
            let r = tr.span(name, "cluster", None, |_| f(seed));
            (r, t.elapsed().as_secs_f64())
        });
        let mean = runs.iter().map(|r| r.1).sum::<f64>() / runs.len().max(1) as f64;
        (runs.into_iter().map(|r| r.0).collect::<Vec<_>>(), mean)
    };
    // A horizon before the first event: only placement and timer seeding
    // execute.
    let (early, avail_setup_s) = per_rep("cluster.avail_setup", &|seed| {
        st.model.run_observed(seed, SimDuration::ZERO, None).0
    });
    let (plain, run_s) = per_rep("cluster.run", &|seed| st.model.run(seed, horizon));
    let t = Instant::now();
    tr.span("sw.place", "sw", None, |_| {
        let width = st.sc.redundancy.width();
        let stream = RngFactory::new(st.sc.seed).stream("placement");
        let mut placer = Placer::new(st.sc.placement, st.model.n_nodes, width, stream);
        let mut out = Vec::with_capacity(width);
        for obj in 0..st.sc.objects {
            placer.place_into(obj, &mut out);
            std::hint::black_box(&out);
        }
    });
    let place_s = t.elapsed().as_secs_f64();

    let mut units = Vec::new();
    invariant(
        &mut units,
        "probe_leaves_result_identical",
        plain == st.probed,
    );
    invariant(
        &mut units,
        "zero_horizon_runs_no_event",
        early.iter().all(|r| r.sim_events == 0),
    );
    Extras {
        layer: BTreeMap::from([
            ("cluster.avail_setup_s", avail_setup_s),
            ("cluster.run_s", run_s),
            ("sw.place_s", place_s),
        ]),
        units,
    }
}

// ---------------------------------------------------------------- sweeps

/// `design_sweep` base: three racks of ten nodes, 1,000 objects and an
/// OLTP tenant, so every point runs both the availability and the perf
/// engine.
pub fn design_base(seed: u64) -> Scenario {
    ScenarioBuilder::new("perfbench-design")
        .racks(3)
        .nodes_per_rack(10)
        .objects(5_000)
        .object_gb(4.0)
        .tenant(TenantWorkload::oltp("shop", 200.0, 100_000))
        .horizon_years(1.0)
        .seed(seed)
        .build()
}

/// `guided_sweep` base: the `wtql --stress` preset (~40-day Weibull node
/// lifetimes, five-day failure detection), where analytic screens and
/// early stop have work to do.
pub fn stress_base(seed: u64) -> Scenario {
    let mut sc = ScenarioBuilder::new("perfbench-stress")
        .racks(4)
        .nodes_per_rack(10)
        .objects(2_000)
        .object_gb(4.0)
        .horizon_years(0.5)
        .seed(seed)
        .build();
    sc.topology.node.ttf = Dist::weibull_mean(0.8, 40.0 * 86_400.0);
    sc.repair.detection_delay_s = 5.0 * 86_400.0;
    sc
}

fn describe(assignment: &Assignment) -> String {
    assignment
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// The verdict table and winning row.
pub fn verdict_units(out: &QueryOutcome) -> Vec<(String, String)> {
    let mut units: Vec<(String, String)> = out
        .rows
        .iter()
        .map(|r| {
            let verdict = if r.pruned {
                "pruned"
            } else if r.passes {
                "pass"
            } else {
                "fail"
            };
            (describe(&r.assignment), verdict.to_string())
        })
        .collect();
    let best = out
        .best_row()
        .map_or("none".into(), |r| describe(&r.assignment));
    units.push(("best".into(), best));
    units
}

/// Every row's asked-for metrics (EXPLORE, constraints, objective) and
/// its mean rebuild wait, exact: what a sweep's rows must reproduce
/// besides their verdicts. The rebuild wait moves with any change to the
/// failure and repair path, even where availability reads 1.0. Pruned
/// rows have no metrics, and screened rows only the exact cost metrics.
pub fn row_metric_units(query: &Query, out: &QueryOutcome) -> Vec<(String, String)> {
    let mut names = BTreeSet::from(["mean_rebuild_wait_s"]);
    names.extend(query.explore.iter().map(String::as_str));
    names.extend(query.constraints.iter().map(|c| c.metric.as_str()));
    names.extend(query.objective.iter().map(|o| o.metric.as_str()));
    let mut units = Vec::new();
    for r in &out.rows {
        let point = describe(&r.assignment);
        for m in &names {
            if let Some(v) = r.metrics.get(*m) {
                units.push((format!("{point}/{m}"), exact(*v)));
            }
        }
    }
    units
}

/// Parses and runs `text` with its OPTIONS, on `workers` farm workers.
pub fn run_text(text: &str, base: &Scenario, workers: usize) -> QueryOutcome {
    let query = parse(text).expect("the benchmark's query parses");
    let mut opts = ExecOptions::from_query(&query);
    opts.threads = workers;
    run_query(&query, base, &WindTunnel::new(), &opts).expect("the benchmark's query runs")
}

/// A sweep's set-up: base scenario, parsed query, plan and options.
fn sweep_setup(
    workload: &str,
    seed: u64,
    workers: usize,
    tr: &Tracer,
    root: Option<u64>,
) -> (Scenario, Query, Plan, ExecOptions) {
    let (text, base) = if workload == "guided_sweep" {
        (guided_query(seed), stress_base(seed))
    } else {
        (DESIGN_QUERY.to_string(), design_base(seed))
    };
    let query = tr.span("wtql.parse", "wtql", root, |_| parse(&text));
    let query = query.expect("the benchmark's query parses");
    let plan = tr.span("wtql.plan", "wtql", root, |_| Plan::build(&query));
    let plan = plan.expect("the benchmark's query plans");
    let mut opts = ExecOptions::from_query(&query);
    opts.threads = workers;
    (base, query, plan, opts)
}

fn sweep(setup: (Scenario, Query, Plan, ExecOptions), tr: &Tracer, root: Option<u64>) -> Command {
    let (base, query, plan, opts) = setup;
    let tunnel = WindTunnel::new();
    let queue = base
        .queue_backend_for(base.availability_pending_estimate())
        .as_str()
        .to_string();
    let out = tr.span("wtql.run_query", "wtql", root, |_| {
        run_query(&query, &base, &tunnel, &opts)
    });
    let out = out.expect("the benchmark's query runs");
    let stats = tr.span("store.stats", "store", root, |_| {
        store_stats(tunnel.store())
    });

    let mut units = verdict_units(&out);
    units.extend(row_metric_units(&query, &out));
    let n = out.rows.len();
    invariant(&mut units, "one_row_per_planned_point", n == plan.len());
    invariant(
        &mut units,
        "every_row_has_one_verdict_source",
        out.executed + out.pruned + out.aborted + out.screened == n,
    );
    let cheapest_passing = out
        .passing()
        .iter()
        .map(|r| r.metrics["tco_usd_per_year"])
        .fold(f64::INFINITY, f64::min);
    invariant(
        &mut units,
        "best_is_cheapest_passing_row",
        out.best_row().map_or(out.passing().is_empty(), |b| {
            b.metrics["tco_usd_per_year"] == cheapest_passing
        }),
    );
    invariant(
        &mut units,
        "stats_counts_every_record",
        stats.starts_with(&format!("store: {} record(s)", tunnel.store().len())),
    );

    // Engine busy time and counts, read back from the store's records.
    let (mut avail_busy, mut perf_busy, mut perf_requests) = (0.0, 0.0, 0.0);
    let (mut avail_runs, mut avail_events, mut sim_events, mut peak_pending) = (0.0, 0, 0, 0u64);
    tunnel.store().with(|s| {
        for rec in s.records() {
            let Some(t) = &rec.telemetry else { continue };
            let busy = t.wall.wall_us as f64 * 1e-6;
            sim_events += t.events;
            peak_pending = peak_pending.max(t.peak_queue_depth);
            match rec.experiment.as_str() {
                "availability" => {
                    avail_busy += busy;
                    avail_runs += 1.0;
                    avail_events += t.events;
                }
                "perf" => {
                    perf_busy += busy;
                    perf_requests += rec
                        .metrics
                        .iter()
                        .filter(|(k, _)| k.ends_with("_throughput"))
                        .map(|(_, v)| v * t.horizon_s)
                        .fold(0.0, |a, b| a + b);
                }
                _ => {}
            }
        }
    });
    invariant(
        &mut units,
        "store_holds_every_availability_event",
        avail_events == out.total_sim_events,
    );
    let mut detail = format!("{units:?}\n");
    for r in &out.rows {
        detail.push_str(&format!("{r:?}\n"));
    }
    let records = tunnel.store().len() as f64;
    let planned = (n * opts.replications) as f64;
    let layer = BTreeMap::from([
        ("des.events", sim_events as f64),
        ("des.peak_pending", peak_pending as f64),
        ("cluster.avail_busy_s", avail_busy),
        ("cluster.perf_busy_s", perf_busy),
        ("cluster.perf_requests", perf_requests),
        ("core.reps_run_ratio", avail_runs / planned),
        ("store.records", records),
        ("wtql.executed", out.executed as f64),
        ("wtql.pruned", out.pruned as f64),
        ("wtql.screened", out.screened as f64),
        ("wtql.aborted", out.aborted as f64),
        ("wtql.early_stopped", out.early_stopped as f64),
        (
            "wtql.sim_free_ratio",
            (out.pruned + out.screened) as f64 / n as f64,
        ),
    ]);
    let leftover = if tr.enabled() {
        Leftover::Sweep(Box::new(SweepState {
            query,
            plan,
            base,
            opts,
            out,
            tunnel,
        }))
    } else {
        Leftover::None
    };
    Command {
        units,
        detail,
        sim_events,
        points: n as u64,
        queue,
        layer,
        leftover,
    }
}

/// Layer numbers a sweep gets from extra calls on a traced command's
/// outcome: a store snapshot, one surrogate fit at the final row count,
/// and (for a guided query) the analytic screens over the whole grid.
fn sweep_extras(st: &SweepState, tr: &Tracer) -> Extras {
    let mut layer = BTreeMap::new();
    let t = Instant::now();
    let snap = tr.span("store.metrics_snapshot", "store", None, |_| {
        st.tunnel.store().metrics_snapshot()
    });
    std::hint::black_box(&snap);
    layer.insert("store.snapshot_s", t.elapsed().as_secs_f64());

    // Features: the numeric axes; target: 1 for a failing row.
    let rows = &st.out.rows;
    let numeric: Vec<usize> = (0..st.query.sweeps.len())
        .filter(|&i| rows.iter().all(|r| r.assignment[i].1.as_num().is_some()))
        .collect();
    let xs: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| {
            numeric
                .iter()
                .filter_map(|&i| r.assignment[i].1.as_num())
                .collect()
        })
        .collect();
    let xs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
    let ys: Vec<f64> = rows
        .iter()
        .map(|r| if r.passes { 0.0 } else { 1.0 })
        .collect();
    let t = Instant::now();
    let model = tr.span("core.surrogate_fit", "core", None, |_| {
        Surrogate::fit(&xs, &ys, 1e-3)
    });
    std::hint::black_box(&model);
    layer.insert("core.surrogate_fit_s", t.elapsed().as_secs_f64());

    if st.query.guided {
        let (mut screened, mut decided) = (0u64, 0u64);
        let t = Instant::now();
        tr.span("analytic.screen", "analytic", None, |_| {
            for config in &st.plan.configs {
                let mut sc = st.base.clone();
                for (axis, value) in config {
                    apply_assignment(&mut sc, axis, value).expect("planned axes bind");
                }
                let avail = availability_screen(&sc, st.opts.screen_min_failures);
                let perf = perf_screen(&sc);
                for c in &st.query.constraints {
                    let rel = match c.cmp {
                        Comparison::Ge => Rel::Ge,
                        Comparison::Gt => Rel::Gt,
                        Comparison::Le => Rel::Le,
                        Comparison::Lt => Rel::Lt,
                        Comparison::Eq => continue,
                    };
                    let verdict = match (c.metric.as_str(), perf) {
                        ("availability", _) => avail.screen(rel, c.bound, st.opts.screen_guard),
                        (m, Some(p)) if m.ends_with("_p99_s") => {
                            p.screen(0.99, rel, c.bound, st.opts.screen_guard)
                        }
                        _ => continue,
                    };
                    screened += 1;
                    if verdict != ScreenVerdict::Unknown {
                        decided += 1;
                    }
                }
            }
        });
        layer.insert("analytic.screen_s", t.elapsed().as_secs_f64());
        layer.insert(
            "analytic.screen_decided_ratio",
            decided as f64 / screened.max(1) as f64,
        );
    }
    Extras {
        layer,
        units: Vec::new(),
    }
}

// ---------------------------------------------------------------- fig1

/// The paper's Figure 1 config for a benchmark seed.
pub fn fig1_config(seed: u64) -> Fig1Config {
    let mut config = Fig1Config::paper();
    config.seed = FIG1_SEED.wrapping_add(seed);
    config
}

/// `fig1_curves` set-up: the config and the farm.
fn fig1_setup(seed: u64, workers: usize) -> (Fig1Config, SweepRunner) {
    (fig1_config(seed), SweepRunner::new(Farm::new(workers)))
}

/// Series `s` of `config` as the experiment `fig1::compute` runs.
fn fig1_experiment(config: &Fig1Config, s: usize) -> UnavailabilityExperiment {
    let (n_nodes, n, placement) = config.series[s];
    let mut exp =
        UnavailabilityExperiment::figure1(n_nodes, config.users, n, placement, config.seed);
    if let Some(trials) = config.trials {
        exp.trials = trials;
    }
    exp
}

/// Failure counts of series `s` that `fig1::compute` simulates; a point
/// with more failures than nodes is 1 without simulation.
fn fig1_simulated(config: &Fig1Config, s: usize) -> std::ops::RangeInclusive<usize> {
    0..=config.max_f.min(config.series[s].0)
}

fn fig1_curves(setup: (Fig1Config, SweepRunner), tr: &Tracer, root: Option<u64>) -> Command {
    let (config, runner) = setup;
    let curves = tr.span("core.fig1_compute", "core", root, |_| {
        fig1::compute(&config, &runner)
    });
    let trials: u64 = (0..config.series.len())
        .map(|s| {
            u64::from(fig1_experiment(&config, s).trials)
                * fig1_simulated(&config, s).count() as u64
        })
        .sum();
    let mut units = fig1_units(&curves);
    invariant(
        &mut units,
        "probabilities_in_unit_interval",
        curves
            .curves
            .iter()
            .flatten()
            .all(|p| (0.0..=1.0).contains(p)),
    );
    invariant(
        &mut units,
        "no_failures_no_unavailability",
        curves.curves.iter().all(|c| c[0] == 0.0),
    );
    Command {
        detail: format!("{units:?}"),
        units,
        sim_events: trials,
        points: curves.curves.iter().map(|c| c.len() as u64).sum(),
        queue: "none".into(),
        layer: BTreeMap::from([("cluster.unavail_trials", trials as f64)]),
        leftover: if tr.enabled() {
            Leftover::Fig1(Box::new((config, curves)))
        } else {
            Leftover::None
        },
    }
}

/// Curve points as units: key `<series>@f=<f>`, value as `fig1 --csv`
/// prints it.
pub fn fig1_units(curves: &Fig1Curves) -> Vec<(String, String)> {
    let headers = curves.config.headers();
    let mut units = Vec::new();
    for (s, curve) in curves.curves.iter().enumerate() {
        for (f, p) in curve.iter().enumerate() {
            units.push((format!("{}@f={f}", headers[s + 1]), format!("{p}")));
        }
    }
    units
}

/// `fig1_curves` extras: every simulated curve point once more, serially
/// (the Monte-Carlo kernel's host time, whose results must equal the
/// farm's), and a standalone placement pass over each series' customers,
/// as the experiment's replica-set step does.
fn fig1_extras(config: &Fig1Config, curves: &Fig1Curves, tr: &Tracer) -> Extras {
    let (mut unavail_s, mut same) = (0.0, true);
    for s in 0..config.series.len() {
        let exp = fig1_experiment(config, s);
        for f in fig1_simulated(config, s) {
            let t = Instant::now();
            let p = tr.span("cluster.unavail_run", "cluster", None, |_| exp.run_at(f));
            unavail_s += t.elapsed().as_secs_f64();
            same &= p.p_unavailable == curves.curves[s][f];
        }
    }
    let t = Instant::now();
    tr.span("sw.place", "sw", None, |_| {
        for &(n_nodes, n, placement) in &config.series {
            let stream = RngFactory::new(config.seed).stream("placement");
            let mut placer = Placer::new(placement, n_nodes, n, stream);
            let mut out = Vec::with_capacity(n);
            for user in 0..config.users {
                placer.place_into(user, &mut out);
                std::hint::black_box(&out);
            }
        }
    });
    let place_s = t.elapsed().as_secs_f64();
    let mut units = Vec::new();
    invariant(&mut units, "serial_points_equal_farm_curves", same);
    Extras {
        layer: BTreeMap::from([("cluster.unavail_s", unavail_s), ("sw.place_s", place_s)]),
        units,
    }
}

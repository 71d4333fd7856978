//! The query executor: parallel run dispatch, dominance pruning and
//! surrogate ranking (§4.2).
//!
//! Every query runs on one executor: the planned configuration order
//! becomes an explicit [`windtunnel::sweep::SweepGrid`] and runs through
//! [`windtunnel::sweep::SweepRunner::run_points`] on the farm's one
//! scheduler. Dominance pruning is its dependency edges — a point starts
//! only once every configuration that could prune it has a verdict — so
//! verdicts depend on plan order alone, never on worker count.
//!
//! Each point's verdict comes from the tunnel's one evaluator,
//! [`WindTunnel::evaluate`]: the query's constraints, explored metrics
//! and objective become a [`SlaSet`], and [`ExecOptions`] carries the
//! evaluator's [`Stages`] (analytic screening, probe aborts, replication
//! early-stop — DESIGN.md §13). This module adds only what queries need
//! on top: OPTIONS parsing, the dominance edges, surrogate ranking and
//! row assembly.
//!
//! The `GUIDED` clause (or `OPTIONS guided = TRUE`) arms screening,
//! ranking, sketch aborts and early-stop, and OPTIONS can then disable
//! each one. **Surrogate ranking** (`rank`) is the one stage that lives
//! here: a ridge-regression surrogate over the numeric axes re-ranks the
//! unexecuted frontier toward likely-infeasible points so dominance
//! pruning fires sooner. Ranking only reorders work; it never touches a
//! verdict.

use crate::ast::{Comparison, Query};
use crate::bind::{apply_assignment, check_scenario, is_known_axis, resolve_injection};
use crate::error::WtqlError;
use crate::plan::{Assignment, Plan};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use windtunnel::cluster::Scenario;
use windtunnel::farm::Farm;
use windtunnel::sla::is_known_metric;
use windtunnel::sweep::{GuidedCounters, SweepGrid, SweepRunner};
use windtunnel::{Evaluation, SlaSet, Stages, Surrogate, WindTunnel};
use wt_store::ParamValue;

/// Execution knobs (overridable from the query's OPTIONS clause). The
/// evaluator's settings are the [`Stages`] it derefs to, so
/// `opts.replications` or `opts.screen` read and write them directly.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads.
    pub threads: usize,
    /// Monotone dominance pruning on/off.
    pub prune: bool,
    /// Surrogate ranking (guided): visit likely-infeasible points first
    /// so dominance pruning fires sooner. Reorders only.
    pub rank: bool,
    /// How much simulation each point's evaluation may spend.
    pub stages: Stages,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: 1,
            prune: true,
            rank: false,
            stages: Stages::default(),
        }
    }
}

impl Deref for ExecOptions {
    type Target = Stages;

    fn deref(&self) -> &Stages {
        &self.stages
    }
}

impl DerefMut for ExecOptions {
    fn deref_mut(&mut self) -> &mut Stages {
        &mut self.stages
    }
}

impl ExecOptions {
    /// Reads overrides from the query's OPTIONS clause
    /// (`OPTIONS threads = 4, prune = FALSE, early_abort = TRUE`). The
    /// `GUIDED` clause arms the four guided stages; each can then be
    /// disabled individually via OPTIONS.
    pub fn from_query(query: &Query) -> Self {
        let mut o = ExecOptions::default();
        if query.guided {
            o.arm_guided(true);
        }
        for (key, value) in &query.options {
            let flag = match value {
                ParamValue::Bool(b) => Some(*b),
                _ => None,
            };
            // Unknown options and ill-typed values are ignored, like SQL
            // hints. Options apply in source order, so a later
            // `screen = FALSE` can still disable one stage `guided` armed.
            match (key.as_str(), flag, value.as_num()) {
                ("threads", _, Some(x)) => o.threads = (x as usize).max(1),
                ("prune", Some(b), _) => o.prune = b,
                ("early_abort", Some(b), _) => o.early_abort = b,
                ("probe_fraction", _, Some(x)) => o.probe_fraction = x.clamp(0.01, 0.9),
                ("abort_margin", _, Some(x)) => o.abort_margin = x.max(0.0),
                ("replications", _, Some(x)) => o.replications = (x as usize).max(1),
                ("guided", Some(b), _) => o.arm_guided(b),
                ("screen", Some(b), _) => o.screen = b,
                ("rank", Some(b), _) => o.rank = b,
                ("early_stop", Some(b), _) => o.early_stop = b,
                ("sketch_abort", Some(b), _) => o.sketch_abort = b,
                ("screen_guard", _, Some(x)) => o.screen_guard = x.max(0.0),
                ("screen_min_failures", _, Some(x)) => o.screen_min_failures = x.max(0.0),
                _ => {}
            }
        }
        o
    }

    /// Sets the four guided stages at once — what the `GUIDED` clause and
    /// its `guided` OPTIONS master switch do.
    fn arm_guided(&mut self, on: bool) {
        self.screen = on;
        self.rank = on;
        self.early_stop = on;
        self.sketch_abort = on;
    }
}

/// One configuration's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRow {
    /// The configuration.
    pub assignment: Assignment,
    /// Output metrics (empty for pruned rows).
    pub metrics: BTreeMap<String, f64>,
    /// All constraints satisfied.
    pub passes: bool,
    /// Skipped without simulation (dominated by a failed config).
    pub pruned: bool,
    /// Aborted on the probe horizon.
    pub aborted: bool,
    /// Resolved analytically without simulation (guided screening).
    /// Screened rows carry only the exact cost metrics.
    pub screened: bool,
    /// The replication loop stopped early once every constraint was
    /// confidently resolved (guided early-stop; ≥ 2 reps always ran).
    pub early_stopped: bool,
    /// Discrete events this row actually executed, summed across every
    /// replication and probe. Unlike the averaged `sim_events` metric,
    /// this is the row's true simulation cost — zero for pruned and
    /// screened rows.
    pub sim_events_executed: u64,
}

/// The result of executing a query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// One row per configuration, in plan order.
    pub rows: Vec<RunRow>,
    /// Index of the objective-best passing row, if any.
    pub best: Option<usize>,
    /// Runs fully simulated.
    pub executed: usize,
    /// Runs pruned by dominance.
    pub pruned: usize,
    /// Runs aborted on the probe.
    pub aborted: usize,
    /// Points resolved by analytic screening, without simulation.
    pub screened: usize,
    /// Points whose replication loop early-stopped.
    pub early_stopped: usize,
    /// Total discrete events actually simulated, summed across every
    /// row's replications and probes (cost proxy — what guided execution
    /// tries to shrink).
    pub total_sim_events: u64,
}

impl QueryOutcome {
    /// The best row, if an objective was given and some row passed.
    pub fn best_row(&self) -> Option<&RunRow> {
        self.best.map(|i| &self.rows[i])
    }

    /// Rows that satisfied all constraints.
    pub fn passing(&self) -> Vec<&RunRow> {
        self.rows.iter().filter(|r| r.passes).collect()
    }
}

/// Renders the result-store report behind the `STATS` statement (and the
/// interactive `.stats` command): record count, capacity, evictions,
/// per-experiment counts, and the store's sketch-derived distributions —
/// p50/p95/p99/p999 of every quantile summary in the store's
/// [`MetricsSnapshot`](wt_store::ResultStore::metrics_snapshot) (scalar
/// metrics across runs as `metric_<name>`, plus per-run telemetry
/// sketches merged label-wise) and the HLL distinct-key cardinalities.
/// Runs no simulation, never fails, and is a harmless no-op on an empty
/// store — safe anywhere in a script.
pub fn store_stats(store: &wt_store::SharedStore) -> String {
    store.with(|s| {
        let capacity = s
            .capacity()
            .map(|c| c.to_string())
            .unwrap_or_else(|| "unbounded".into());
        let mut out = format!(
            "store: {} record(s), capacity {capacity}, {} evicted\n",
            s.len(),
            s.evicted()
        );
        let counts = s.experiment_counts();
        if counts.is_empty() {
            out.push_str("  (no experiments recorded)\n");
        } else {
            for (exp, n) in counts {
                out.push_str(&format!("  {exp}: {n} run(s)\n"));
            }
        }
        let snap = s.metrics_snapshot();
        if !snap.quantiles.is_empty() {
            out.push_str("  sketch quantiles (p50 / p95 / p99 / p999):\n");
            for (label, sk) in &snap.quantiles {
                out.push_str(&format!(
                    "    {label}: {} / {} / {} / {} ({} obs)\n",
                    fmt_stat(sk.p50()),
                    fmt_stat(sk.p95()),
                    fmt_stat(sk.p99()),
                    fmt_stat(sk.p999()),
                    sk.count()
                ));
            }
        }
        if !snap.distincts.is_empty() {
            out.push_str("  distinct cardinalities (HLL):\n");
            for (label, h) in &snap.distincts {
                out.push_str(&format!("    {label}: ~{}\n", h.estimate().round() as u64));
            }
        }
        // Verdict provenance: guided execution writes records whose
        // `verdict_source` param says how the verdict was reached
        // ("screened", "aborted"); everything else was fully simulated.
        // Shown only when a guided run has actually contributed.
        let mut provenance: BTreeMap<String, usize> = BTreeMap::new();
        for rec in s.records() {
            let source = rec
                .params
                .get("verdict_source")
                .map(|v| v.to_string())
                .unwrap_or_else(|| "simulated".into());
            *provenance.entry(source).or_insert(0) += 1;
        }
        if provenance.keys().any(|k| k != "simulated") {
            out.push_str("  verdict sources:\n");
            for (source, count) in &provenance {
                out.push_str(&format!("    {source}: {count} record(s)\n"));
            }
        }
        out
    })
}

/// Compact stat formatting for the STATS view: scientific for the very
/// small, six significant digits otherwise.
fn fmt_stat(x: f64) -> String {
    if x != 0.0 && x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{:.6}", (x * 1e6).round() / 1e6)
    }
}

/// The SLA set a query asks every point to meet: its constraints, with
/// the explored metrics reported alongside and its objective named.
fn sla_set(query: &Query) -> SlaSet {
    let mut slas: SlaSet = query.constraints.iter().cloned().collect();
    for metric in &query.explore {
        slas = slas.report(metric.clone());
    }
    if let Some(obj) = &query.objective {
        slas = slas.objective(obj.metric.clone());
    }
    slas
}

/// Executes a query against a base scenario through a wind tunnel.
///
/// Every planned point's scenario is built and range-checked before
/// anything runs, so a bad axis value (`replication IN [0]`,
/// `racks IN [0]`) is a [`WtqlError::Semantic`] naming the axis and the
/// value, never a panic inside an engine.
///
/// Every query runs on one executor,
/// [`SweepRunner::run_points`], with the dominance relation as explicit
/// dependency edges: a point starts only after every configuration that
/// could prune it has a verdict, so the prune check is a plain table
/// read — no waiting, no ordering races — and the runner is free to
/// execute the rest of the frontier in any order. Verdicts therefore
/// depend only on the plan order, never on worker count or scheduling.
///
/// Ranking spends the runner's ordering freedom: a surrogate re-ranks
/// eligible points toward likely constraint violators so failures (and
/// the prunes they unlock) surface early. Everything else — screens,
/// probe aborts, replication early-stop — happens inside
/// [`WindTunnel::evaluate`], per the options' [`Stages`]. Per-point
/// pass/fail/prune flags and the winning row do not depend on the
/// stages, because screens are conservative (they only decide what the
/// DES would also decide), ranking only reorders, and pass-screening is
/// restricted to queries whose objective needs no simulated metric.
///
/// Every fully-simulated run also lands in the tunnel's result store.
pub fn run_query(
    query: &Query,
    base: &Scenario,
    tunnel: &WindTunnel,
    opts: &ExecOptions,
) -> Result<QueryOutcome, WtqlError> {
    let slas = sla_set(query);
    if let Some(m) = slas.metrics().find(|m| !is_known_metric(m)) {
        return Err(WtqlError::Semantic(format!("unknown metric '{m}'")));
    }
    let plan = Plan::build(query)?;
    let n = plan.len();
    let scenarios = plan
        .configs
        .iter()
        .map(|assignment| build_scenario(query, base, assignment))
        .collect::<Result<Vec<_>, _>>()?;

    // Dominance edges: point i waits on every earlier-planned point that
    // could prune it. Strictly-earlier by plan construction (the plan
    // sorts best-first on the monotone axes, and domination points
    // "down" that order), which is exactly what the runner requires.
    let deps: Vec<Vec<usize>> = if opts.prune {
        (0..n)
            .map(|i| {
                (0..i)
                    .filter(|&j| plan.dominated_by_failure(&plan.configs[i], &plan.configs[j]))
                    .collect()
            })
            .collect()
    } else {
        vec![Vec::new(); n]
    };
    // Failed verdicts, the only ones that prune. A pruned point is
    // deliberately not marked failed: whatever failure dominated it also
    // dominates (by transitivity) everything it dominates.
    let failed: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let counters = GuidedCounters::new();

    // Surrogate features: the axes that are numeric across the whole
    // grid. Categorical axes are invisible to the model — acceptable,
    // since a bad fit only costs ordering, never verdicts.
    let axes = plan.configs.first().map_or(0, |c| c.len());
    let feat_idx: Vec<usize> = (0..axes)
        .filter(|&k| {
            plan.configs
                .iter()
                .all(|c| matches!(c[k].1, ParamValue::Num(_)))
        })
        .collect();
    let features = |i: usize| -> Vec<f64> {
        feat_idx
            .iter()
            .map(|&k| plan.configs[i][k].1.as_num().expect("numeric axis"))
            .collect()
    };
    struct RankState {
        samples: Vec<(Vec<f64>, f64)>,
        model: Option<Surrogate>,
    }
    let rank_state: Mutex<RankState> = Mutex::new(RankState {
        samples: Vec::new(),
        model: None,
    });
    // Rank = predicted constraint risk; highest runs first. Until a
    // model exists (or with ranking off), `-index` preserves plan order.
    let rank = |i: usize| -> f64 {
        if opts.rank && !feat_idx.is_empty() {
            if let Some(model) = &rank_state.lock().model {
                return model.predict(&features(i));
            }
        }
        -(i as f64)
    };
    // Feed one decided row back into the surrogate: the response is the
    // worst signed constraint violation, normalized per-constraint so
    // availability gaps and latency overshoots share a scale. Screened
    // failures and aborts count as full violations.
    let observe = |i: usize, row: &RunRow| {
        if !opts.rank || feat_idx.is_empty() || row.pruned {
            return;
        }
        let y = if row.aborted || (row.screened && !row.passes) {
            1.0
        } else {
            guided_risk(query, row)
        };
        let mut st = rank_state.lock();
        st.samples.push((features(i), y));
        let xs: Vec<&[f64]> = st.samples.iter().map(|(x, _)| &x[..]).collect();
        let ys: Vec<f64> = st.samples.iter().map(|(_, y)| *y).collect();
        st.model = Surrogate::fit(&xs, &ys, 1e-3);
    };

    let grid = SweepGrid::explicit("wtql-explore", base.seed, plan.configs.clone());
    debug_assert_eq!(grid.len(), n);
    let runner = SweepRunner::new(Farm::new(opts.threads));
    let rows: Vec<RunRow> = runner.run_points(
        &grid,
        tunnel.store(),
        &deps,
        &rank,
        &counters,
        |point, _ctx, sink| {
            let assignment = &point.assignment;

            // Dominance check. Every dependency finished before this
            // point was released (the runner's scheduler lock orders its
            // store before this load), so its verdict is final — no wait.
            if deps[point.index]
                .iter()
                .any(|&j| failed[j].load(Ordering::Relaxed))
            {
                return pruned_row(assignment);
            }

            let eval = tunnel.evaluate(&scenarios[point.index], &slas, &opts.stages, sink);
            let row = decided_row(assignment, eval);
            failed[point.index].store(
                !row.passes && !query.constraints.is_empty(),
                Ordering::Relaxed,
            );
            if row.screened {
                counters.note_screened();
            }
            if row.aborted {
                counters.note_aborted();
            }
            if row.early_stopped {
                counters.note_early_stopped();
            }
            observe(point.index, &row);
            row
        },
    );

    Ok(summarize(query, rows))
}

/// Folds per-configuration rows into the query outcome: counters,
/// event totals, and the objective-best passing row.
fn summarize(query: &Query, rows: Vec<RunRow>) -> QueryOutcome {
    let executed = rows
        .iter()
        .filter(|r| !r.pruned && !r.aborted && !r.screened)
        .count();
    let pruned = rows.iter().filter(|r| r.pruned).count();
    let aborted = rows.iter().filter(|r| r.aborted).count();
    let screened = rows.iter().filter(|r| r.screened).count();
    let early_stopped = rows.iter().filter(|r| r.early_stopped).count();
    let total_sim_events = rows.iter().map(|r| r.sim_events_executed).sum();

    let best = query.objective.as_ref().and_then(|obj| {
        rows.iter()
            .enumerate()
            .filter(|(_, r)| r.passes && r.metrics.contains_key(&obj.metric))
            .min_by(|(_, a), (_, b)| {
                let (x, y) = (a.metrics[&obj.metric], b.metrics[&obj.metric]);
                let ord = x.partial_cmp(&y).expect("finite metrics");
                if obj.minimize {
                    ord
                } else {
                    ord.reverse()
                }
            })
            .map(|(i, _)| i)
    });

    QueryOutcome {
        rows,
        best,
        executed,
        pruned,
        aborted,
        screened,
        early_stopped,
        total_sim_events,
    }
}

/// A row for a configuration skipped by dominance pruning.
fn pruned_row(assignment: &Assignment) -> RunRow {
    RunRow {
        assignment: assignment.clone(),
        metrics: BTreeMap::new(),
        passes: false,
        pruned: true,
        aborted: false,
        screened: false,
        early_stopped: false,
        sim_events_executed: 0,
    }
}

/// A row for a configuration the evaluator decided.
fn decided_row(assignment: &Assignment, eval: Evaluation) -> RunRow {
    RunRow {
        assignment: assignment.clone(),
        metrics: eval.metrics,
        passes: eval.passes,
        pruned: false,
        aborted: eval.aborted,
        screened: eval.screened,
        early_stopped: eval.early_stopped,
        sim_events_executed: eval.sim_events_executed,
    }
}

/// The worst signed, per-constraint-normalized violation in a decided
/// row: positive = violated, negative = satisfied with margin. This is
/// the surrogate's response variable — only an ordering signal.
fn guided_risk(query: &Query, row: &RunRow) -> f64 {
    let worst = query
        .constraints
        .iter()
        .filter_map(|c| {
            let v = *row.metrics.get(&c.metric)?;
            let scale = c.bound.abs().max(1e-9);
            Some(match c.cmp {
                Comparison::Ge | Comparison::Gt => (c.bound - v) / scale,
                Comparison::Le | Comparison::Lt => (v - c.bound) / scale,
                Comparison::Eq => 0.0,
            })
        })
        .fold(f64::NEG_INFINITY, f64::max);
    if worst.is_finite() {
        worst
    } else {
        0.0
    }
}

/// Builds one grid point's scenario: the base with the assignment's
/// known axes applied, the query's injections appended to any base fault
/// schedule, and the assignment itself as the scenario name. Fails when
/// an axis value is out of the engines' range.
fn build_scenario(
    query: &Query,
    base: &Scenario,
    assignment: &Assignment,
) -> Result<Scenario, WtqlError> {
    let mut scenario = base.clone();
    for (axis, value) in assignment {
        // Chaos-only axes (swept but referenced solely from INJECT
        // arguments) are not scenario knobs; they reach the run below,
        // through the resolved fault schedule.
        if is_known_axis(axis) {
            apply_assignment(&mut scenario, axis, value)?;
        }
    }
    if !query.injects.is_empty() {
        let mut schedule = scenario.faults.clone().unwrap_or_default();
        for inj in &query.injects {
            schedule.rules.push(resolve_injection(inj, assignment)?);
        }
        scenario.faults = Some(schedule);
    }
    scenario.name = assignment
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(",");
    check_scenario(&scenario)?;
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use windtunnel::ScenarioBuilder;

    fn base() -> Scenario {
        ScenarioBuilder::new("base")
            .racks(1)
            .nodes_per_rack(10)
            .objects(200)
            .horizon_years(0.3)
            .seed(5)
            .build()
    }

    #[test]
    fn explore_runs_whole_grid() {
        let q =
            parse(r#"EXPLORE availability SWEEP replication IN [1, 3], placement IN ["R", "RR"]"#)
                .unwrap();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), 4);
        assert_eq!(out.executed, 4);
        assert_eq!(out.pruned, 0);
        assert!(out
            .rows
            .iter()
            .all(|r| r.metrics.contains_key("availability")));
        // Store captured every run.
        assert_eq!(tunnel.store().len(), 4);
    }

    #[test]
    fn replication_improves_availability_in_results() {
        let q = parse("EXPLORE availability SWEEP replication IN [1, 3]").unwrap();
        let tunnel = WindTunnel::new();
        let mut sc = base();
        // Force enough failures to matter.
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(30.0 * 86_400.0);
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::default()).unwrap();
        // Plan order: replication 3 first (monotone descending).
        let a3 = out.rows[0].metrics["availability"];
        let a1 = out.rows[1].metrics["availability"];
        assert!(a3 > a1, "rep3 {a3} should beat rep1 {a1}");
    }

    #[test]
    fn pruning_skips_dominated_configs() {
        // An unsatisfiable availability floor: the best config fails, so
        // everything dominated by it is pruned without simulation.
        let q = parse(
            "EXPLORE availability \
             SWEEP replication IN [1, 2, 3] \
             SUBJECT TO availability >= 1.0 AND unavailability_events <= 0",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let mut sc = base();
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(10.0 * 86_400.0);
        sc.repair.detection_delay_s = 24.0 * 3600.0; // repairs too slow
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), 3);
        assert!(out.passing().is_empty());
        assert!(
            out.pruned >= 1,
            "dominated configs should be pruned: {out:?}"
        );
        assert!(out.executed < 3);
    }

    #[test]
    fn prune_disabled_runs_everything() {
        let q = parse(
            "EXPLORE availability \
             SWEEP replication IN [1, 2, 3] \
             SUBJECT TO availability >= 1.0 AND unavailability_events <= 0 \
             OPTIONS prune = FALSE",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let mut sc = base();
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(10.0 * 86_400.0);
        sc.repair.detection_delay_s = 24.0 * 3600.0;
        let opts = ExecOptions::from_query(&q);
        assert!(!opts.prune);
        let out = run_query(&q, &sc, &tunnel, &opts).unwrap();
        assert_eq!(out.executed, 3);
        assert_eq!(out.pruned, 0);
    }

    #[test]
    fn usable_gb_cost_separates_replication_factors() {
        let q = parse(
            "EXPLORE usd_per_usable_gb_year \
             SWEEP replication IN [2, 3] \
             MINIMIZE usd_per_usable_gb_year",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &ExecOptions::default()).unwrap();
        // Same hardware, but rep3 stores 2/3 of what rep2 can.
        let cost = |n: f64| {
            out.rows
                .iter()
                .find(|r| r.assignment[0].1.as_num() == Some(n))
                .unwrap()
                .metrics["usd_per_usable_gb_year"]
        };
        assert!((cost(3.0) / cost(2.0) - 1.5).abs() < 1e-9);
        let best = out.best_row().unwrap();
        assert_eq!(best.assignment[0].1.as_num(), Some(2.0));
    }

    #[test]
    fn objective_selects_cheapest_passing() {
        let q = parse(
            "EXPLORE availability, tco_usd_per_year \
             SWEEP replication IN [1, 3], nodes_per_rack IN [10, 20] \
             SUBJECT TO availability >= 0.5 \
             MINIMIZE tco_usd_per_year",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &ExecOptions::default()).unwrap();
        let best = out.best_row().expect("some config passes");
        // Cheapest = fewest nodes.
        let nodes = best
            .assignment
            .iter()
            .find(|(k, _)| k == "nodes_per_rack")
            .unwrap()
            .1
            .as_num()
            .unwrap();
        assert_eq!(nodes, 10.0);
        for r in out.passing() {
            assert!(r.metrics["tco_usd_per_year"] >= best.metrics["tco_usd_per_year"]);
        }
    }

    #[test]
    fn parallel_execution_matches_serial_passing_set() {
        let q = parse(
            r#"EXPLORE availability SWEEP replication IN [1, 3], placement IN ["R", "RR"] SUBJECT TO availability >= 0.0"#,
        )
        .unwrap();
        let tunnel_a = WindTunnel::new();
        let serial = run_query(&q, &base(), &tunnel_a, &ExecOptions::default()).unwrap();
        let tunnel_b = WindTunnel::new();
        let par = run_query(
            &q,
            &base(),
            &tunnel_b,
            &ExecOptions {
                threads: 4,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        // Same rows in the same plan order with identical metrics
        // (determinism is per-config, so thread interleaving is invisible).
        let key = |rows: &[RunRow]| {
            rows.iter()
                .filter(|r| !r.pruned)
                .map(|r| (r.assignment.clone(), r.metrics.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&serial.rows), key(&par.rows));
    }

    #[test]
    fn pruning_verdicts_are_worker_count_invariant() {
        // The old failed-set pruning skipped a config only when a
        // dominating failure happened to finish first — a race on worker
        // count. The verdict table keys decisions on plan order alone, so
        // every thread count must produce the identical pruned set.
        let q = parse(
            "EXPLORE availability \
             SWEEP replication IN [1, 2, 3], repair_parallel IN [1, 2] \
             SUBJECT TO availability >= 1.0 AND unavailability_events <= 0",
        )
        .unwrap();
        let mut sc = base();
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(10.0 * 86_400.0);
        sc.repair.detection_delay_s = 24.0 * 3600.0;
        let run = |threads: usize| {
            let tunnel = WindTunnel::new();
            run_query(
                &q,
                &sc,
                &tunnel,
                &ExecOptions {
                    threads,
                    ..ExecOptions::default()
                },
            )
            .unwrap()
        };
        let serial = run(1);
        assert!(serial.pruned >= 1, "{serial:?}");
        for threads in [2, 4, 8] {
            let par = run(threads);
            let flags = |out: &QueryOutcome| {
                out.rows
                    .iter()
                    .map(|r| (r.assignment.clone(), r.pruned, r.passes))
                    .collect::<Vec<_>>()
            };
            assert_eq!(flags(&serial), flags(&par), "threads = {threads}");
            assert_eq!(serial.pruned, par.pruned);
            assert_eq!(serial.executed, par.executed);
        }
    }

    #[test]
    fn inject_sweeps_chaos_parameters() {
        // Sweep the blast radius of a power-domain loss: the chaos-only
        // axis `blast` reaches the run through the INJECT clause. Zero
        // racks lost = no injection effect; the whole cluster dark for
        // ~42% of the horizon caps availability accordingly.
        let q = parse(
            "EXPLORE availability \
             SWEEP blast IN [0, 2] \
             INJECT power_loss(at = 1000000, first_rack = 0, racks = blast, restore = 4000000)",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), 2);
        let avail = |blast: f64| {
            out.rows
                .iter()
                .find(|r| r.assignment[0].1.as_num() == Some(blast))
                .unwrap()
                .metrics["availability"]
        };
        assert!(
            avail(0.0) > avail(2.0) + 0.3,
            "blast=0 {} vs blast=2 {}",
            avail(0.0),
            avail(2.0)
        );
        // The injection fired and was recorded in run telemetry.
        tunnel.store().with(|s| {
            let fired: u64 = s
                .records()
                .filter_map(|r| r.telemetry.as_ref())
                .filter_map(|t| t.marks.get("inject_power_loss"))
                .sum();
            assert_eq!(fired, 2, "one injection per run, even at blast=0");
        });
    }

    #[test]
    fn inject_is_deterministic_across_threads() {
        let q = parse(
            "EXPLORE availability, unavailability_events \
             SWEEP blast IN [1, 2], replication IN [1, 3] \
             INJECT maintenance(at = 500000, first_node = 0, nodes = blast, duration = 250000)",
        )
        .unwrap();
        let run = |threads: usize| {
            let tunnel = WindTunnel::new();
            run_query(
                &q,
                &base(),
                &tunnel,
                &ExecOptions {
                    threads,
                    ..ExecOptions::default()
                },
            )
            .unwrap()
        };
        let a = run(1);
        let b = run(4);
        let key = |out: &QueryOutcome| {
            out.rows
                .iter()
                .map(|r| (r.assignment.clone(), r.metrics.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn inject_composes_with_base_scenario_faults() {
        // A base scenario that already schedules chaos keeps it; the
        // query's injections are appended, not substituted.
        let q = parse(
            "EXPLORE availability SWEEP replication IN [3] \
             INJECT maintenance(at = 2000000, first_node = 0, nodes = 10, duration = 1000000)",
        )
        .unwrap();
        let mut sc = base();
        sc.faults = Some(windtunnel::cluster::FaultSchedule::new().rule(
            "planned",
            100_000.0,
            windtunnel::cluster::FaultKind::MaintenanceWindow {
                first_node: 0,
                nodes: 10,
                duration_s: 1_000_000.0,
            },
        ));
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::default()).unwrap();
        // Two full-cluster windows of 1e6 s out of a ~9.47e6 s horizon.
        let a = out.rows[0].metrics["availability"];
        assert!(a < 0.85, "both windows applied: {a}");
        tunnel.store().with(|s| {
            let fired: u64 = s
                .records()
                .filter_map(|r| r.telemetry.as_ref())
                .filter_map(|t| t.marks.get("inject_maintenance"))
                .sum();
            assert_eq!(fired, 2, "base rule + injected rule both fired");
        });
    }

    #[test]
    fn early_abort_saves_events() {
        // objects_lost is monotone in time: a dying cluster's probe already
        // violates the durability constraint, so the full run is skipped.
        let q = parse(
            "EXPLORE availability \
             SWEEP replication IN [1] \
             SUBJECT TO objects_lost <= 0 \
             OPTIONS early_abort = TRUE, probe_fraction = 0.05",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let mut sc = base();
        // A cluster that loses data almost immediately.
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(86_400.0);
        sc.topology.node.repair = windtunnel::dist::Dist::deterministic(30.0 * 86_400.0);
        sc.repair.detection_delay_s = 10.0 * 86_400.0;
        let opts = ExecOptions::from_query(&q);
        assert!(opts.early_abort);
        let out = run_query(&q, &sc, &tunnel, &opts).unwrap();
        assert_eq!(out.aborted, 1, "{out:?}");
        assert!(!out.rows[0].passes);
        // The aborted row still carries probe metrics.
        assert!(out.rows[0].metrics["objects_lost"] > 0.0);
    }

    #[test]
    fn replications_average_and_record_every_run() {
        let q = parse("EXPLORE availability SWEEP replication IN [3] OPTIONS replications = 3")
            .unwrap();
        let opts = ExecOptions::from_query(&q);
        assert_eq!(opts.replications, 3);
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &opts).unwrap();
        assert_eq!(out.rows.len(), 1);
        // Three availability runs landed in the store.
        assert_eq!(tunnel.store().len(), 3);
        // The averaged metric equals the mean of the recorded runs.
        let mean_recorded = tunnel.store().with(|s| {
            s.records()
                .map(|r| r.get_metric("availability").unwrap())
                .sum::<f64>()
                / 3.0
        });
        assert!((out.rows[0].metrics["availability"] - mean_recorded).abs() < 1e-12);
    }

    #[test]
    fn store_stats_reports_counts_and_is_safe_when_empty() {
        let tunnel = WindTunnel::new();
        let empty = store_stats(tunnel.store());
        assert!(empty.contains("0 record(s)"), "{empty}");
        assert!(empty.contains("no experiments"), "{empty}");
        let q = parse("EXPLORE availability SWEEP replication IN [1, 3]").unwrap();
        run_query(&q, &base(), &tunnel, &ExecOptions::default()).unwrap();
        let report = store_stats(tunnel.store());
        assert!(report.contains("2 record(s)"), "{report}");
        assert!(report.contains("availability: 2 run(s)"), "{report}");
        assert!(report.contains("unbounded"), "{report}");
        // The sketch view: recorded metrics summarize as quantiles.
        assert!(
            report.contains("sketch quantiles (p50 / p95 / p99 / p999)"),
            "{report}"
        );
        assert!(report.contains("metric_availability:"), "{report}");
        assert!(report.contains("(2 obs)"), "{report}");
    }

    #[test]
    fn telemetry_metrics_are_queryable() {
        let q = parse(
            "EXPLORE peak_queue_depth, mean_queue_depth, availability \
             SWEEP replication IN [1, 3]",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let mut sc = base();
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(30.0 * 86_400.0);
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::default()).unwrap();
        for r in &out.rows {
            assert!(r.metrics["peak_queue_depth"] > 0.0, "{r:?}");
            assert!(r.metrics["mean_queue_depth"] > 0.0, "{r:?}");
        }
        // Every stored record carries the telemetry it was derived from.
        tunnel.store().with(|s| {
            for rec in s.records() {
                let t = rec.telemetry.as_ref().expect("telemetry attached");
                assert!(t.events > 0);
            }
        });
    }

    #[test]
    fn unknown_metric_rejected() {
        let q = parse("EXPLORE qubits SWEEP replication IN [3]").unwrap();
        let tunnel = WindTunnel::new();
        let e = run_query(&q, &base(), &tunnel, &ExecOptions::default()).unwrap_err();
        assert!(e.to_string().contains("unknown metric"));

        // Out-of-range axis values are rejected before any point runs,
        // naming the axis and the value — never a panic in an engine.
        for (text, needle) in [
            (
                "EXPLORE availability SWEEP replication IN [3, 0]",
                "replication = 0",
            ),
            (
                "EXPLORE availability SWEEP replication IN [3, 70000]",
                "replication = 70000",
            ),
            ("EXPLORE availability SWEEP racks IN [1, 0]", "racks = 0"),
            (
                "EXPLORE availability SWEEP objects IN [0]",
                "objects = 0 is out of range: needs objects >= 1",
            ),
        ] {
            let q = parse(text).unwrap();
            let opts = ExecOptions {
                threads: 2,
                ..ExecOptions::default()
            };
            match run_query(&q, &base(), &tunnel, &opts) {
                Err(WtqlError::Semantic(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("{text}: expected a semantic error, got {other:?}"),
            }
        }
        assert_eq!(tunnel.store().len(), 0, "nothing ran");
    }

    /// A failure-heavy cluster the analytic screens can reason about:
    /// 30 nodes with ~40-day lifetimes over a quarter year (≈ 68 expected
    /// failures) and a 5-day failure-detection delay.
    fn stress_base() -> Scenario {
        let mut sc = ScenarioBuilder::new("stress")
            .racks(3)
            .nodes_per_rack(10)
            .objects(300)
            .horizon_years(0.25)
            .seed(42)
            .build();
        sc.topology.node.ttf = windtunnel::dist::Dist::weibull_mean(0.8, 40.0 * 86_400.0);
        sc.repair.detection_delay_s = 5.0 * 86_400.0;
        sc
    }

    #[test]
    fn guided_clause_arms_all_stages_and_options_override() {
        let q = parse("EXPLORE availability SWEEP replication IN [3] GUIDED").unwrap();
        let o = ExecOptions::from_query(&q);
        assert!(o.screen && o.rank && o.early_stop && o.sketch_abort);
        let q = parse(
            "EXPLORE availability SWEEP replication IN [3] GUIDED \
             OPTIONS rank = FALSE, screen_guard = 0.001, screen_min_failures = 25",
        )
        .unwrap();
        let o = ExecOptions::from_query(&q);
        assert!(o.screen && !o.rank && o.early_stop && o.sketch_abort);
        assert_eq!(o.screen_guard, 0.001);
        assert_eq!(o.screen_min_failures, 25.0);
        // The OPTIONS master switch mirrors the clause, in source order.
        let q = parse(
            "EXPLORE availability SWEEP replication IN [3] \
             OPTIONS guided = TRUE, sketch_abort = FALSE",
        )
        .unwrap();
        let o = ExecOptions::from_query(&q);
        assert!(o.screen && o.rank && o.early_stop && !o.sketch_abort);
        let o = ExecOptions::from_query(&parse("EXPLORE a SWEEP x IN [1]").unwrap());
        assert!(!(o.screen || o.rank || o.early_stop || o.sketch_abort));
    }

    #[test]
    fn guided_matches_exhaustive_verdicts_and_metrics() {
        // Ranking only (every other stage off): every verdict,
        // metric, and the pruned set must match the exhaustive run at
        // any worker count — ranking may only reorder execution.
        let q = parse(
            "EXPLORE availability \
             SWEEP replication IN [1, 2, 3], repair_parallel IN [1, 2] \
             SUBJECT TO availability >= 1.0 AND unavailability_events <= 0 \
             OPTIONS guided = TRUE, screen = FALSE, sketch_abort = FALSE, early_stop = FALSE",
        )
        .unwrap();
        let mut sc = base();
        sc.topology.node.ttf = windtunnel::dist::Dist::exponential_mean(10.0 * 86_400.0);
        sc.repair.detection_delay_s = 24.0 * 3600.0;
        let run = |threads: usize, guided: bool| {
            let tunnel = WindTunnel::new();
            let mut opts = ExecOptions::from_query(&q);
            opts.threads = threads;
            if !guided {
                opts.rank = false;
            }
            run_query(&q, &sc, &tunnel, &opts).unwrap()
        };
        let exhaustive = run(1, false);
        assert!(exhaustive.pruned >= 1, "{exhaustive:?}");
        let rows = |out: &QueryOutcome| {
            out.rows
                .iter()
                .map(|r| (r.assignment.clone(), r.metrics.clone(), r.passes, r.pruned))
                .collect::<Vec<_>>()
        };
        for threads in [1, 4] {
            let guided = run(threads, true);
            assert_eq!(rows(&exhaustive), rows(&guided), "threads = {threads}");
            assert_eq!(guided.screened, 0);
            assert_eq!(exhaustive.total_sim_events, guided.total_sim_events);
        }
    }

    #[test]
    fn guided_screens_cut_simulation_and_record_provenance() {
        // With a 5-day detection delay, replication 2 and 3 provably miss
        // a 0.99985 availability floor — the screen resolves them without
        // simulation; replication 5 is undecided and simulates. Pruning
        // is off so every point gets its own verdict.
        let q = parse(
            "EXPLORE availability \
             SWEEP replication IN [2, 3, 5] \
             SUBJECT TO availability >= 0.99985 \
             GUIDED OPTIONS prune = FALSE",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let guided = run_query(&q, &stress_base(), &tunnel, &ExecOptions::from_query(&q)).unwrap();
        assert_eq!(guided.screened, 2, "{guided:?}");
        let exhaustive_tunnel = WindTunnel::new();
        let opts = ExecOptions {
            prune: false,
            ..ExecOptions::default()
        };
        let exhaustive = run_query(&q, &stress_base(), &exhaustive_tunnel, &opts).unwrap();
        // Same pass/fail verdicts on every point, and the screen's calls
        // agree with what the simulation measured.
        let flags = |out: &QueryOutcome| {
            out.rows
                .iter()
                .map(|r| (r.assignment.clone(), r.passes, r.pruned))
                .collect::<Vec<_>>()
        };
        assert_eq!(flags(&guided), flags(&exhaustive));
        // Screening saves real simulation work: the guided run only paid
        // for the one undecided point (replication 5).
        let rep5_events = exhaustive
            .rows
            .iter()
            .find(|r| {
                r.assignment
                    .contains(&("replication".to_string(), ParamValue::Num(5.0)))
            })
            .and_then(|r| r.metrics.get("sim_events").copied())
            .unwrap() as u64;
        assert_eq!(guided.total_sim_events, rep5_events);
        assert!(guided.total_sim_events < exhaustive.total_sim_events);
        // Screened rows still carry the exact cost metrics (so cost
        // objectives keep working) but no simulated ones.
        let screened: Vec<_> = guided.rows.iter().filter(|r| r.screened).collect();
        assert_eq!(screened.len(), 2);
        for r in &screened {
            assert!(r.metrics.contains_key("tco_usd_per_year"));
            assert!(!r.metrics.contains_key("availability"));
            assert!(!r.passes);
        }
        // Provenance landed in the store and surfaces through STATS.
        tunnel.store().with(|s| {
            let screened_recs = s
                .records()
                .filter(|r| {
                    r.params.get("verdict_source")
                        == Some(&wt_store::ParamValue::Str("screened".into()))
                })
                .count();
            assert_eq!(screened_recs, 2);
        });
        let stats = store_stats(tunnel.store());
        assert!(stats.contains("verdict sources:"), "{stats}");
        assert!(stats.contains("screened: 2 record(s)"), "{stats}");
        assert!(stats.contains("simulated:"), "{stats}");
        // An exhaustive store shows no provenance section at all.
        let stats = store_stats(exhaustive_tunnel.store());
        assert!(!stats.contains("verdict sources:"), "{stats}");
    }

    #[test]
    fn early_stop_floors_at_two_replications() {
        // A trivially-met floor: the interval resolves after two
        // replications and the loop stops — but never below two recorded
        // runs, the confidence floor the guided planner guarantees.
        let q = parse(
            "EXPLORE availability SWEEP replication IN [3] \
             SUBJECT TO availability >= 0.5 \
             OPTIONS early_stop = TRUE, replications = 6",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &ExecOptions::from_query(&q)).unwrap();
        assert_eq!(out.early_stopped, 1, "{out:?}");
        assert!(out.rows[0].early_stopped);
        assert!(out.rows[0].passes);
        assert_eq!(
            tunnel.store().len(),
            2,
            "early stop must leave exactly the two-replication floor"
        );

        // The violated direction stops just as early.
        let q = parse(
            "EXPLORE availability SWEEP replication IN [3] \
             SUBJECT TO availability >= 2.0 \
             OPTIONS early_stop = TRUE, replications = 6",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &ExecOptions::from_query(&q)).unwrap();
        assert!(out.rows[0].early_stopped && !out.rows[0].passes, "{out:?}");
        assert_eq!(tunnel.store().len(), 2);

        // Without the option the full replication budget runs.
        let q = parse(
            "EXPLORE availability SWEEP replication IN [3] \
             SUBJECT TO availability >= 0.5 \
             OPTIONS replications = 6",
        )
        .unwrap();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &base(), &tunnel, &ExecOptions::from_query(&q)).unwrap();
        assert!(!out.rows[0].early_stopped);
        assert_eq!(tunnel.store().len(), 6);
    }

    #[test]
    fn sketch_abort_stops_hopeless_latency_runs() {
        // One HDD serving ~300 uncacheable req/s is hopelessly
        // overloaded: the probe's sketch p99 blows through the ceiling
        // and the full-horizon run is skipped.
        let q = parse(
            "EXPLORE shop_p99_s SWEEP replication IN [1] \
             SUBJECT TO shop_p99_s <= 0.05 \
             OPTIONS sketch_abort = TRUE",
        )
        .unwrap();
        let sc = ScenarioBuilder::new("hopeless")
            .racks(1)
            .nodes_per_rack(1)
            .disks_per_node(1)
            .replication(1)
            .objects(100)
            .tenant(windtunnel::workload::TenantWorkload::oltp(
                "shop", 300.0, 10_000,
            ))
            .horizon_years(0.0001)
            .seed(11)
            .build();
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::from_query(&q)).unwrap();
        assert_eq!(out.aborted, 1, "{out:?}");
        assert!(out.rows[0].aborted && !out.rows[0].passes);
        // The probe recorded its evidence: aborted provenance plus the
        // telemetry mark naming the trigger.
        tunnel.store().with(|s| {
            let probe = s
                .records()
                .find(|r| r.experiment == "perf-probe")
                .expect("probe record present");
            assert_eq!(
                probe.params.get("verdict_source"),
                Some(&wt_store::ParamValue::Str("aborted".into()))
            );
            let t = probe.telemetry.as_ref().expect("telemetry attached");
            assert_eq!(t.marks.get("abort_sketch_p99"), Some(&1));
            assert!(probe.get_metric("shop_sketch_p99_s").unwrap() > 0.05);
        });
        // Conservatism: the full run fails the same constraint.
        let tunnel = WindTunnel::new();
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::default()).unwrap();
        assert!(!out.rows[0].passes && !out.rows[0].aborted, "{out:?}");
    }

    #[test]
    fn perf_metrics_runs_perf_engine() {
        let q = parse("EXPLORE shop_p95_s SWEEP disk IN [\"ssd\", \"hdd\"]").unwrap();
        let tunnel = WindTunnel::new();
        let mut sc = ScenarioBuilder::new("perf-base")
            .racks(1)
            .nodes_per_rack(10)
            .disks_per_node(4)
            .tenant(windtunnel::workload::TenantWorkload::oltp(
                "shop", 100.0, 1_000,
            ))
            .horizon_years(0.00001)
            .build();
        sc.horizon_years = 0.00001; // ~5 simulated minutes
        let out = run_query(&q, &sc, &tunnel, &ExecOptions::default()).unwrap();
        assert_eq!(out.rows.len(), 2);
        for r in &out.rows {
            assert!(r.metrics.contains_key("shop_p95_s"), "{r:?}");
        }
        // SSD beats HDD on p95 (plan puts them in deterministic order:
        // categorical tie-break is lexicographic on the debug string).
        let p95_of = |needle: &str| {
            out.rows
                .iter()
                .find(|r| r.assignment[0].1.to_string() == needle)
                .unwrap()
                .metrics["shop_p95_s"]
        };
        assert!(p95_of("ssd") < p95_of("hdd"));
    }
}

//! The one verdict path: how the tunnel judges a single configuration
//! against an [`SlaSet`] (DESIGN.md §13).
//!
//! [`WindTunnel::evaluate`] runs exactly the engines the set's metrics
//! need and checks every constraint. [`Stages`] decides how much
//! simulation that costs; with every stage off and one replication
//! ([`Stages::default`]) it is [`WindTunnel::assess`]. The stages, each
//! conservative — none may change a verdict the full simulation would
//! reach:
//!
//! 1. **Analytic screening** (`screen`) — closed-form bounds (`wt-analytic`
//!    via `wt-cluster`'s extraction) settle the verdict without any DES;
//!    such evaluations record a synthetic `verdict_source = "screened"`
//!    provenance record.
//! 2. **Probe aborts** (`early_abort`, `sketch_abort`) — a short probe
//!    over `probe_fraction` of the horizon ends hopeless runs: a monotone
//!    metric already over its ceiling, an availability more than
//!    `abort_margin` under its floor, or a streaming-sketch latency
//!    quantile already over its ceiling.
//! 3. **Replication early-stop** (`early_stop`) — per-constraint 95%
//!    confidence intervals end a replication loop once the verdict is
//!    already confident (never below two recorded replications).

use crate::runner::{MeanInterval, WindTunnel};
use crate::sla::{
    quantile_metric, Comparison, Constraint, SlaSet, EXACT_METRICS, MONOTONE_IN_TIME,
};
use std::collections::BTreeMap;
use wt_analytic::screen::{Rel, ScreenVerdict};
use wt_cluster::screen::{availability_screen, perf_screen};
use wt_cluster::{AvailabilityResult, Scenario};
use wt_des::time::SimDuration;
use wt_des::Tally;
use wt_store::{RecordSink, RunRecord};

/// How much simulation one evaluation may spend: the evaluator's
/// settings, declared once. The default is plain simulation: every
/// stage off, one replication.
#[derive(Debug, Clone, PartialEq)]
pub struct Stages {
    /// Probe-and-abort hopeless availability runs.
    pub early_abort: bool,
    /// Fraction of the horizon a probe simulates.
    pub probe_fraction: f64,
    /// Slack beyond the bound before a heuristic abort fires (sound
    /// aborts on monotone metrics ignore this).
    pub abort_margin: f64,
    /// Independent replications; numeric metrics are averaged over seeds
    /// (variance reduction for the bursty availability metrics). 1 =
    /// single run.
    pub replications: usize,
    /// Analytic screening: settle verdicts a conservative closed-form
    /// bound already decides, without DES.
    pub screen: bool,
    /// Replication early-stop: stop a replication loop once every
    /// constraint is confidently resolved (≥ 2 reps always).
    pub early_stop: bool,
    /// Sketch-driven probe abort: abort a perf run whose probe-horizon
    /// sketch quantile already violates a latency ceiling by more than
    /// `abort_margin`.
    pub sketch_abort: bool,
    /// Extra margin an analytic bound must clear beyond the constraint
    /// threshold before a screen may decide (widens the Unknown band).
    pub screen_guard: f64,
    /// Minimum expected node failures over the horizon before
    /// availability screens arm (below it the DES may measure exactly
    /// 1.0 and an analytic Fail would be unsound).
    pub screen_min_failures: f64,
}

impl Default for Stages {
    fn default() -> Self {
        Stages {
            early_abort: false,
            probe_fraction: 0.1,
            abort_margin: 0.01,
            replications: 1,
            screen: false,
            early_stop: false,
            sketch_abort: false,
            screen_guard: 0.0,
            screen_min_failures: 10.0,
        }
    }
}

/// One configuration's verdict and the metrics behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Measured metrics: the exact cost metrics always, simulated ones
    /// unless the verdict was screened.
    pub metrics: BTreeMap<String, f64>,
    /// Every constraint held.
    pub passes: bool,
    /// A probe ended the run early; the verdict is a fail.
    pub aborted: bool,
    /// Settled analytically, without simulation.
    pub screened: bool,
    /// The replication loop stopped once every constraint was
    /// confidently resolved (≥ 2 reps always ran).
    pub early_stopped: bool,
    /// Discrete events actually executed, summed across every
    /// replication and probe.
    pub sim_events_executed: u64,
}

impl WindTunnel {
    /// Judges one configuration against `slas`: screens it when the
    /// stages allow, otherwise simulates the engines the set's metrics
    /// need (with probes and replications per `stages`) and checks every
    /// constraint. Every fully-simulated run, screen and abort records
    /// into `sink`.
    pub fn evaluate(
        &self,
        scenario: &Scenario,
        slas: &SlaSet,
        stages: &Stages,
        sink: &dyn RecordSink,
    ) -> Evaluation {
        if stages.screen && !slas.constraints().is_empty() {
            match screen_point(slas, scenario, stages) {
                // A screen may settle "pass" only when the objective
                // needs no simulated metric — otherwise the evaluation
                // could never rank and the best design would diverge
                // from the simulated one.
                Some(passes) if !passes || objective_is_exact(slas) => {
                    let metrics = self.cost_metrics(scenario);
                    let mut rec =
                        Self::base_record(scenario, "screened").param("verdict_source", "screened");
                    for (k, v) in &metrics {
                        rec = rec.metric(k.clone(), *v);
                    }
                    sink.record(rec);
                    return Evaluation {
                        metrics,
                        passes,
                        aborted: false,
                        screened: true,
                        early_stopped: false,
                        sim_events_executed: 0,
                    };
                }
                _ => {}
            }
        }
        self.simulate(scenario, slas, stages, sink)
    }

    /// The exact (simulation-free) cost metrics every evaluation carries.
    fn cost_metrics(&self, scenario: &Scenario) -> BTreeMap<String, f64> {
        let mut metrics = BTreeMap::new();
        let breakdown = self.cost_model().cost(&scenario.topology);
        metrics.insert("tco_usd_per_year".into(), breakdown.tco_usd_per_year);
        // Cost per GB a customer can actually store: redundancy overhead
        // eats raw capacity, so rep5 *is* dearer than rep3 on identical
        // hardware.
        let usable_gb = breakdown.raw_storage_gb / scenario.redundancy.overhead();
        metrics.insert(
            "usd_per_usable_gb_year".into(),
            breakdown.tco_usd_per_year / usable_gb,
        );
        metrics
    }

    /// Simulates `scenario` — probes first, then the replication loop —
    /// and checks the constraints.
    fn simulate(
        &self,
        scenario: &Scenario,
        slas: &SlaSet,
        stages: &Stages,
        sink: &dyn RecordSink,
    ) -> Evaluation {
        let (needs_avail, needs_perf) = (slas.needs_availability(), slas.needs_perf());
        let constraints = slas.constraints();
        let mut metrics = self.cost_metrics(scenario);

        let mut aborted = false;
        let mut events_executed: u64 = 0;
        // Probe phase (first replication only): abort hopeless runs early.
        if needs_avail && stages.early_abort {
            let model = WindTunnel::availability_model(scenario);
            let probe_horizon =
                SimDuration::from_years(scenario.horizon_years * stages.probe_fraction);
            let probe = model.run(scenario.seed, probe_horizon);
            let hopeless = constraints.iter().any(|c| {
                probe_violates_surely(c, &probe) || probe_violates_heuristically(c, &probe, stages)
            });
            if hopeless {
                record_avail_metrics(&mut metrics, &probe);
                events_executed += probe.sim_events;
                aborted = true;
            }
        }
        if !aborted && needs_perf && stages.sketch_abort {
            aborted = sketch_probe_aborts(constraints, scenario, stages, sink);
        }
        let mut early_stopped = false;
        if !aborted {
            // Accumulate metric sums over replications, then average.
            // With early-stop armed, the loop ends once every constraint
            // is confidently resolved — but never before two recorded
            // replications, so confidence intervals always have support.
            let reps = stages.replications.max(1);
            let stop_eligible = stages.early_stop && reps >= 2 && !constraints.is_empty();
            let mut sums: BTreeMap<String, f64> = BTreeMap::new();
            let mut tallies: BTreeMap<&str, Tally> = constraints
                .iter()
                .map(|c| (c.metric.as_str(), Tally::new()))
                .collect();
            let mut used = 0usize;
            for rep in 0..reps {
                let rep_scenario =
                    scenario.with_seed(scenario.seed.wrapping_add(rep as u64 * 7919));
                let mut rep_metrics: BTreeMap<String, f64> = BTreeMap::new();
                if needs_avail {
                    let (result, telemetry) =
                        self.run_availability_observed_into(&rep_scenario, sink, None);
                    events_executed += result.sim_events;
                    record_avail_metrics(&mut rep_metrics, &result);
                    rep_metrics
                        .insert("peak_queue_depth".into(), telemetry.peak_queue_depth as f64);
                    rep_metrics.insert("mean_queue_depth".into(), telemetry.mean_queue_depth);
                }
                if needs_perf && !rep_scenario.tenants.is_empty() {
                    let result = self.run_perf_into(&rep_scenario, false, sink);
                    for t in &result.tenants {
                        rep_metrics.insert(format!("{}_p50_s", t.name), t.p50_s);
                        rep_metrics.insert(format!("{}_p95_s", t.name), t.p95_s);
                        rep_metrics.insert(format!("{}_p99_s", t.name), t.p99_s);
                        rep_metrics.insert(format!("{}_mean_s", t.name), t.mean_s);
                        rep_metrics.insert(format!("{}_throughput", t.name), t.throughput);
                        rep_metrics.insert(format!("{}_failed", t.name), t.failed as f64);
                    }
                }
                for (k, v) in rep_metrics {
                    if let Some(t) = tallies.get_mut(k.as_str()) {
                        t.record(v);
                    }
                    *sums.entry(k).or_insert(0.0) += v;
                }
                used += 1;
                if stop_eligible
                    && used >= 2
                    && used < reps
                    && verdict_confident(constraints, &metrics, &tallies)
                {
                    early_stopped = true;
                    break;
                }
            }
            for (k, v) in sums {
                metrics.insert(k, v / used as f64);
            }
        }

        let passes = !aborted && slas.holds(&metrics);
        Evaluation {
            metrics,
            passes,
            aborted,
            screened: false,
            early_stopped,
            sim_events_executed: events_executed,
        }
    }
}

/// True when the set's objective can be computed without simulation
/// (absent, or one of the exact cost metrics) — the precondition for
/// letting a screen settle a *pass* verdict.
fn objective_is_exact(slas: &SlaSet) -> bool {
    slas.objective_metric()
        .is_none_or(|m| EXACT_METRICS.contains(&m))
}

/// Screens every constraint analytically. `Some(false)` = some
/// constraint provably violated (the DES would fail this point too);
/// `Some(true)` = every constraint provably satisfied; `None` = at least
/// one constraint undecided, simulate.
fn screen_point(slas: &SlaSet, scenario: &Scenario, stages: &Stages) -> Option<bool> {
    let mut all_pass = true;
    let mut any_fail = false;
    for c in slas.constraints() {
        match screen_constraint(c, scenario, stages) {
            ScreenVerdict::Fail => any_fail = true,
            ScreenVerdict::Pass => {}
            ScreenVerdict::Unknown => all_pass = false,
        }
    }
    if any_fail {
        Some(false)
    } else if all_pass {
        Some(true)
    } else {
        None
    }
}

/// One constraint through the closed-form screens: availability bounds
/// from the birth–death model, latency-quantile floors from M/M/c.
/// Anything else — including quantiles of tenants the scenario does not
/// run, whose simulated verdict is fail-by-missing-metric, not a model
/// question — is `Unknown`.
fn screen_constraint(c: &Constraint, scenario: &Scenario, stages: &Stages) -> ScreenVerdict {
    let rel = match c.cmp {
        Comparison::Ge => Rel::Ge,
        Comparison::Gt => Rel::Gt,
        Comparison::Le => Rel::Le,
        Comparison::Lt => Rel::Lt,
        Comparison::Eq => return ScreenVerdict::Unknown,
    };
    if c.metric == "availability" {
        return availability_screen(scenario, stages.screen_min_failures).screen(
            rel,
            c.bound,
            stages.screen_guard,
        );
    }
    if let Some((tenant, q)) = quantile_metric(&c.metric) {
        if scenario.tenants.iter().any(|t| t.name == tenant) {
            if let Some(p) = perf_screen(scenario) {
                return p.screen(q, rel, c.bound, stages.screen_guard);
            }
        }
    }
    ScreenVerdict::Unknown
}

/// True when every constraint's verdict is already confident: either
/// some constraint is confidently violated (the point will fail no
/// matter what later replications say) or every constraint is
/// confidently satisfied. Exact (simulation-free) metrics decide
/// outright; sampled metrics need a resolved 95% confidence interval
/// clear of the bound.
fn verdict_confident(
    constraints: &[Constraint],
    exact: &BTreeMap<String, f64>,
    tallies: &BTreeMap<&str, Tally>,
) -> bool {
    let mut all_satisfied = !constraints.is_empty();
    for c in constraints {
        let (violated, satisfied) = if let Some(&v) = exact.get(&c.metric) {
            (!c.satisfied(v), c.satisfied(v))
        } else {
            let Some(tally) = tallies.get(c.metric.as_str()) else {
                return false;
            };
            if tally.count() < 2 {
                return false; // metric absent from replications
            }
            let iv = MeanInterval::from_tally(tally);
            match c.cmp {
                Comparison::Ge => (
                    iv.confidently_below(c.bound),
                    iv.confidently_at_least(c.bound),
                ),
                Comparison::Gt => (
                    iv.confidently_at_most(c.bound),
                    iv.confidently_above(c.bound),
                ),
                Comparison::Le => (
                    iv.confidently_above(c.bound),
                    iv.confidently_at_most(c.bound),
                ),
                Comparison::Lt => (
                    iv.confidently_at_least(c.bound),
                    iv.confidently_below(c.bound),
                ),
                Comparison::Eq => (false, false),
            }
        };
        if violated {
            return true; // one certain violation decides the whole point
        }
        all_satisfied &= satisfied;
    }
    all_satisfied
}

/// Runs the perf model over `probe_fraction` of its horizon and returns
/// true when some streaming-sketch latency quantile already violates a
/// `≤`/`<` constraint by more than `abort_margin`. On abort, the probe
/// is recorded with `verdict_source = "aborted"` provenance and an
/// `abort_sketch_p99` telemetry mark; a clean probe leaves no trace.
fn sketch_probe_aborts(
    constraints: &[Constraint],
    scenario: &Scenario,
    stages: &Stages,
    sink: &dyn RecordSink,
) -> bool {
    // Latency ceilings on quantiles of tenants this scenario actually
    // runs; anything else the probe cannot judge.
    let ceilings: Vec<(&Constraint, &str, f64)> = constraints
        .iter()
        .filter(|c| matches!(c.cmp, Comparison::Le | Comparison::Lt))
        .filter_map(|c| quantile_metric(&c.metric).map(|(t, q)| (c, t, q)))
        .filter(|(_, tenant, _)| scenario.tenants.iter().any(|t| t.name == *tenant))
        .collect();
    if ceilings.is_empty() || scenario.tenants.is_empty() {
        return false;
    }
    let mut model = WindTunnel::perf_model(scenario, false);
    model.horizon_s *= stages.probe_fraction;
    let (probe, mut telemetry) = model.run_observed(scenario.seed, None);
    let hopeless = ceilings.iter().any(|(c, tenant, q)| {
        probe
            .tenant(tenant)
            .and_then(|t| {
                if *q == 0.50 {
                    t.sketch_p50_s
                } else if *q == 0.95 {
                    t.sketch_p95_s
                } else {
                    t.sketch_p99_s
                }
            })
            .is_some_and(|sketch_q| sketch_q > c.bound + stages.abort_margin)
    });
    if hopeless {
        telemetry.marks.insert("abort_sketch_p99".into(), 1);
        let mut rec = RunRecord::new("perf-probe", scenario.seed)
            .param("scenario", scenario.name.clone())
            .param("verdict_source", "aborted")
            .metric("probe_horizon_s", model.horizon_s);
        for t in &probe.tenants {
            if let Some(p99) = t.sketch_p99_s {
                rec = rec.metric(format!("{}_sketch_p99_s", t.name), p99);
            }
        }
        sink.record(rec.telemetry(telemetry));
    }
    hopeless
}

fn record_avail_metrics(metrics: &mut BTreeMap<String, f64>, r: &AvailabilityResult) {
    metrics.insert("availability".into(), r.availability);
    metrics.insert("nines".into(), r.nines);
    metrics.insert(
        "unavailability_events".into(),
        r.unavailability_events as f64,
    );
    metrics.insert("objects_lost".into(), r.objects_lost as f64);
    metrics.insert("node_failures".into(), r.node_failures as f64);
    metrics.insert("rebuilds_completed".into(), r.rebuilds_completed as f64);
    metrics.insert("mean_rebuild_wait_s".into(), r.mean_rebuild_wait_s);
    metrics.insert("sim_events".into(), r.sim_events as f64);
}

/// Sound abort: the probe already violates an upper bound on a metric
/// that can only grow with the horizon.
fn probe_violates_surely(c: &Constraint, probe: &AvailabilityResult) -> bool {
    if !MONOTONE_IN_TIME.contains(&c.metric.as_str()) {
        return false;
    }
    let value = match c.metric.as_str() {
        "objects_lost" => probe.objects_lost as f64,
        "unavailability_events" => probe.unavailability_events as f64,
        "node_failures" => probe.node_failures as f64,
        _ => return false,
    };
    matches!(c.cmp, Comparison::Le | Comparison::Lt) && !c.satisfied(value)
}

/// Heuristic abort: the probe's availability sits more than the margin
/// below an availability floor.
fn probe_violates_heuristically(
    c: &Constraint,
    probe: &AvailabilityResult,
    stages: &Stages,
) -> bool {
    c.metric == "availability"
        && matches!(c.cmp, Comparison::Ge | Comparison::Gt)
        && probe.availability < c.bound - stages.abort_margin
}

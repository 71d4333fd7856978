//! Service-level agreements: the user-side constraints every wind tunnel
//! query is ultimately judged against (§1, §3).
//!
//! There is one vocabulary. A [`Constraint`] bounds one named metric
//! from the tunnel's metric catalogue (below), and an [`SlaSet`] is a
//! conjunction of constraints plus the metrics the caller wants measured
//! alongside. WTQL's `SUBJECT TO` clause parses into the same
//! [`Constraint`]s, and [`crate::WindTunnel::evaluate`] judges both.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Comparison operators in constraints (and WTQL `WHERE` filters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Comparison {
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `=`
    Eq,
}

impl Comparison {
    /// Evaluates `lhs OP rhs` for numeric operands.
    pub fn eval(&self, lhs: f64, rhs: f64) -> bool {
        match self {
            Comparison::Le => lhs <= rhs,
            Comparison::Ge => lhs >= rhs,
            Comparison::Lt => lhs < rhs,
            Comparison::Gt => lhs > rhs,
            Comparison::Eq => (lhs - rhs).abs() < 1e-12,
        }
    }

    /// The source spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Comparison::Le => "<=",
            Comparison::Ge => ">=",
            Comparison::Lt => "<",
            Comparison::Gt => ">",
            Comparison::Eq => "=",
        }
    }
}

/// One SLA clause on an output metric: `availability >= 0.9999`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Metric name.
    pub metric: String,
    /// Comparison.
    pub cmp: Comparison,
    /// Bound.
    pub bound: f64,
}

impl Constraint {
    /// True if `value` satisfies this constraint.
    pub fn satisfied(&self, value: f64) -> bool {
        self.cmp.eval(value, self.bound)
    }

    /// True if `metrics` holds this constraint's metric and it satisfies
    /// the bound; a metric that was never measured fails.
    pub fn met_by(&self, metrics: &BTreeMap<String, f64>) -> bool {
        metrics
            .get(&self.metric)
            .is_some_and(|&v| self.satisfied(v))
    }
}

/// A conjunction of constraints, plus the metrics the caller wants
/// measured alongside them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SlaSet {
    constraints: Vec<Constraint>,
    reported: Vec<String>,
    objective: Option<String>,
}

impl SlaSet {
    /// An empty set (always satisfied).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the constraint `metric cmp bound`.
    pub fn require(mut self, metric: impl Into<String>, cmp: Comparison, bound: f64) -> Self {
        self.constraints.push(Constraint {
            metric: metric.into(),
            cmp,
            bound,
        });
        self
    }

    /// Adds an availability floor: `availability >= min`.
    pub fn availability(self, min: f64) -> Self {
        self.require("availability", Comparison::Ge, min)
    }

    /// Asks for `metric` to be measured and reported without bounding it.
    pub fn report(mut self, metric: impl Into<String>) -> Self {
        self.reported.push(metric.into());
        self
    }

    /// Names the metric the caller ranks passing designs by. Every
    /// passing evaluation measures it, so an analytic screen may settle
    /// a pass only when the objective is an exact (simulation-free)
    /// metric.
    pub fn objective(mut self, metric: impl Into<String>) -> Self {
        self.objective = Some(metric.into());
        self
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective metric, if any.
    pub fn objective_metric(&self) -> Option<&str> {
        self.objective.as_deref()
    }

    /// Every metric the set mentions: constraints, reported metrics and
    /// the objective.
    pub fn metrics(&self) -> impl Iterator<Item = &str> {
        self.constraints
            .iter()
            .map(|c| c.metric.as_str())
            .chain(self.reported.iter().map(String::as_str))
            .chain(self.objective.as_deref())
    }

    /// True if any mentioned metric needs an availability run.
    pub fn needs_availability(&self) -> bool {
        self.metrics().any(is_avail_metric)
    }

    /// True if any mentioned metric needs a performance run.
    pub fn needs_perf(&self) -> bool {
        self.metrics().any(is_perf_metric)
    }

    /// True if `metrics` meets every constraint.
    pub fn holds(&self, metrics: &BTreeMap<String, f64>) -> bool {
        self.constraints.iter().all(|c| c.met_by(metrics))
    }
}

impl FromIterator<Constraint> for SlaSet {
    fn from_iter<I: IntoIterator<Item = Constraint>>(iter: I) -> Self {
        SlaSet {
            constraints: iter.into_iter().collect(),
            ..SlaSet::default()
        }
    }
}

/// The metrics the availability engine measures, including its engine
/// telemetry (wt-obs).
pub const AVAIL_METRICS: &[&str] = &[
    "availability",
    "nines",
    "unavailability_events",
    "objects_lost",
    "node_failures",
    "rebuilds_completed",
    "mean_rebuild_wait_s",
    "sim_events",
    "peak_queue_depth",
    "mean_queue_depth",
];

/// Metrics whose value can only grow as the horizon extends; a probe that
/// already violates an upper bound on one of these makes the full run's
/// violation certain — the *sound* early abort.
pub const MONOTONE_IN_TIME: &[&str] = &["objects_lost", "unavailability_events", "node_failures"];

/// The cost metrics, computed exactly from the topology and redundancy
/// without simulation.
pub const EXACT_METRICS: &[&str] = &["tco_usd_per_year", "usd_per_usable_gb_year"];

/// True for the availability engine's metrics.
pub fn is_avail_metric(name: &str) -> bool {
    AVAIL_METRICS.contains(&name)
}

/// True for the per-tenant metrics of the performance engine
/// (`<tenant>_p95_s`, `<tenant>_throughput`, ...).
pub fn is_perf_metric(name: &str) -> bool {
    name.ends_with("_p50_s")
        || name.ends_with("_p95_s")
        || name.ends_with("_p99_s")
        || name.ends_with("_mean_s")
        || name.ends_with("_throughput")
        || name.ends_with("_failed")
}

/// True for any metric the tunnel can produce.
pub fn is_known_metric(name: &str) -> bool {
    is_avail_metric(name) || is_perf_metric(name) || EXACT_METRICS.contains(&name)
}

/// Parses `<tenant>_pXX_s` into the tenant name and quantile.
pub fn quantile_metric(name: &str) -> Option<(&str, f64)> {
    for (suffix, q) in [("_p50_s", 0.50), ("_p95_s", 0.95), ("_p99_s", 0.99)] {
        if let Some(tenant) = name.strip_suffix(suffix) {
            if !tenant.is_empty() {
                return Some((tenant, q));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn empty_set_always_satisfied() {
        let s = SlaSet::new();
        assert!(s.holds(&BTreeMap::new()));
        assert!(!s.needs_availability());
        assert!(!s.needs_perf());
    }

    #[test]
    fn availability_clause() {
        let s = SlaSet::new().availability(0.999);
        let c = &s.constraints()[0];
        assert_eq!(
            (c.metric.as_str(), c.cmp, c.bound),
            ("availability", Comparison::Ge, 0.999)
        );
        assert!(s.needs_availability());
        assert!(s.holds(&metrics(&[("availability", 0.9999)])));
        assert!(!s.holds(&metrics(&[("availability", 0.99)])));
    }

    #[test]
    fn durability_clause() {
        let s = SlaSet::new().require("objects_lost", Comparison::Le, 0.0);
        assert!(s.needs_availability());
        assert!(s.holds(&metrics(&[("objects_lost", 0.0)])));
        assert!(!s.holds(&metrics(&[("objects_lost", 2.0)])));
    }

    #[test]
    fn latency_clause() {
        let s = SlaSet::new().require("shop_p95_s", Comparison::Le, 0.050);
        assert!(s.needs_perf() && !s.needs_availability());
        assert!(s.holds(&metrics(&[("shop_p95_s", 0.040)])));
        assert!(!s.holds(&metrics(&[("shop_p95_s", 0.060)])));
    }

    #[test]
    fn missing_runs_are_violations() {
        let s = SlaSet::new()
            .availability(0.9)
            .require("shop_p95_s", Comparison::Le, 1.0);
        assert!(!s.holds(&BTreeMap::new()));
        assert!(!s.holds(&metrics(&[("availability", 1.0)])));
    }

    #[test]
    fn unknown_tenant_flagged() {
        // A bound on a tenant the run never measured fails.
        let s = SlaSet::new().require("nobody_p95_s", Comparison::Le, 1.0);
        assert!(!s.holds(&metrics(&[("shop_p95_s", 0.01)])));
    }

    #[test]
    fn conjunction_of_clauses() {
        let s = SlaSet::new()
            .availability(0.999)
            .require("objects_lost", Comparison::Le, 0.0);
        let failing = s
            .constraints()
            .iter()
            .filter(|c| !c.met_by(&metrics(&[("availability", 0.99), ("objects_lost", 5.0)])))
            .count();
        assert_eq!(failing, 2);
        assert!(s.holds(&metrics(&[("availability", 1.0), ("objects_lost", 0.0)])));
    }

    #[test]
    fn reported_and_objective_metrics_pick_engines() {
        let s = SlaSet::new().report("node_failures");
        assert!(s.needs_availability() && s.holds(&BTreeMap::new()));
        let s = SlaSet::new().objective("shop_p99_s");
        assert!(s.needs_perf() && !s.needs_availability());
        assert_eq!(s.objective_metric(), Some("shop_p99_s"));
        assert_eq!(SlaSet::new().objective_metric(), None);
    }

    #[test]
    fn metric_catalogue() {
        for m in [
            "availability",
            "shop_p99_s",
            "x_throughput",
            "tco_usd_per_year",
        ] {
            assert!(is_known_metric(m), "{m}");
        }
        assert!(!is_known_metric("qubits"));
        assert_eq!(quantile_metric("shop_p95_s"), Some(("shop", 0.95)));
        assert_eq!(quantile_metric("_p95_s"), None);
        assert_eq!(quantile_metric("shop_mean_s"), None);
    }
}

//! Integration: the future-event list end to end. One queue backend
//! remains, the binary heap (`QueueBackend::Heap`); it is visible only
//! as telemetry provenance and must never perturb results. Covers a
//! churn-heavy long run as the seq-headroom smoke.

use windtunnel::prelude::*;

/// The seq-headroom smoke: a cluster under failure pressure high enough
/// to push the event count past several hundred thousand still runs
/// bit-equal with and without an observer, and names the heap as its
/// queue backend.
#[test]
fn long_churn_run_stays_equivalent() {
    let mut sc = ScenarioBuilder::new("qb-long")
        .racks(4)
        .nodes_per_rack(12)
        .objects(200)
        .object_gb(2.0)
        .disk_failures(true)
        .horizon_years(12.0)
        .seed(77)
        .build();
    // Weibull infant mortality with a short mean: constant churn.
    sc.topology.node.ttf = Dist::weibull_mean(0.7, 10.0 * 86_400.0);
    let tunnel = WindTunnel::new();
    let plain = tunnel.run_availability(&sc);
    let (observed, t) = tunnel.run_availability_observed_into(&sc, tunnel.store(), None);
    assert!(
        t.events > 300_000,
        "smoke must be churn-heavy, got {} events",
        t.events
    );
    assert_eq!(plain, observed);
    assert_eq!(t.events, observed.sim_events);
    assert_eq!(t.queue.as_deref(), Some("heap"));
}

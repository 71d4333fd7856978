//! Integration: WTQL text → parse → plan → parallel execution → result
//! store, across every crate in the workspace.

use windtunnel::prelude::*;
use wt_wtql::{parse, run_query, ExecOptions};

fn base() -> Scenario {
    let mut s = ScenarioBuilder::new("e2e-base")
        .racks(1)
        .nodes_per_rack(10)
        .objects(300)
        .object_gb(4.0)
        .horizon_years(0.25)
        .seed(99)
        .build();
    s.topology.node.ttf = Dist::weibull_mean(0.8, 60.0 * 86_400.0);
    s
}

#[test]
fn full_pipeline_explore_constrain_optimize() {
    let query = parse(
        r#"
        EXPLORE availability, tco_usd_per_year
        SWEEP replication IN [1, 3], repair_parallel IN [1, 8]
        SUBJECT TO availability >= 0.99
        MINIMIZE tco_usd_per_year
        "#,
    )
    .expect("parses");
    let tunnel = WindTunnel::new();
    let out = run_query(&query, &base(), &tunnel, &ExecOptions::default()).expect("runs");

    assert_eq!(out.rows.len(), 4);
    // Simulated rows carry both explored metrics.
    for row in out.rows.iter().filter(|r| !r.pruned) {
        assert!(row.metrics.contains_key("availability"));
        assert!(row.metrics.contains_key("tco_usd_per_year"));
    }
    // rep3 comfortably passes at this failure rate.
    assert!(out.best_row().is_some());
    // Every simulated run was recorded for later §4.4-style exploration.
    assert_eq!(tunnel.store().len(), out.executed);
    // The store's similarity search finds the executed configs.
    tunnel.store().with(|store| {
        let recs = store.by_experiment("availability");
        assert_eq!(recs.len(), out.executed);
    });
}

#[test]
fn pruned_and_exhaustive_agree() {
    let query = parse(
        r#"
        EXPLORE availability
        SWEEP replication IN [1, 2, 3], nic IN ["1g", "10g"]
        SUBJECT TO availability >= 0.999995, objects_lost <= 0
        "#,
    )
    .expect("parses");
    let mut sc = base();
    sc.topology.node.ttf = Dist::exponential_mean(20.0 * 86_400.0);
    sc.repair.detection_delay_s = 7_200.0;

    let exhaustive = run_query(
        &query,
        &sc,
        &WindTunnel::new(),
        &ExecOptions {
            prune: false,
            ..ExecOptions::default()
        },
    )
    .expect("runs");
    let pruned = run_query(&query, &sc, &WindTunnel::new(), &ExecOptions::default()).expect("runs");

    let passing = |o: &wt_wtql::QueryOutcome| {
        let mut v: Vec<String> = o
            .passing()
            .iter()
            .map(|r| format!("{:?}", r.assignment))
            .collect();
        v.sort();
        v
    };
    assert_eq!(passing(&exhaustive), passing(&pruned));
    assert!(pruned.executed <= exhaustive.executed);
}

#[test]
fn threads_do_not_change_results() {
    let query =
        parse(r#"EXPLORE availability SWEEP replication IN [1, 2, 3], placement IN ["R", "RR"]"#)
            .expect("parses");
    let serial =
        run_query(&query, &base(), &WindTunnel::new(), &ExecOptions::default()).expect("runs");
    let parallel = run_query(
        &query,
        &base(),
        &WindTunnel::new(),
        &ExecOptions {
            threads: 4,
            ..ExecOptions::default()
        },
    )
    .expect("runs");
    for (a, b) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.metrics, b.metrics);
    }
}

#[test]
fn assess_and_a_one_point_query_agree() {
    // The library's `assess` and WTQL judge through the same evaluator:
    // same verdict, bitwise-equal metrics, on a passing and a failing
    // design.
    let query = parse(
        "EXPLORE availability, objects_lost \
         SWEEP replication IN [3] \
         SUBJECT TO availability >= 0.999, objects_lost <= 0",
    )
    .expect("parses");
    let slas = SlaSet::new()
        .availability(0.999)
        .require("objects_lost", Comparison::Le, 0.0);
    let mut failing = base();
    failing.topology.node.ttf = Dist::exponential_mean(2.0 * 86_400.0);
    failing.repair.detection_delay_s = 5.0 * 86_400.0;
    for (sc, expect_pass) in [(base(), true), (failing, false)] {
        let assessed = WindTunnel::new().assess(&sc, &slas);
        let out =
            run_query(&query, &sc, &WindTunnel::new(), &ExecOptions::default()).expect("runs");
        let row = &out.rows[0];
        assert_eq!(assessed.passes, expect_pass, "{:?}", assessed.metrics);
        assert_eq!(row.passes, assessed.passes);
        assert_eq!(row.sim_events_executed, assessed.sim_events_executed);
        let shared: Vec<&String> = assessed
            .metrics
            .keys()
            .filter(|k| row.metrics.contains_key(*k))
            .collect();
        assert!(shared.len() >= 4, "{shared:?}");
        for k in shared {
            assert_eq!(
                row.metrics[k].to_bits(),
                assessed.metrics[k].to_bits(),
                "{k}"
            );
        }
    }
}

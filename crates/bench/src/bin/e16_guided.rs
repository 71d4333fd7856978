//! **E16 — guided sweep execution (screen / rank / early-stop)**: run the
//! same constrained design sweep exhaustively and in `GUIDED` mode and
//! verify the planner's contract — the verdict table and the winning row
//! are identical, while the guided pass executes a fraction of the DES
//! events. The savings come from three cooperating stages: analytic
//! screening (closed-form availability bounds resolve hopeless redundancy
//! levels without simulation), surrogate ranking (visit likely-infeasible
//! points first to feed dominance pruning), and replication early-stop
//! (stop re-running a point once its constraints resolve confidently —
//! never below two recorded replications).
//!
//! The fixture is deliberately failure-heavy: ~40-day node lifetimes with
//! a 5-day detection delay, the regime where weak replication *provably*
//! misses a tight availability floor and simulating it is pure waste.

use windtunnel::prelude::*;
use wt_bench::{banner, farm_from_args, Table};
use wt_wtql::{parse, run_query, ExecOptions, QueryOutcome};

fn verdict_table(out: &QueryOutcome) -> Vec<(String, bool, bool)> {
    out.rows
        .iter()
        .map(|r| {
            let desc: Vec<String> = r
                .assignment
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            (desc.join(","), r.passes, r.pruned)
        })
        .collect()
}

fn main() {
    banner(
        "E16 — guided sweep: screen, rank, early-stop",
        "guided and exhaustive modes return the identical verdict table; \
         the guided pass runs a fraction of the DES events",
    );

    let args: Vec<String> = std::env::args().collect();
    let workers = farm_from_args(&args).workers();

    // 4 (replication) × 2 (repair) grid, 10 CRN replications per point —
    // the budget a tight confidence interval needs — under SLAs nothing
    // at this detection delay meets: the sweep's real answer is "fix
    // detection first", and guided mode proves it with a fraction of the
    // simulation. Weak replication is screened analytically (zero DES);
    // the surviving points stop after two replications because their
    // constraint intervals already resolve confidently.
    let query_text = r#"
        EXPLORE availability, tco_usd_per_year
        SWEEP replication IN [1, 2, 3, 5], repair_parallel IN [1, 4]
        SUBJECT TO availability >= 0.99985, mean_rebuild_wait_s <= 60
        MINIMIZE tco_usd_per_year
        OPTIONS prune = FALSE, replications = 10
    "#;
    println!("query:\n{query_text}");

    let mut base = ScenarioBuilder::new("guided-base")
        .racks(3)
        .nodes_per_rack(10)
        .objects(1_000)
        .object_gb(4.0)
        .horizon_years(0.25)
        .seed(16)
        .build();
    base.topology.node.ttf = Dist::weibull_mean(0.8, 40.0 * 86_400.0);
    base.repair.detection_delay_s = 5.0 * 86_400.0;

    let query = parse(query_text).expect("parses");

    let run_with = |guided: bool| {
        let tunnel = WindTunnel::new();
        let mut opts = ExecOptions::from_query(&query);
        opts.threads = workers;
        if guided {
            opts.screen = true;
            opts.rank = true;
            opts.early_stop = true;
            opts.sketch_abort = true;
        }
        let t0 = std::time::Instant::now();
        let out = run_query(&query, &base, &tunnel, &opts).expect("runs");
        (out, t0.elapsed())
    };

    let (full, full_t) = run_with(false);
    let (guided, guided_t) = run_with(true);
    eprintln!(
        "exhaustive {:.2}s, guided {:.2}s on {workers} worker(s)",
        full_t.as_secs_f64(),
        guided_t.as_secs_f64()
    );

    let mut table = Table::new(&[
        "mode",
        "grid",
        "executed",
        "screened",
        "early-stopped",
        "passing",
        "sim events",
    ]);
    for (name, out) in [("exhaustive", &full), ("guided", &guided)] {
        table.row(vec![
            name.into(),
            out.rows.len().to_string(),
            out.executed.to_string(),
            out.screened.to_string(),
            out.early_stopped.to_string(),
            out.passing().len().to_string(),
            out.total_sim_events.to_string(),
        ]);
    }
    table.print();

    println!();
    println!(
        "check: identical verdict tables -> {}",
        verdict_table(&full) == verdict_table(&guided)
    );
    let best = |o: &QueryOutcome| o.best_row().map(|r| r.assignment.clone());
    println!(
        "check: identical winning row -> {} ({:?})",
        best(&full) == best(&guided),
        best(&guided)
    );
    println!(
        "check: screens resolved points analytically -> {} ({} of {})",
        guided.screened > 0,
        guided.screened,
        guided.rows.len()
    );
    let reduction = full.total_sim_events as f64 / guided.total_sim_events.max(1) as f64;
    println!(
        "check: >=5x fewer DES events -> {} ({:.1}x: {} vs {})",
        reduction >= 5.0,
        reduction,
        full.total_sim_events,
        guided.total_sim_events
    );
}

//! **E7 — simulation at scale (§4.2)**: parallel run execution speedup,
//! and events saved by aborting hopeless runs on a probe horizon.
//!
//! The `threads` knob sizes the shared `windtunnel::farm` worker pool
//! that `run_query`'s [`windtunnel::sweep::SweepRunner`] dispatches
//! onto; results are identical at every setting, only the wall-clock
//! moves.

use windtunnel::prelude::*;
use wt_bench::{banner, Table};
use wt_wtql::{parse, run_query, ExecOptions};

fn main() {
    banner(
        "E7 — parallel execution and early abort",
        "wall-clock scales down with worker threads (independent runs \
         parallelize embarrassingly); early abort cuts simulated events on \
         SLA-hopeless configurations without changing any verdict",
    );

    // ---- Parallel speedup ----------------------------------------------
    let query = parse(
        r#"EXPLORE availability
           SWEEP replication IN [2, 3, 4, 5],
                 repair_parallel IN [1, 4, 16],
                 placement IN ["R", "RR"]"#,
    )
    .expect("parses");
    let base = ScenarioBuilder::new("scale-base")
        .racks(3)
        .nodes_per_rack(10)
        .objects(20_000)
        .object_gb(16.0)
        .horizon_years(2.0)
        .seed(7)
        .build();

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s) — ideal speedup is min(threads, {cores})");
    let mut table = Table::new(&["farm workers", "wall", "speedup", "ideal", "runs"]);
    let mut t1 = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let tunnel = WindTunnel::new();
        let opts = ExecOptions {
            threads,
            prune: false,
            ..ExecOptions::default()
        };
        let t0 = std::time::Instant::now();
        let out = run_query(&query, &base, &tunnel, &opts).expect("runs");
        let wall = t0.elapsed().as_secs_f64();
        if threads == 1 {
            t1 = wall;
        }
        table.row(vec![
            threads.to_string(),
            format!("{wall:.2}s"),
            format!("{:.2}x", t1 / wall),
            format!("{}x", threads.min(cores)),
            out.executed.to_string(),
        ]);
    }
    table.print();

    // ---- Early abort -----------------------------------------------------
    println!();
    let query = parse(
        r#"EXPLORE availability
           SWEEP replication IN [2, 3]
           SUBJECT TO unavailability_events <= 0
           OPTIONS prune = FALSE"#,
    )
    .expect("parses");
    // A steadily-churning cluster: failures and rebuilds all horizon long,
    // with regular quorum-loss episodes — so a zero-episodes SLA is
    // detectably hopeless within the first few simulated days, while a
    // full run would grind through 20x the events.
    let mut churning = ScenarioBuilder::new("churning")
        .racks(1)
        .nodes_per_rack(10)
        .objects(500)
        .object_gb(64.0)
        .horizon_years(2.0)
        .seed(7)
        .build();
    churning.topology.node.ttf = Dist::exponential_mean(10.0 * 86_400.0);
    churning.repair.detection_delay_s = 3_600.0;

    let mut table = Table::new(&["mode", "executed", "aborted", "sim events", "verdicts"]);
    let mut verdicts = Vec::new();
    for (name, early) in [("full runs", false), ("early abort", true)] {
        let tunnel = WindTunnel::new();
        let opts = ExecOptions {
            prune: false,
            stages: Stages {
                early_abort: early,
                probe_fraction: 0.05,
                ..Stages::default()
            },
            ..ExecOptions::default()
        };
        let out = run_query(&query, &churning, &tunnel, &opts).expect("runs");
        let verdict: Vec<bool> = out.rows.iter().map(|r| r.passes).collect();
        table.row(vec![
            name.into(),
            out.executed.to_string(),
            out.aborted.to_string(),
            out.total_sim_events.to_string(),
            format!("{verdict:?}"),
        ]);
        verdicts.push((out.total_sim_events, verdict));
    }
    table.print();

    println!();
    println!(
        "check: same verdicts with and without abort -> {}",
        verdicts[0].1 == verdicts[1].1
    );
    println!(
        "check: events saved by abort -> {} ({} vs {})",
        verdicts[1].0 < verdicts[0].0,
        verdicts[1].0,
        verdicts[0].0
    );
}

//! `sweep_guided` — exhaustive vs guided execution of the E16 constrained
//! design sweep, timed head-to-head. Not a Criterion bench: the two arms
//! are whole `run_query` invocations whose interesting outputs are DES
//! events executed and wall-clock, and the bench asserts the planner's
//! contract (identical verdict tables, identical winning row) before
//! timing anything. Writes `BENCH_sweep.json` at the workspace root
//! (override with `BENCH_SWEEP_OUT=...`).
//!
//! Run with `cargo bench --bench sweep_guided`; `--no-run` in CI just
//! compiles it, which keeps the guided API surface honest.

use std::fmt::Write as _;
use std::time::Instant;
use windtunnel::prelude::*;
use wt_wtql::{parse, run_query, ExecOptions, QueryOutcome};

const SAMPLES: usize = 5;

const QUERY: &str = "\
    EXPLORE availability, tco_usd_per_year \
    SWEEP replication IN [1, 2, 3, 5], repair_parallel IN [1, 4] \
    SUBJECT TO availability >= 0.99985, mean_rebuild_wait_s <= 60 \
    MINIMIZE tco_usd_per_year \
    OPTIONS prune = FALSE, replications = 10";

fn fixture() -> Scenario {
    let mut base = ScenarioBuilder::new("guided-bench")
        .racks(3)
        .nodes_per_rack(10)
        .objects(1_000)
        .object_gb(4.0)
        .horizon_years(0.25)
        .seed(16)
        .build();
    base.topology.node.ttf = Dist::weibull_mean(0.8, 40.0 * 86_400.0);
    base.repair.detection_delay_s = 5.0 * 86_400.0;
    base
}

fn run(guided: bool) -> QueryOutcome {
    let query = parse(QUERY).expect("parses");
    let mut opts = ExecOptions::from_query(&query);
    if guided {
        opts.screen = true;
        opts.rank = true;
        opts.early_stop = true;
        opts.sketch_abort = true;
    }
    let tunnel = WindTunnel::new();
    run_query(&query, &fixture(), &tunnel, &opts).expect("runs")
}

fn verdicts(out: &QueryOutcome) -> Vec<(String, bool, bool)> {
    out.rows
        .iter()
        .map(|r| (format!("{:?}", r.assignment), r.passes, r.pruned))
        .collect()
}

fn time_arm(guided: bool) -> (f64, f64) {
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(run(guided));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[0], samples[SAMPLES / 2])
}

fn main() {
    // Contract first: guided may only change how much work runs.
    let exhaustive = run(false);
    let guided = run(true);
    assert_eq!(
        verdicts(&exhaustive),
        verdicts(&guided),
        "guided execution changed a verdict"
    );
    assert_eq!(
        exhaustive.best_row().map(|r| r.assignment.clone()),
        guided.best_row().map(|r| r.assignment.clone()),
        "guided execution changed the winning row"
    );
    assert!(guided.screened > 0, "screens never fired on the fixture");

    let (ex_best, ex_median) = time_arm(false);
    let (g_best, g_median) = time_arm(true);

    let event_reduction =
        exhaustive.total_sim_events as f64 / guided.total_sim_events.max(1) as f64;
    let speedup = ex_best / g_best.max(1e-9);
    println!(
        "exhaustive: {} events, best {:.3}s | guided: {} events ({} screened, {} early-stopped), best {:.3}s",
        exhaustive.total_sim_events,
        ex_best,
        guided.total_sim_events,
        guided.screened,
        guided.early_stopped,
        g_best
    );
    println!("event reduction {event_reduction:.1}x, wall-clock speedup {speedup:.1}x");
    assert!(
        event_reduction >= 5.0,
        "guided execution must cut DES events at least 5x on the constrained sweep \
         (got {event_reduction:.1}x)"
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"sweep_guided\",\n");
    let _ = writeln!(json, "  \"samples\": {SAMPLES},");
    let _ = writeln!(
        json,
        "  \"grid\": {{\"points\": {}, \"replications\": 10}},",
        exhaustive.rows.len()
    );
    let _ = writeln!(
        json,
        "  \"exhaustive\": {{\"sim_events\": {}, \"wall_s_best\": {:.6}, \"wall_s_median\": {:.6}}},",
        exhaustive.total_sim_events, ex_best, ex_median
    );
    let _ = writeln!(
        json,
        "  \"guided\": {{\"sim_events\": {}, \"screened\": {}, \"early_stopped\": {}, \
         \"wall_s_best\": {:.6}, \"wall_s_median\": {:.6}}},",
        guided.total_sim_events, guided.screened, guided.early_stopped, g_best, g_median
    );
    let _ = writeln!(json, "  \"event_reduction\": {event_reduction:.2},");
    let _ = writeln!(json, "  \"wall_clock_speedup\": {speedup:.2},");
    json.push_str("  \"verdicts_identical\": true\n");
    json.push_str("}\n");

    let out = std::env::var("BENCH_SWEEP_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json").to_string()
    });
    match std::fs::write(&out, &json) {
        Ok(()) => println!("written to {out}"),
        Err(e) => eprintln!("could not write {out}: {e}"),
    }
}

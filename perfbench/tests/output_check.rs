//! The benchmark's output checks catch real errors.

use std::collections::BTreeSet;
use wt_perfbench::pinned::Pinned;
use wt_perfbench::run::{self, RunConfig, END_TO_END, PER_LAYER};
use wt_perfbench::workloads::WORKLOADS;

fn one_second_run(workload: &'static str, pinned: &Pinned) -> run::Report {
    let cfg = RunConfig {
        workload,
        seed: 0,
        seconds: 1.0,
        trace: false,
        workers: 2,
    };
    run::run(&cfg, pinned)
}

#[test]
fn corrupted_answer_raises_failed_ratio() {
    let pinned = Pinned::committed("fig1_curves");
    let clean = one_second_run("fig1_curves", &pinned);
    assert_eq!(clean.failed, 0, "seed 0 reproduces its pinned curves");
    assert!(clean.attempted > 0);

    let mut corrupted = pinned.clone();
    let units = corrupted.by_seed.get_mut(&0).expect("seed 0 is pinned");
    let value: f64 = units[5].1.parse().expect("curve points are numbers");
    units[5].1 = format!("{}", value + 1e-12);
    let dirty = one_second_run("fig1_curves", &corrupted);
    assert!(
        dirty.failed >= dirty.samples as u64,
        "one failure per command"
    );
    assert!(dirty.failed_ratio() > clean.failed_ratio());
}

#[test]
fn corrupted_sweep_row_metric_raises_failed_ratio() {
    let pinned = Pinned::committed("design_sweep");
    let clean = one_second_run("design_sweep", &pinned);
    assert_eq!(clean.failed, 0, "seed 0 reproduces its pinned sweep");

    // A 1% shift of one row's cost leaves every verdict unchanged.
    let mut corrupted = pinned.clone();
    let units = corrupted.by_seed.get_mut(&0).expect("seed 0 is pinned");
    let (_, value) = units
        .iter_mut()
        .find(|(k, _)| k.ends_with("/tco_usd_per_year"))
        .expect("rows pin their cost");
    *value = format!("{:?}", value.parse::<f64>().expect("a number") * 1.01);
    let dirty = one_second_run("design_sweep", &corrupted);
    assert!(
        dirty.failed >= dirty.samples as u64,
        "one failure per command"
    );
}

#[test]
fn seed0_matches_committed_figure() {
    let csv = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../results/fig1.csv"))
        .expect("results/fig1.csv is committed");
    let mut lines = csv.lines();
    let headers: Vec<&str> = lines.next().expect("a header row").split(',').collect();
    let mut reference = Vec::new();
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    for (col, series) in headers.iter().enumerate().skip(1) {
        for row in &rows {
            reference.push((format!("{series}@f={}", row[0]), row[col].to_string()));
        }
    }
    let pinned = Pinned::committed("fig1_curves");
    assert_eq!(pinned.get(0), Some(&reference));
}

#[test]
fn every_workload_has_pinned_answers() {
    for w in WORKLOADS {
        let seeds: BTreeSet<u64> = Pinned::committed(w).by_seed.keys().copied().collect();
        assert_eq!(seeds, (0..32).collect(), "{w} pins seeds 0..=31");
    }
}

#[test]
fn benchmark_json_lists_the_reported_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is committed");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let gated: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("\"why\""))
        .filter_map(|l| l.split('"').nth(3))
        .collect();
    assert!(gated.len() >= 2);
    for w in gated {
        assert!(
            WORKLOADS.contains(&w),
            "BENCHMARK.json gates unknown workload {w}"
        );
    }
}

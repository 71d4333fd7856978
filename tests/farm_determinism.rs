//! Integration: the run farm produces byte-identical results regardless
//! of worker count — the property that makes parallel experiment sweeps
//! reproducible.

use windtunnel::farm::Farm;
use windtunnel::sweep::SweepRunner;
use wt_bench::fig1::{compute, Fig1Config};

#[test]
fn fig1_smallest_series_identical_across_worker_counts() {
    let config = Fig1Config::smallest();
    let serial = compute(&config, &SweepRunner::new(Farm::new(1)));
    let table_1 = serial.table().render();
    let csv_1 = serial.csv();
    for workers in [4, 8] {
        let parallel = compute(&config, &SweepRunner::new(Farm::new(workers)));
        assert_eq!(
            serial.curves, parallel.curves,
            "raw curves diverged at {workers} workers"
        );
        assert_eq!(
            table_1,
            parallel.table().render(),
            "rendered table diverged at {workers} workers"
        );
        assert_eq!(
            csv_1,
            parallel.csv(),
            "full-precision CSV diverged at {workers} workers"
        );
    }
}

#[test]
fn farm_fold_deterministic_under_load() {
    // A fold whose result depends on observation order: catches any
    // regression where results reach the accumulator out of item order.
    let items: Vec<u64> = (0..400).collect();
    let digest = |workers: usize| {
        Farm::new(workers)
            .run(2014, &items, |&x, ctx| ctx.seed.wrapping_mul(x | 1))
            .into_iter()
            .fold(0u64, |acc, r| acc.rotate_left(7) ^ r)
    };
    let gold = digest(1);
    for workers in [2, 4, 8] {
        assert_eq!(
            digest(workers),
            gold,
            "digest diverged at {workers} workers"
        );
    }
}

//! One benchmark run: repeat a workload's command for the run's window,
//! check every command's outputs, and reduce the samples to metrics.
//!
//! Untraced runs give the end-to-end metrics; all of them are host time
//! or host memory. Traced runs (`--trace 1`) record spans around every
//! call into a crate and give the per-layer metrics instead.

use crate::pinned::{check, Pinned};
use crate::sys;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{self, Command, Leftover};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// End-to-end metrics: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Layers whose self time the traced run reports (`<layer>.self_s`).
pub const LAYERS: &[&str] = &["core", "hw", "sw", "cluster", "store", "analytic", "wtql"];

/// Per-layer metrics: name, unit. A workload that does not exercise a
/// layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("des.peak_pending", "count"),
    ("hw.topology_build_s", "s"),
    ("hw.components", "count"),
    ("sw.place_s", "s"),
    ("cluster.avail_setup_s", "s"),
    ("cluster.avail_loop_s", "s"),
    ("cluster.avail_busy_s", "s"),
    ("cluster.perf_busy_s", "s"),
    ("cluster.perf_requests_per_s", "1/s"),
    ("cluster.unavail_s", "s"),
    ("cluster.unavail_trials_per_s", "1/s"),
    ("obs.probe_overhead_pct", "%"),
    ("store.records", "count"),
    ("store.snapshot_s", "s"),
    ("core.farm_busy_ratio", "ratio"),
    ("core.surrogate_fit_s", "s"),
    ("core.reps_run_ratio", "ratio"),
    ("analytic.screen_s", "s"),
    ("analytic.screen_decided_ratio", "ratio"),
    ("wtql.parse_s", "s"),
    ("wtql.plan_s", "s"),
    ("wtql.exec_s", "s"),
    ("wtql.executed", "count"),
    ("wtql.pruned", "count"),
    ("wtql.screened", "count"),
    ("wtql.aborted", "count"),
    ("wtql.early_stopped", "count"),
    ("wtql.sim_free_ratio", "ratio"),
    ("core.self_s", "s"),
    ("hw.self_s", "s"),
    ("sw.self_s", "s"),
    ("cluster.self_s", "s"),
    ("store.self_s", "s"),
    ("analytic.self_s", "s"),
    ("wtql.self_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unexplained_pct", "%"),
];

/// Set-up-only repetitions after each command, for `setup_s`.
///
/// Host state flips a set-up between a fast and a slow mode (up to 1.7×
/// apart on the sweeps) for stretches of 0.1 s to seconds, longer than
/// one command's repeats take. A median over single samples then jumps
/// between the modes as their mix moves around one half. So repeat `j`
/// after every command forms group `j`, which spans the whole run; each
/// group's mean follows the mix smoothly, and `setup_s` is the median of
/// the group means.
const SETUP_REPEATS: usize = 5;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub workers: usize,
}

#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Name, value, unit — in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Commands run.
    pub samples: usize,
    pub queue: String,
    /// FNV-1a of the first command's full output.
    pub digest: u64,
    pub pinned: bool,
    /// The traced run's spans, as a Chrome-trace JSON.
    pub chrome_trace: Option<String>,
}

impl Report {
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[derive(Default)]
struct Samples {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    /// `setup[j]`: the `j`-th set-up repeat after each command.
    setup: [Vec<f64>; SETUP_REPEATS],
    events_rate: Vec<f64>,
    points_rate: Vec<f64>,
    traced_wall: Vec<f64>,
    untraced_wall: Vec<f64>,
    layer: BTreeMap<&'static str, Vec<f64>>,
}

/// Runs `cfg.workload` for `cfg.seconds`, checking each command against
/// `pinned` where it holds the seed.
pub fn run(cfg: &RunConfig, pinned: &Pinned) -> Report {
    let expected = pinned.get(cfg.seed);
    let start = Instant::now();
    // A traced run leaves half its window to the extra layer calls, and
    // alternates traced and untraced commands to measure its own cost.
    let (budget, min_commands) = if cfg.trace {
        (cfg.seconds / 2.0, 2)
    } else {
        (cfg.seconds, 1)
    };
    let tracer = Tracer::new(cfg.trace, cfg.workload);
    let untraced = Tracer::new(false, cfg.workload);
    let mut s = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first_detail: Option<String> = None;
    let mut queue = String::from("unknown");
    let mut leftover = Leftover::None;
    let mut n = 0usize;

    while n < min_commands || start.elapsed().as_secs_f64() + median(&s.wall) <= budget {
        sys::trim_heap();
        let traced = cfg.trace && n.is_multiple_of(2);
        let tr = if traced { &tracer } else { &untraced };
        let cpu0 = sys::cpu_s();
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            tr.span("command", "bench", None, |root| {
                workloads::command(cfg.workload, cfg.seed, cfg.workers, tr, root)
            })
        }));
        let wall = t0.elapsed().as_secs_f64();
        let cpu = sys::cpu_s() - cpu0;
        n += 1;
        s.wall.push(wall);
        s.cpu.push(cpu);
        if cfg.trace {
            if traced {
                &mut s.traced_wall
            } else {
                &mut s.untraced_wall
            }
            .push(wall);
        }
        let cmd: Command = match result {
            Ok(cmd) => cmd,
            Err(_) => {
                // Every output of a command that panicked is missing.
                let lost = expected.map_or(1, |e| e.len() as u64).max(1);
                attempted += lost;
                failed += lost;
                continue;
            }
        };
        let (a, mut f) = check(&cmd.units, expected);
        match &first_detail {
            None => first_detail = Some(cmd.detail.clone()),
            // A command must repeat its outputs exactly within a run.
            Some(first) if *first != cmd.detail => f = a,
            Some(_) => {}
        }
        attempted += a;
        failed += f;
        queue = cmd.queue.clone();
        for group in &mut s.setup {
            group.push(workloads::setup_s(cfg.workload, cfg.seed, cfg.workers));
        }
        s.events_rate.push(cmd.sim_events as f64 / wall);
        s.points_rate.push(cmd.points as f64 / wall);
        if traced {
            for (k, v) in &cmd.layer {
                s.layer.entry(k).or_default().push(*v);
            }
            leftover = cmd.leftover;
        }
    }

    let digest = fnv1a(first_detail.as_deref().unwrap_or(""));
    let metrics = if cfg.trace {
        let extras = catch_unwind(AssertUnwindSafe(|| workloads::extras(&leftover, &tracer)));
        let extras = match extras {
            Ok(e) => {
                let (a, f) = check(&e.units, None);
                attempted += a;
                failed += f;
                e.layer
            }
            Err(_) => {
                attempted += 1;
                failed += 1;
                BTreeMap::new()
            }
        };
        layer_metrics(cfg, &s, &extras, &tracer.spans())
    } else {
        let e2e = [
            median(&s.wall),
            median(&s.cpu),
            median(&s.setup.iter().map(|g| mean(g)).collect::<Vec<_>>()),
            median(&s.events_rate),
            median(&s.points_rate),
            sys::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    Report {
        attempted,
        failed,
        metrics,
        samples: n,
        queue,
        digest,
        pinned: expected.is_some(),
        chrome_trace: cfg.trace.then(|| tracer.chrome_json()),
    }
}

/// Reduces a traced run to [`PER_LAYER`].
fn layer_metrics(
    cfg: &RunConfig,
    s: &Samples,
    extras: &BTreeMap<&'static str, f64>,
    spans: &[Span],
) -> Vec<(&'static str, f64, &'static str)> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (k, v) in &s.layer {
        m.insert(k, median(v));
    }
    m.extend(extras.iter().map(|(k, v)| (*k, *v)));
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);

    // Per traced command: span time by name, and self time by layer.
    let roots: Vec<&Span> = spans.iter().filter(|sp| sp.name == "command").collect();
    let per_cmd = roots.len().max(1) as f64;
    let parents: BTreeMap<u64, Option<u64>> = spans.iter().map(|sp| (sp.id, sp.parent)).collect();
    let root_ids: BTreeSet<u64> = roots.iter().map(|r| r.id).collect();
    let in_command = |sp: &Span| {
        let mut cur = Some(sp.id);
        while let Some(id) = cur {
            if root_ids.contains(&id) {
                return true;
            }
            cur = parents.get(&id).copied().flatten();
        }
        false
    };
    let command_spans: Vec<Span> = spans.iter().filter(|sp| in_command(sp)).cloned().collect();
    let per = |name: &str| trace::total_s(&command_spans, name) / per_cmd;
    let selfs = trace::self_times(&command_spans);
    for (layer, secs) in trace::layer_self_s(&command_spans) {
        if LAYERS.contains(&layer) {
            m.insert(self_metric(layer), secs / per_cmd);
        }
    }
    let unexplained: f64 = roots.iter().map(|r| selfs[&r.id] / r.dur_s()).sum::<f64>() / per_cmd;
    m.insert("trace.unexplained_pct", unexplained * 100.0);
    let untraced = median(&s.untraced_wall);
    m.insert(
        "trace.overhead_pct",
        (median(&s.traced_wall) - untraced) / untraced * 100.0,
    );

    m.insert("hw.topology_build_s", per("hw.topology_build"));
    m.insert("wtql.parse_s", per("wtql.parse"));
    m.insert("wtql.plan_s", per("wtql.plan"));
    m.insert("wtql.exec_s", per("wtql.run_query"));
    let workers = cfg.workers as f64;
    match cfg.workload {
        "scale_avail" | "scale_slice" => {
            // Per replication: the extras time one call per replication
            // seed and report the mean, and a command runs them all.
            let reps = get(&m, "cluster.replications").max(1.0);
            let observed = per("cluster.run_observed") / reps;
            let loop_s = (observed - get(&m, "cluster.avail_setup_s")).max(f64::MIN_POSITIVE);
            m.insert("cluster.avail_loop_s", loop_s);
            m.insert("des.events_per_s", get(&m, "des.events") / reps / loop_s);
            let plain = get(&m, "cluster.run_s");
            m.insert("obs.probe_overhead_pct", (observed - plain) / plain * 100.0);
        }
        "design_sweep" | "guided_sweep" => {
            let busy = get(&m, "cluster.avail_busy_s") + get(&m, "cluster.perf_busy_s");
            m.insert("des.events_per_s", get(&m, "des.events") / busy);
            let perf = get(&m, "cluster.perf_busy_s");
            if perf > 0.0 {
                let rate = get(&m, "cluster.perf_requests") / perf;
                m.insert("cluster.perf_requests_per_s", rate);
            }
            m.insert(
                "core.farm_busy_ratio",
                busy / (get(&m, "wtql.exec_s") * workers),
            );
        }
        "fig1_curves" => {
            let unavail = get(&m, "cluster.unavail_s");
            let trials = get(&m, "cluster.unavail_trials");
            m.insert("cluster.unavail_trials_per_s", trials / unavail);
            m.insert(
                "core.farm_busy_ratio",
                unavail / (per("core.fig1_compute") * workers),
            );
        }
        _ => {}
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, get(&m, name), unit))
        .collect()
}

/// The `<layer>.self_s` entry of [`PER_LAYER`].
fn self_metric(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_suffix(".self_s") == Some(layer))
        .expect("every reported layer has a self-time metric")
}

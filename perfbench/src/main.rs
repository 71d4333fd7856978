//! `wt-perfbench` — the wind tunnel's end-to-end benchmark.
//!
//! ```text
//! wt-perfbench --workload <scale_avail|scale_slice|design_sweep|guided_sweep|fig1_curves|all>
//!              [--seed N] [--seconds S] [--trace 0|1]
//! wt-perfbench --workload <name> --pin FIRST LAST > pinned/<name>.txt
//! ```
//!
//! A run repeats the workload's user command for `S` seconds, checks every
//! command's outputs, and prints each metric with its unit; the last line
//! of stdout is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones and writes a Chrome trace to `.bench_out/`.
//! `--workload all` runs every workload, each in its own process.
//! `--pin` prints the outputs of seeds FIRST..=LAST in the pinned format.

use std::io::Write as _;
use std::process::ExitCode;
use wt_perfbench::pinned::Pinned;
use wt_perfbench::run::{self, RunConfig};
use wt_perfbench::trace::Tracer;
use wt_perfbench::workloads::{self, WORKLOADS};

const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: Option<(u64, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        pin: None,
    };
    let mut it = argv.iter();
    let num = |v: Option<&String>, flag: &str| -> Result<u64, String> {
        v.and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} takes a non-negative integer"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = it.next().cloned().unwrap_or_default(),
            "--seed" => args.seed = num(it.next(), "--seed")?,
            "--seconds" => args.seconds = num(it.next(), "--seconds")?.max(1) as f64,
            "--trace" => args.trace = num(it.next(), "--trace")? != 0,
            "--pin" => args.pin = Some((num(it.next(), "--pin")?, num(it.next(), "--pin")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Farm workers: two, or fewer on a smaller host.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn tool_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit, when run from the root of a git checkout.
fn commit() -> String {
    if std::path::Path::new(".git").exists() {
        tool_output("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn run_one(workload: &'static str, args: &Args) -> ExitCode {
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        workers: workers(),
    };
    let report = run::run(&cfg, &Pinned::committed(workload));

    println!(
        "workload {workload}, seed {}, {} command(s) in {} s, trace {}",
        cfg.seed, report.samples, cfg.seconds, cfg.trace as u8
    );
    for (name, value, unit) in &report.metrics {
        println!("metric: {name} {value} {unit}");
    }
    println!(
        "failed_ratio: {} ({} of {} checked outputs)",
        report.failed_ratio(),
        report.failed,
        report.attempted
    );
    println!(
        "digest: {workload} seed {} {:016x} ({})",
        cfg.seed,
        report.digest,
        if report.pinned {
            "pinned seed"
        } else {
            "held-out seed: compare across commits"
        }
    );
    let provenance = format!(
        "{{\"commit\":{},\"nproc\":{},\"rustc\":{},\"workers\":{},\"queue_backend\":{},\
         \"samples\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"pinned\":{},\"digest\":\"{:016x}\"}}",
        json_str(&commit()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&tool_output("rustc", &["-V"])),
        cfg.workers,
        json_str(&report.queue),
        report.samples,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        report.pinned,
        report.digest,
    );
    println!("provenance: {provenance}");

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    let stem = format!("{workload}-seed{}-trace{}", cfg.seed, cfg.trace as u8);
    let saved = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            format!("{OUT_DIR}/{stem}.json"),
            format!("{{\"provenance\":{provenance},\"result\":{result}}}\n"),
        )?;
        if let Some(trace) = &report.chrome_trace {
            std::fs::write(format!("{OUT_DIR}/trace-{stem}.json"), trace)?;
        }
        Ok(())
    });
    if let Err(e) = saved {
        eprintln!("could not save results under {OUT_DIR}/: {e}");
    }
    println!("{result}");
    ExitCode::SUCCESS
}

/// Runs every workload in its own process (so each peak RSS is its own)
/// and sums their outcomes.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                &(args.trace as u8).to_string(),
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("the benchmark can start itself");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut done = false;
        for line in stdout.lines() {
            if let Some(rest) = line.strip_prefix("metric: ") {
                let f: Vec<&str> = rest.split(' ').collect();
                println!("{w:<14} {:<32} {:>16} {}", f[0], f[1], f[2]);
                metrics.push(format!(
                    "\"{w}.{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    f[0], f[1], f[2]
                ));
            } else if let Some(rest) = line.strip_prefix("failed_ratio: ") {
                println!("{w:<14} {:<32} {rest}", "failed_ratio");
                let counts: Vec<u64> = rest
                    .split(|c: char| !c.is_ascii_digit())
                    .filter_map(|t| t.parse().ok())
                    .collect();
                // "<ratio> (<failed> of <attempted> checked outputs)"
                if let [.., f, a] = counts[..] {
                    failed += f;
                    attempted += a;
                    done = true;
                }
            }
        }
        if !out.status.success() || !done {
            eprintln!("workload {w} did not finish");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

/// Prints the outputs of seeds `first..=last` in the pinned format. A
/// guided sweep must agree with the same query run exhaustively: the
/// same verdicts and winning row, and the same metrics on every row it
/// simulated with all replications or screened.
fn pin(workload: &'static str, first: u64, last: u64) -> ExitCode {
    let off = Tracer::new(false, workload);
    let mut out = std::io::stdout().lock();
    for seed in first..=last {
        let units = workloads::command(workload, seed, workers(), &off, None).units;
        if workload == "guided_sweep" && !guided_matches_exhaustive(seed) {
            eprintln!("seed {seed}: the guided sweep differs from the exhaustive run");
            return ExitCode::FAILURE;
        }
        if units
            .iter()
            .any(|(k, v)| k.starts_with(workloads::INVARIANT) && v != "true")
        {
            eprintln!("seed {seed}: an invariant fails; refusing to pin");
            return ExitCode::FAILURE;
        }
        write!(out, "{}", Pinned::render(seed, &units)).expect("stdout is writable");
        eprintln!("pinned {workload} seed {seed}");
    }
    ExitCode::SUCCESS
}

fn guided_matches_exhaustive(seed: u64) -> bool {
    let text = workloads::guided_query(seed);
    let base = workloads::stress_base(seed);
    let guided = workloads::run_text(&text, &base, workers());
    let exhaustive = workloads::run_text(&text.replace("GUIDED ", ""), &base, workers());
    let same_metrics = guided.rows.iter().zip(&exhaustive.rows).all(|(g, e)| {
        let full = !(g.screened || g.early_stopped || g.aborted || g.pruned);
        !(full || g.screened) || g.metrics.iter().all(|(k, v)| e.metrics.get(k) == Some(v))
    });
    same_metrics
        && guided.rows.len() == exhaustive.rows.len()
        && workloads::verdict_units(&guided) == workloads::verdict_units(&exhaustive)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let workload = *WORKLOADS
        .iter()
        .find(|w| **w == args.workload)
        .expect("validated above");
    match args.pin {
        Some((first, last)) => pin(workload, first, last),
        None => run_one(workload, &args),
    }
}

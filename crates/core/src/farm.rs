//! The run farm: the one deterministic parallel executor for simulation
//! runs.
//!
//! Every entry point that sweeps a set of runs — the figure binaries, the
//! experiment (`e*`) binaries, and the WTQL executor — dispatches onto
//! [`Farm`]'s one scheduler instead of hand-rolling a thread pool. The
//! farm guarantees that **results are bitwise-identical regardless of
//! worker count or scheduling**, because
//!
//! 1. every run's RNG seed is derived from the *item index* alone (a
//!    splitmix64 substream of the root seed, see [`substream_seed`]), not
//!    from which worker picks the item up, and
//! 2. results come back in item order, and every run records into a
//!    private [`StoreShard`]; the shards merge into the store in item
//!    order after the last run finishes.
//!
//! Workers claim one item at a time under one mutex. [`Farm::run`] and
//! [`Farm::run_recorded`] claim in plan (index) order;
//! [`SweepRunner::run_points`](crate::sweep::SweepRunner::run_points)
//! adds dependency lists that hold an item back until the items it
//! depends on have finished, and a rank that picks among the eligible
//! ones. A claim in plan order pops the lowest ready index off an ordered
//! set, so its cost does not grow with the item count.
//!
//! A panic in any run stops all further claims: once the runs in flight
//! finish, the first panic payload resumes on the caller and the store is
//! left untouched.
//!
//! ```
//! use windtunnel::farm::Farm;
//!
//! let farm = Farm::new(4);
//! let squares = farm.run(42, &[1u64, 2, 3, 4, 5], |&x, _ctx| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Condvar, Mutex};
use wt_store::{SharedStore, StoreShard};

/// Per-run context handed to the work closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunCtx {
    /// This run's position in the item slice (also the result order).
    pub index: usize,
    /// This run's RNG seed: a substream of the farm call's root seed,
    /// derived from `index` alone so scheduling cannot perturb it.
    pub seed: u64,
}

/// Derives the seed for run `index` from `root`: both words pass through
/// splitmix64 finalizers, so adjacent indices (and adjacent roots) land on
/// uncorrelated streams. Matches the engine convention of one independent
/// RNG substream per run.
pub fn substream_seed(root: u64, index: u64) -> u64 {
    mix64(root ^ mix64(index.wrapping_add(0x9e37_79b9_7f4a_7c15)))
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A parallel run executor with a fixed worker count.
#[derive(Debug, Clone)]
pub struct Farm {
    workers: usize,
    heartbeat: bool,
}

impl Default for Farm {
    /// A farm sized to the host (`from_env`).
    fn default() -> Self {
        Farm::from_env()
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Scheduler state, held under one mutex.
struct Sched {
    /// Eligible, unclaimed item indices.
    ready: BTreeSet<usize>,
    /// Unfinished-dependency count per item.
    remaining: Vec<usize>,
    /// Items claimed by a worker so far (claimed ⇒ eventually finishes,
    /// unless a run panics).
    issued: usize,
    /// The first panic payload caught from a run; once set, workers stop
    /// claiming and the caller resumes the unwind.
    panic: Option<Box<dyn Any + Send>>,
}

impl Sched {
    /// Takes the next item off the ready set: the lowest index, or with a
    /// `rank` the index maximizing it, ties toward the lowest index
    /// (`f64::total_cmp`, so a NaN-scoring rank is still deterministic).
    fn claim(&mut self, rank: Option<&(dyn Fn(usize) -> f64 + Sync)>) -> Option<usize> {
        let Some(rank) = rank else {
            return self.ready.pop_first();
        };
        let (_, i) = self
            .ready
            .iter()
            .map(|&i| (rank(i), i))
            .max_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)))?;
        self.ready.remove(&i);
        Some(i)
    }
}

impl Farm {
    /// A farm with `workers` threads (0 is clamped to 1).
    pub fn new(workers: usize) -> Self {
        Farm {
            workers: workers.max(1),
            heartbeat: false,
        }
    }

    /// A single-worker farm.
    pub fn serial() -> Self {
        Farm::new(1)
    }

    /// Worker count from the `WT_WORKERS` environment variable when set,
    /// otherwise the host's available parallelism. A set-but-unusable
    /// value (non-numeric, or `0`) falls back to the host count and warns
    /// once on stderr instead of being silently swallowed — the shared
    /// [`crate::knobs`] behavior, mirrored by `WT_PARTITIONS`. Setting
    /// `WT_PROGRESS` (to anything but `0`) additionally turns on the
    /// [heartbeat](Self::with_heartbeat).
    pub fn from_env() -> Self {
        let workers = crate::knobs::env_count("WT_WORKERS", "worker", "host parallelism")
            .unwrap_or_else(host_parallelism);
        let progress = std::env::var("WT_PROGRESS").is_ok_and(|v| v != "0");
        Farm::new(workers).with_heartbeat(progress)
    }

    /// Enables (or disables) the stderr progress heartbeat: roughly one
    /// line per second from the calling thread — runs done/total, rate,
    /// ETA. Purely observational: workers never see it and result bytes
    /// are unaffected (see `heartbeat_does_not_change_results`).
    pub fn with_heartbeat(mut self, on: bool) -> Self {
        self.heartbeat = on;
        self
    }

    /// Number of worker threads this farm uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `work` over every item and collects the results in item order.
    ///
    /// `root_seed` seeds each run's [`RunCtx::seed`] substream. The output
    /// is bitwise-identical for any worker count.
    pub fn run<T, R, F>(&self, root_seed: u64, items: &[T], work: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, RunCtx) -> R + Sync,
    {
        self.schedule(
            root_seed,
            items,
            &[],
            None,
            |_| {},
            |item, ctx, _| work(item, ctx),
        )
        .into_iter()
        .map(|(result, _)| result)
        .collect()
    }

    /// Runs `work` over every item with a private [`StoreShard`] per run,
    /// merging the shards into `store` **in item order** after the last
    /// run finishes — the lock-free recording path.
    ///
    /// Workers never touch the shared store: every record a run emits is
    /// a plain `Vec` push into its own shard. Record ids and snapshot
    /// order in `store` are therefore bitwise-identical for any worker
    /// count, exactly like the run results themselves. When the heartbeat
    /// is on, it skims event counts and per-run wall time (plus
    /// per-partition event totals) off each finished run's shard.
    ///
    /// ```
    /// use windtunnel::farm::Farm;
    /// use wt_store::{RecordSink, RunRecord, SharedStore};
    ///
    /// let store = SharedStore::new();
    /// let items: Vec<u64> = (0..10).collect();
    /// let out = Farm::new(4).run_recorded(7, &items, &store, |&x, ctx, shard| {
    ///     shard.record(RunRecord::new("sweep", ctx.seed).metric("x", x as f64));
    ///     x * 2
    /// });
    /// assert_eq!(out.len(), 10);
    /// // Ids follow item order regardless of which worker ran what.
    /// let ids: Vec<u64> = store.snapshot().iter().map(|r| r.id).collect();
    /// assert_eq!(ids, (0..10).collect::<Vec<_>>());
    /// ```
    pub fn run_recorded<T, R, F>(
        &self,
        root_seed: u64,
        items: &[T],
        store: &SharedStore,
        work: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, RunCtx, &StoreShard) -> R + Sync,
    {
        self.schedule(root_seed, items, &[], None, |_| {}, work)
            .into_iter()
            .map(|(result, shard)| {
                store.merge_shard(shard);
                result
            })
            .collect()
    }

    /// The scheduler behind every entry point: runs `work` over every
    /// item on `workers` threads, each run with its own [`StoreShard`],
    /// and returns `(result, shard)` pairs in item order for the caller
    /// to merge.
    ///
    /// `deps[i]` (an empty slice means no dependencies at all) lists items
    /// that must finish before item `i` may be claimed; each must be
    /// strictly smaller than `i` (asserted), which keeps the graph acyclic
    /// and the scheduler stall-free. Without a `rank`, ready items are
    /// claimed in index order; with one, `rank` is consulted at every
    /// claim. `observe` feeds extra totals into the heartbeat after each
    /// finished run's shard telemetry; it runs on the calling thread and
    /// only when the heartbeat is on.
    ///
    /// A panic in `work` stops every further claim and resumes on the
    /// calling thread once the workers have exited.
    pub(crate) fn schedule<T, R, F>(
        &self,
        root_seed: u64,
        items: &[T],
        deps: &[Vec<usize>],
        rank: Option<&(dyn Fn(usize) -> f64 + Sync)>,
        mut observe: impl FnMut(&mut wt_obs::Heartbeat),
        work: F,
    ) -> Vec<(R, StoreShard)>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, RunCtx, &StoreShard) -> R + Sync,
    {
        let n = items.len();
        let mut remaining = vec![0; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ds) in deps.iter().enumerate() {
            remaining[i] = ds.len();
            for &d in ds {
                assert!(d < i, "dep {d} of point {i} is not strictly earlier");
                dependents[d].push(i);
            }
        }
        let state = Mutex::new(Sched {
            ready: (0..n).filter(|&i| remaining[i] == 0).collect(),
            remaining,
            issued: 0,
            panic: None,
        });
        let cv = Condvar::new();
        // The heartbeat lives on the calling thread only and writes to
        // stderr, so result bytes are unaffected.
        let mut beat = self.heartbeat.then(|| wt_obs::Heartbeat::start(n));
        let mut slots: Vec<Option<(R, StoreShard)>> = (0..n).map(|_| None).collect();
        let (tx, rx) = mpsc::channel::<(usize, R, StoreShard)>();
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                let tx = tx.clone();
                let (state, cv, work, dependents) = (&state, &cv, &work, &dependents);
                scope.spawn(move || loop {
                    let i = {
                        let mut s = state.lock().expect("no worker panics holding the lock");
                        loop {
                            if s.issued == n || s.panic.is_some() {
                                return;
                            }
                            if let Some(i) = s.claim(rank) {
                                s.issued += 1;
                                break i;
                            }
                            // Nothing is ready but items remain: a claimed
                            // item is still running (deps chain down to an
                            // initially-ready one) and notifies on finishing.
                            s = cv.wait(s).expect("no worker panics holding the lock");
                        }
                    };
                    let shard = StoreShard::new();
                    let ctx = RunCtx {
                        index: i,
                        seed: substream_seed(root_seed, i as u64),
                    };
                    let result =
                        panic::catch_unwind(AssertUnwindSafe(|| work(&items[i], ctx, &shard)));
                    let mut s = state.lock().expect("no worker panics holding the lock");
                    match result {
                        Ok(r) => {
                            for &j in &dependents[i] {
                                s.remaining[j] -= 1;
                                if s.remaining[j] == 0 {
                                    s.ready.insert(j);
                                }
                            }
                            drop(s);
                            cv.notify_all();
                            if tx.send((i, r, shard)).is_err() {
                                return; // receiver gone: caller is unwinding
                            }
                        }
                        Err(payload) => {
                            // The item's dependents can never become ready:
                            // wake every waiting worker so it sees the
                            // failure and exits.
                            s.panic.get_or_insert(payload);
                            drop(s);
                            cv.notify_all();
                            return;
                        }
                    }
                });
            }
            drop(tx); // the receive loop ends when the last worker exits
            for (i, r, shard) in rx {
                if let Some(b) = beat.as_mut() {
                    shard.peek(|rec| {
                        if let Some(t) = &rec.telemetry {
                            b.observe_run(t.events, t.wall.wall_us);
                            observe_partition_marks(b, &t.marks);
                        }
                    });
                    observe(b);
                    if let Some(line) = b.tick() {
                        eprintln!("{line}");
                    }
                }
                slots[i] = Some((r, shard));
            }
        });
        if let Some(payload) = state.into_inner().expect("workers have exited").panic {
            panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every item finished"))
            .collect()
    }
}

/// Feeds a partitioned run's `partition/<i>` telemetry marks into the
/// heartbeat as per-partition event totals. Indices are parsed
/// numerically — the marks map is ordered by string, which would put
/// `partition/10` before `partition/2`. Runs without partition marks
/// (serial execution) feed nothing and leave the progress line as is.
fn observe_partition_marks(beat: &mut wt_obs::Heartbeat, marks: &BTreeMap<String, u64>) {
    let mut per_part: Vec<u64> = Vec::new();
    for (key, &events) in marks {
        let Some(idx) = key
            .strip_prefix("partition/")
            .and_then(|i| i.parse::<usize>().ok())
        else {
            continue;
        };
        if per_part.len() <= idx {
            per_part.resize(idx + 1, 0);
        }
        per_part[idx] = events;
    }
    if !per_part.is_empty() {
        beat.observe_partitions(&per_part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn collects_in_item_order() {
        let items: Vec<u64> = (0..500).collect();
        let farm = Farm::new(8);
        let out = farm.run(7, &items, |&x, _| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn identical_results_for_any_worker_count() {
        let items: Vec<u64> = (0..200).collect();
        let gold = Farm::new(1).run(99, &items, |&x, ctx| {
            (ctx.index, ctx.seed, x.wrapping_mul(ctx.seed))
        });
        for workers in [2, 3, 8] {
            let got = Farm::new(workers).run(99, &items, |&x, ctx| {
                (ctx.index, ctx.seed, x.wrapping_mul(ctx.seed))
            });
            assert_eq!(got, gold, "worker count {workers} diverged");
        }
    }

    #[test]
    fn seeds_are_index_derived_and_distinct() {
        let a = substream_seed(1, 0);
        let b = substream_seed(1, 1);
        let c = substream_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable across calls.
        assert_eq!(a, substream_seed(1, 0));
    }

    #[test]
    fn all_items_executed_exactly_once() {
        let hits = AtomicU64::new(0);
        let items: Vec<u64> = (0..1000).collect();
        Farm::new(6).run(3, &items, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn recorded_run_ids_are_worker_independent() {
        use wt_store::{RecordSink, RunRecord, SharedStore};
        let items: Vec<u64> = (0..100).collect();
        let gold_store = SharedStore::new();
        let gold = Farm::new(1).run_recorded(5, &items, &gold_store, |&x, ctx, shard| {
            // Variable record count per run: exercises merge alignment.
            for rep in 0..=(x % 3) {
                shard.record(
                    RunRecord::new("farm-test", ctx.seed)
                        .param("x", x as f64)
                        .metric("rep", rep as f64),
                );
            }
            x
        });
        let gold_snap = gold_store.snapshot();
        for workers in [4, 8] {
            let store = SharedStore::new();
            let out = Farm::new(workers).run_recorded(5, &items, &store, |&x, ctx, shard| {
                for rep in 0..=(x % 3) {
                    shard.record(
                        RunRecord::new("farm-test", ctx.seed)
                            .param("x", x as f64)
                            .metric("rep", rep as f64),
                    );
                }
                x
            });
            assert_eq!(out, gold, "results diverged at {workers} workers");
            assert_eq!(
                store.snapshot(),
                gold_snap,
                "record ids/order diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn empty_and_single_item() {
        let farm = Farm::new(4);
        let empty: Vec<u64> = Vec::new();
        assert!(farm.run(0, &empty, |&x, _| x).is_empty());
        assert_eq!(farm.run(0, &[5u64], |&x, _| x + 1), vec![6]);
    }

    #[test]
    fn wt_workers_parsing_accepts_counts_and_flags_garbage() {
        // `Farm::from_env` parses WT_WORKERS through the shared knob
        // helper; pin the farm-facing messages here.
        let parse = |v| crate::knobs::parse_count("WT_WORKERS", "worker", v);
        assert_eq!(parse(None), Ok(None));
        assert_eq!(parse(Some("4")), Ok(Some(4)));
        assert_eq!(parse(Some(" 8 ")), Ok(Some(8)));
        // Set-but-unusable values are reported, not silently swallowed.
        let zero = parse(Some("0")).unwrap_err();
        assert!(zero.contains("WT_WORKERS=0"), "message: {zero}");
        assert!(zero.contains("worker"), "message: {zero}");
        let junk = parse(Some("many")).unwrap_err();
        assert!(junk.contains("not a number"), "message: {junk}");
        let negative = parse(Some("-2")).unwrap_err();
        assert!(negative.contains("not a number"), "message: {negative}");
    }

    #[test]
    fn heartbeat_does_not_change_results() {
        let items: Vec<u64> = (0..200).collect();
        let quiet = Farm::new(4).run(17, &items, |&x, ctx| x.wrapping_mul(ctx.seed));
        let chatty = Farm::new(4)
            .with_heartbeat(true)
            .run(17, &items, |&x, ctx| x.wrapping_mul(ctx.seed));
        assert_eq!(chatty, quiet);
        // And at one worker.
        let serial = Farm::serial()
            .with_heartbeat(true)
            .run(17, &items, |&x, ctx| x.wrapping_mul(ctx.seed));
        assert_eq!(serial, quiet);
    }

    #[test]
    fn recorded_heartbeat_skims_telemetry_without_changing_results() {
        use wt_obs::RunTelemetry;
        use wt_store::{RecordSink, RunRecord, SharedStore};
        let items: Vec<u64> = (0..50).collect();
        let work = |&x: &u64, ctx: RunCtx, shard: &StoreShard| {
            let mut t = RunTelemetry {
                events: 100 + x,
                ..Default::default()
            };
            t.wall.wall_us = 1_000;
            shard.record(
                RunRecord::new("hb-test", ctx.seed)
                    .metric("x", x as f64)
                    .telemetry(t),
            );
            x
        };
        let quiet_store = SharedStore::new();
        let quiet = Farm::new(4).run_recorded(11, &items, &quiet_store, work);
        for workers in [1, 4] {
            let store = SharedStore::new();
            let out = Farm::new(workers)
                .with_heartbeat(true)
                .run_recorded(11, &items, &store, work);
            assert_eq!(out, quiet, "heartbeat changed results at {workers} workers");
            assert_eq!(
                store.snapshot(),
                quiet_store.snapshot(),
                "heartbeat changed records at {workers} workers"
            );
        }
    }

    #[test]
    fn partition_marks_feed_heartbeat_without_changing_results() {
        use wt_obs::RunTelemetry;
        use wt_store::{RecordSink, RunRecord, SharedStore};
        let items: Vec<u64> = (0..30).collect();
        let work = |&x: &u64, ctx: RunCtx, shard: &StoreShard| {
            let mut t = RunTelemetry {
                events: 600 + x,
                ..Default::default()
            };
            t.wall.wall_us = 2_000;
            t.marks.insert("partition/0".into(), 200);
            t.marks.insert("partition/1".into(), 400 + x);
            shard.record(
                RunRecord::new("hb-part-test", ctx.seed)
                    .metric("x", x as f64)
                    .telemetry(t),
            );
            x
        };
        let quiet_store = SharedStore::new();
        let quiet = Farm::new(4).run_recorded(13, &items, &quiet_store, work);
        let store = SharedStore::new();
        let out = Farm::new(4)
            .with_heartbeat(true)
            .run_recorded(13, &items, &store, work);
        assert_eq!(out, quiet, "partition skim changed results");
        assert_eq!(
            store.snapshot(),
            quiet_store.snapshot(),
            "partition skim changed records"
        );
    }

    #[test]
    fn partition_marks_parse_numerically() {
        // `partition/10` sorts before `partition/2` in the marks map;
        // the skim must order by numeric index, not string order, and
        // must ignore non-partition and malformed keys.
        let mut beat = wt_obs::Heartbeat::with_interval(1, 0.0);
        let mut marks = BTreeMap::new();
        for (k, v) in [
            ("partition/0", 1u64),
            ("partition/2", 3),
            ("partition/10", 11),
            ("partition/oops", 99),
            ("object_lost", 7),
        ] {
            marks.insert(k.to_string(), v);
        }
        observe_partition_marks(&mut beat, &marks);
        let line = beat.tick_at(1.0).expect("interval 0 always emits");
        assert!(line.contains("parts=11 "), "{line}");
        // Index 10 landed in slot 10 (value 11), not slot 2.
        assert!(line.ends_with("0 0 0 0 0 0 0 11]"), "{line}");

        // Serial runs (no partition marks) feed nothing.
        let mut beat = wt_obs::Heartbeat::with_interval(1, 0.0);
        let mut plain = BTreeMap::new();
        plain.insert("object_lost".to_string(), 7u64);
        observe_partition_marks(&mut beat, &plain);
        let line = beat.tick_at(1.0).expect("interval 0 always emits");
        assert!(!line.contains("parts="), "{line}");
    }
}

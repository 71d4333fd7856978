//! Lock-free per-worker recording: [`StoreShard`] and the [`RecordSink`]
//! abstraction over "somewhere a run can record itself".
//!
//! A DC-scale sweep produces records from every farm worker at once; a
//! single mutex-guarded store serializes the farm on its hottest write
//! path. The sharded flow splits recording from merging:
//!
//! 1. **Record** — each run (or worker chunk) buffers its records into a
//!    private [`StoreShard`]: a plain `Vec` push behind a `RefCell`, no
//!    lock, no atomic, no contention.
//! 2. **Merge** — shards travel to the calling thread with the run
//!    results and, after the last run finishes, are absorbed into the
//!    merged [`ResultStore`] **in run-index order** (`windtunnel::farm`
//!    merges in exactly that order), so final
//!    record ids and snapshot order are bitwise-identical for any worker
//!    count — the same guarantee the farm already makes for statistics.
//!
//! [`RecordSink`] is what producers write against: the wind tunnel's
//! `run_*` engines take `&dyn RecordSink`, so the same code records into
//! a worker shard during a farm sweep and directly into a
//! [`SharedStore`] in serial use.
//!
//! [`ResultStore`]: crate::store::ResultStore
//! [`SharedStore`]: crate::store::SharedStore

use crate::record::RunRecord;
use crate::store::SharedStore;
use std::cell::RefCell;

/// Anything a simulation run can record into.
pub trait RecordSink {
    /// Records one run. Implementations assign ids at their own pace:
    /// a [`SharedStore`] immediately, a [`StoreShard`] at merge time.
    fn record(&self, record: RunRecord);
}

/// A private, lock-free record buffer for one worker (or one run).
///
/// Appends are plain `Vec::push`es through a `RefCell` — interior
/// mutability so the farm's shared `Fn` closures can record without
/// `&mut`, but never shared across threads (the shard itself moves to
/// the calling thread for merging). Ids are not assigned here: the merged
/// store assigns them in merge order, which the farm makes
/// deterministic.
#[derive(Debug, Default)]
pub struct StoreShard {
    records: RefCell<Vec<RunRecord>>,
}

impl StoreShard {
    /// An empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.records.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.borrow().is_empty()
    }

    /// Consumes the shard, yielding its records in recording order.
    pub fn into_records(self) -> Vec<RunRecord> {
        self.records.into_inner()
    }

    /// Visits each buffered record in recording order without consuming
    /// the shard — e.g. the farm's heartbeat skimming telemetry off a
    /// shard before merging it.
    pub fn peek<F: FnMut(&RunRecord)>(&self, mut f: F) {
        for record in self.records.borrow().iter() {
            f(record);
        }
    }
}

impl RecordSink for StoreShard {
    fn record(&self, record: RunRecord) {
        self.records.borrow_mut().push(record);
    }
}

impl RecordSink for SharedStore {
    fn record(&self, record: RunRecord) {
        self.append(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ResultStore;

    fn rec(exp: &str, seed: u64) -> RunRecord {
        RunRecord::new(exp, seed).metric("m", seed as f64)
    }

    #[test]
    fn shard_buffers_in_order_without_ids() {
        let shard = StoreShard::new();
        assert!(shard.is_empty());
        shard.record(rec("a", 1));
        shard.record(rec("a", 2));
        assert_eq!(shard.len(), 2);
        let records = shard.into_records();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.id == 0), "ids assigned at merge");
        assert_eq!(records[0].seed, 1);
        assert_eq!(records[1].seed, 2);
    }

    #[test]
    fn merge_assigns_ids_in_shard_order() {
        let mut store = ResultStore::new();
        let a = StoreShard::new();
        a.record(rec("x", 10));
        a.record(rec("x", 11));
        let b = StoreShard::new();
        b.record(rec("y", 20));
        assert_eq!(store.merge_shard(a), 2);
        assert_eq!(store.merge_shard(b), 1);
        let seeds: Vec<(u64, u64)> = store.records().map(|r| (r.id, r.seed)).collect();
        assert_eq!(seeds, vec![(0, 10), (1, 11), (2, 20)]);
        assert_eq!(store.by_experiment("x").len(), 2);
    }

    #[test]
    fn shared_store_merges_shards_and_serves_as_sink() {
        let store = SharedStore::new();
        RecordSink::record(&store, rec("direct", 1));
        let shard = StoreShard::new();
        shard.record(rec("sharded", 2));
        shard.record(rec("sharded", 3));
        assert_eq!(store.merge_shard(shard), 2);
        assert_eq!(store.len(), 3);
        let ids: Vec<u64> = store.snapshot().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}

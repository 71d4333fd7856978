//! End-to-end benchmark of the wind tunnel. See `README.md` beside this
//! crate for the workloads, the metrics and what each layer metric
//! should move.

pub mod pinned;
pub mod run;
pub mod sys;
pub mod trace;
pub mod workloads;

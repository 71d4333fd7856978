//! Pinned answers and the output check.
//!
//! `pinned/<workload>.txt` holds, for a range of seeds, every checked
//! unit a command of that workload produced at the commit that pinned
//! it, one `seed<TAB>key<TAB>value` line each. Invariant units
//! (`check:...`) are not pinned: they must read `true` on every seed.

use crate::workloads::INVARIANT;
use std::collections::BTreeMap;

pub type Units = Vec<(String, String)>;

#[derive(Debug, Clone, Default)]
pub struct Pinned {
    pub by_seed: BTreeMap<u64, Units>,
}

impl Pinned {
    pub fn parse(text: &str) -> Pinned {
        let mut by_seed: BTreeMap<u64, Units> = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let mut f = line.splitn(3, '\t');
            let (Some(seed), Some(key), Some(value)) = (f.next(), f.next(), f.next()) else {
                panic!("malformed pinned line: {line:?}");
            };
            let seed = seed.parse().expect("pinned seeds are integers");
            by_seed
                .entry(seed)
                .or_default()
                .push((key.to_string(), value.to_string()));
        }
        Pinned { by_seed }
    }

    /// The answers committed for `workload`.
    pub fn committed(workload: &str) -> Pinned {
        Pinned::parse(match workload {
            "scale_avail" => include_str!("../pinned/scale_avail.txt"),
            "scale_slice" => include_str!("../pinned/scale_slice.txt"),
            "design_sweep" => include_str!("../pinned/design_sweep.txt"),
            "guided_sweep" => include_str!("../pinned/guided_sweep.txt"),
            "fig1_curves" => include_str!("../pinned/fig1_curves.txt"),
            _ => "",
        })
    }

    pub fn get(&self, seed: u64) -> Option<&Units> {
        self.by_seed.get(&seed)
    }

    /// `units` as pinned lines for `seed`, invariants left out.
    pub fn render(seed: u64, units: &Units) -> String {
        units
            .iter()
            .filter(|(k, _)| !k.starts_with(INVARIANT))
            .map(|(k, v)| format!("{seed}\t{k}\t{v}\n"))
            .collect()
    }
}

/// Checks a command's units: every invariant must read `true`, and when
/// `expected` is given every pinned unit must be reproduced exactly, with
/// none missing and none extra. Returns `(attempted, failed)`.
pub fn check(got: &Units, expected: Option<&Units>) -> (u64, u64) {
    let (invariants, outputs): (Vec<_>, Vec<_>) =
        got.iter().partition(|(k, _)| k.starts_with(INVARIANT));
    let mut attempted = invariants.len() as u64;
    let mut failed = invariants.iter().filter(|(_, v)| v != "true").count() as u64;
    match expected {
        None => attempted += outputs.len() as u64,
        Some(expected) => {
            let got: BTreeMap<&str, &str> = outputs
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let want: BTreeMap<&str, &str> = expected
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let keys: std::collections::BTreeSet<&str> =
                got.keys().chain(want.keys()).copied().collect();
            attempted += keys.len() as u64;
            failed += keys.iter().filter(|k| got.get(*k) != want.get(*k)).count() as u64;
        }
    }
    (attempted, failed)
}

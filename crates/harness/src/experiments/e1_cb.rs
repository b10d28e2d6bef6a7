//! E1 — Figure 1 / Theorem 1: cooperative broadcast and the feasibility
//! boundary `n − t > m·t`.
//!
//! For each system size, correct processes cb-broadcast `m` distinct values
//! round-robin. Measured: how many processes return, whether the final
//! `cb_valid` sets agree, latency of the last return, and total messages.
//! The paper's claim: CB terminates and set-agrees whenever `m` is
//! feasible; with `m = n` (all-distinct proposals) no value reaches `t + 1`
//! proposers and CB must block.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use minsync_broadcast::Carrier;
use minsync_net::sim::SimBuilder;
use minsync_net::NetworkTopology;
use minsync_types::SystemConfig;

use super::{seeds, systems};
use crate::cb_node::{CbBroadcastNode, CbEvent};
use crate::Table;

/// Runs E1.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E1 — CB-broadcast (Figure 1): termination, set agreement, feasibility",
        [
            "n",
            "t",
            "m",
            "feasible",
            "returned",
            "set_agreement",
            "last_return_time",
            "messages",
        ],
    );
    for (n, t) in systems(quick) {
        let cfg = SystemConfig::new(n, t).unwrap();
        let mut ms = vec![1, 2];
        if !quick {
            ms.push(cfg.m_max() + 1);
        }
        ms.push(n); // all-distinct: guaranteed infeasible for t ≥ 1
        ms.dedup();
        for m in ms {
            for seed in seeds(quick) {
                let row = run_one(cfg, m, seed);
                table.push_row([
                    n.to_string(),
                    t.to_string(),
                    m.to_string(),
                    cfg.feasible(m).to_string(),
                    format!("{}/{}", row.returned, n),
                    row.set_agreement.to_string(),
                    row.last_return
                        .map_or("blocked".to_string(), |t| t.to_string()),
                    row.messages.to_string(),
                ]);
            }
        }
    }
    table
}

struct OneRun {
    returned: usize,
    set_agreement: bool,
    last_return: Option<u64>,
    messages: u64,
}

fn run_one(cfg: SystemConfig, m: usize, seed: u64) -> OneRun {
    let n = cfg.n();
    let mut builder = SimBuilder::new(NetworkTopology::all_timely(n, 3)).seed(seed);
    for i in 0..n {
        builder = builder.node(CbBroadcastNode::new(cfg, Carrier::Counted, (i % m) as u64));
    }
    let mut sim = builder.build();
    let report = sim.run();

    let mut returned_at: BTreeMap<usize, u64> = BTreeMap::new();
    let mut sets: BTreeMap<usize, BTreeSet<u64>> = (0..n).map(|i| (i, BTreeSet::new())).collect();
    for rec in &report.outputs {
        match rec.event {
            CbEvent::Returned { .. } => {
                returned_at
                    .entry(rec.process.index())
                    .or_insert(rec.time.ticks());
            }
            CbEvent::ValidAdded { value } => {
                sets.get_mut(&rec.process.index()).unwrap().insert(value);
            }
        }
    }
    let first_set = sets.get(&0).cloned().unwrap_or_default();
    OneRun {
        returned: returned_at.len(),
        set_agreement: sets.values().all(|s| *s == first_set),
        last_return: if returned_at.len() == n {
            returned_at.values().copied().max()
        } else {
            None
        },
        messages: report.metrics.messages_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasible_runs_return_everywhere_and_agree() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let r = run_one(cfg, 2, 1);
        assert_eq!(r.returned, 4);
        assert!(r.set_agreement);
        assert!(r.last_return.is_some());
    }

    #[test]
    fn all_distinct_blocks() {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let r = run_one(cfg, 4, 1);
        assert_eq!(r.returned, 0);
        assert_eq!(r.last_return, None);
    }

    #[test]
    fn table_has_feasibility_boundary_rows() {
        let t = run(true);
        let feas: Vec<&str> = t.rows().iter().map(|r| r[3].as_str()).collect();
        assert!(feas.contains(&"true") && feas.contains(&"false"));
    }
}

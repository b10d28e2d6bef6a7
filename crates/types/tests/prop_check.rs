//! `check::prefix` against a naïve all-pairs slot comparison, on random
//! logs carrying at most one injected divergence, gap or swap.

use minsync_types::check::prefix;
use minsync_types::ProcessId;
use proptest::prelude::*;

/// The reference: each log holds slots `1..=len` in order, and any two
/// logs hold the same value at every slot both hold.
fn all_pairs_consistent(logs: &[Vec<(u64, u8)>]) -> bool {
    let in_order = |log: &Vec<(u64, u8)>| (1..).zip(log).all(|(i, &(slot, _))| slot == i);
    let agree = |a: &Vec<(u64, u8)>, b: &Vec<(u64, u8)>| {
        a.iter()
            .all(|(s, v)| b.iter().all(|(t, w)| s != t || v == w))
    };
    logs.iter().all(in_order) && logs.iter().all(|a| logs.iter().all(|b| agree(a, b)))
}

proptest! {
    #[test]
    fn prefix_agrees_with_an_all_pairs_comparison(
        base in proptest::collection::vec(0u8..4, 1..10),
        lens in proptest::collection::vec(0usize..10, 2..5),
        fault in 0usize..4,
        at in any::<usize>(),
    ) {
        // Every process commits a prefix of one log; then one process's log
        // takes a divergent value (1), loses an entry (2) or swaps two (3).
        let mut logs: Vec<Vec<(u64, u8)>> = lens
            .iter()
            .map(|&len| (1..).zip(base.iter().copied()).take(len).collect())
            .collect();
        let log = &mut logs[at % lens.len()];
        let i = at / 8 % log.len().max(1);
        let j = (i + 1) % log.len().max(1);
        match fault {
            1 if !log.is_empty() => log[i].1 ^= 1,
            2 if !log.is_empty() => {
                log.remove(i);
            }
            3 if log.len() > 1 => log.swap(i, j),
            _ => {}
        }
        // Interleave the processes' commits; each keeps its own order.
        let longest = lens.iter().copied().max().unwrap_or(0);
        let commits = (0..longest).flat_map(|k| {
            let at_k = logs.iter().enumerate().filter_map(move |(p, log)| log.get(k).map(|c| (p, c)));
            at_k.map(|(p, (slot, v))| (ProcessId::new(p), *slot, v))
        });
        prop_assert_eq!(prefix(commits).is_empty(), all_pairs_consistent(&logs));
    }
}

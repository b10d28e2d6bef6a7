//! The paper's correctness properties, each defined once.
//!
//! Each function is pure: it reads what the caller observed and returns
//! one [`Violation`] per breach, none when the property holds. Which
//! processes count as correct is the caller's call: it passes only their
//! outputs.
//!
//! | property | source | function |
//! |---|---|---|
//! | CONS-Agreement | Thm 4 | [`agreement`] |
//! | CONS-Validity | Thm 4 | [`validity`] |
//! | CONS-Termination | Thm 4 | [`termination`] |
//! | all three | Thm 4 | [`consensus`] |
//! | AC quasi-agreement | Fig. 2 | [`quasi_agreement`] |
//! | prefix-consistent logs | SMR | [`prefix`] |
//! | per-client exactly-once FIFO | SMR | [`fifo`] |

use core::fmt::{self, Debug, Write as _};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::ProcessId;

/// Which property an observation broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two correct processes decided or committed differently.
    Agreement,
    /// A correct process decided a value its caller's predicate rejects.
    Validity,
    /// A process expected to finish did not.
    Termination,
    /// A log skipped or repeated a slot, or a client's commands did not
    /// commit exactly once, in order.
    Integrity,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::Agreement => "agreement",
            ViolationKind::Validity => "validity",
            ViolationKind::Termination => "termination",
            ViolationKind::Integrity => "integrity",
        })
    }
}

/// One broken property, with its evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The broken property.
    pub kind: ViolationKind,
    /// Which processes, slots or values broke it.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

fn violation(kind: ViolationKind, detail: String) -> Violation {
    Violation { kind, detail }
}

/// Agreement: every decision carries the same value. One violation listing
/// every `(process, value)` pair when two differ; vacuous with none.
pub fn agreement<V: PartialEq + Debug>(
    decisions: impl IntoIterator<Item = (ProcessId, V)>,
) -> Vec<Violation> {
    let decisions: Vec<(ProcessId, V)> = decisions.into_iter().collect();
    if decisions.windows(2).all(|w| w[0].1 == w[1].1) {
        return Vec::new();
    }
    let mut detail = String::from("decisions differ:");
    for (p, v) in &decisions {
        let _ = write!(detail, " ({}, {v:?})", p.index());
    }
    vec![violation(ViolationKind::Agreement, detail)]
}

/// Validity: every decision satisfies `valid` (typically "some correct
/// process proposed it"). One violation per decision that does not.
pub fn validity<V: Debug>(
    decisions: impl IntoIterator<Item = (ProcessId, V)>,
    valid: impl Fn(&V) -> bool,
) -> Vec<Violation> {
    decisions
        .into_iter()
        .filter(|(_, v)| !valid(v))
        .map(|(p, v)| {
            let detail = format!("p{} decided {v:?}, which is not valid", p.index());
            violation(ViolationKind::Validity, detail)
        })
        .collect()
}

/// Termination: every `expected` process has an outcome equal to `target`
/// (`(p, ())` pairs and `&()` for "decided"; for a log, the exact count).
/// One violation per process that has none, naming its last outcome.
pub fn termination<V: PartialEq + Debug>(
    expected: impl IntoIterator<Item = ProcessId>,
    outcomes: impl IntoIterator<Item = (ProcessId, V)>,
    target: &V,
) -> Vec<Violation> {
    let outcomes: Vec<(ProcessId, V)> = outcomes.into_iter().collect();
    let mut found = Vec::new();
    for p in expected {
        let mut own = outcomes.iter().filter(|(q, _)| *q == p).map(|(_, v)| v);
        if own.clone().any(|v| v == target) {
            continue;
        }
        let detail = match own.next_back() {
            Some(v) => format!("p{} reached {v:?}, not {target:?}", p.index()),
            None => format!("p{} produced no outcome", p.index()),
        };
        found.push(violation(ViolationKind::Termination, detail));
    }
    found
}

/// Theorem 4 in one call: every `expected` process decided
/// ([`termination`]), on one value ([`agreement`]) that satisfies `valid`
/// ([`validity`]).
pub fn consensus<V: PartialEq + Debug>(
    expected: impl IntoIterator<Item = ProcessId>,
    decisions: impl IntoIterator<Item = (ProcessId, V)>,
    valid: impl Fn(&V) -> bool,
) -> Vec<Violation> {
    let decisions: Vec<(ProcessId, V)> = decisions.into_iter().collect();
    let mut found = termination(expected, decisions.iter().map(|(p, _)| (*p, ())), &());
    found.extend(agreement(decisions.iter().map(|(p, v)| (*p, v))));
    found.extend(validity(decisions, valid));
    found
}

/// Adopt-commit quasi-agreement (Fig. 2): once some process returns
/// `⟨commit, v⟩`, every returned value is `v`. `outcomes` are
/// `(process, committed, value)`; one violation per outcome off `v`.
pub fn quasi_agreement<V: PartialEq + Debug>(
    outcomes: impl IntoIterator<Item = (ProcessId, bool, V)>,
) -> Vec<Violation> {
    let outcomes: Vec<(ProcessId, bool, V)> = outcomes.into_iter().collect();
    let Some((cp, _, cv)) = outcomes.iter().find(|(_, commit, _)| *commit) else {
        return Vec::new();
    };
    outcomes
        .iter()
        .filter(|(_, _, v)| v != cv)
        .map(|(p, commit, v)| {
            let tag = if *commit { "commit" } else { "adopt" };
            let detail = format!(
                "p{} committed {cv:?} but p{} returned ({tag}, {v:?})",
                cp.index(),
                p.index()
            );
            violation(ViolationKind::Agreement, detail)
        })
        .collect()
}

/// Prefix consistency of replicated logs, over `(process, slot, value)`
/// commits in each process's commit order: every process commits slots
/// `1, 2, 3, …` each once (else [`ViolationKind::Integrity`]), and all
/// processes that commit a slot commit the same value there (else
/// [`ViolationKind::Agreement`]). Any two logs are then prefixes of one
/// another.
pub fn prefix<'a, V: PartialEq + Debug + 'a>(
    commits: impl IntoIterator<Item = (ProcessId, u64, &'a V)>,
) -> Vec<Violation> {
    let mut next: BTreeMap<ProcessId, u64> = BTreeMap::new();
    let mut first: BTreeMap<u64, (ProcessId, &V)> = BTreeMap::new();
    let mut found = Vec::new();
    for (p, slot, v) in commits {
        let expect = next.entry(p).or_insert(1);
        if slot != *expect {
            let detail = format!("p{} committed slot {slot}, not {expect}", p.index());
            found.push(violation(ViolationKind::Integrity, detail));
        }
        *expect = slot + 1;
        match first.entry(slot) {
            Entry::Vacant(e) => {
                e.insert((p, v));
            }
            Entry::Occupied(e) if e.get().1 != v => {
                let (q, w) = e.get();
                let detail = format!(
                    "slot {slot}: p{} committed {w:?}, p{} committed {v:?}",
                    q.index(),
                    p.index()
                );
                found.push(violation(ViolationKind::Agreement, detail));
            }
            Entry::Occupied(_) => {}
        }
    }
    found
}

/// Per-client exactly-once FIFO over one log of commands: each client's
/// sequence numbers run `0, 1, 2, …` with no gap, repeat or swap. `decode`
/// maps a command to `(client, seq)`. One violation per command off its
/// client's next number.
pub fn fifo(
    log: impl IntoIterator<Item = u64>,
    decode: impl Fn(u64) -> (u64, u64),
) -> Vec<Violation> {
    let mut next: BTreeMap<u64, u64> = BTreeMap::new();
    let mut found = Vec::new();
    for cmd in log {
        let (client, seq) = decode(cmd);
        let expect = next.entry(client).or_insert(0);
        if seq != *expect {
            let detail = format!("client {client} committed seq {seq}, not {expect}");
            found.push(violation(ViolationKind::Integrity, detail));
        }
        *expect = seq + 1;
    }
    found
}

#[cfg(test)]
mod tests {
    use super::ViolationKind::*;
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn kinds(found: &[Violation]) -> Vec<ViolationKind> {
        found.iter().map(|v| v.kind).collect()
    }

    #[test]
    fn agreement_flags_any_differing_decision() {
        assert!(agreement([(p(0), 3), (p(1), 3), (p(2), 3)]).is_empty());
        let found = agreement([(p(0), 3), (p(1), 3), (p(2), 8)]);
        assert_eq!(kinds(&found), [Agreement]);
        assert_eq!(found[0].detail, "decisions differ: (0, 3) (1, 3) (2, 8)");
    }

    #[test]
    fn validity_flags_each_invalid_decision() {
        let proposed = |v: &u64| [3, 8].contains(v);
        assert!(validity([(p(0), 3), (p(1), 8)], proposed).is_empty());
        let found = validity([(p(0), 3), (p(1), 99), (p(2), 98)], proposed);
        assert_eq!(kinds(&found), [Validity, Validity]);
    }

    #[test]
    fn termination_names_each_process_short_of_its_target() {
        let all = || (0..3).map(p);
        assert!(termination(all(), [(p(2), ()), (p(0), ()), (p(1), ())], &()).is_empty());
        let found = termination(all(), [(p(0), ()), (p(2), ())], &());
        assert_eq!(found[0].detail, "p1 produced no outcome");
        let found = termination(all(), [(p(0), 100), (p(1), 96), (p(2), 100)], &100);
        assert_eq!(kinds(&found), [Termination]);
        assert_eq!(found[0].detail, "p1 reached 96, not 100");
    }

    #[test]
    fn consensus_is_termination_agreement_and_validity() {
        let proposed = |v: &u64| [3, 8].contains(v);
        assert!(consensus((0..2).map(p), [(p(1), 8), (p(0), 8)], proposed).is_empty());
        let found = consensus((0..3).map(p), [(p(0), 3), (p(1), 9)], proposed);
        assert_eq!(kinds(&found), [Termination, Agreement, Validity]);
    }

    #[test]
    fn quasi_agreement_binds_every_outcome_to_a_commit() {
        assert!(quasi_agreement([(p(0), false, 3), (p(1), false, 8)]).is_empty());
        assert!(quasi_agreement([(p(0), false, 3), (p(1), true, 3)]).is_empty());
        let found = quasi_agreement([(p(0), false, 8), (p(1), true, 3), (p(2), false, 3)]);
        assert_eq!(kinds(&found), [Agreement]);
        assert_eq!(found[0].detail, "p1 committed 3 but p0 returned (adopt, 8)");
    }

    #[test]
    fn prefix_flags_divergence_gaps_and_repeats() {
        let (a, b, c) = (10u64, 20u64, 30u64);
        let shorter = [(p(0), 1, &a), (p(1), 1, &a), (p(0), 2, &b), (p(0), 3, &c)];
        assert!(prefix(shorter).is_empty(), "a shorter log is a prefix");
        let diverged = prefix([(p(0), 1, &a), (p(0), 2, &b), (p(1), 1, &a), (p(1), 2, &c)]);
        assert_eq!(kinds(&diverged), [Agreement]);
        assert_eq!(
            diverged[0].detail,
            "slot 2: p0 committed 20, p1 committed 30"
        );
        let gap = prefix([(p(0), 1, &a), (p(0), 3, &c)]);
        assert_eq!(gap[0].detail, "p0 committed slot 3, not 2");
        assert_eq!(kinds(&prefix([(p(0), 1, &a), (p(0), 1, &a)])), [Integrity]);
    }

    #[test]
    fn fifo_flags_gaps_repeats_and_swaps() {
        let decode = |cmd: u64| (cmd / 100, cmd % 100);
        assert!(fifo([100, 200, 101, 201, 102], decode).is_empty());
        assert_eq!(
            fifo([100, 102], decode)[0].detail,
            "client 1 committed seq 2, not 1"
        );
        assert_eq!(kinds(&fifo([100, 100], decode)), [Integrity]);
        assert_eq!(fifo([101, 100], decode).len(), 2);
    }
}

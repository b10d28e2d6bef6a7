use crate::{ProcSet, ProcessId};

/// Per-value support among distinct senders: the bookkeeping behind every
/// "`x` messages carrying `v` from different processes" predicate of the
/// paper, under §2.1's rule that only a sender's first message counts.
///
/// A sender is counted once, by one bit of a [`ProcSet`]; support is kept
/// per value in first-vote order, the first value inline and any later
/// ones in a vector. The correct senders of one instance all vote for one
/// value, so a vote compares against the inline entry and allocates
/// nothing. An equivocating origin can split the senders, one value each,
/// which bounds the vector by `n`.
///
/// ```rust
/// use minsync_types::{ProcessId, Tally};
///
/// let mut votes: Tally<u64> = Tally::default();
/// assert_eq!(votes.vote(ProcessId::new(0), &7), Some(1));
/// assert_eq!(votes.vote(ProcessId::new(1), &7), Some(2));
/// assert_eq!(votes.vote(ProcessId::new(1), &9), None, "p2 already voted");
/// assert_eq!((votes.support(&7), votes.support(&9)), (2, 0));
/// assert_eq!(votes.voters(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Tally<V> {
    voters: ProcSet,
    first: Option<(V, usize)>,
    rest: Vec<(V, usize)>,
}

impl<V> Default for Tally<V> {
    fn default() -> Self {
        Tally {
            voters: ProcSet::default(),
            first: None,
            rest: Vec::new(),
        }
    }
}

impl<V: Clone + PartialEq> Tally<V> {
    /// Counts `from`'s vote for `value` if it is `from`'s first vote, and
    /// returns the value's support including it; `None` if `from` already
    /// voted, for any value.
    pub fn vote(&mut self, from: ProcessId, value: &V) -> Option<usize> {
        if !self.voters.insert(from) {
            return None;
        }
        let count = match &mut self.first {
            None => &mut self.first.insert((value.clone(), 0)).1,
            Some((v, count)) if v == value => count,
            Some(_) => match self.rest.iter().position(|(v, _)| v == value) {
                Some(at) => &mut self.rest[at].1,
                None => {
                    self.rest.push((value.clone(), 0));
                    &mut self.rest.last_mut().expect("just pushed").1
                }
            },
        };
        *count += 1;
        Some(*count)
    }

    /// Number of distinct senders that voted for `value`.
    pub fn support(&self, value: &V) -> usize {
        self.iter()
            .find(|&(v, _)| v == value)
            .map_or(0, |(_, count)| count)
    }

    /// Number of distinct senders that voted, for any value.
    pub fn voters(&self) -> usize {
        self.voters.len()
    }

    /// Every value voted for, with its support, in first-vote order.
    pub fn iter(&self) -> impl Iterator<Item = (&V, usize)> {
        self.first
            .iter()
            .chain(&self.rest)
            .map(|(v, count)| (v, *count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sender_votes_once_whatever_it_claims() {
        let mut t: Tally<u8> = Tally::default();
        assert_eq!(t.vote(ProcessId::new(4), &1), Some(1));
        assert_eq!(t.vote(ProcessId::new(4), &1), None);
        assert_eq!(t.vote(ProcessId::new(4), &2), None, "equivocation");
        assert_eq!(t.vote(ProcessId::new(0), &2), Some(1));
        assert_eq!(t.vote(ProcessId::new(127), &1), Some(2));
        assert_eq!(t.vote(ProcessId::new(5), &2), Some(2));
        assert_eq!(t.vote(ProcessId::new(6), &3), Some(1));
        assert_eq!(t.iter().collect::<Vec<_>>(), [(&1, 2), (&2, 2), (&3, 1)]);
        assert_eq!((t.support(&2), t.support(&4)), (2, 0));
        assert_eq!(t.voters(), 5);
    }
}

use core::fmt;

/// Identifier of one of the `n` sequential processes `p_1 … p_n`.
///
/// Internally 0-based (`ProcessId::new(0)` is the paper's `p_1`). The
/// [`Display`](fmt::Display) impl renders the paper's 1-based name so traces
/// read like the paper.
///
/// ```rust
/// use minsync_types::ProcessId;
///
/// let p = ProcessId::new(0);
/// assert_eq!(p.index(), 0);
/// assert_eq!(p.to_string(), "p1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ProcessId(usize);

impl ProcessId {
    /// Creates a process id from its 0-based index.
    pub const fn new(index: usize) -> Self {
        ProcessId(index)
    }

    /// Returns the 0-based index of this process.
    pub const fn index(self) -> usize {
        self.0
    }

    /// Iterates over all process ids of a system of `n` processes.
    ///
    /// ```rust
    /// use minsync_types::ProcessId;
    /// let all: Vec<_> = ProcessId::all(3).collect();
    /// assert_eq!(all, [ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)]);
    /// ```
    pub fn all(n: usize) -> impl DoubleEndedIterator<Item = ProcessId> + ExactSizeIterator {
        (0..n).map(ProcessId)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0 + 1)
    }
}

/// A set of processes as a bitmap, one bit per process index.
///
/// The paper's §2.1 rule (only the first message of a kind from each sender
/// counts) is a question about such a set, so insertion, membership and size
/// are each a couple of instructions. It holds [`ProcSet::CAPACITY`]
/// processes, which [`SystemConfig::new`] makes the largest system size.
///
/// ```rust
/// use minsync_types::{ProcSet, ProcessId};
///
/// let mut set = ProcSet::default();
/// assert!(set.insert(ProcessId::new(3)));
/// assert!(!set.insert(ProcessId::new(3)), "second insert is a duplicate");
/// assert_eq!(set.len(), 1);
/// ```
///
/// [`SystemConfig::new`]: crate::SystemConfig::new
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct ProcSet(u128);

impl ProcSet {
    /// The number of processes a set holds: indices `0 .. CAPACITY`.
    pub const CAPACITY: usize = u128::BITS as usize;

    /// Inserts `p`; true if it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `p.index() ≥ CAPACITY`, which no process of a valid
    /// [`SystemConfig`](crate::SystemConfig) has.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        assert!(
            p.index() < Self::CAPACITY,
            "{p} is outside a {}-process set",
            Self::CAPACITY
        );
        let bit = 1u128 << p.index();
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// True if `p` is in the set.
    pub const fn contains(&self, p: ProcessId) -> bool {
        p.index() < Self::CAPACITY && self.0 & (1u128 << p.index()) != 0
    }

    /// Number of processes in the set.
    pub const fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if the set is empty.
    pub const fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

impl From<usize> for ProcessId {
    fn from(index: usize) -> Self {
        ProcessId(index)
    }
}

impl From<ProcessId> for usize {
    fn from(id: ProcessId) -> usize {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_based() {
        assert_eq!(ProcessId::new(0).to_string(), "p1");
        assert_eq!(ProcessId::new(6).to_string(), "p7");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(ProcessId::new(0) < ProcessId::new(1));
        let mut v = vec![ProcessId::new(2), ProcessId::new(0), ProcessId::new(1)];
        v.sort();
        assert_eq!(v, ProcessId::all(3).collect::<Vec<_>>());
    }

    #[test]
    fn conversions_round_trip() {
        let p: ProcessId = 5usize.into();
        assert_eq!(usize::from(p), 5);
    }

    #[test]
    fn all_is_exact_size_and_reversible() {
        let iter = ProcessId::all(4);
        assert_eq!(iter.len(), 4);
        let rev: Vec<_> = ProcessId::all(3).rev().collect();
        assert_eq!(
            rev,
            [ProcessId::new(2), ProcessId::new(1), ProcessId::new(0)]
        );
    }
}

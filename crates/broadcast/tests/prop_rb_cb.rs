//! Property tests: RB and CB properties under random delivery schedules and
//! Byzantine message injection.
//!
//! The harness here is a "message soup": every in-flight message sits in a
//! pool and a seeded RNG picks which (message, destination) pair fires next
//! — an arbitrary interleaving of an asynchronous reliable network.
//!
//! Every step of every soup is also checked against [`ScanRb`], Bracha's
//! automaton with the §2.1 dedup sets kept as plain lists and every quorum
//! test a scan over them, Figure 1's `t + 1` count included: `RbEngine`'s
//! bitset-and-tally bookkeeping must emit exactly the steps the scans do.

use std::collections::{BTreeMap, BTreeSet};

use minsync_broadcast::{Carrier, RbEngine, RbEvent, RbMsg, RbStep};
use minsync_types::{ProcessId, SystemConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tag 0 is counted, like a CB instance's `CB_VAL` or `DECIDE`; the rest
/// are plain RB.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Tag(u32);

impl minsync_broadcast::Tag for Tag {
    type Rules = ();

    fn carrier(&self, (): ()) -> Carrier {
        if self.0 == 0 {
            Carrier::Counted
        } else {
            Carrier::Bracha
        }
    }
}

const CB: Tag = Tag(0);

type Val = u64;
type Msg = RbMsg<Tag, Val>;
type Step = RbStep<Tag, Val>;

/// One instance of [`ScanRb`]: the first ECHO and READY of each sender, in
/// arrival order.
#[derive(Default)]
struct ScanInstance {
    init_seen: bool,
    readied: bool,
    delivered: bool,
    echoes: Vec<(ProcessId, Val)>,
    readies: Vec<(ProcessId, Val)>,
}

/// The reference automaton: Bracha's rules and Figure 1 line 4 read
/// straight off the page.
struct ScanRb {
    cfg: SystemConfig,
    instances: BTreeMap<(ProcessId, Tag), ScanInstance>,
    /// Per counted tag, every `(origin, value)` delivered.
    delivered: BTreeMap<Tag, Vec<(ProcessId, Val)>>,
}

impl ScanRb {
    fn on_message(&mut self, from: ProcessId, msg: Msg) -> Step {
        let cfg = self.cfg;
        let (origin, tag) = match msg {
            RbMsg::Init { tag, .. } => (from, tag),
            RbMsg::Echo { origin, tag, .. } | RbMsg::Ready { origin, tag, .. } => (origin, tag),
            // Figure 1 has no relay message (see `prop_relay_cb.rs`).
            RbMsg::Relay { .. } => {
                return Step {
                    broadcast: None,
                    event: None,
                }
            }
        };
        let inst = self.instances.entry((origin, tag)).or_default();
        let (mut broadcast, mut event) = (None, None);
        match msg {
            RbMsg::Init { value, .. } => {
                if !inst.init_seen {
                    inst.init_seen = true;
                    broadcast = Some(RbMsg::Echo { origin, tag, value });
                }
            }
            RbMsg::Echo { value, .. } => {
                if inst.echoes.iter().any(|(p, _)| *p == from) {
                    return Step { broadcast, event };
                }
                inst.echoes.push((from, value));
                let support = inst.echoes.iter().filter(|(_, v)| *v == value).count();
                if !inst.readied && support >= cfg.echo_threshold() {
                    inst.readied = true;
                    broadcast = Some(RbMsg::Ready { origin, tag, value });
                }
            }
            RbMsg::Ready { value, .. } => {
                if inst.readies.iter().any(|(p, _)| *p == from) {
                    return Step { broadcast, event };
                }
                inst.readies.push((from, value));
                let support = inst.readies.iter().filter(|(_, v)| *v == value).count();
                if !inst.readied && support >= cfg.ready_amplify_threshold() {
                    inst.readied = true;
                    broadcast = Some(RbMsg::Ready { origin, tag, value });
                }
                if !inst.delivered && support >= cfg.ready_threshold() {
                    inst.delivered = true;
                    event = if tag == CB {
                        let delivered = self.delivered.entry(tag).or_default();
                        delivered.push((origin, value));
                        let support = delivered.iter().filter(|(_, v)| *v == value).count();
                        (support == cfg.t() + 1).then_some(RbEvent::CbValid { tag, value })
                    } else {
                        Some(RbEvent::RbDelivered { tag, origin, value })
                    };
                }
            }
            RbMsg::Relay { .. } => unreachable!("returned above"),
        }
        Step { broadcast, event }
    }
}

/// A pending delivery: message from `from`, still owed to `to`.
#[derive(Clone, Debug)]
struct Pending {
    from: ProcessId,
    to: ProcessId,
    msg: Msg,
}

struct Soup {
    engines: Vec<RbEngine<Tag, Val>>,
    /// Each process's reference automaton, fed the same messages.
    scans: Vec<ScanRb>,
    correct: Vec<usize>,
    pool: Vec<Pending>,
    /// Plain deliveries: `(process, origin, tag, value)`.
    deliveries: Vec<(usize, ProcessId, Tag, Val)>,
    /// Per process, the values it reported valid under [`CB`], in order.
    valid: Vec<Vec<Val>>,
    rng: StdRng,
    n: usize,
}

impl Soup {
    fn new(cfg: SystemConfig, correct: Vec<usize>, seed: u64) -> Self {
        let n = cfg.n();
        Soup {
            engines: (0..n)
                .map(|i| RbEngine::new(cfg, ProcessId::new(i), ()))
                .collect(),
            scans: (0..n)
                .map(|_| ScanRb {
                    cfg,
                    instances: BTreeMap::new(),
                    delivered: BTreeMap::new(),
                })
                .collect(),
            correct,
            pool: Vec::new(),
            deliveries: Vec::new(),
            valid: vec![Vec::new(); n],
            rng: StdRng::seed_from_u64(seed),
            n,
        }
    }

    fn broadcast_from(&mut self, origin: usize, tag: Tag, value: Val) {
        let init = self.engines[origin].broadcast(tag, value);
        self.apply(origin, init, None);
    }

    /// Byzantine injection: send `msg` to a single target only.
    fn inject(&mut self, from: usize, to: usize, msg: Msg) {
        self.pool.push(Pending {
            from: ProcessId::new(from),
            to: ProcessId::new(to),
            msg,
        });
    }

    fn apply(&mut self, process: usize, broadcast: Option<Msg>, event: Option<RbEvent<Tag, Val>>) {
        if let Some(msg) = broadcast {
            for to in 0..self.n {
                self.pool.push(Pending {
                    from: ProcessId::new(process),
                    to: ProcessId::new(to),
                    msg: msg.clone(),
                });
            }
        }
        match event {
            Some(RbEvent::RbDelivered { tag, origin, value }) => {
                self.deliveries.push((process, origin, tag, value))
            }
            Some(RbEvent::CbValid { value, .. }) => self.valid[process].push(value),
            None => {}
        }
    }

    /// Runs until the pool drains, delivering in random order. Byzantine
    /// processes swallow their deliveries (worst case: they never help).
    fn run(&mut self) {
        while !self.pool.is_empty() {
            let idx = self.rng.gen_range(0..self.pool.len());
            let Pending { from, to, msg } = self.pool.swap_remove(idx);
            if !self.correct.contains(&to.index()) {
                continue;
            }
            let expected = self.scans[to.index()].on_message(from, msg.clone());
            let step = self.engines[to.index()].on_message(from, msg);
            assert_eq!(step, expected, "{to} diverged from the scan reference");
            self.apply(to.index(), step.broadcast, step.event);
        }
    }

    fn delivered_value(&self, process: usize, origin: ProcessId, tag: Tag) -> Option<Val> {
        self.deliveries
            .iter()
            .find(|&&(p, o, tg, _)| p == process && o == origin && tg == tag)
            .map(|&(_, _, _, v)| v)
    }

    /// Byzantine spray: each noise word sends one INIT, ECHO or READY for
    /// any origin, a tag in `tags` and value 7 or 8 to one correct process.
    fn spray(&mut self, cfg: SystemConfig, tags: u32, noise: &[u64]) {
        let byzantine: Vec<usize> = (0..cfg.n()).filter(|i| !self.correct.contains(i)).collect();
        for &w in noise {
            let field = |shift: u32, modulus: usize| (w >> shift) as usize % modulus;
            let origin = ProcessId::new(field(16, cfg.n()));
            let tag = Tag(field(24, tags as usize) as u32);
            let value = 7 + field(32, 2) as Val;
            let msg = match field(40, 3) {
                0 => RbMsg::Init { tag, value },
                1 => RbMsg::Echo { origin, tag, value },
                _ => RbMsg::Ready { origin, tag, value },
            };
            let to = self.correct[field(8, self.correct.len())];
            self.inject(byzantine[field(0, byzantine.len())], to, msg);
        }
    }
}

fn small_system() -> impl Strategy<Value = (SystemConfig, Vec<usize>)> {
    (1usize..=2).prop_flat_map(|t| {
        let n = 3 * t + 1;
        // Choose which t processes are Byzantine (possibly fewer).
        proptest::collection::btree_set(0..n, 0..=t).prop_map(move |byz| {
            let correct: Vec<usize> = (0..n).filter(|i| !byz.contains(i)).collect();
            (SystemConfig::new(n, t).unwrap(), correct)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RB-Termination-1 + RB-Validity: a correct origin's broadcast is
    /// delivered by every correct process, with the origin's value,
    /// regardless of schedule and of silent Byzantine processes.
    #[test]
    fn correct_broadcast_delivered_by_all((cfg, correct) in small_system(), seed in any::<u64>()) {
        prop_assume!(!correct.is_empty());
        let origin = correct[0];
        let mut soup = Soup::new(cfg, correct.clone(), seed);
        soup.broadcast_from(origin, Tag(1), 42);
        soup.run();
        for &p in &correct {
            prop_assert_eq!(
                soup.delivered_value(p, ProcessId::new(origin), Tag(1)),
                Some(42),
                "process {} missed the delivery", p
            );
        }
    }

    /// RB-Unicity: no correct process delivers twice for one instance.
    #[test]
    fn no_double_delivery((cfg, correct) in small_system(), seed in any::<u64>()) {
        prop_assume!(!correct.is_empty());
        let origin = correct[0];
        let mut soup = Soup::new(cfg, correct.clone(), seed);
        soup.broadcast_from(origin, Tag(1), 9);
        soup.run();
        let mut seen: BTreeMap<(usize, ProcessId, Tag), usize> = BTreeMap::new();
        for &(p, o, tg, _) in &soup.deliveries {
            *seen.entry((p, o, tg)).or_insert(0) += 1;
        }
        prop_assert!(seen.values().all(|&c| c == 1), "double delivery detected");
    }

    /// RB-Termination-2: with an equivocating Byzantine origin, if any
    /// correct process delivers, all correct processes deliver the same
    /// value.
    #[test]
    fn equivocator_cannot_split_deliveries(
        (cfg, correct) in small_system(),
        seed in any::<u64>(),
        split in any::<u64>(),
    ) {
        prop_assume!(correct.len() < cfg.n()); // need at least one Byzantine slot
        let byz = (0..cfg.n()).find(|i| !correct.contains(i)).unwrap();
        let mut soup = Soup::new(cfg, correct.clone(), seed);
        // The equivocator sends INIT(a) to half the correct processes and
        // INIT(b) to the rest.
        for (i, &p) in correct.iter().enumerate() {
            let value = if (split >> (i % 64)) & 1 == 0 { 7 } else { 8 };
            soup.inject(byz, p, RbMsg::Init { tag: Tag(3), value });
        }
        soup.run();
        let delivered: BTreeSet<Val> = soup
            .deliveries
            .iter()
            .filter(|&&(p, o, tg, _)| correct.contains(&p) && o == ProcessId::new(byz) && tg == Tag(3))
            .map(|&(_, _, _, v)| v)
            .collect();
        prop_assert!(delivered.len() <= 1, "correct processes delivered {:?}", delivered);
        // And if one correct process delivered, all did (the soup runs to
        // quiescence, so "eventually" means "by the end").
        if delivered.len() == 1 {
            for &p in &correct {
                prop_assert!(
                    soup.delivered_value(p, ProcessId::new(byz), Tag(3)).is_some(),
                    "termination-2 violated at process {}", p
                );
            }
        }
    }

    /// Byzantine processes spray INIT/ECHO/READY for any origin, a counted
    /// or a plain tag and one of two values at single targets while
    /// correct processes broadcast; every correct engine must act exactly
    /// as the scan reference does (checked inside `run`), stay RB-Unique
    /// and report each value valid at most once.
    #[test]
    fn byzantine_soup_matches_the_scan_reference(
        (cfg, correct) in small_system(),
        seed in any::<u64>(),
        noise in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        prop_assume!(correct.len() < cfg.n() && !correct.is_empty());
        let mut soup = Soup::new(cfg, correct.clone(), seed);
        for (i, &p) in correct.iter().enumerate() {
            soup.broadcast_from(p, Tag((i % 2) as u32), 7);
        }
        soup.spray(cfg, 2, &noise);
        soup.run();
        let mut seen = BTreeSet::new();
        for &(p, o, tg, _) in &soup.deliveries {
            prop_assert!(seen.insert((p, o, tg)), "double delivery");
        }
        for valid in &soup.valid {
            prop_assert!(valid.iter().collect::<BTreeSet<_>>().len() == valid.len(), "valid twice");
        }
    }

    /// A DECIDE-class tag (counted; every correct process broadcasts the
    /// same value under it) under Byzantine sprays: every correct process
    /// reports the correct value valid exactly once, and the sprayed value
    /// never, since at most `t` origins back it.
    #[test]
    fn counted_tag_reports_each_value_once_under_sprays(
        (cfg, correct) in small_system(),
        seed in any::<u64>(),
        noise in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        prop_assume!(correct.len() < cfg.n());
        let mut soup = Soup::new(cfg, correct.clone(), seed);
        for &p in &correct {
            soup.broadcast_from(p, CB, 7);
        }
        soup.spray(cfg, 1, &noise);
        soup.run();
        for &p in &correct {
            prop_assert_eq!(&soup.valid[p], &[7], "process {}", p);
        }
    }

    /// CB properties (Figure 1 / Theorem 1) under the feasibility
    /// condition: all correct processes propose from a feasible value set;
    /// Byzantine processes RB-broadcast an alien value. Eventually:
    /// cb_valid sets are equal, non-empty, and contain no alien value.
    #[test]
    fn cb_sets_agree_and_exclude_byzantine_values(
        (cfg, correct) in small_system(),
        seed in any::<u64>(),
        assignment in proptest::collection::vec(0usize..2, 16),
    ) {
        // m = 2 is feasible for n = 3t+1 ⇔ ⌊(n−t−1)/t⌋ = 2 ≥ 2 ✓... only
        // if some value has t+1 correct proposers; pigeonhole over
        // 2t+1 correct and 2 values guarantees one has ≥ t+1.
        prop_assume!(correct.len() >= cfg.quorum());
        let values = [100u64, 200u64];
        let mut soup = Soup::new(cfg, correct.clone(), seed);
        for (i, &p) in correct.iter().enumerate() {
            soup.broadcast_from(p, CB, values[assignment[i % assignment.len()]]);
        }
        // Byzantine processes RB-broadcast the alien value 666.
        for b in (0..cfg.n()).filter(|i| !correct.contains(i)) {
            soup.broadcast_from(b, CB, 666);
        }
        soup.run();
        let sets: Vec<BTreeSet<Val>> = correct
            .iter()
            .map(|&p| soup.valid[p].iter().copied().collect())
            .collect();
        for s in &sets {
            prop_assert!(!s.is_empty(), "CB-Set Termination violated");
            prop_assert!(!s.contains(&666), "CB-Set Validity violated: alien value admitted");
            prop_assert_eq!(s, &sets[0]);
        }
    }
}

//! Property tests: RB and CB properties under random delivery schedules and
//! Byzantine message injection.
//!
//! The harness here is a "message soup": every in-flight message sits in a
//! pool and a seeded RNG picks which (message, destination) pair fires next
//! — an arbitrary interleaving of an asynchronous reliable network.
//!
//! Every step of every soup is also checked against [`ScanRb`], Bracha's
//! automaton with the §2.1 dedup sets kept as plain lists and every quorum
//! test a scan over them: `RbEngine`'s bitset-and-tally bookkeeping must
//! emit exactly the actions the scans do.

use std::collections::{BTreeMap, BTreeSet};

use minsync_broadcast::{CbInstance, RbAction, RbActions, RbEngine, RbMsg};
use minsync_types::{ProcessId, SystemConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Tag = u32;
type Val = u64;
type Msg = RbMsg<Tag, Val>;
type Action = RbAction<Tag, Val>;

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

/// The reference automaton: Bracha's rules read straight off the page.
struct ScanRb {
    cfg: SystemConfig,
    instances: BTreeMap<(ProcessId, Tag), ScanInstance>,
}

impl ScanRb {
    fn on_message(&mut self, from: ProcessId, msg: Msg) -> Vec<Action> {
        let cfg = self.cfg;
        let (origin, tag) = match msg {
            RbMsg::Init { tag, .. } => (from, tag),
            RbMsg::Echo { origin, tag, .. } | RbMsg::Ready { origin, tag, .. } => (origin, tag),
        };
        let inst = self.instances.entry((origin, tag)).or_default();
        let mut out = Vec::new();
        match msg {
            RbMsg::Init { value, .. } => {
                if !inst.init_seen {
                    inst.init_seen = true;
                    out.push(RbAction::Broadcast(RbMsg::Echo { origin, tag, value }));
                }
            }
            RbMsg::Echo { value, .. } => {
                if inst.echoes.iter().any(|(p, _)| *p == from) {
                    return out;
                }
                inst.echoes.push((from, value));
                let support = inst.echoes.iter().filter(|(_, v)| *v == value).count();
                if !inst.readied && support >= cfg.echo_threshold() {
                    inst.readied = true;
                    out.push(RbAction::Broadcast(RbMsg::Ready { origin, tag, value }));
                }
            }
            RbMsg::Ready { value, .. } => {
                if inst.readies.iter().any(|(p, _)| *p == from) {
                    return out;
                }
                inst.readies.push((from, value));
                let support = inst.readies.iter().filter(|(_, v)| *v == value).count();
                if !inst.readied && support >= cfg.ready_amplify_threshold() {
                    inst.readied = true;
                    out.push(RbAction::Broadcast(RbMsg::Ready { origin, tag, value }));
                }
                if !inst.delivered && support >= cfg.ready_threshold() {
                    inst.delivered = true;
                    out.push(RbAction::Deliver { origin, tag, value });
                }
            }
        }
        out
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
    /// Per-process CB instances fed by RB deliveries of tag 0.
    cbs: Vec<CbInstance<Val>>,
    correct: Vec<usize>,
    pool: Vec<Pending>,
    deliveries: Vec<(usize, ProcessId, Tag, Val)>,
    rng: StdRng,
    n: usize,
}

impl Soup {
    fn new(cfg: SystemConfig, correct: Vec<usize>, seed: u64) -> Self {
        let n = cfg.n();
        Soup {
            engines: (0..n)
                .map(|i| RbEngine::new(cfg, ProcessId::new(i)))
                .collect(),
            scans: (0..n)
                .map(|_| ScanRb {
                    cfg,
                    instances: BTreeMap::new(),
                })
                .collect(),
            cbs: (0..n).map(|_| CbInstance::new(cfg)).collect(),
            correct,
            pool: Vec::new(),
            deliveries: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            n,
        }
    }

    fn broadcast_from(&mut self, origin: usize, tag: Tag, value: Val) {
        let actions = self.engines[origin].broadcast(tag, value);
        self.apply(origin, actions);
    }

    /// Byzantine injection: send `msg` to a single target only.
    fn inject(&mut self, from: usize, to: usize, msg: Msg) {
        self.pool.push(Pending {
            from: ProcessId::new(from),
            to: ProcessId::new(to),
            msg,
        });
    }

    fn apply(&mut self, process: usize, actions: RbActions<Tag, Val>) {
        for action in actions {
            match action {
                RbAction::Broadcast(msg) => {
                    for to in 0..self.n {
                        self.pool.push(Pending {
                            from: ProcessId::new(process),
                            to: ProcessId::new(to),
                            msg: msg.clone(),
                        });
                    }
                }
                RbAction::Deliver { origin, tag, value } => {
                    self.deliveries.push((process, origin, tag, value));
                    if tag == 0 {
                        self.cbs[process].on_rb_delivered(origin, value);
                    }
                }
            }
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
            let actions = self.engines[to.index()].on_message(from, msg);
            assert_eq!(
                actions.iter().cloned().collect::<Vec<_>>(),
                expected,
                "{to} diverged from the scan reference"
            );
            self.apply(to.index(), actions);
        }
    }

    fn delivered_value(&self, process: usize, origin: ProcessId, tag: Tag) -> Option<Val> {
        self.deliveries
            .iter()
            .find(|&&(p, o, tg, _)| p == process && o == origin && tg == tag)
            .map(|&(_, _, _, v)| v)
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
        soup.broadcast_from(origin, 1, 42);
        soup.run();
        for &p in &correct {
            prop_assert_eq!(
                soup.delivered_value(p, ProcessId::new(origin), 1),
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
        soup.broadcast_from(origin, 1, 9);
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
            soup.inject(byz, p, RbMsg::Init { tag: 3, value });
        }
        soup.run();
        let delivered: BTreeSet<Val> = soup
            .deliveries
            .iter()
            .filter(|&&(p, o, tg, _)| correct.contains(&p) && o == ProcessId::new(byz) && tg == 3)
            .map(|&(_, _, _, v)| v)
            .collect();
        prop_assert!(delivered.len() <= 1, "correct processes delivered {:?}", delivered);
        // And if one correct process delivered, all did (the soup runs to
        // quiescence, so "eventually" means "by the end").
        if delivered.len() == 1 {
            for &p in &correct {
                prop_assert!(
                    soup.delivered_value(p, ProcessId::new(byz), 3).is_some(),
                    "termination-2 violated at process {}", p
                );
            }
        }
    }

    /// Byzantine processes spray INIT/ECHO/READY for any origin, tag and
    /// one of two values at single targets while correct processes
    /// broadcast; every correct engine must act exactly as the scan
    /// reference does (checked inside `run`) and stay RB-Unique.
    #[test]
    fn byzantine_soup_matches_the_scan_reference(
        (cfg, correct) in small_system(),
        seed in any::<u64>(),
        noise in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let byzantine: Vec<usize> = (0..cfg.n()).filter(|i| !correct.contains(i)).collect();
        prop_assume!(!byzantine.is_empty() && !correct.is_empty());
        let mut soup = Soup::new(cfg, correct.clone(), seed);
        for (i, &p) in correct.iter().enumerate() {
            soup.broadcast_from(p, (i % 2) as Tag, 7);
        }
        for w in noise {
            let field = |shift: u32, modulus: usize| (w >> shift) as usize % modulus;
            let origin = ProcessId::new(field(16, cfg.n()));
            let (tag, value) = (field(24, 2) as Tag, 7 + field(32, 2) as Val);
            let msg = match field(40, 3) {
                0 => RbMsg::Init { tag, value },
                1 => RbMsg::Echo { origin, tag, value },
                _ => RbMsg::Ready { origin, tag, value },
            };
            soup.inject(byzantine[field(0, byzantine.len())], correct[field(8, correct.len())], msg);
        }
        soup.run();
        let mut seen = BTreeSet::new();
        for &(p, o, tg, _) in &soup.deliveries {
            prop_assert!(seen.insert((p, o, tg)), "double delivery");
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
            soup.broadcast_from(p, 0, values[assignment[i % assignment.len()]]);
        }
        // Byzantine processes RB-broadcast the alien value 666 (tag 0).
        for b in (0..cfg.n()).filter(|i| !correct.contains(i)) {
            soup.broadcast_from(b, 0, 666);
        }
        soup.run();
        let sets: Vec<BTreeSet<Val>> = correct.iter().map(|&p| soup.cbs[p].cb_valid()).collect();
        for s in &sets {
            prop_assert!(!s.is_empty(), "CB-Set Termination violated");
            prop_assert!(!s.contains(&666), "CB-Set Validity violated: alien value admitted");
            prop_assert_eq!(s, &sets[0]);
        }
    }
}

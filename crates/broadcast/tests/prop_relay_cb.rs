//! Property tests of cooperative broadcast by relay (`Carrier::Relay`,
//! DESIGN.md §9) under random delivery orders and Byzantine relay sprays.
//!
//! Correct processes CB-broadcast one of two feasible values; the
//! Byzantine ones send `CB(v)` for values of their choosing (alien ones,
//! the correct ones, and more than `m_max` distinct values each) to single
//! correct targets. Every step of every correct engine is checked against
//! [`ScanRelay`], the rule read straight off the page with its sender sets
//! kept as lists, and the run is judged on CB-Set Validity, Agreement and
//! Termination once the pool drains.

use std::collections::BTreeSet;

use minsync_broadcast::{Carrier, RbEngine, RbEvent, RbMsg, RbStep};
use minsync_types::{ProcessId, SystemConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The one CB instance's tag: carried by relay.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct CbVal;

impl minsync_broadcast::Tag for CbVal {
    type Rules = ();

    fn carrier(&self, (): ()) -> Carrier {
        Carrier::Relay
    }
}

type Val = u64;
type Msg = RbMsg<CbVal, Val>;
type Step = RbStep<CbVal, Val>;

/// The values correct processes propose: `m = 2`, feasible at `n = 3t + 1`.
const PROPOSED: [Val; 2] = [100, 200];
/// Values no correct process proposes.
const ALIEN: [Val; 3] = [666, 667, 668];

/// The reference: every `(sender, value)` pair counted, in arrival order.
struct ScanRelay {
    cfg: SystemConfig,
    heard: Vec<(ProcessId, Val)>,
    sent: Vec<Val>,
    valid: Vec<Val>,
}

impl ScanRelay {
    fn initiate(&mut self, value: Val) -> Option<Msg> {
        let fresh = !self.sent.contains(&value);
        self.sent.push(value);
        fresh.then_some(RbMsg::Relay { tag: CbVal, value })
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg) -> Step {
        let none = Step {
            broadcast: None,
            event: None,
        };
        let RbMsg::Relay { value, .. } = msg else {
            return none; // Bracha phases of a relayed tag: Byzantine.
        };
        let named: Vec<Val> = self
            .heard
            .iter()
            .filter(|(p, _)| *p == from)
            .map(|&(_, v)| v)
            .collect();
        if named.contains(&value) || named.len() >= self.cfg.m_max() {
            return none; // A duplicate, or a Byzantine sender's extras.
        }
        self.heard.push((from, value));
        let support = self.heard.iter().filter(|(_, v)| *v == value).count();
        let relay = support > self.cfg.t() && !self.sent.contains(&value);
        if relay {
            self.sent.push(value);
        }
        let valid = support > 2 * self.cfg.t() && !self.valid.contains(&value);
        if valid {
            self.valid.push(value);
        }
        Step {
            broadcast: relay.then_some(RbMsg::Relay { tag: CbVal, value }),
            event: valid.then_some(RbEvent::CbValid { tag: CbVal, value }),
        }
    }
}

struct Soup {
    engines: Vec<RbEngine<CbVal, Val>>,
    scans: Vec<ScanRelay>,
    correct: Vec<usize>,
    /// `(from, to, msg)` still owed.
    pool: Vec<(usize, usize, Msg)>,
    /// Per process, the values it reported valid, in order.
    valid: Vec<Vec<Val>>,
    /// Per process, every `CB(v)` it broadcast.
    sent: Vec<Vec<Val>>,
    rng: StdRng,
}

impl Soup {
    fn new(cfg: SystemConfig, correct: Vec<usize>, seed: u64) -> Self {
        let n = cfg.n();
        let me = ProcessId::new;
        Soup {
            engines: (0..n).map(|i| RbEngine::new(cfg, me(i), ())).collect(),
            scans: (0..n)
                .map(|_| ScanRelay {
                    cfg,
                    heard: Vec::new(),
                    sent: Vec::new(),
                    valid: Vec::new(),
                })
                .collect(),
            correct,
            pool: Vec::new(),
            valid: vec![Vec::new(); n],
            sent: vec![Vec::new(); n],
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn broadcast(&mut self, from: usize, msg: Option<Msg>) {
        if let Some(msg) = msg {
            self.sent[from].push(*msg.value());
            for to in 0..self.engines.len() {
                self.pool.push((from, to, msg.clone()));
            }
        }
    }

    fn cb_broadcast(&mut self, p: usize, value: Val) {
        let expected = self.scans[p].initiate(value);
        let msg = self.engines[p].broadcast(CbVal, value);
        assert_eq!(msg, expected, "p{p}'s own CB diverged from the reference");
        self.broadcast(p, msg);
    }

    /// Byzantine spray: each noise word sends `CB(v)` (or, one word in
    /// eight, a Bracha phase of the relayed tag) from a Byzantine process
    /// to one correct process, `v` drawn from the proposed and the alien
    /// values: up to five distinct values per sender, past `m_max = 2`.
    fn spray(&mut self, noise: &[u64]) {
        let n = self.engines.len();
        let byzantine: Vec<usize> = (0..n).filter(|i| !self.correct.contains(i)).collect();
        let pool: Vec<Val> = PROPOSED.iter().chain(&ALIEN).copied().collect();
        for &w in noise {
            let field = |shift: u32, modulus: usize| (w >> shift) as usize % modulus;
            let value = pool[field(16, pool.len())];
            let msg = match field(24, 8) {
                0 => RbMsg::Init { tag: CbVal, value },
                1 => RbMsg::Ready {
                    origin: ProcessId::new(field(32, n)),
                    tag: CbVal,
                    value,
                },
                _ => RbMsg::Relay { tag: CbVal, value },
            };
            let to = self.correct[field(8, self.correct.len())];
            self.pool
                .push((byzantine[field(0, byzantine.len())], to, msg));
        }
    }

    /// Delivers in random order until the pool drains; Byzantine processes
    /// swallow what they receive.
    fn run(&mut self) {
        while !self.pool.is_empty() {
            let at = self.rng.gen_range(0..self.pool.len());
            let (from, to, msg) = self.pool.swap_remove(at);
            if !self.correct.contains(&to) {
                continue;
            }
            let sender = ProcessId::new(from);
            let expected = self.scans[to].on_message(sender, msg.clone());
            let step = self.engines[to].on_message(sender, msg);
            assert_eq!(step, expected, "p{to} diverged from the scan reference");
            if let Some(RbEvent::CbValid { value, .. }) = step.event {
                self.valid[to].push(value);
            }
            self.broadcast(to, step.broadcast);
        }
    }
}

/// `n = 3t + 1` for `t ∈ {1, 2}`, with up to `t` Byzantine processes.
fn small_system() -> impl Strategy<Value = (SystemConfig, Vec<usize>)> {
    (1usize..=2).prop_flat_map(|t| {
        let n = 3 * t + 1;
        proptest::collection::btree_set(0..n, 0..=t).prop_map(move |byz| {
            let correct: Vec<usize> = (0..n).filter(|i| !byz.contains(i)).collect();
            (SystemConfig::new(n, t).unwrap(), correct)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// CB-Set Validity, Agreement and Termination under relay sprays, each
    /// value reported once, and the `m·n²` bound: a correct process sends
    /// each value once and only proposed values.
    #[test]
    fn relay_cb_sets_agree_and_exclude_byzantine_values(
        (cfg, correct) in small_system(),
        seed in any::<u64>(),
        assignment in proptest::collection::vec(0usize..2, 16),
        noise in proptest::collection::vec(any::<u64>(), 0..96),
    ) {
        let mut soup = Soup::new(cfg, correct.clone(), seed);
        for (i, &p) in correct.iter().enumerate() {
            soup.cb_broadcast(p, PROPOSED[assignment[i % assignment.len()]]);
        }
        if correct.len() < cfg.n() {
            soup.spray(&noise);
        }
        soup.run();
        let sets: Vec<BTreeSet<Val>> = correct
            .iter()
            .map(|&p| soup.valid[p].iter().copied().collect())
            .collect();
        for (&p, set) in correct.iter().zip(&sets) {
            prop_assert!(!set.is_empty(), "CB-Set Termination violated at p{}", p);
            prop_assert!(
                set.iter().all(|v| PROPOSED.contains(v)),
                "CB-Set Validity violated at p{}: {:?}", p, set
            );
            prop_assert_eq!(set, &sets[0], "CB-Set Agreement violated at p{}", p);
            prop_assert_eq!(set.len(), soup.valid[p].len(), "a value reported twice at p{}", p);
            let sent: BTreeSet<Val> = soup.sent[p].iter().copied().collect();
            prop_assert_eq!(sent.len(), soup.sent[p].len(), "p{} sent a value twice", p);
            prop_assert!(sent.iter().all(|v| PROPOSED.contains(v)), "p{} relayed {:?}", p, sent);
        }
    }
}

/// A sender naming more than `m_max` values costs one tally entry per
/// value it may name, however many it sprays.
#[test]
fn a_sender_past_m_max_allocates_nothing_more() {
    let cfg = SystemConfig::new(4, 1).unwrap(); // m_max = 2
    let mut engine = RbEngine::new(cfg, ProcessId::new(0), ());
    let byzantine = ProcessId::new(3);
    for value in 0..1_000u64 {
        let step = engine.on_message(byzantine, RbMsg::Relay { tag: CbVal, value });
        assert_eq!(step.broadcast, None);
        assert_eq!(step.event, None);
    }
    assert_eq!(engine.live_instances(), cfg.m_max());
}

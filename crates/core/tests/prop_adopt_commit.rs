//! Property tests of the adopt-commit state machine (Figure 2) under
//! arbitrary delivery orders and Byzantine-shaped inputs.

mod common;

use minsync_broadcast::RbEngine;
use minsync_core::{AcRound, AcTag, CbId, RbTag, Rules};
use minsync_types::{ProcessId, Round, SystemConfig};
use proptest::prelude::*;

const AC_PROP: RbTag = RbTag::CbVal(CbId::AcProp(Round::FIRST));

/// Replays a run of one AC object at one process: `CB_VAL` and `AC_EST`
/// deliveries interleaved in an arbitrary order.
#[derive(Clone, Debug)]
enum Input {
    CbVal { from: usize, value: u64 },
    Est { from: usize, value: u64 },
}

fn input_strategy(n: usize, values: u64) -> impl Strategy<Value = Input> {
    prop_oneof![
        (0..n, 0..values).prop_map(|(from, value)| Input::CbVal { from, value }),
        (0..n, 0..values).prop_map(|(from, value)| Input::Est { from, value }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the interleaving, with one `advance` after each delivery:
    /// the `AC_EST` is handed out at most once, and only once `cb_valid`
    /// is non-empty (its first value); the object returns at most once,
    /// never before the `AC_EST`, with a CB-valid value, and only after
    /// `n − t` estimates.
    #[test]
    fn outcome_is_stable_and_cb_valid(
        inputs in proptest::collection::vec(input_strategy(4, 3), 0..40),
    ) {
        let cfg = SystemConfig::new(4, 1).unwrap();
        let mut ac: AcRound<u64> = AcRound::new(cfg);
        let mut rb = RbEngine::new(cfg, ProcessId::new(0), Rules::PAPER);
        let (mut est, mut returned) = (None, None);
        for input in &inputs {
            match *input {
                Input::CbVal { from, value } => {
                    if let Some(valid) = common::deliver(&mut rb, cfg, AC_PROP, from, value) {
                        ac.on_cb_valid(valid);
                    }
                }
                Input::Est { from, value } => ac.on_est_delivered(ProcessId::new(from), value),
            }
            let step = ac.advance();
            if let Some(v) = step.est {
                prop_assert!(est.is_none(), "AC_EST handed out twice");
                prop_assert_eq!(Some(&v), ac.cb_valid().first(), "not line 1's return");
                est = Some(v);
            }
            prop_assert_eq!(
                est.is_some(),
                !ac.cb_valid().is_empty(),
                "line 1 returned and line 2 did not run"
            );
            if let Some(out) = step.returned {
                prop_assert!(returned.is_none(), "returned twice");
                prop_assert!(est.is_some(), "returned before AC_EST");
                prop_assert!(
                    ac.cb_valid().contains(&out.1),
                    "outcome value {} not CB-valid", out.1
                );
                prop_assert!(ac.est_count() >= cfg.quorum());
                returned = Some(out);
            }
        }
    }

    /// AC-Quasi-agreement across two processes of the *same* execution: if
    /// the RB layer delivers the same (origin, value) pairs — as
    /// RB-Unicity + RB-Termination-2 guarantee — then a commit at one
    /// process forces the same value at the other, whatever the per-process
    /// delivery orders.
    #[test]
    fn quasi_agreement_across_delivery_orders(
        // One global assignment: what each origin RB-broadcast (0/1),
        // with per-origin CB support baked in.
        assignment in proptest::collection::vec(0u64..2, 7),
        order_a in Just(()).prop_perturb(|_, mut rng| {
            let mut v: Vec<usize> = (0..7).collect();
            for i in (1..v.len()).rev() {
                let j = (rng.next_u32() as usize) % (i + 1);
                v.swap(i, j);
            }
            v
        }),
        order_b in Just(()).prop_perturb(|_, mut rng| {
            let mut v: Vec<usize> = (0..7).collect();
            for i in (1..v.len()).rev() {
                let j = (rng.next_u32() as usize) % (i + 1);
                v.swap(i, j);
            }
            v
        }),
    ) {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let run = |order: &[usize]| {
            let mut ac: AcRound<u64> = AcRound::new(cfg);
            let mut rb = RbEngine::new(cfg, ProcessId::new(0), Rules::PAPER);
            // CB validation: every proposed value is supported by its
            // proposers (same at both processes — CB-Set Agreement).
            for (origin, &v) in assignment.iter().enumerate() {
                if let Some(valid) = common::deliver(&mut rb, cfg, AC_PROP, origin, v) {
                    ac.on_cb_valid(valid);
                }
            }
            for &origin in order {
                ac.on_est_delivered(ProcessId::new(origin), assignment[origin]);
            }
            ac.advance().returned
        };
        let a = run(&order_a);
        let b = run(&order_b);
        if let (Some((tag_a, va)), Some((tag_b, vb))) = (a, b) {
            if tag_a == AcTag::Commit {
                prop_assert_eq!(va, vb, "commit at A, different value at B");
            }
            if tag_b == AcTag::Commit {
                prop_assert_eq!(va, vb, "commit at B, different value at A");
            }
        }
    }

    /// AC-Obligation: unanimous CB-valid estimates always commit.
    #[test]
    fn unanimous_always_commits(
        order in Just(()).prop_perturb(|_, mut rng| {
            let mut v: Vec<usize> = (0..7).collect();
            for i in (1..v.len()).rev() {
                let j = (rng.next_u32() as usize) % (i + 1);
                v.swap(i, j);
            }
            v
        }),
        value in 0u64..100,
    ) {
        let cfg = SystemConfig::new(7, 2).unwrap();
        let mut ac: AcRound<u64> = AcRound::new(cfg);
        // Seven origins' CB_VAL(value) make it valid once.
        ac.on_cb_valid(value);
        let mut outcome = None;
        for &origin in &order {
            ac.on_est_delivered(ProcessId::new(origin), value);
            if let Some(out) = ac.advance().returned {
                prop_assert!(outcome.is_none(), "returned twice");
                outcome = Some(out);
            }
        }
        prop_assert_eq!(outcome, Some((AcTag::Commit, value)));
    }
}

//! E3 — Figure 3 / Theorem 3 / Lemma 3: eventual-agreement convergence as a
//! function of the bisource stabilization time τ and of the bisource's
//! identity.
//!
//! Setup (see [`super::ea_lab`]): all `n` processes are correct with split
//! estimates; the *network* is the adversary — the split-brain oracle keeps
//! each process validating its own parity's value first and starves
//! coordinator traffic on asynchronous channels, so rounds can only
//! converge through the bisource's (eventually) timely channels. Measured:
//! the first round in which all processes return the same value and its
//! virtual time. Lemma 3 predicts convergence once (a) the bisource's
//! channels have stabilized (`time > τ`) and (b) the growing timeout
//! exceeds `2δ`; the shape to reproduce is `agree_round` / `agree_time`
//! tracking `τ`.

use super::ea_lab::{converge, EaLabParams};
use super::seeds;
use crate::Table;

const DELTA: u64 = 4;

/// Runs E3.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E3 — Eventual agreement (Figure 3): convergence vs bisource stabilization τ",
        [
            "n",
            "t",
            "bisource",
            "tau",
            "agree_round",
            "agree_time",
            "lemma3_round_floor",
        ],
    );
    let (n, t) = (4, 1);
    let taus: Vec<u64> = if quick {
        vec![0, 400]
    } else {
        vec![0, 200, 800, 3200]
    };
    for tau in taus {
        for seed in seeds(quick) {
            push_row(&mut table, n, t, 1, tau, seed);
        }
    }
    // Bisource identity sweep at fixed τ.
    if !quick {
        for ell in 0..n {
            for seed in seeds(quick) {
                push_row(&mut table, n, t, ell, 200, seed);
            }
        }
    }
    table
}

fn push_row(table: &mut Table, n: usize, t: usize, ell: usize, tau: u64, seed: u64) {
    let mut p = EaLabParams::new(n, t);
    p.bisource = ell;
    p.tau = tau;
    p.delta = DELTA;
    p.seed = seed;
    let c = converge(&p);
    table.push_row([
        n.to_string(),
        t.to_string(),
        format!("p{}", ell + 1),
        tau.to_string(),
        c.map_or("none".into(), |c| c.round.to_string()),
        c.map_or("none".into(), |c| c.time.to_string()),
        (2 * DELTA + 1).to_string(),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_bisource_converges() {
        let mut p = EaLabParams::new(4, 1);
        p.seed = 3;
        assert!(
            converge(&p).is_some(),
            "EA must converge with a τ=0 bisource"
        );
    }

    #[test]
    fn late_bisource_converges_later_in_time() {
        // With the hostile oracle, convergence rides on the bisource;
        // stabilizing at τ = 3000 cannot beat τ = 0 on the same seed.
        let mut early = EaLabParams::new(4, 1);
        early.seed = 7;
        let mut late = early.clone();
        late.tau = 3000;
        let e = converge(&early).unwrap().time;
        let l = converge(&late).unwrap().time;
        assert!(
            l >= e,
            "stabilization at τ=3000 cannot converge earlier than τ=0 ({l} < {e})"
        );
    }

    #[test]
    fn every_bisource_identity_converges() {
        for ell in 0..4 {
            let mut p = EaLabParams::new(4, 1);
            p.bisource = ell;
            p.tau = 50;
            p.seed = 5;
            assert!(converge(&p).is_some(), "bisource p{} failed", ell + 1);
        }
    }
}

use rand::rngs::SplitMix64;
use rand::{Rng, SeedableRng};

/// How a client stream's commands arrive, in virtual ticks.
///
/// Arrival times feed the latency accounting ([`crate::account`]); batch
/// *content* is a pure function of the commit stream (see the crate docs),
/// so two replicas never disagree about what to propose because their
/// clocks differ.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Open loop: interarrival gaps drawn from an exponential distribution
    /// with the given mean (a Poisson process of rate `1 / mean_gap`),
    /// sampled from the vendored SplitMix64 stream.
    Poisson {
        /// Mean interarrival gap in ticks (finite, > 0).
        mean_gap: f64,
    },
    /// Open loop, bursty: commands arrive `burst` at a time, one burst
    /// every `period` ticks — the adversarial arrival shape for tail
    /// latency.
    Bursty {
        /// Commands per burst (> 0).
        burst: usize,
        /// Ticks between bursts.
        period: u64,
    },
    /// Closed loop: each client keeps exactly one command in flight and
    /// submits the next one `think` ticks after the previous commit.
    /// Submit times are derived from observed commits during accounting.
    ClosedLoop {
        /// Think time between a commit and the next submission.
        think: u64,
    },
}

impl ArrivalProcess {
    /// Submit ticks for one client's first `count` commands.
    ///
    /// Deterministic per `(self, seed)`. For [`ArrivalProcess::ClosedLoop`]
    /// the schedule is commit-driven, so this returns zeros — the real
    /// submit times are reconstructed by [`crate::account`].
    pub fn submit_ticks(&self, seed: u64, count: usize) -> Vec<u64> {
        match *self {
            ArrivalProcess::Poisson { mean_gap } => {
                assert!(
                    mean_gap.is_finite() && mean_gap > 0.0,
                    "mean gap must be positive and finite"
                );
                let mut rng = SplitMix64::seed_from_u64(seed);
                let mut t = 0u64;
                (0..count)
                    .map(|_| {
                        // Inverse-CDF exponential; 1 − u ∈ (0, 1] avoids ln(0).
                        let u: f64 = rng.gen();
                        let gap = (-(1.0 - u).ln() * mean_gap).round() as u64;
                        t = t.saturating_add(gap);
                        t
                    })
                    .collect()
            }
            ArrivalProcess::Bursty { burst, period } => {
                assert!(burst > 0, "burst must be positive");
                (0..count)
                    .map(|k| period.saturating_mul((k / burst) as u64))
                    .collect()
            }
            ArrivalProcess::ClosedLoop { .. } => vec![0; count],
        }
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> String {
        match self {
            ArrivalProcess::Poisson { mean_gap } => format!("poisson(gap={mean_gap})"),
            ArrivalProcess::Bursty { burst, period } => format!("bursty({burst}/{period}t)"),
            ArrivalProcess::ClosedLoop { think } => format!("closed(think={think}t)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_nondecreasing() {
        let p = ArrivalProcess::Poisson { mean_gap: 10.0 };
        let a = p.submit_ticks(3, 100);
        let b = p.submit_ticks(3, 100);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap roughly matches (100 samples, loose bound).
        let mean = *a.last().unwrap() as f64 / 100.0;
        assert!((2.0..50.0).contains(&mean), "mean gap wildly off: {mean}");
        // A different seed gives a different schedule.
        assert_ne!(a, p.submit_ticks(4, 100));
    }

    #[test]
    fn bursts_arrive_in_groups() {
        let b = ArrivalProcess::Bursty {
            burst: 3,
            period: 10,
        };
        assert_eq!(b.submit_ticks(0, 7), [0, 0, 0, 10, 10, 10, 20]);
    }

    #[test]
    fn burst_ticks_saturate_instead_of_overflowing() {
        let b = ArrivalProcess::Bursty {
            burst: 1,
            period: u64::MAX,
        };
        assert_eq!(b.submit_ticks(0, 3), [0, u64::MAX, u64::MAX]);
    }

    #[test]
    fn closed_loop_defers_to_accounting() {
        let c = ArrivalProcess::ClosedLoop { think: 5 };
        assert_eq!(c.submit_ticks(9, 3), [0, 0, 0]);
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            ArrivalProcess::Poisson { mean_gap: 2.0 }.label(),
            ArrivalProcess::Bursty {
                burst: 4,
                period: 8,
            }
            .label(),
            ArrivalProcess::ClosedLoop { think: 1 }.label(),
        ];
        assert_eq!(
            labels
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            3
        );
    }
}

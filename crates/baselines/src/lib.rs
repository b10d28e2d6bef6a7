//! Baseline consensus algorithms for comparison with the paper's
//! minimal-synchrony algorithm.
//!
//! The paper positions its deterministic algorithm against the *randomized*
//! school (footnote 1, citing Ben-Or \[5\] and Mostéfaoui–Moumen–Raynal
//! \[22\]): randomized algorithms need **no** synchrony assumption at all but
//! only terminate with probability 1, and their expected round count
//! degrades with `n` and with adversarial scheduling. [`BenOrNode`] is the
//! classic local-coin binary consensus on the same substrate, giving the
//! round/message comparison of experiment E7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ben_or;

pub use ben_or::{BenOrEvent, BenOrMsg, BenOrNode};

//! The minsync performance ledger: six workloads, end-to-end metrics with
//! regression bounds, and a per-layer table — all measured from outside,
//! through the public functions of the crates under `../crates`. See
//! `README.md` for the metric definitions and how to read them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod e2e;
pub mod layers;
pub mod ledger;
pub mod measure;
pub mod micro;
pub mod report;
pub mod spec;
pub mod substrate;

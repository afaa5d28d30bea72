//! Experiment harness: one runner per figure/table of the paper.
//!
//! Every experiment of the paper's evaluation section has a module here
//! that regenerates its rows/series from the workspace's simulators and
//! models, returning a structured result (so tests can assert shapes) with
//! a `Display` implementation that prints the same table/series the paper
//! reports.
//!
//! The `repro` binary drives them:
//!
//! ```text
//! cargo run --release -p bpimc-bench --bin repro -- all
//! cargo run --release -p bpimc-bench --bin repro -- fig2 --samples 2000
//! ```
//!
//! | runner | paper artefact |
//! |---|---|
//! | [`experiments::fig2`]   | Fig. 2 — MC distribution of BL computing delay |
//! | [`experiments::fig7a`]  | Fig. 7(a) — BL computing delay per process corner |
//! | [`experiments::fig7b`]  | Fig. 7(b) — FA critical path vs supply voltage |
//! | [`experiments::fig8`]   | Fig. 8 — cycle breakdown, Fmax and TOPS/W vs VDD |
//! | [`experiments::fig9`]   | Fig. 9 — cycles/op vs BL size, proposed vs bit-serial |
//! | [`experiments::table1`] | Table I — supported operations and cycle counts |
//! | [`experiments::table2`] | Table II — energy per operation |
//! | [`experiments::table3`] | Table III — comparison with the state of the art |
//! | [`experiments::ablation`] | ablations: pulse width, booster removed, separator off |
//! | [`experiments::vrange`] | circuit-level 0.6-1.1 V supply-range validation |

pub mod experiments;
pub mod shapes;
pub(crate) mod textfmt;

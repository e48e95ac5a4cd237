//! # costream-bench — the experiment harness
//!
//! Regenerates every table and figure of the Costream evaluation (§VII)
//! against the bundled substrates. Each `exp*` module's docs say which
//! table or figure it reproduces, and its report prints the paper's
//! numbers beside the measured ones.
//!
//! Run with `cargo run -p costream-bench --release --bin experiments -- all`
//! or name a single experiment (`exp1`, `exp2`, `exp3`, `exp4`, `exp5`,
//! `exp6`, `exp7`).

#![warn(missing_docs)]

pub mod exp1;
pub mod exp2;
pub mod exp34;
pub mod exp56;
pub mod exp7;
pub mod harness;

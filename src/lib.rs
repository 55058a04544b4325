//! # awake — sub-logarithmic awake complexity for sequential greedy problems
//!
//! Umbrella crate re-exporting the whole workspace. See the README for a
//! tour; its "Paper-to-module correspondence" section maps each lemma and
//! theorem of the paper to its module.

#![forbid(unsafe_code)]

pub use awake_core as core;
pub use awake_graphs as graphs;
pub use awake_olocal as olocal;
pub use awake_sleeping as sleeping;

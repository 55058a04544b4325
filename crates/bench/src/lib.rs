//! Shared helpers for the experiment harness.
//!
//! Each `benches/exp_*.rs` target regenerates one evaluation artifact of
//! the paper and prints a table; each target's module doc states what it
//! measures and the claim it checks, and the README's "Paper-to-module
//! correspondence" section maps the paper's lemmas to the modules run.

use awake_core::trivial::TrivialGreedy;
use awake_graphs::Graph;
use awake_olocal::OLocalProblem;
use awake_sleeping::{Config, Engine, Metrics};

/// Run the trivial baseline and return its metrics.
pub fn run_trivial<P: OLocalProblem + Clone + Send + Sync>(g: &Graph, p: &P) -> Metrics {
    let inputs = p.trivial_inputs(g);
    let programs: Vec<TrivialGreedy<P>> = g
        .nodes()
        .map(|v| TrivialGreedy::new(p.clone(), inputs[v.index()].clone()))
        .collect();
    Engine::new(g, Config::default())
        .run(programs)
        .expect("trivial baseline runs")
        .metrics
}

/// Print a table header and a separator sized to it.
pub fn header(cols: &str) {
    println!("{cols}");
    println!("{}", "-".repeat(cols.len().min(120)));
}

//! Edge problems via line-graph virtualization: maximal matching and
//! (2Δ−1)-edge coloring on every registered graph family, on both the
//! serial engine and the worker-pool executor.
//!
//! A thin front-end over the `awake-lab` scenario harness (`edges`
//! preset), plus a direct pass that re-runs one graph through the adapter
//! and checks the distributed outputs against the sequential edge greedy
//! — the class-defining reference — edge by edge.
//!
//! ```sh
//! cargo run --release --example edge_problems
//! ```

use awake::core::linegraph;
use awake::graphs::generators;
use awake::olocal::edge::{solve_edges_sequentially, EdgeColoring, EdgeIndex, MaximalMatching};
use awake::olocal::EdgeProblem;
use awake::sleeping::{Config, FaultPlan};
use awake_lab::runner::Runner;
use awake_lab::scenario::presets;

fn main() {
    // 1. The harness view: the full `edges` preset, sharded.
    let scenarios = presets::by_name("edges").expect("edges preset exists");
    let report = Runner::sharded(4)
        .run("edges", &scenarios, 11)
        .expect("edges suite runs");
    print!("{}", report.text_table());
    assert!(
        report.scenarios.iter().all(|s| s.valid),
        "every edge scenario must validate"
    );

    // Serial/threaded scenario pairs share a graph instance, so their
    // deterministic metrics must agree row for row.
    for pair in report.scenarios.chunks(2) {
        let [serial, threaded] = pair else {
            unreachable!("edges preset pairs scenarios")
        };
        assert_eq!(
            serial.metrics, threaded.metrics,
            "executor pair disagrees: {} vs {}",
            serial.name, threaded.name
        );
    }

    // 2. The direct view: one graph, adapter vs sequential reference.
    let g = generators::gnp(96, 0.07, 5);
    let idx = EdgeIndex::new(&g);
    println!(
        "\ndirect check: G(n={}, m={}), line graph on {} virtual nodes",
        g.n(),
        g.m(),
        idx.m()
    );
    let inputs = MaximalMatching.trivial_inputs(&g);
    let run = linegraph::solve_edges(&g, &MaximalMatching, &inputs, Config::default())
        .expect("adapter runs");
    let seq = solve_edges_sequentially(&MaximalMatching, &g, &idx, &inputs);
    assert_eq!(run.outputs, seq, "adapter must equal the sequential greedy");
    MaximalMatching
        .validate(&g, &inputs, &run.outputs)
        .expect("matching is maximal and independent");
    let matched = run.outputs.iter().filter(|&&b| b).count();
    println!(
        "maximal matching: {matched} edges, rounds = {}, max awake = {}",
        run.metrics.rounds,
        run.metrics.max_awake()
    );

    let cinputs = EdgeColoring.trivial_inputs(&g);
    let col = linegraph::solve_edges_faulty(
        &g,
        &EdgeColoring,
        &cinputs,
        Config::default(),
        &FaultPlan::new(0),
        Some(4),
    )
    .expect("adapter runs threaded");
    EdgeColoring
        .validate(&g, &cinputs, &col.outputs)
        .expect("edge coloring is proper and within palette");
    let palette = col.outputs.iter().max().map_or(0, |&c| c + 1);
    println!(
        "(2Δ-1)-edge coloring: {palette} colors used (palette bound {}), rounds = {}",
        2 * g.max_degree() - 1,
        col.metrics.rounds
    );
    println!("\nedge problems OK");
}

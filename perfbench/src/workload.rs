//! The two workloads: how each builds its input from a seed, which public
//! solver entry point it calls, and how each result is checked.
//!
//! The inputs are kept small. On a host whose last-level cache and memory
//! are shared with other machines, BM21 on 2^14 nodes or more ran up to
//! 40% slower or faster from one minute to the next; on 2^11 nodes its
//! working set stays in a core's own caches and its run-to-run spread was
//! about half as large.

use crate::trace::Tracer;
use awake_core::bm21;
use awake_core::bounds::{self, BoundAlgo, Budget, ProblemClass};
use awake_core::clustering::Clustering;
use awake_core::compose::Composition;
use awake_core::params::Params;
use awake_core::theorem1::{self, Options};
use awake_core::theorem13::{self, IterationStats};
use awake_core::theorem9;
use awake_graphs::{generators, Graph};
use awake_olocal::problems::DeltaPlusOneColoring;
use awake_olocal::OLocalProblem;
use awake_sleeping::{FaultPlan, SimError};

/// Every workload solves (Δ+1)-coloring.
pub const PROBLEM: DeltaPlusOneColoring = DeltaPlusOneColoring;

/// Nodes of BM21's sparse G(n, 4/(n−1)) input. Its Δ is 10 to 15 for all
/// but about 1% of seeds, so Linial's final palette (the square of the
/// next prime above 2Δ + 1) stays within one power of two and BM21's round
/// count barely moves from seed to seed.
const BM21_N: usize = 1 << 11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 1 where iteration 1 merges the graph into one deep cluster.
    T1Deep,
    /// BM21 under drop and crash faults, on the serial engine.
    Bm21Faults,
}

pub const ALL: [Workload; 2] = [Workload::T1Deep, Workload::Bm21Faults];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::T1Deep => "t1-deep",
            Workload::Bm21Faults => "bm21-faults",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_theorem1(self) -> bool {
        self == Workload::T1Deep
    }

    fn graph(self, seed: u64) -> Graph {
        match self {
            Workload::T1Deep => generators::random_with_max_degree(384, 12, seed),
            Workload::Bm21Faults => generators::gnp_sparse(BM21_N, 4.0 / (BM21_N - 1) as f64, seed),
        }
    }

    fn fault_plan(self, seed: u64) -> Option<FaultPlan> {
        (self == Workload::Bm21Faults).then(|| FaultPlan {
            drop_ppm: 20_000,
            crash_ppm: 2_000,
            ..FaultPlan::new(seed)
        })
    }

    /// Generate the workload's input. With a tracer, graph generation —
    /// the only set-up step with a layer of its own — runs in a
    /// `graphs.build` span.
    pub fn setup(self, seed: u64, tracer: Option<&mut Tracer>) -> Instance {
        let g = match tracer {
            Some(t) => t.span("graphs.build", |_| self.graph(seed)),
            None => self.graph(seed),
        };
        let inputs = PROBLEM.trivial_inputs(&g);
        let params = Params::for_graph(&g);
        Instance {
            workload: self,
            plan: self.fault_plan(seed),
            g,
            inputs,
            params,
        }
    }
}

/// One generated input.
pub struct Instance {
    pub workload: Workload,
    pub g: Graph,
    pub inputs: Vec<()>,
    pub params: Params,
    pub plan: Option<FaultPlan>,
}

/// What a solve returns, in the shape shared by both pipelines.
pub struct Outcome {
    pub outputs: Vec<u64>,
    pub composition: Composition,
    /// Theorem 1 only: the intermediate clustering and Theorem 13's
    /// per-iteration statistics.
    pub clustering: Option<Clustering>,
    pub iteration_stats: Vec<IterationStats>,
}

/// The exact simulated counts a performance change must not move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub max_awake: u64,
    pub rounds: u64,
    pub awake_events: u64,
}

impl Outcome {
    pub fn counts(&self) -> Counts {
        Counts {
            max_awake: self.composition.max_awake(),
            rounds: self.composition.rounds(),
            awake_events: self.composition.awake_events(),
        }
    }

    /// Whether two runs agree bit for bit: outputs, every stage's name and
    /// `Metrics`, and (Theorem 1) the clustering and iteration statistics.
    pub fn identical(&self, other: &Outcome) -> bool {
        let stages = |o: &Outcome| {
            o.composition
                .stages
                .iter()
                .map(|s| (s.name.clone(), s.metrics.clone()))
                .collect::<Vec<_>>()
        };
        self.outputs == other.outputs
            && self.clustering == other.clustering
            && self.iteration_stats == other.iteration_stats
            && stages(self) == stages(other)
    }
}

impl Instance {
    /// Solve through the workload's public entry point, untraced.
    pub fn solve(&self) -> Result<Outcome, SimError> {
        let (g, inputs) = (&self.g, &self.inputs[..]);
        if self.workload.is_theorem1() {
            let options = Options {
                params: Some(self.params),
            };
            let r = theorem1::solve_with_inputs(g, &PROBLEM, inputs, options)?;
            return Ok(Outcome {
                outputs: r.outputs,
                composition: r.composition,
                clustering: Some(r.clustering),
                iteration_stats: r.iteration_stats,
            });
        }
        let plan = self
            .plan
            .as_ref()
            .expect("the BM21 workload has a fault plan");
        let r = bm21::solve_faulty(g, &PROBLEM, inputs, None, plan, None)?;
        Ok(Outcome {
            outputs: r.outputs,
            composition: r.composition,
            clustering: None,
            iteration_stats: Vec::new(),
        })
    }

    /// Solve with a span around each public call. Theorem 1 is taken apart
    /// into the two calls it makes, `theorem13::compute` then
    /// `theorem9::solve`, composed the way `theorem1` composes them.
    pub fn solve_traced(&self, tracer: &mut Tracer) -> Result<Outcome, SimError> {
        if !self.workload.is_theorem1() {
            return tracer.span("bm21.solve", |_| self.solve());
        }
        let (g, params) = (&self.g, &self.params);
        tracer.span("theorem1", |tracer| {
            let t13 = tracer.span("theorem13.compute", |_| theorem13::compute(g, params))?;
            let t9 = tracer.span("theorem9.solve", |_| {
                theorem9::solve(
                    g,
                    &PROBLEM,
                    &self.inputs,
                    &t13.clustering,
                    params.color_bound(),
                )
            })?;
            let mut composition = Composition::new();
            composition.extend_prefixed("theorem1", t13.composition);
            composition.extend_prefixed("theorem1", t9.composition);
            Ok(Outcome {
                outputs: t9.outputs,
                composition,
                clustering: Some(t13.clustering),
                iteration_stats: t13.iteration_stats,
            })
        })
    }

    /// The closed-form budget the run is audited against: Theorem 1's, or
    /// BM21's degraded under the fault plan.
    fn budget(&self) -> Budget {
        let (g, p) = (&self.g, &self.params);
        let budget = match &self.plan {
            None => bounds::budget_for(BoundAlgo::Theorem1, ProblemClass::Vertex, g, p),
            Some(plan) => {
                bounds::degraded_budget_for(BoundAlgo::Bm21, ProblemClass::Vertex, g, p, plan)
            }
        };
        budget.expect("vertex problems have Theorem 1 and BM21 budgets")
    }

    /// Check one solve: the problem's `validate`, the closed-form budget,
    /// and the exact counts against `expected` when it is known.
    pub fn check(&self, outcome: &Outcome, expected: Option<Counts>) -> Result<(), String> {
        PROBLEM
            .validate(&self.g, &self.inputs, &outcome.outputs)
            .map_err(|v| format!("invalid output: {v:?}"))?;
        let c = outcome.counts();
        let b = self.budget();
        if c.max_awake > b.awake || c.rounds > b.rounds {
            return Err(format!(
                "over budget: awake {}/{} rounds {}/{}",
                c.max_awake, b.awake, c.rounds, b.rounds
            ));
        }
        match expected {
            Some(e) if e != c => Err(format!("counts {c:?} differ from expected {e:?}")),
            _ => Ok(()),
        }
    }
}

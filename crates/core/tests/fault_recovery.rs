//! The recovery contract, end to end: under a seeded [`FaultPlan`] with a
//! quiet period after the last fault, every resilient solver still
//! produces a **valid** output, its resource usage stays within the
//! closed-form **degraded budget**
//! ([`bounds::degraded_budget_for`]), and the run is **bit-for-bit
//! identical** on the serial engine and the worker-pool executor at 1, 2,
//! 4, and 8 workers — for the trivial baseline, BM21, the Theorem 1
//! staged pipeline (gather + virtual-graph layers included), and the
//! line-graph edge adapter.
//!
//! Fault rolls are pure functions of the plan seed, so each plan below is
//! a *fixed, verified adversary*: the tests are exact and deterministic,
//! not statistical. Drops in particular are covered per seed (every
//! retransmitted copy of a message is rolled independently, so a hostile
//! seed could kill all of them) — which is precisely why the contract is
//! checked against pinned seeds rather than argued by construction.

use awake_core::bounds::{self, BoundAlgo, ProblemClass};
use awake_core::compose::Composition;
use awake_core::linegraph::{self, greedy_hosts};
use awake_core::resilient::run_stage;
use awake_core::trivial::TrivialGreedy;
use awake_core::{bm21, theorem1};
use awake_graphs::{generators, Graph};
use awake_olocal::edge::{EdgeIndex, MaximalMatching};
use awake_olocal::problems::{DeltaPlusOneColoring, MaximalIndependentSet};
use awake_olocal::{EdgeProblem, OLocalProblem};
use awake_sleeping::{
    redundancy_for, Codec, Config, Engine, FaultPlan, Metrics, Paused, Persist, Program, Redundant,
};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// A dense crash burst early in each stage, then silence: the adversary
/// of the contract's "targeted crashes" clause.
fn crash_burst(seed: u64) -> FaultPlan {
    FaultPlan {
        crash_ppm: 600_000,
        burst_start: 2,
        burst_len: 6,
        quiet_after: 30,
        ..FaultPlan::new(seed)
    }
}

/// Every fault kind at once at moderate rates, quiet after round 25.
fn messy(seed: u64) -> FaultPlan {
    FaultPlan {
        drop_ppm: 40_000,
        dup_ppm: 30_000,
        delay_ppm: 30_000,
        delay_rounds: 2,
        crash_ppm: 60_000,
        quiet_after: 25,
        ..FaultPlan::new(seed)
    }
}

fn assert_within(metrics_awake: u64, metrics_rounds: u64, b: bounds::Budget, what: &str) {
    assert!(
        metrics_awake <= b.awake,
        "{what}: awake {metrics_awake} > degraded budget {}",
        b.awake
    );
    assert!(
        metrics_rounds <= b.rounds,
        "{what}: rounds {metrics_rounds} > degraded budget {}",
        b.rounds
    );
}

/// Equal stage lists: same names, same `Metrics`, stage by stage.
fn assert_same_stages(a: &Composition, b: &Composition, what: &str) {
    assert_eq!(a.stages.len(), b.stages.len(), "{what}: stage count");
    for (x, y) in a.stages.iter().zip(&b.stages) {
        assert_eq!(x.name, y.name, "{what}: stage names");
        assert_eq!(x.metrics, y.metrics, "{what}: {} metrics", x.name);
    }
}

// ---- trivial baseline ----

#[test]
fn trivial_recovers_within_the_degraded_budget_at_every_worker_count() {
    for g in [generators::gnp(36, 0.14, 4), generators::cycle(18)] {
        let p = awake_core::params::Params::for_graph(&g);
        for plan in [crash_burst(0xEE1), messy(0xEE2)] {
            let budget = bounds::degraded_budget_for(
                BoundAlgo::Trivial,
                ProblemClass::Vertex,
                &g,
                &p,
                &plan,
            )
            .unwrap();
            let make = || -> Vec<TrivialGreedy<MaximalIndependentSet>> {
                g.nodes()
                    .map(|_| TrivialGreedy::new(MaximalIndependentSet, ()))
                    .collect()
            };
            let base = bounds::trivial_rounds(&g);
            let serial = run_stage(&g, make(), Config::default(), base, Some(&plan), None).unwrap();
            assert!(
                serial.metrics.faults_crashed > 0,
                "plan {:#x} injected no crashes",
                plan.seed
            );
            MaximalIndependentSet
                .validate(&g, &vec![(); g.n()], &serial.outputs)
                .unwrap();
            assert_within(
                serial.metrics.max_awake(),
                serial.metrics.rounds,
                budget,
                "trivial",
            );
            for w in WORKERS {
                let t =
                    run_stage(&g, make(), Config::default(), base, Some(&plan), Some(w)).unwrap();
                assert_eq!(serial.outputs, t.outputs, "{w} workers: outputs");
                assert_eq!(serial.metrics, t.metrics, "{w} workers: metrics");
            }
        }
    }
}

// ---- BM21 ----

#[test]
fn bm21_recovers_within_the_degraded_budget_at_every_worker_count() {
    for g in [generators::gnp(40, 0.1, 6), generators::grid(5, 6)] {
        let p = awake_core::params::Params::for_graph(&g);
        // An inactive plan is one more input: it must run exactly like
        // the fault-free `bm21::solve`, at every worker count.
        let fault_free = bm21::solve(&g, &DeltaPlusOneColoring, &vec![(); g.n()], None).unwrap();
        for plan in [crash_burst(0xB1), messy(0xB2), FaultPlan::new(0xB0)] {
            let budget =
                bounds::degraded_budget_for(BoundAlgo::Bm21, ProblemClass::Vertex, &g, &p, &plan)
                    .unwrap();
            let serial = bm21::solve_faulty(
                &g,
                &DeltaPlusOneColoring,
                &vec![(); g.n()],
                None,
                &plan,
                None,
            )
            .unwrap();
            if !plan.is_active() {
                assert_eq!(fault_free.outputs, serial.outputs, "inactive plan: outputs");
                assert_eq!(fault_free.colors, serial.colors, "inactive plan: colors");
                assert_same_stages(
                    &fault_free.composition,
                    &serial.composition,
                    "inactive plan",
                );
            }
            DeltaPlusOneColoring
                .validate(&g, &vec![(); g.n()], &serial.outputs)
                .unwrap();
            awake_graphs::coloring::check_proper(&g, &serial.colors).unwrap();
            assert_within(
                serial.composition.max_awake(),
                serial.composition.rounds(),
                budget,
                "bm21",
            );
            for w in WORKERS {
                let t = bm21::solve_faulty(
                    &g,
                    &DeltaPlusOneColoring,
                    &vec![(); g.n()],
                    None,
                    &plan,
                    Some(w),
                )
                .unwrap();
                assert_eq!(serial.outputs, t.outputs, "{w} workers: outputs");
                assert_eq!(serial.colors, t.colors, "{w} workers: colors");
                assert_same_stages(&serial.composition, &t.composition, &format!("{w} workers"));
            }
        }
    }
}

// ---- Theorem 1 (staged pipeline: gather + virt layers included) ----

#[test]
fn theorem1_recovers_within_the_degraded_budget_at_every_worker_count() {
    let g = generators::gnp(20, 0.2, 3);
    let p = awake_core::params::Params::for_graph(&g);
    // An inactive plan is one more input: it must run exactly like the
    // fault-free `theorem1::solve_with_inputs`, at every worker count.
    let fault_free = theorem1::solve_with_inputs(
        &g,
        &MaximalIndependentSet,
        &vec![(); g.n()],
        theorem1::Options::default(),
    )
    .unwrap();
    for plan in [crash_burst(0x71), FaultPlan::new(0x70)] {
        let budget =
            bounds::degraded_budget_for(BoundAlgo::Theorem1, ProblemClass::Vertex, &g, &p, &plan)
                .unwrap();
        let serial = theorem1::solve_faulty(
            &g,
            &MaximalIndependentSet,
            theorem1::Options::default(),
            &plan,
            None,
        )
        .unwrap();
        MaximalIndependentSet
            .validate(&g, &vec![(); g.n()], &serial.outputs)
            .unwrap();
        serial.clustering.validate_colored(&g).unwrap();
        assert_within(
            serial.composition.max_awake(),
            serial.composition.rounds(),
            budget,
            "theorem1",
        );
        if !plan.is_active() {
            assert_eq!(fault_free.outputs, serial.outputs, "inactive plan: outputs");
            assert_eq!(
                fault_free.iteration_stats, serial.iteration_stats,
                "inactive plan: iteration stats"
            );
            assert_same_stages(
                &fault_free.composition,
                &serial.composition,
                "inactive plan",
            );
        }
        for w in WORKERS {
            let t = theorem1::solve_faulty(
                &g,
                &MaximalIndependentSet,
                theorem1::Options::default(),
                &plan,
                Some(w),
            )
            .unwrap();
            assert_eq!(serial.outputs, t.outputs, "{w} workers: outputs");
            assert_same_stages(&serial.composition, &t.composition, &format!("{w} workers"));
        }
    }
}

#[test]
fn theorem1_survives_a_message_fault_mix() {
    let g = generators::cycle(14);
    let p = awake_core::params::Params::for_graph(&g);
    let plan = messy(0x72);
    let budget =
        bounds::degraded_budget_for(BoundAlgo::Theorem1, ProblemClass::Vertex, &g, &p, &plan)
            .unwrap();
    let r = theorem1::solve_faulty(
        &g,
        &DeltaPlusOneColoring,
        theorem1::Options::default(),
        &plan,
        None,
    )
    .unwrap();
    DeltaPlusOneColoring
        .validate(&g, &vec![(); g.n()], &r.outputs)
        .unwrap();
    assert_within(
        r.composition.max_awake(),
        r.composition.rounds(),
        budget,
        "theorem1/messy",
    );
}

// ---- the line-graph edge adapter ----

#[test]
fn edge_adapter_recovers_within_the_degraded_budget_at_every_worker_count() {
    let g = generators::gnp(14, 0.25, 2);
    let p = awake_core::params::Params::for_graph(&g);
    let inputs = MaximalMatching.trivial_inputs(&g);
    for plan in [crash_burst(0xED1), messy(0xED2)] {
        let budget =
            bounds::degraded_budget_for(BoundAlgo::Trivial, ProblemClass::Edge, &g, &p, &plan)
                .unwrap();
        let serial = linegraph::solve_edges_faulty(
            &g,
            &MaximalMatching,
            &inputs,
            Config::default(),
            &plan,
            None,
        )
        .unwrap();
        MaximalMatching
            .validate(&g, &inputs, &serial.outputs)
            .unwrap();
        assert_within(
            serial.metrics.max_awake(),
            serial.metrics.rounds,
            budget,
            "edge adapter",
        );
        for w in WORKERS {
            let t = linegraph::solve_edges_faulty(
                &g,
                &MaximalMatching,
                &inputs,
                Config::default(),
                &plan,
                Some(w),
            )
            .unwrap();
            assert_eq!(serial.outputs, t.outputs, "{w} workers: outputs");
            assert_eq!(serial.metrics, t.metrics, "{w} workers: metrics");
        }
    }
}

// ---- mid-outage snapshots ----

/// Snapshot the wrapped faulty run at every round of the fault window
/// (which includes rounds where crashed nodes are mid-outage, i.e. still
/// in recovery) and check that restore + run-to-end lands bit-for-bit on
/// the uninterrupted faulty run, serially and on the threaded executor.
fn check_mid_outage_snapshots<P, F>(g: &Graph, make: F, plan: &FaultPlan, what: &str) -> Metrics
where
    P: Program + Persist + Send,
    P::Msg: Codec,
    P::Output: Codec + PartialEq + std::fmt::Debug,
    F: Fn() -> Vec<P>,
{
    let engine = Engine::new(g, Config::default());
    let full = engine.run_faulty(make(), plan).unwrap();
    assert!(
        full.metrics.faults_crashed > 0,
        "{what}: the plan must actually crash nodes"
    );
    // The window where outages (and their recovery tails) live; +8 covers
    // recovery rounds past the last injection.
    let horizon = plan.quiet_after.saturating_add(8).min(full.metrics.rounds);
    let mut paused = 0;
    for r in 1..=horizon {
        let snap = match engine.snapshot_at(make(), Some(plan), r).unwrap() {
            Paused::Snapshot(s) => s,
            Paused::Done(_) => continue,
        };
        paused += 1;
        let resumed = engine.resume(make(), &snap).unwrap();
        assert_eq!(full.outputs, resumed.outputs, "{what}: outputs @ {r}");
        assert_eq!(full.metrics, resumed.metrics, "{what}: metrics @ {r}");
        let resumed = Engine::with_workers(g, Config::default(), Some(3))
            .resume(make(), &snap)
            .unwrap();
        assert_eq!(
            full.outputs, resumed.outputs,
            "{what}: threaded outputs @ {r}"
        );
        assert_eq!(
            full.metrics, resumed.metrics,
            "{what}: threaded metrics @ {r}"
        );
    }
    assert!(
        paused > 0,
        "{what}: no round paused inside the fault window"
    );
    full.metrics
}

#[test]
fn mid_outage_snapshots_are_bit_for_bit_for_every_resilient_program() {
    let plan = FaultPlan {
        crash_ppm: 250_000,
        quiet_after: 16,
        ..FaultPlan::new(0x5A)
    };

    // Trivial baseline, wrapped exactly as the resilient paths wrap it.
    let g = generators::gnp(14, 0.22, 9);
    let s = redundancy_for(&plan, g.n(), bounds::trivial_rounds(&g));
    check_mid_outage_snapshots(
        &g,
        || {
            g.nodes()
                .map(|_| Redundant::new(TrivialGreedy::new(MaximalIndependentSet, ()), s))
                .collect()
        },
        &plan,
        "trivial",
    );

    // BM21 stage 1 (Linial color reduction).
    let delta = g.max_degree().max(1) as u64;
    let sb = bounds::bm21_stage_budgets(&g, delta);
    let s = redundancy_for(&plan, g.n(), sb[0].rounds);
    let ident_bound = g.ident_bound();
    check_mid_outage_snapshots(
        &g,
        || {
            g.nodes()
                .map(|v| {
                    Redundant::new(
                        awake_core::linial::ColorReduction::from_ident(
                            g.ident(v),
                            ident_bound,
                            delta,
                        ),
                        s,
                    )
                })
                .collect()
        },
        &plan,
        "bm21/linial",
    );

    // BM21 stage 2 (Lemma 11 on a proper coloring — identifiers are one).
    let k = ident_bound;
    let s = redundancy_for(&plan, g.n(), bounds::lemma11_rounds(k));
    check_mid_outage_snapshots(
        &g,
        || {
            g.nodes()
                .map(|v| {
                    Redundant::new(
                        awake_core::lemma11::ColorScheduled::new(
                            DeltaPlusOneColoring,
                            (),
                            g.ident(v) + 1,
                            k + 1,
                        ),
                        s,
                    )
                })
                .collect()
        },
        &plan,
        "bm21/lemma11",
    );

    // The line-graph adapter's hosts (EdgeGreedy replicas).
    let ge = generators::gnp(10, 0.3, 5);
    let idx = EdgeIndex::new(&ge);
    let inputs = MaximalMatching.trivial_inputs(&ge);
    let s = redundancy_for(&plan, ge.n(), bounds::linegraph_rounds(&ge).max(1));
    check_mid_outage_snapshots(
        &ge,
        || {
            greedy_hosts(&ge, &idx, &MaximalMatching, &inputs)
                .into_iter()
                .map(|h| Redundant::new(h, s))
                .collect()
        },
        &plan,
        "linegraph",
    );
}

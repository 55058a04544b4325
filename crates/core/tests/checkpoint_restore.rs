//! End-to-end checkpoint/restore invariant over the real algorithms:
//! *run-to-round-r + snapshot + restore + run-to-end* must be bit-for-bit
//! identical to the uninterrupted run — outputs, `Metrics`, and trace —
//! for every pause round `r`, on the serial engine and on the threaded
//! executor at any worker count, with and without fault injection, for a
//! node problem and an edge problem (via the line-graph adapter).
//!
//! These are the acceptance tests of the snapshot format: the unit tests
//! in `awake-sleeping` exercise synthetic programs; here the persisted
//! state is the shipped solvers'.

use awake_core::linegraph::greedy_hosts;
use awake_core::trivial::TrivialGreedy;
use awake_graphs::{generators, Graph};
use awake_olocal::edge::{EdgeIndex, MaximalMatching};
use awake_olocal::problems::{DeltaPlusOneColoring, MaximalIndependentSet};
use awake_olocal::EdgeProblem;
use awake_sleeping::{
    Codec, Config, Engine, FaultPlan, Paused, Persist, Program, Run, Snapshot, TraceMode,
};

/// Workers exercised on every resume (the acceptance matrix).
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Tracing stays on so "bit-for-bit" covers the event log, not just
/// outputs and counters.
fn traced() -> Config {
    Config {
        trace: TraceMode::Capped(1 << 20),
        ..Config::default()
    }
}

fn assert_same_run<O: PartialEq + std::fmt::Debug>(full: &Run<O>, resumed: &Run<O>, what: &str) {
    assert_eq!(full.outputs, resumed.outputs, "{what}: outputs diverged");
    assert_eq!(full.metrics, resumed.metrics, "{what}: metrics diverged");
    assert_eq!(full.trace, resumed.trace, "{what}: trace diverged");
    assert_eq!(
        full.trace_dropped, resumed.trace_dropped,
        "{what}: trace_dropped diverged"
    );
}

/// The property driver: snapshot the run at *every* round boundary and
/// check each restore — serial and at every worker count — lands on the
/// uninterrupted run exactly. Also asserts the serial and threaded
/// snapshot images are byte-identical at each pause round.
fn check_every_round<P, F>(g: &Graph, make: F, plan: Option<FaultPlan>)
where
    P: Program + Persist + Send,
    P::Msg: Codec,
    P::Output: Codec + PartialEq + std::fmt::Debug,
    F: Fn() -> Vec<P>,
{
    let engine = Engine::new(g, traced());
    let full = match plan.as_ref() {
        None => engine.run(make()).unwrap(),
        Some(p) => engine.run_faulty(make(), p).unwrap(),
    };
    let mut paused_at_least_once = false;
    for r in 1..=full.metrics.rounds {
        let snap = match engine.snapshot_at(make(), plan.as_ref(), r).unwrap() {
            Paused::Snapshot(s) => s,
            // pausing after the final scheduled round completes instead
            Paused::Done(run) => {
                assert_same_run(&full, &run, &format!("completed at pause bound {r}"));
                continue;
            }
        };
        paused_at_least_once = true;
        assert_eq!(snap.round(), r, "snapshot stamps its pause bound");
        let threaded_snap = match Engine::with_workers(g, traced(), Some(3))
            .snapshot_at(make(), plan.as_ref(), r)
            .unwrap()
        {
            Paused::Snapshot(s) => s,
            Paused::Done(_) => panic!("serial paused at {r} but threaded completed"),
        };
        assert_eq!(
            snap.as_bytes(),
            threaded_snap.as_bytes(),
            "serial and threaded snapshots differ at round {r}"
        );
        let resumed = engine.resume(make(), &snap).unwrap();
        assert_same_run(&full, &resumed, &format!("serial resume from round {r}"));
        for w in WORKERS {
            let resumed = Engine::with_workers(g, Config::default(), Some(w))
                .resume(make(), &snap)
                .unwrap();
            assert_same_run(
                &full,
                &resumed,
                &format!("{w}-worker resume from round {r}"),
            );
        }
    }
    assert!(
        paused_at_least_once,
        "run finished in {} round(s) — too short to exercise a pause",
        full.metrics.rounds
    );
}

fn mis_programs(g: &Graph) -> Vec<TrivialGreedy<MaximalIndependentSet>> {
    g.nodes()
        .map(|_| TrivialGreedy::new(MaximalIndependentSet, ()))
        .collect()
}

#[test]
fn node_problem_snapshot_restore_is_bit_for_bit_at_every_round() {
    let g = generators::gnp(28, 0.15, 7);
    check_every_round(&g, || mis_programs(&g), None);
}

#[test]
fn fault_injected_run_snapshot_restore_is_bit_for_bit_at_every_round() {
    let g = generators::gnp(24, 0.18, 11);
    let plan = FaultPlan {
        drop_ppm: 60_000,
        dup_ppm: 40_000,
        delay_ppm: 40_000,
        crash_ppm: 25_000,
        delay_rounds: 2,
        ..FaultPlan::new(0xFA17)
    };
    let make = || -> Vec<TrivialGreedy<DeltaPlusOneColoring>> {
        g.nodes()
            .map(|_| TrivialGreedy::new(DeltaPlusOneColoring, ()))
            .collect()
    };
    // the rates must actually fire, or this test silently degenerates to
    // the fault-free case
    let full = Engine::new(&g, traced()).run_faulty(make(), &plan).unwrap();
    assert!(
        full.metrics.faults_dropped > 0
            && full.metrics.faults_duplicated > 0
            && full.metrics.faults_crashed > 0,
        "fault plan injected nothing: {:?}",
        full.metrics
    );
    check_every_round(&g, make, Some(plan));
}

#[test]
fn edge_problem_snapshot_restore_is_bit_for_bit_at_every_round() {
    let g = generators::gnp(16, 0.2, 5);
    let idx = EdgeIndex::new(&g);
    let inputs = MaximalMatching.trivial_inputs(&g);
    check_every_round(
        &g,
        || greedy_hosts(&g, &idx, &MaximalMatching, &inputs),
        None,
    );
}

#[test]
fn checkpointed_run_snapshots_all_resume_to_the_same_result() {
    let g = generators::gnp(28, 0.15, 7);
    let engine = Engine::new(&g, traced());
    let full = engine.run(mis_programs(&g)).unwrap();
    let mut snaps: Vec<Snapshot> = Vec::new();
    let checkpointed = engine
        .run_checkpointed(mis_programs(&g), None, 3, |s| {
            snaps.push(Snapshot::from_bytes(s.as_bytes().to_vec()).unwrap())
        })
        .unwrap();
    assert_same_run(
        &full,
        &checkpointed,
        "checkpointing must not perturb the run",
    );
    assert!(
        snaps.len() >= 2,
        "expected several snapshots, got {}",
        snaps.len()
    );
    for snap in &snaps {
        let resumed = engine.resume(mis_programs(&g), snap).unwrap();
        assert_same_run(
            &full,
            &resumed,
            &format!("resume from emitted snapshot at round {}", snap.round()),
        );
    }
}

#[test]
fn truncated_snapshots_never_resume_at_any_cut_point() {
    let g = generators::gnp(12, 0.25, 3);
    let engine = Engine::new(&g, traced());
    let snap = match engine.snapshot_at(mis_programs(&g), None, 2).unwrap() {
        Paused::Snapshot(s) => s,
        Paused::Done(_) => panic!("run too short to snapshot"),
    };
    let bytes = snap.as_bytes();
    // every strict prefix must be rejected — at header validation or at
    // payload decode — never silently accepted
    for cut in 0..bytes.len() {
        match Snapshot::from_bytes(bytes[..cut].to_vec()) {
            Err(_) => {}
            Ok(s) => assert!(
                engine.resume(mis_programs(&g), &s).is_err(),
                "truncated snapshot ({cut}/{} bytes) resumed successfully",
                bytes.len()
            ),
        }
    }
}

#[test]
fn corrupted_and_mismatched_snapshots_are_rejected() {
    let g = generators::gnp(12, 0.25, 3);
    let engine = Engine::new(&g, traced());
    let snap = match engine.snapshot_at(mis_programs(&g), None, 2).unwrap() {
        Paused::Snapshot(s) => s,
        Paused::Done(_) => panic!("run too short to snapshot"),
    };
    // flip each magic byte: the header check must catch it
    for i in 0..8 {
        let mut bad = snap.as_bytes().to_vec();
        bad[i] ^= 0xFF;
        assert!(
            Snapshot::from_bytes(bad).is_err(),
            "corrupted magic byte {i} accepted"
        );
    }
    // a snapshot of one graph must not restore onto another
    let other = generators::gnp(12, 0.25, 99);
    let err = Engine::new(&other, traced()).resume(mis_programs(&other), &snap);
    assert!(err.is_err(), "snapshot restored onto a different graph");
    // and the threaded resume path applies the same checks
    let err = Engine::with_workers(&other, Config::default(), Some(2))
        .resume(mis_programs(&other), &snap);
    assert!(err.is_err(), "threaded resume accepted a mismatched graph");
}

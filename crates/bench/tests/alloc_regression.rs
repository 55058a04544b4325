//! Allocation-count regression test for the line-graph edge adapter.
//!
//! PRs 1–9 drove the engine's vertex hot path to a zero-allocation steady
//! state; the edge adapter used to undo that by cloning the problem and
//! the full input vector into every replica and by re-allocating merge /
//! scratch buffers each virtual round — 3.7–3.9 heap allocations per
//! awake node-round at the bench workload. With the shared-`Arc` greedy
//! state and pooled host scratch the steady-state rate is pinned here at
//! ≤ 0.1 allocations per node-round: a new per-round or per-replica
//! allocation on the adapter path shows up as ≈ +1.0 and fails loudly,
//! while one-time setup (graph, index, hosts, engine arenas) is excluded
//! from the counted window.
//!
//! Theorem 1 is pinned the same way, per awake event of the whole solve:
//! every member of a cluster acquires the cluster's structure, and the
//! Lemma 14/15 and Theorem 9 steps that compute from it used to copy it
//! once per member, per replica, which cost 96.5 allocations per event on
//! the workload below. They now touch it a constant number of times per
//! replica (37.5 per event); a return of that per-member copying fails the
//! cap of 60.
//!
//! The counting allocator is test-local: integration tests are separate
//! binaries, so installing it here does not affect any other test.

use awake_core::linegraph::{self, EdgeGreedy, LineGraphHost};
use awake_core::{bm21, theorem1};
use awake_graphs::{generators, Graph};
use awake_olocal::edge::{EdgeColoring, EdgeIndex, EdgeProblem, MaximalMatching};
use awake_olocal::problems::DeltaPlusOneColoring;
use awake_sleeping::{Config, Engine, FaultPlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The counter is process-wide and the test harness runs tests on parallel
/// threads, so every counted window holds this lock.
static COUNTING: Mutex<()> = Mutex::new(());

fn counting() -> MutexGuard<'static, ()> {
    COUNTING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Steady-state allocations per awake node-round for `problem` on `g`:
/// hosts are built *outside* the counted window (per-replica construction
/// is setup, not steady state), the engine run is counted.
fn engine_allocs_per_node_round<P>(g: &Graph, problem: &P, inputs: &[P::Input]) -> f64
where
    P: EdgeProblem + Clone + Send + Sync,
{
    let idx = EdgeIndex::new(g);
    let programs: Vec<LineGraphHost<EdgeGreedy<P>>> =
        linegraph::greedy_hosts(g, &idx, problem, inputs);
    let a0 = alloc_count();
    let run = Engine::new(g, Config::default()).run(programs).unwrap();
    let allocs = alloc_count() - a0;
    println!(
        "  run window: {} allocs / {} node-rounds",
        allocs,
        run.metrics.total_awake()
    );
    allocs as f64 / run.metrics.total_awake() as f64
}

#[test]
fn edge_adapter_steady_state_stays_allocation_free() {
    let _counting = counting();
    let g = generators::random_regular(2048, 8, 2);
    let idx = EdgeIndex::new(&g);
    let inputs = vec![(); idx.m()];

    let matching = engine_allocs_per_node_round(&g, &MaximalMatching, &inputs);
    let coloring = engine_allocs_per_node_round(&g, &EdgeColoring, &inputs);
    println!("edge adapter allocs/node-round: matching {matching:.4}, coloring {coloring:.4}");
    assert!(
        matching <= 0.1,
        "matching adapter steady state regressed: {matching:.4} allocs/node-round (cap 0.1)"
    );
    assert!(
        coloring <= 0.1,
        "edge-coloring adapter steady state regressed: {coloring:.4} allocs/node-round (cap 0.1)"
    );
}

#[test]
fn theorem1_allocations_per_event_stay_bounded() {
    let _counting = counting();
    let g = generators::random_with_max_degree(192, 12, 1);
    let inputs = vec![(); g.n()];
    let a0 = alloc_count();
    let r = theorem1::solve_with_inputs(&g, &DeltaPlusOneColoring, &inputs, Default::default())
        .unwrap();
    let allocs = alloc_count() - a0;
    let events = r.composition.awake_events();
    let per_event = allocs as f64 / events as f64;
    println!("theorem 1: {allocs} allocs / {events} awake events = {per_event:.1}");
    assert!(
        per_event <= 60.0,
        "Theorem 1 regressed: {per_event:.1} allocs per awake event (cap 60)"
    );
}

/// BM21 on the serial engine under drop and crash faults, the fault path
/// the benchmark's `bm21-faults` workload runs: every node is wrapped in
/// `Redundant`, crashes save and restore per-node state, and dropped
/// messages are rolled per transmission. Measured at 0.3943 allocations
/// per awake event (n = 1024, seed 3, 2% drops, 0.2% crashes); the cap is
/// that figure plus 15% (0.453), so a per-round or per-node allocation added to
/// the round body, the `Redundant` wrapper or the fault path fails here.
#[test]
fn bm21_faulty_serial_allocations_per_event_stay_bounded() {
    let _counting = counting();
    let n = 1024;
    let g = generators::gnp_sparse(n, 4.0 / (n - 1) as f64, 3);
    let inputs = vec![(); g.n()];
    let plan = FaultPlan {
        drop_ppm: 20_000,
        crash_ppm: 2_000,
        ..FaultPlan::new(3)
    };
    let a0 = alloc_count();
    let r = bm21::solve_faulty(&g, &DeltaPlusOneColoring, &inputs, None, &plan, None).unwrap();
    let allocs = alloc_count() - a0;
    let events = r.composition.awake_events();
    let per_event = allocs as f64 / events as f64;
    println!("bm21 under faults: {allocs} allocs / {events} awake events = {per_event:.4}");
    assert!(
        per_event <= 0.453,
        "BM21 fault path regressed: {per_event:.4} allocs per awake event (cap 0.453)"
    );
}

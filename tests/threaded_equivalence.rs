//! The serial skip-ahead engine and the persistent worker-pool executor
//! must agree **bit for bit** on deterministic programs: equal outputs and
//! equal [`Metrics`] — awake vectors, message counters, round counts, and
//! span attribution — across worker counts.

use awake::core::linial::ColorReduction;
use awake::core::trivial::TrivialGreedy;
use awake::graphs::{generators, Graph};
use awake::olocal::problems::{DeltaPlusOneColoring, MaximalIndependentSet};
use awake::sleeping::{
    Action, Config, Engine, Envelope, Metrics, Outbox, Program, Round, Run, TraceMode, View,
};

/// Run serially and under 1, 2, 4 and 8 workers; assert full equivalence —
/// outputs, every `Metrics` component, and (in a second, traced pass) the
/// recorded event sequence, bit for bit.
fn assert_equivalent<P, F>(g: &Graph, mk: F)
where
    P: Program + Send,
    P::Output: PartialEq,
    F: Fn() -> Vec<P>,
{
    let serial: Run<P::Output> = Engine::new(g, Config::default()).run(mk()).unwrap();
    for workers in [1usize, 2, 4, 8] {
        let par = Engine::with_workers(g, Config::default(), Some(workers))
            .run(mk())
            .unwrap();
        assert!(
            serial.outputs == par.outputs,
            "outputs diverge at workers = {workers}"
        );
        let (s, p): (&Metrics, &Metrics) = (&serial.metrics, &par.metrics);
        assert_eq!(s.awake, p.awake, "awake vectors, workers = {workers}");
        assert_eq!(s.rounds, p.rounds, "rounds, workers = {workers}");
        assert_eq!(
            s.messages_sent, p.messages_sent,
            "sent, workers = {workers}"
        );
        assert_eq!(
            s.messages_delivered, p.messages_delivered,
            "delivered, workers = {workers}"
        );
        assert_eq!(
            s.messages_lost, p.messages_lost,
            "lost, workers = {workers}"
        );
        assert_eq!(
            s.span_summary(),
            p.span_summary(),
            "span summaries, workers = {workers}"
        );
        assert_eq!(s, p, "full Metrics equality, workers = {workers}");
    }
    assert_traces_equivalent(g, &mk);
}

/// The traced pass of [`assert_equivalent`]: the threaded executor used to
/// ignore [`Config::trace`] and return an empty `Run::trace` — it now
/// stages events per worker and merges them in chunk order, so serial and
/// threaded traces must be bit-identical at any worker count. Run once
/// uncapped (full sequences compare equal, nothing dropped) and once under
/// a biting cap (the kept prefix *and* the drop counter must agree).
fn assert_traces_equivalent<P, F>(g: &Graph, mk: &F)
where
    P: Program + Send,
    P::Output: PartialEq,
    F: Fn() -> Vec<P>,
{
    for cap in [usize::MAX, 100] {
        let cfg = Config {
            trace: TraceMode::Capped(cap),
            ..Config::default()
        };
        let serial = Engine::new(g, cfg).run(mk()).unwrap();
        assert!(
            !serial.trace.is_empty(),
            "traced workloads must record events"
        );
        for workers in [1usize, 2, 4, 8] {
            let par = Engine::with_workers(g, cfg, Some(workers))
                .run(mk())
                .unwrap();
            assert_eq!(
                serial.trace, par.trace,
                "trace diverges at workers = {workers}, cap = {cap}"
            );
            assert_eq!(
                serial.trace_dropped, par.trace_dropped,
                "trace_dropped diverges at workers = {workers}, cap = {cap}"
            );
        }
    }
}

#[test]
fn linial_agrees_on_erdos_renyi() {
    let g = generators::gnp(120, 0.07, 13);
    let delta = g.max_degree() as u64;
    assert_equivalent(&g, || -> Vec<ColorReduction> {
        g.nodes()
            .map(|v| ColorReduction::from_ident(g.ident(v), g.ident_bound(), delta))
            .collect()
    });
}

#[test]
fn linial_agrees_on_random_tree() {
    let g = generators::random_tree(90, 21);
    let delta = g.max_degree() as u64;
    assert_equivalent(&g, || -> Vec<ColorReduction> {
        g.nodes()
            .map(|v| ColorReduction::from_ident(g.ident(v), g.ident_bound(), delta))
            .collect()
    });
}

#[test]
fn trivial_greedy_agrees_on_erdos_renyi() {
    // The trivial baseline exercises long sleeps and message loss, so this
    // covers the wheel (not just the stay lane).
    let g = generators::gnp(80, 0.1, 29);
    assert_equivalent(&g, || -> Vec<TrivialGreedy<MaximalIndependentSet>> {
        g.nodes()
            .map(|_| TrivialGreedy::new(MaximalIndependentSet, ()))
            .collect()
    });
}

#[test]
fn trivial_greedy_agrees_on_random_tree() {
    let g = generators::random_tree(110, 5);
    assert_equivalent(&g, || -> Vec<TrivialGreedy<MaximalIndependentSet>> {
        g.nodes()
            .map(|_| TrivialGreedy::new(MaximalIndependentSet, ()))
            .collect()
    });
}

#[test]
fn trivial_greedy_agrees_on_bounded_degree_graph() {
    let g = generators::random_with_max_degree(150, 12, 3);
    assert_equivalent(&g, || -> Vec<TrivialGreedy<MaximalIndependentSet>> {
        g.nodes()
            .map(|_| TrivialGreedy::new(MaximalIndependentSet, ()))
            .collect()
    });
}

/// Wakes at `initial`, broadcasts its ident, stays until `halt_at`.
struct BlockBoundary {
    initial: Round,
    halt_at: Round,
    heard: Vec<(Round, u64)>,
}

impl Program for BlockBoundary {
    type Msg = u64;
    type Output = Vec<(Round, u64)>;
    fn initial_wake(&self) -> Option<Round> {
        Some(self.initial)
    }
    fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
        out.broadcast(view.ident);
    }
    fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
        for e in inbox {
            self.heard.push((view.round, e.msg));
        }
        if view.round >= self.halt_at {
            Action::Halt
        } else {
            Action::Stay
        }
    }
    fn output(&self) -> Option<Self::Output> {
        Some(self.heard.clone())
    }
}

/// A wheel wake (node 1 at round 66) coinciding with a stay-lane round
/// after the seed events cascade across the first 64-round block boundary.
/// Equivalence alone is blind to scheduler bugs both executors share, so
/// this asserts the *absolute* expected exchange on both of them.
#[test]
fn stay_lane_meets_wheel_wake_across_block_boundary() {
    let g = generators::path(2);
    let mk = || {
        vec![
            BlockBoundary {
                initial: 65,
                halt_at: 70,
                heard: vec![],
            },
            BlockBoundary {
                initial: 66,
                halt_at: 66,
                heard: vec![],
            },
        ]
    };
    assert_equivalent(&g, mk);
    for run in [
        Engine::new(&g, Config::default()).run(mk()).unwrap(),
        Engine::with_workers(&g, Config::default(), Some(2))
            .run(mk())
            .unwrap(),
    ] {
        assert_eq!(run.outputs[0], vec![(66, 2)], "node 0 must hear node 1");
        assert_eq!(run.outputs[1], vec![(66, 1)], "node 1 must hear node 0");
        assert_eq!(run.metrics.rounds, 70);
        assert_eq!(run.metrics.awake, vec![6, 1]);
    }
}

#[test]
fn trivial_greedy_agrees_on_hub_heavy_star() {
    // One hub owning half the endpoint degree mass: the degree-weighted
    // splitter isolates it in a chunk of its own, and the owner-sharded
    // delivery must still reassemble every leaf inbox in sender order.
    let g = generators::star(120);
    assert_equivalent(&g, || -> Vec<TrivialGreedy<MaximalIndependentSet>> {
        g.nodes()
            .map(|_| TrivialGreedy::new(MaximalIndependentSet, ()))
            .collect()
    });
}

#[test]
fn linial_agrees_on_hub_heavy_caterpillar() {
    // Heavy hubs on a spine: degree mass concentrates in a few nodes while
    // the awake set stays wide — chunk boundaries land mid-leaf-run.
    let g = generators::caterpillar(8, 14);
    let delta = g.max_degree() as u64;
    assert_equivalent(&g, || -> Vec<ColorReduction> {
        g.nodes()
            .map(|v| ColorReduction::from_ident(g.ident(v), g.ident_bound(), delta))
            .collect()
    });
}

#[test]
fn coloring_program_agrees_across_executors() {
    let g = generators::cycle(64);
    assert_equivalent(&g, || -> Vec<TrivialGreedy<DeltaPlusOneColoring>> {
        g.nodes()
            .map(|_| TrivialGreedy::new(DeltaPlusOneColoring, ()))
            .collect()
    });
}

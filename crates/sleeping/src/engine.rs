//! The [`Engine`] API and the round mechanics its executor shares.
//!
//! The executor itself — one round body, run on the coordinator alone or
//! on a worker pool — lives in the [`threaded`](crate::threaded) module;
//! this module holds the public surface ([`Engine`], [`Config`], [`Run`],
//! [`SimError`]) and the helpers every round uses.
//!
//! # Hot-path design
//!
//! The per-node-round loop is allocation-free in steady state:
//!
//! * **Sending** — programs write into one executor-owned
//!   [`Outbox`](crate::Outbox) that is cleared (capacity retained) between
//!   nodes; no `Vec` is returned per `send` call.
//! * **Scheduling** — wake-ups live in a hierarchical bucket queue
//!   ([`crate::wheel`]) instead of a binary heap, and
//!   [`Action::Stay`](crate::Action::Stay) — the dominant action in dense
//!   phases — bypasses the queue entirely via a *stay lane*: nodes that
//!   remain awake are carried to the next round in an already-sorted
//!   `Vec`.
//! * **Inboxes** — messages are delivered straight into pooled
//!   per-recipient segments (one write per message, capacity reused across
//!   rounds). Because awake nodes transmit in ascending order, each inbox
//!   is born sorted by sender — no per-round comparison sort (asserted in
//!   debug builds; see [`crate::arena`] for the design notes and the
//!   benchmarked alternative).

use crate::checkpoint::{
    decode_snapshot, encode_snapshot, Codec, CrashIo, EngineStateRef, Paused, Persist,
    RestoredState, ResumeError, Snapshot,
};
use crate::faults::{FaultPlan, FaultState};
use crate::metrics::{Metrics, PhaseTimes};
use crate::program::Program;
use crate::threaded::{run_threaded_core, ChaosPlan};
use crate::trace::{TraceEvent, TraceMode};
use crate::wheel::WakeWheel;
use crate::Round;
use awake_graphs::{Graph, NodeId};
use std::fmt;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Abort if the next scheduled round exceeds this bound.
    pub max_rounds: Round,
    /// Tracing mode.
    pub trace: TraceMode,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            // Generous but finite: the paper's round complexities are
            // polynomial; anything beyond this is a runaway schedule bug.
            max_rounds: u64::MAX / 4,
            trace: TraceMode::Off,
        }
    }
}

impl Config {
    /// Config with a specific round budget.
    pub fn with_max_rounds(max_rounds: Round) -> Self {
        Config {
            max_rounds,
            ..Config::default()
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A program slept to a round not strictly in the future.
    InvalidSleep {
        /// The offending node.
        node: NodeId,
        /// Current round.
        round: Round,
        /// Requested wake round.
        until: Round,
    },
    /// A program halted but returned no output.
    MissingOutput(
        /// The offending node.
        NodeId,
    ),
    /// A program addressed a message to a non-neighbor.
    NotANeighbor {
        /// Sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
    },
    /// The schedule exceeded [`Config::max_rounds`].
    RoundBudgetExceeded {
        /// The configured budget.
        limit: Round,
    },
    /// The number of programs didn't match the number of nodes.
    ProgramCountMismatch {
        /// Programs supplied.
        got: usize,
        /// Nodes in the graph.
        expected: usize,
    },
    /// A program's [`Program::initial_wake`] was before [`crate::FIRST_ROUND`].
    InvalidInitialWake {
        /// The offending node.
        node: NodeId,
        /// The requested first awake round.
        round: Round,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidSleep { node, round, until } => write!(
                f,
                "node {node} at round {round} requested non-future wake round {until}"
            ),
            SimError::MissingOutput(v) => write!(f, "node {v} halted without an output"),
            SimError::NotANeighbor { from, to } => {
                write!(f, "node {from} sent a message to non-neighbor {to}")
            }
            SimError::RoundBudgetExceeded { limit } => {
                write!(f, "round budget {limit} exceeded")
            }
            SimError::ProgramCountMismatch { got, expected } => {
                write!(f, "got {got} programs for {expected} nodes")
            }
            SimError::InvalidInitialWake { node, round } => {
                write!(
                    f,
                    "node {node} requested initial wake round {round}, before round {}",
                    crate::FIRST_ROUND
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A completed execution.
#[derive(Debug)]
pub struct Run<O> {
    /// Output of each node (indexed by [`NodeId`]).
    pub outputs: Vec<O>,
    /// Resource accounting.
    pub metrics: Metrics,
    /// Recorded events (empty unless tracing was enabled).
    pub trace: Vec<TraceEvent>,
    /// Events discarded past a [`TraceMode::Capped`] cap — non-zero means
    /// [`trace`](Run::trace) is a truncated prefix, not the full record.
    pub trace_dropped: u64,
}

/// `next_wake` sentinel for "halted / never wakes" (rounds are 1-based, so
/// 0 is free; a plain `Round` stamp is half the size of `Option<Round>`,
/// which matters because the delivery check reads it once per message).
pub(crate) const NEVER: Round = 0;

/// Initialize `next_wake`/`outputs` and seed the scheduler from
/// [`Program::initial_wake`].
pub(crate) fn seed_schedule<P: Program>(
    programs: &[P],
    wheel: &mut WakeWheel,
    next_wake: &mut Vec<Round>,
    outputs: &mut [Option<P::Output>],
) -> Result<(), SimError> {
    for (v, p) in programs.iter().enumerate() {
        match p.initial_wake() {
            Some(r) => {
                if r < crate::FIRST_ROUND {
                    // Round 0 would alias the NEVER sentinel and violate the
                    // wheel's strictly-future invariant; reject it typed.
                    return Err(SimError::InvalidInitialWake {
                        node: NodeId(v as u32),
                        round: r,
                    });
                }
                next_wake.push(r);
                wheel.schedule(r, v as u32);
            }
            None => {
                // Node sleeps through the whole stage (Lemma 8 composition).
                next_wake.push(NEVER);
                match p.output() {
                    Some(o) => outputs[v] = Some(o),
                    None => return Err(SimError::MissingOutput(NodeId(v as u32))),
                }
            }
        }
    }
    Ok(())
}

/// Pop the next round's awake set into `awake` (ascending), merging the
/// stay lane (nodes that chose [`Action::Stay`] at `prev_round`, already
/// sorted) with the wheel. Returns `None` when nothing is pending.
///
/// A non-empty stay lane wakes at `prev_round + 1`, which is the earliest
/// any pending event can be — so the wheel only participates when its
/// minimum is exactly that round, and the common dense case (everybody
/// `Stay`s) never touches the wheel at all.
pub(crate) fn next_awake_set(
    wheel: &mut WakeWheel,
    stay: &mut Vec<u32>,
    prev_round: Round,
    awake: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
) -> Option<Round> {
    awake.clear();
    if stay.is_empty() {
        let round = wheel.pop_next(awake)?;
        awake.sort_unstable();
        return Some(round);
    }
    let round = prev_round + 1;
    if wheel.peek_min() == Some(round) {
        scratch.clear();
        let popped = wheel.pop_next(scratch);
        debug_assert_eq!(popped, Some(round));
        scratch.sort_unstable();
        // Merge two sorted, disjoint sets.
        let mut si = 0;
        let mut wi = 0;
        while si < stay.len() && wi < scratch.len() {
            if stay[si] < scratch[wi] {
                awake.push(stay[si]);
                si += 1;
            } else {
                awake.push(scratch[wi]);
                wi += 1;
            }
        }
        awake.extend_from_slice(&stay[si..]);
        awake.extend_from_slice(&scratch[wi..]);
        stay.clear();
        scratch.clear();
    } else {
        awake.append(stay); // fast lane: already sorted
    }
    Some(round)
}

/// The mutable fault-injection context of a run: the seeded state (plan +
/// delayed-message buffer + recovery bitset) plus the [`Persist`] entry
/// points of the concrete program type, captured as function pointers so
/// the executor needs no `Persist` bound.
pub(crate) struct FaultCtx<P: Program> {
    pub(crate) state: FaultState<P::Msg>,
    pub(crate) crash_io: CrashIo<P>,
}

impl<P: Program> FaultCtx<P> {
    pub(crate) fn new(plan: FaultPlan, crash_io: CrashIo<P>) -> Self {
        FaultCtx {
            state: FaultState::new(plan),
            crash_io,
        }
    }
}

/// How a run starts: fresh programs at round 1, or programs plus the
/// decoded round-boundary state of a [`Snapshot`].
pub(crate) enum Init<P: Program> {
    Fresh(Vec<P>),
    Restored {
        programs: Vec<P>,
        // boxed: RestoredState is a dozen Vecs wide, Fresh a single one
        state: Box<RestoredState<P::Msg, P::Output>>,
    },
}

/// Checkpoint control of one run: the pause bound and/or periodic emission
/// interval, plus the monomorphized snapshot encoder as a function pointer
/// — the executor cores themselves carry no [`Codec`] bounds (only the
/// public [`Engine`] methods do, where `encode_snapshot::<P>` is
/// instantiated).
pub(crate) struct CkptCtl<'a, P: Program> {
    /// Pause (into a returned snapshot) instead of executing any round
    /// beyond this bound.
    pub(crate) pause_after: Option<Round>,
    /// Hand a snapshot to `sink` whenever at least this many rounds have
    /// elapsed since the last one and more work is pending.
    pub(crate) every: Option<Round>,
    pub(crate) encode: for<'b> fn(&Graph, Config, EngineStateRef<'b, P>) -> Snapshot,
    pub(crate) sink: &'a mut dyn FnMut(&Snapshot),
}

/// A run without a pause bound always completes.
pub(crate) fn completed<O>(outcome: Paused<O>) -> Run<O> {
    match outcome {
        Paused::Done(run) => run,
        Paused::Snapshot(_) => unreachable!("no pause bound was set"),
    }
}

/// The deterministic executor over one graph. It runs every round on a
/// pool of executors whose size is chosen once, here: [`Engine::new`] is
/// the one-executor (serial) engine, [`Engine::with_workers`] a worker
/// pool. Both run the same round body (see the
/// [`threaded`](crate::threaded) module) and agree bit for bit — outputs,
/// [`Metrics`], trace and snapshot bytes.
///
/// See the [crate docs](crate) for a worked example.
pub struct Engine<'g> {
    graph: &'g Graph,
    config: Config,
    workers: Option<usize>,
    /// Seed of a scheduler perturbation plan for the worker pool; see
    /// [`Engine::with_chaos`].
    #[cfg(test)]
    chaos: Option<u64>,
}

impl<'g> Engine<'g> {
    /// Create a serial engine over `graph`: the one-executor engine,
    /// which runs every round inline on the calling thread.
    pub fn new(graph: &'g Graph, config: Config) -> Self {
        Engine::with_workers(graph, config, None)
    }

    /// Create an engine over `graph` that runs on a pool of `workers`
    /// executors — the calling thread plus `workers - 1` spawned threads.
    /// `None` and `Some(1)` are the serial engine, like [`Engine::new`].
    /// The worker count changes how each round's awake set is chunked,
    /// never an observable result.
    pub fn with_workers(graph: &'g Graph, config: Config, workers: Option<usize>) -> Self {
        Engine {
            graph,
            config,
            workers,
            #[cfg(test)]
            chaos: None,
        }
    }

    /// Perturb the worker pool's scheduling with a seeded plan — forced
    /// steals, yields, naps and unpark storms at every claim point. The
    /// perturbations reorder only *who executes what when*, never the
    /// coordinator's chunk-order merges, so every run must stay bit-for-bit
    /// identical to the serial engine. No effect on a serial engine, whose
    /// rounds all run inline.
    #[cfg(test)]
    pub(crate) fn with_chaos(mut self, seed: u64) -> Self {
        self.chaos = Some(seed);
        self
    }

    fn chaos(&self) -> Option<ChaosPlan> {
        #[cfg(test)]
        return self.chaos.map(|seed| ChaosPlan { seed });
        #[cfg(not(test))]
        None
    }

    /// Run `init` on this engine's executors, with optional faults,
    /// checkpoint control and phase timing.
    fn start<P: Program + Send>(
        &self,
        init: Init<P>,
        faults: Option<FaultCtx<P>>,
        ctl: Option<CkptCtl<'_, P>>,
        timing: Option<&mut PhaseTimes>,
    ) -> Result<Paused<P::Output>, SimError> {
        run_threaded_core(
            self.graph,
            init,
            self.config,
            self.workers.unwrap_or(1),
            faults,
            ctl,
            timing,
            self.chaos(),
        )
    }

    /// Execute `programs` (one per node, indexed by [`NodeId`]) to completion.
    ///
    /// # Errors
    /// Any [`SimError`]; see the variants for the contract each program must
    /// uphold. At any worker count the error precedence is the serial one
    /// (lowest node id first).
    pub fn run<P: Program + Send>(&self, programs: Vec<P>) -> Result<Run<P::Output>, SimError> {
        self.start(Init::Fresh(programs), None, None, None)
            .map(completed)
    }

    /// [`run`](Engine::run), accumulating per-phase wall time into
    /// `timing` ([`PhaseTimes`]) — partition / route / deliver / merge for
    /// rounds dispatched to the pool, a single bucket for rounds run
    /// inline (every round of a serial engine). The probe reads the clock
    /// only between pipeline stages on the calling thread, so the run
    /// itself (outputs, [`Metrics`], trace) is bit-for-bit the untimed one.
    ///
    /// # Errors
    /// Any [`SimError`], as [`run`](Engine::run).
    pub fn run_timed<P: Program + Send>(
        &self,
        programs: Vec<P>,
        timing: &mut PhaseTimes,
    ) -> Result<Run<P::Output>, SimError> {
        self.start(Init::Fresh(programs), None, None, Some(timing))
            .map(completed)
    }

    /// Execute `programs` to completion under a seeded fault plan.
    ///
    /// Deterministic: the same plan yields the same outputs, `Metrics`,
    /// and trace at any worker count. Requires [`Persist`] because
    /// crash-restart saves and restores per-node state through it.
    ///
    /// # Errors
    /// Any [`SimError`], as [`run`](Engine::run).
    pub fn run_faulty<P: Program + Persist + Send>(
        &self,
        programs: Vec<P>,
        plan: &FaultPlan,
    ) -> Result<Run<P::Output>, SimError> {
        let faults = FaultCtx::new(*plan, CrashIo::<P>::of());
        self.start(Init::Fresh(programs), Some(faults), None, None)
            .map(completed)
    }

    /// Run until the next pending round would exceed `pause_after`, then
    /// snapshot the paused state; completes normally if the run finishes
    /// first. Pass a fault plan to snapshot a fault-injected run (the
    /// plan and its delayed-message buffer are part of the snapshot). The
    /// snapshot is byte-identical at any worker count: between rounds all
    /// observable state lives with the coordinator.
    ///
    /// # Errors
    /// Any [`SimError`] from the rounds executed before the pause.
    pub fn snapshot_at<P: Program + Persist + Send>(
        &self,
        programs: Vec<P>,
        plan: Option<&FaultPlan>,
        pause_after: Round,
    ) -> Result<Paused<P::Output>, SimError>
    where
        P::Msg: Codec,
        P::Output: Codec,
    {
        let faults = plan.map(|p| FaultCtx::new(*p, CrashIo::<P>::of()));
        let ctl = CkptCtl {
            pause_after: Some(pause_after),
            every: None,
            encode: encode_snapshot::<P>,
            sink: &mut |_| {},
        };
        self.start(Init::Fresh(programs), faults, Some(ctl), None)
    }

    /// Continue a snapshotted run to completion, bit-for-bit identical to
    /// the uninterrupted run (outputs, `Metrics`, trace) — whichever
    /// executor or worker count wrote the snapshot.
    ///
    /// `programs` must be the *freshly constructed initial* programs of
    /// the original run (same inputs, same order) — [`Persist::restore`]
    /// overwrites their dynamic state from the snapshot. The snapshot's
    /// `Config` wins over this engine's, so a resumed run keeps the round
    /// budget and trace mode it started under.
    ///
    /// # Errors
    /// [`ResumeError::Checkpoint`] if the snapshot is corrupt, truncated,
    /// or from a different graph; [`ResumeError::Sim`] if the continued
    /// run fails.
    pub fn resume<P: Program + Persist + Send>(
        &self,
        mut programs: Vec<P>,
        snapshot: &Snapshot,
    ) -> Result<Run<P::Output>, ResumeError>
    where
        P::Msg: Codec,
        P::Output: Codec,
    {
        let n = self.graph.n();
        if programs.len() != n {
            return Err(ResumeError::Sim(SimError::ProgramCountMismatch {
                got: programs.len(),
                expected: n,
            }));
        }
        let mut state = decode_snapshot::<P>(self.graph, snapshot, &mut programs)?;
        let faults = state.faults.take().map(|state| FaultCtx {
            state,
            crash_io: CrashIo::<P>::of(),
        });
        let init = Init::Restored {
            programs,
            state: Box::new(state),
        };
        self.start(init, faults, None, None)
            .map(completed)
            .map_err(ResumeError::Sim)
    }

    /// Run to completion, handing a snapshot to `sink` whenever at least
    /// `every` rounds have elapsed since the last one (no snapshot is
    /// taken once the run has finished — the final state is the returned
    /// [`Run`]). Resuming from any emitted snapshot — at any worker
    /// count — continues to the same bit-for-bit result.
    ///
    /// # Panics
    /// If `every` is zero.
    ///
    /// # Errors
    /// Any [`SimError`], as [`run`](Engine::run).
    pub fn run_checkpointed<P: Program + Persist + Send>(
        &self,
        programs: Vec<P>,
        plan: Option<&FaultPlan>,
        every: Round,
        mut sink: impl FnMut(&Snapshot),
    ) -> Result<Run<P::Output>, SimError>
    where
        P::Msg: Codec,
        P::Output: Codec,
    {
        assert!(every > 0, "checkpoint interval must be at least 1 round");
        let faults = plan.map(|p| FaultCtx::new(*p, CrashIo::<P>::of()));
        let ctl = CkptCtl {
            pause_after: None,
            every: Some(every),
            encode: encode_snapshot::<P>,
            sink: &mut sink,
        };
        self.start(Init::Fresh(programs), faults, Some(ctl), None)
            .map(completed)
    }
}

/// Validate and expand one node's outbox entries: the addressing checker
/// of the send phase. Each directed addressing is checked against the
/// graph ([`SimError::NotANeighbor`] on the first violation, in entry
/// order), broadcasts are expanded over the sender's neighbor list in
/// adjacency order, `messages_sent` is counted, and every transmission is
/// handed to `transmit(to, msg)` — the caller decides its fate and
/// delivery.
pub(crate) fn route_entries<M: Clone>(
    graph: &Graph,
    entries: impl Iterator<Item = crate::program::OutEntry<M>>,
    from: NodeId,
    messages_sent: &mut u64,
    mut transmit: impl FnMut(NodeId, M),
) -> Result<(), SimError> {
    for entry in entries {
        match entry.to {
            Some(w) => {
                if !graph.has_edge(from, w) {
                    return Err(SimError::NotANeighbor { from, to: w });
                }
                *messages_sent += 1;
                transmit(w, entry.msg);
            }
            None => {
                let neighbors = graph.neighbors(from);
                *messages_sent += neighbors.len() as u64;
                for &w in neighbors {
                    transmit(w, entry.msg.clone());
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Action, Envelope, Outbox, View};
    use awake_graphs::generators;

    /// Broadcasts ident at round 1; collects neighbor idents; halts.
    #[derive(Default)]
    struct OneShot {
        heard: Vec<u64>,
    }

    impl Program for OneShot {
        type Msg = u64;
        type Output = Vec<u64>;
        fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
            out.broadcast(view.ident);
        }
        fn receive(&mut self, _view: &View, inbox: &[Envelope<u64>]) -> Action {
            self.heard = inbox.iter().map(|e| e.msg).collect();
            Action::Halt
        }
        fn output(&self) -> Option<Vec<u64>> {
            Some(self.heard.clone())
        }
    }

    #[test]
    fn round_one_exchange() {
        let g = generators::path(3);
        let run = Engine::new(&g, Config::default())
            .run(vec![
                OneShot::default(),
                OneShot::default(),
                OneShot::default(),
            ])
            .unwrap();
        assert_eq!(run.outputs[0], vec![2]);
        assert_eq!(run.outputs[1], vec![1, 3]);
        assert_eq!(run.metrics.rounds, 1);
        assert_eq!(run.metrics.max_awake(), 1);
        assert_eq!(run.metrics.messages_sent, 4);
        assert_eq!(run.metrics.messages_delivered, 4);
        assert_eq!(run.metrics.messages_lost, 0);
    }

    /// Node 0 stays awake 3 rounds broadcasting; node 1 sleeps immediately
    /// until round 3: the round-2 message must be lost.
    struct Phased {
        is_sender: bool,
        got: Vec<(Round, u64)>,
    }

    impl Program for Phased {
        type Msg = u64;
        type Output = Vec<(Round, u64)>;
        fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
            if self.is_sender {
                out.broadcast(view.round * 10);
            }
        }
        fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
            for e in inbox {
                self.got.push((view.round, e.msg));
            }
            if self.is_sender {
                if view.round < 3 {
                    Action::Stay
                } else {
                    Action::Halt
                }
            } else if view.round == 1 {
                Action::SleepUntil(3)
            } else {
                Action::Halt
            }
        }
        fn output(&self) -> Option<Self::Output> {
            Some(self.got.clone())
        }
    }

    #[test]
    fn messages_to_sleeping_nodes_are_lost() {
        let g = generators::path(2);
        let run = Engine::new(&g, Config::default())
            .run(vec![
                Phased {
                    is_sender: true,
                    got: vec![],
                },
                Phased {
                    is_sender: false,
                    got: vec![],
                },
            ])
            .unwrap();
        // receiver hears round 1 and round 3, but not round 2
        assert_eq!(run.outputs[1], vec![(1, 10), (3, 30)]);
        assert_eq!(run.metrics.messages_lost, 1);
        assert_eq!(run.metrics.awake[1], 2);
        assert_eq!(run.metrics.awake[0], 3);
    }

    struct Sleeper(Round);
    impl Program for Sleeper {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &View, _: &mut Outbox<()>) {}
        fn receive(&mut self, view: &View, _: &[Envelope<()>]) -> Action {
            if view.round == 1 {
                Action::SleepUntil(self.0)
            } else {
                Action::Halt
            }
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    #[test]
    fn skip_ahead_is_cheap_for_huge_gaps() {
        // The property under test is algorithmic, not wall-clock: the run
        // must cost O(awake node-rounds), not O(rounds). With a 10^12-round
        // gap, a per-round scan could not finish within any test timeout,
        // so completing at all — with exactly two awake rounds per node —
        // is the skip-ahead guarantee.
        let g = generators::path(2);
        let far = 1_000_000_000_000;
        let run = Engine::new(&g, Config::default())
            .run(vec![Sleeper(far), Sleeper(far)])
            .unwrap();
        assert_eq!(run.metrics.rounds, far);
        assert_eq!(run.metrics.max_awake(), 2);
        assert_eq!(run.metrics.awake, vec![2, 2]);
    }

    #[test]
    fn invalid_sleep_detected() {
        let g = generators::path(2);
        let err = Engine::new(&g, Config::default())
            .run(vec![Sleeper(1), Sleeper(5)])
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidSleep { until: 1, .. }));
    }

    #[test]
    fn round_budget_enforced() {
        let g = generators::path(2);
        let err = Engine::new(&g, Config::with_max_rounds(10))
            .run(vec![Sleeper(50), Sleeper(50)])
            .unwrap_err();
        assert_eq!(err, SimError::RoundBudgetExceeded { limit: 10 });
    }

    struct BadSend;
    impl Program for BadSend {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &View, out: &mut Outbox<()>) {
            out.to(NodeId(2), ()); // not a neighbor on a path of 3
        }
        fn receive(&mut self, _: &View, _: &[Envelope<()>]) -> Action {
            Action::Halt
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    #[test]
    fn non_neighbor_send_detected() {
        let g = generators::path(3);
        let err = Engine::new(&g, Config::default())
            .run(vec![BadSend, BadSend, BadSend])
            .unwrap_err();
        assert!(matches!(err, SimError::NotANeighbor { .. }));
    }

    struct NoOutput;
    impl Program for NoOutput {
        type Msg = ();
        type Output = u32;
        fn send(&mut self, _: &View, _: &mut Outbox<()>) {}
        fn receive(&mut self, _: &View, _: &[Envelope<()>]) -> Action {
            Action::Halt
        }
        fn output(&self) -> Option<u32> {
            None
        }
    }

    #[test]
    fn missing_output_detected() {
        let g = generators::path(2);
        let err = Engine::new(&g, Config::default())
            .run(vec![NoOutput, NoOutput])
            .unwrap_err();
        assert!(matches!(err, SimError::MissingOutput(_)));
    }

    #[test]
    fn program_count_mismatch() {
        let g = generators::path(3);
        let err = Engine::new(&g, Config::default())
            .run(vec![NoOutput])
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::ProgramCountMismatch {
                got: 1,
                expected: 3
            }
        ));
    }

    #[test]
    fn empty_graph_runs() {
        let g = awake_graphs::GraphBuilder::new(0).build().unwrap();
        let run = Engine::new(&g, Config::default())
            .run(Vec::<OneShot>::new())
            .unwrap();
        assert!(run.outputs.is_empty());
        assert_eq!(run.metrics.rounds, 0);
    }

    #[test]
    fn trace_records_events() {
        let g = generators::path(2);
        let cfg = Config {
            trace: TraceMode::Capped(100),
            ..Config::default()
        };
        let run = Engine::new(&g, cfg)
            .run(vec![OneShot::default(), OneShot::default()])
            .unwrap();
        assert!(run
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Delivered { .. })));
        assert!(run
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Halt { .. })));
        assert_eq!(run.trace_dropped, 0, "uncapped trace is complete");
    }

    #[test]
    fn capped_trace_reports_dropped_events() {
        let g = generators::path(2);
        let full = Engine::new(
            &g,
            Config {
                trace: TraceMode::Capped(1000),
                ..Config::default()
            },
        )
        .run(vec![OneShot::default(), OneShot::default()])
        .unwrap();
        assert!(full.trace.len() > 2);
        let capped = Engine::new(
            &g,
            Config {
                trace: TraceMode::Capped(2),
                ..Config::default()
            },
        )
        .run(vec![OneShot::default(), OneShot::default()])
        .unwrap();
        // The capped trace is the exact prefix of the full one, and the
        // drop counter accounts for everything past it.
        assert_eq!(capped.trace.as_slice(), &full.trace[..2]);
        assert_eq!(capped.trace_dropped, full.trace.len() as u64 - 2);
    }

    struct WakesAtZero;
    impl Program for WakesAtZero {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &View, _: &mut Outbox<()>) {}
        fn receive(&mut self, _: &View, _: &[Envelope<()>]) -> Action {
            Action::Halt
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
        fn initial_wake(&self) -> Option<Round> {
            Some(0)
        }
    }

    #[test]
    fn initial_wake_before_first_round_is_a_typed_error() {
        let g = generators::path(2);
        let err = Engine::new(&g, Config::default())
            .run(vec![WakesAtZero, WakesAtZero])
            .unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidInitialWake {
                node: NodeId(0),
                round: 0
            }
        );
        assert!(err.to_string().contains("initial wake"));
    }

    #[test]
    fn error_display() {
        let e = SimError::NotANeighbor {
            from: NodeId(0),
            to: NodeId(9),
        };
        assert!(e.to_string().contains("non-neighbor"));
    }

    /// Stay-lane and wheel wakes interleaving: node 0 stays every round,
    /// node 1 sleeps in jumps; they must meet exactly when scheduled.
    struct Mixed {
        jumps: bool,
        meetings: Vec<Round>,
    }

    impl Program for Mixed {
        type Msg = u64;
        type Output = Vec<Round>;
        fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
            out.broadcast(view.round);
        }
        fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
            if !inbox.is_empty() {
                self.meetings.push(view.round);
            }
            if self.jumps {
                if view.round >= 20 {
                    Action::Halt
                } else {
                    Action::SleepUntil(view.round + 7)
                }
            } else if view.round >= 22 {
                Action::Halt
            } else {
                Action::Stay
            }
        }
        fn output(&self) -> Option<Vec<Round>> {
            Some(self.meetings.clone())
        }
    }

    #[test]
    fn stay_lane_meets_wheel_wakes() {
        let g = generators::path(2);
        let run = Engine::new(&g, Config::default())
            .run(vec![
                Mixed {
                    jumps: false,
                    meetings: vec![],
                },
                Mixed {
                    jumps: true,
                    meetings: vec![],
                },
            ])
            .unwrap();
        // node 1 awake at 1, 8, 15, 22; node 0 awake 1..=22: they exchange
        // exactly at node 1's wake rounds.
        assert_eq!(run.outputs[0], vec![1, 8, 15, 22]);
        assert_eq!(run.outputs[1], vec![1, 8, 15, 22]);
        assert_eq!(run.metrics.awake[1], 4);
        assert_eq!(run.metrics.awake[0], 22);
    }

    /// A fully scripted node: first wakes at `initial`, optionally sleeps
    /// once (`at` round, until `until`), halts at `halt_at`, stays
    /// otherwise; broadcasts its ident and records everything it hears.
    struct Scripted {
        initial: Round,
        sleep: Option<(Round, Round)>,
        halt_at: Round,
        heard: Vec<(Round, u64)>,
    }

    impl Scripted {
        fn new(initial: Round, sleep: Option<(Round, Round)>, halt_at: Round) -> Self {
            Scripted {
                initial,
                sleep,
                halt_at,
                heard: vec![],
            }
        }
    }

    impl Program for Scripted {
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
            } else if let Some((at, until)) = self.sleep {
                if view.round == at {
                    return Action::SleepUntil(until);
                }
                Action::Stay
            } else {
                Action::Stay
            }
        }
        fn output(&self) -> Option<Self::Output> {
            Some(self.heard.clone())
        }
    }

    /// Regression for the wheel's stale-min memo: initial wakes at 65/66
    /// make the seed events cascade across the first 64-round block
    /// boundary, after which the memo used to still hold the popped round
    /// 65 — so at round 66 the stay lane (node 0) took the fast path and
    /// node 1's wheel wake was skipped. Node 0 then heard nothing at 66,
    /// and node 1 was popped *after* round 70, regressing metrics.rounds.
    #[test]
    fn wheel_wake_coinciding_with_stay_round_after_cascade() {
        let g = generators::path(2);
        let run = Engine::new(&g, Config::default())
            .run(vec![
                Scripted::new(65, None, 70),
                Scripted::new(66, None, 66),
            ])
            .unwrap();
        // They are both awake exactly at round 66 and must exchange there.
        assert_eq!(run.outputs[0], vec![(66, 2)]);
        assert_eq!(run.outputs[1], vec![(66, 1)]);
        assert_eq!(run.metrics.rounds, 70, "rounds must stay monotone");
        assert_eq!(run.metrics.awake[0], 6); // rounds 65..=70
        assert_eq!(run.metrics.awake[1], 1); // round 66 only
    }

    /// Regression for the memo's other stale path: after round 65's pop,
    /// node 2 schedules a far sleep (round 100) while node 0's wake at 66
    /// is still pending in the wheel. The memo must not adopt 100 as the
    /// minimum, or round 66's stay lane (node 1) would skip node 0's wake.
    #[test]
    fn schedule_after_pop_does_not_hide_pending_wheel_wake() {
        let g = generators::path(3);
        let run = Engine::new(&g, Config::default())
            .run(vec![
                Scripted::new(66, None, 66),
                Scripted::new(65, None, 70),
                Scripted::new(65, Some((65, 100)), 100),
            ])
            .unwrap();
        // Nodes 1 and 2 exchange at 65; nodes 0 and 1 must still exchange
        // at 66 even though node 2's sleep was scheduled in between.
        assert_eq!(run.outputs[0], vec![(66, 2)]);
        assert_eq!(run.outputs[1], vec![(65, 3), (66, 1)]);
        assert_eq!(run.outputs[2], vec![(65, 2)]);
        assert_eq!(run.metrics.rounds, 100);
        assert_eq!(run.metrics.awake, vec![1, 6, 2]);
    }
}

//! The executor behind every [`Engine`](crate::Engine): one round body,
//! run on the coordinator alone or on a persistent worker pool.
//!
//! There are no entry points here: [`Engine::new`](crate::Engine::new)
//! and [`Engine::with_workers`](crate::Engine::with_workers) choose the
//! executor count once (`None` and `Some(1)` are the same one-executor
//! engine), and every [`Engine`](crate::Engine) method — plain, faulty,
//! timed, snapshot, resume, checkpointed — runs on this pool. The serial
//! engine *is* the pool's one-executor path: every round runs inline on
//! the coordinator through the same phase functions the workers run, so
//! the worker count changes how a round is chunked, never an observable
//! result. All executor counts agree **bit for bit** — equal outputs,
//! [`Metrics`], trace and snapshot bytes — and the naive reference stepper
//! in `crates/sleeping/tests/equivalence.rs`, an independent
//! implementation of the model's round semantics, is the oracle they are
//! tested against.
//!
//! # Design
//!
//! `workers` executors (the coordinator plus `workers - 1` spawned
//! threads) live across all rounds of a run. Each round the sorted awake
//! set is split into at most `workers` contiguous chunks at **equal
//! degree-mass boundaries** (prefix sum over `degree + 1` of the awake
//! set), so a handful of hubs cannot serialize a round the way
//! count-based chunking would. Message routing and inbox construction
//! happen **inside the executors**; the coordinator is reduced to
//! synchronization and a deterministic merge:
//!
//! ```text
//!  coordinator                       executor e (coordinator or worker)
//!  ───────────                       ──────────────────────────────────
//!  pop awake set for round r
//!  partition by degree mass,
//!  publish {next_wake, chunk map},
//!  park chunk jobs in the slot
//!  arena, open SEND descriptors ──▶  claim a READY send descriptor c
//!                                    (CAS, scan offset by executor id):
//!                                    run send(), validate/expand, stage
//!                                    each message into exchange cell
//!                                    (c, owner); publish results, count
//!                                    down every chunk's pending gate —
//!                                    last contributor opens that
//!                                    chunk's RECEIVE descriptor
//!  consume send results in     ◀──   (claim-and-publish: no barrier)
//!  chunk order (helping via
//!  steal while waiting); merge
//!  tallies/spans/traces/errors       claim a READY receive descriptor d:
//!                                    drain cells (0..k, d) in source
//!  consume receive partials in ◀──   order into local segments (born
//!  chunk order, apply stays/         sorted), run receive() per node,
//!  sleeps/halts, schedule_all        publish action partials
//! ```
//!
//! There is no per-phase barrier: a chunk's receive descriptor opens the
//! moment the *last* send contribution for it lands (`pending` countdown),
//! while other chunks' sends are still running; idle executors steal
//! whatever descriptor is READY. The coordinator itself executes
//! descriptors while it waits, so `workers = 1` spawns no threads.
//!
//! Determinism survives stealing because of four invariants:
//!
//! * **Executor identity is unobservable.** Work units are *chunk*
//!   descriptors, not worker assignments: a chunk's batch, shards and
//!   result buffers are indexed by chunk, every phase body reads only the
//!   round context and its own chunk's state, and exchange cells are
//!   `(source chunk, owner chunk)`-addressed. Who executes a descriptor
//!   leaves no trace in any buffer.
//! * **Chunks are contiguous in node order** and senders within a chunk
//!   transmit in ascending order, so draining a recipient's incoming
//!   cells in source-chunk index order concatenates already-sorted runs
//!   — every inbox is born sorted by sender.
//! * **All merges happen coordinator-side in chunk index order** (= node
//!   order): awake/span attribution, message tallies, stay-lane
//!   extension, batched wheel `schedule_all` and halt outputs — the
//!   per-node order of a single chunk, whatever order descriptors
//!   actually executed in.
//! * **Error precedence is by lowest node id**: an executor stops at its
//!   chunk's first error and raises a run-wide abort flag (sequenced
//!   before its pending countdown, so no receive descriptor can open on
//!   an aborting round); the coordinator consumes results in chunk order
//!   and surfaces the first error of the lowest-indexed chunk — the error
//!   a single chunk would hit.
//!
//! Batches, shard buffers and exchange cells recycle their capacity
//! (swaps only — payloads never move), executor-local segment pools are
//! retained across rounds: the steady state allocates nothing per
//! node-round.
//!
//! # The inline path
//!
//! Rounds whose total degree mass is tiny (see `INLINE_MASS`), and every
//! round of a one-executor engine, run **inline** on the coordinator as a
//! single chunk: no descriptors, and none of the traffic a chunk needs to
//! travel between executors. Programs run in place instead of moving
//! through a batch, and each delivered message is pushed straight into
//! its recipient's inbox segment (keyed by node) instead of an owner
//! shard. The phase functions are the same ones a descriptor runs —
//! `Jobs` abstracts where a chunk's programs and inbox segments live, a
//! staging closure where its messages go — so the inline path is a
//! single-chunk instance of the pipeline, identical by construction.
//!
//! Tracing rides the same merge discipline: when [`Config::trace`] is on,
//! each chunk stages its [`TraceEvent`]s in node order (awake →
//! per-message delivered/lost in the send phase; sleep/halt in the
//! receive phase) and the coordinator absorbs the staged buffers **in
//! chunk order** through the shared capped tracer — so [`Run::trace`]
//! (and [`Run::trace_dropped`]) is bit-identical at any worker count.
//!
//! A panic on any executor — a program panicking in `send`, say —
//! propagates to the caller: an unwind guard on every executor raises
//! shutdown and wakes the others, and a waiting coordinator checks the
//! pool's poisoned flag instead of waiting forever on a descriptor the
//! panicked executor will never finish.
//!
//! A seeded chaos hook (test-only, set with `Engine::with_chaos`) perturbs
//! scheduling at every claim point — forced steals, yields, parks, unpark
//! storms — and the equivalence tests assert bit-for-bit agreement under
//! those interleavings too; see `ChaosPlan`.

use crate::arena::ChunkInboxes;
use crate::checkpoint::{rebuild_wheel, CrashIo, EngineStateRef, Paused, Reader, Snapshot, Writer};
use crate::engine::{next_awake_set, route_entries, seed_schedule, CkptCtl, FaultCtx, Init, NEVER};
use crate::faults::{DelayedMsg, FaultKind, FaultPlan};
use crate::metrics::{Metrics, PhaseTimes};
use crate::program::{Action, Envelope, OutEntry, Outbox, Program, View};
use crate::trace::{TraceEvent, Tracer};
use crate::wheel::WakeWheel;
use crate::{Config, Round, Run, SimError};
use awake_graphs::{Graph, NodeId};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// One delivered message bound for a chunk: the recipient's inbox segment
/// in that chunk (see [`Jobs::seg`]), plus the envelope to deliver.
struct ShardEntry<M> {
    to_local: u32,
    env: Envelope<M>,
}

/// Read-mostly per-round context shared with the executors.
///
/// The coordinator write-locks it at round boundaries (when every
/// descriptor of the previous round is DONE and every executor is idle or
/// scanning) to publish the new wake stamps and chunk map; each send
/// descriptor read-locks it for the duration of its execution. The lock
/// is therefore never contended in steady state — it exists to let the
/// borrow checker accept the sharing.
struct RoundCtx {
    /// `next_wake[v] = r`: `v` wakes at round `r`; [`NEVER`]: halted.
    next_wake: Vec<Round>,
    /// Dispatched rounds: position of `v` in this round's awake set; only
    /// meaningful when `next_wake[v]` equals the current round (the stamp
    /// that guards it).
    awake_pos: Vec<u32>,
    /// Dispatched rounds: chunk boundaries as positions into the awake
    /// set — chunk `c` owns positions `bounds[c]..bounds[c+1]`. Strictly
    /// increasing, `bounds[0] = 0`, last entry = awake length.
    bounds: Vec<u32>,
    /// Dispatched rounds: owner chunk per awake position — one O(1)
    /// lookup on the message staging hot path instead of a
    /// `partition_point` binary search per delivered message. Filled in
    /// the same pass that stamps [`awake_pos`](Self::awake_pos).
    chunk: Vec<u32>,
}

impl RoundCtx {
    /// The owner chunk of awake node `to` and its position within that
    /// chunk (dispatched rounds).
    #[inline]
    fn owner(&self, to: NodeId) -> (usize, u32) {
        let pos = self.awake_pos[to.index()];
        let c = self.chunk[pos as usize] as usize;
        (c, pos - self.bounds[c])
    }
}

/// Rounds whose total degree mass is at or below this run inline on the
/// coordinator (a single chunk through the same phase functions) instead
/// of being dispatched: sequential-greedy schedules wake a handful of
/// nodes per round for most rounds, and two channel round-trips per worker
/// dwarf a few hundred nanoseconds of node work.
const INLINE_MASS: u64 = 256;

/// Fill `prefix` with the cumulative **degree mass** (`degree + 1` per
/// node, so isolated nodes still weigh in) of the awake set; returns the
/// total. Caller scratch, capacity reused across rounds.
fn degree_mass_prefix(graph: &Graph, awake: &[u32], prefix: &mut Vec<u64>) -> u64 {
    prefix.clear();
    let mut acc = 0u64;
    for &v in awake {
        acc += graph.degree(NodeId(v)) as u64 + 1;
        prefix.push(acc);
    }
    acc
}

/// Split the awake set into `k` non-empty contiguous chunks of roughly
/// equal degree mass, given its mass prefix sum. Boundary `j` lands at the
/// prefix position where cumulative mass crosses `j/k` of the total,
/// clamped so every chunk keeps at least one node — a single hub holding
/// most of the degree mass gets a chunk of its own instead of dragging
/// half the round's work into one worker.
///
/// Requires `1 <= k <= prefix.len()`.
fn partition_by_mass(prefix: &[u64], k: usize, bounds: &mut Vec<u32>) {
    debug_assert!(k >= 1 && k <= prefix.len());
    let total = *prefix.last().expect("non-empty awake set");
    bounds.clear();
    bounds.push(0);
    for j in 1..k {
        let target = total * j as u64 / k as u64;
        let cut = prefix.partition_point(|&p| p <= target);
        let lo = bounds[j - 1] as usize + 1;
        let hi = prefix.len() - (k - j);
        bounds.push(cut.clamp(lo, hi) as u32);
    }
    bounds.push(prefix.len() as u32);
}

/// The fault hooks a phase needs per round: the (immutable) seeded plan
/// plus the [`Persist`](crate::Persist) entry points of the concrete
/// program type as function pointers (see [`CrashIo`]), so the phase
/// bodies carry no `Persist` bound. Copied into each chunk's phase state;
/// the mutable fault state (the delayed-message buffer) stays with the
/// coordinator.
struct FaultHooks<P: Program> {
    plan: FaultPlan,
    crash_io: CrashIo<P>,
}

impl<P: Program> Clone for FaultHooks<P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: Program> Copy for FaultHooks<P> {}

/// What one chunk's send phase hands back to the coordinator: span
/// attribution, message tallies, staged trace events, delayed messages,
/// and the chunk's first error. A send descriptor publishes it through the
/// slot's `results` mutex the instant it completes (separately from the
/// parked batch, so the coordinator can merge in chunk order while the
/// batch buffers wait for the receive descriptor); it is drained
/// coordinator-side and recycles its capacity across rounds.
struct SendResults<P: Program> {
    /// Span attribution, captured before `send`: runs of `(span, nodes)`
    /// covering the chunk's awake nodes in order — consecutive nodes with
    /// the same span share one run, so a uniform chunk costs one entry.
    spans: Vec<(&'static str, u32)>,
    /// Message tallies of this chunk.
    sent: u64,
    delivered: u64,
    lost: u64,
    /// Injected-fault tallies of this chunk.
    fdropped: u64,
    fduplicated: u64,
    fdelayed: u64,
    /// Messages fated to arrive in a later round, in the chunk's
    /// transmission order; the coordinator appends them (chunk order =
    /// node order) to the run's delayed buffer.
    delayed_out: Vec<DelayedMsg<P::Msg>>,
    /// Events staged by the send phase, in per-node order; absorbed by the
    /// coordinator in chunk order.
    trace: Vec<TraceEvent>,
    /// First error of this chunk, in node order (execution stops there).
    error: Option<SimError>,
}

impl<P: Program> SendResults<P> {
    fn new() -> Self {
        SendResults {
            spans: Vec::new(),
            sent: 0,
            delivered: 0,
            lost: 0,
            fdropped: 0,
            fduplicated: 0,
            fdelayed: 0,
            delayed_out: Vec::new(),
            trace: Vec::new(),
            error: None,
        }
    }
}

/// One chunk's state across the two phases of a round: the round's
/// inputs, the phase bodies' scratch, and the partials they hand back to
/// the coordinator. A dispatched chunk carries it in its [`Batch`]; the
/// inline path keeps one of its own.
struct Phases<P: Program> {
    round: Round,
    /// Recycled backing buffer of the phase's outbox.
    out_items: Vec<OutEntry<P::Msg>>,
    /// Send-phase results.
    res: SendResults<P>,
    /// Fault plan + crash I/O of the run; `None` for fault-free runs.
    faults: Option<FaultHooks<P>>,
    /// Receive result: crash-restarts applied in this chunk.
    fcrashed: u64,
    /// `(node, start-of-round state)` of this chunk's nodes that crash
    /// this round, ascending by node. Written by the send phase (the blob
    /// is saved *before* the node acts), consumed by the receive phase.
    crashes: Vec<(u32, Vec<u8>)>,
    /// Receive result: nodes of this chunk that crash-restarted this
    /// round, ascending. [`Phases::stays`] conflates crashed nodes with
    /// voluntary stays, so the coordinator's recovery accounting needs the
    /// crashed set separately.
    crashed_nodes: Vec<u32>,
    /// Fault-delayed messages coming due this round for recipients in this
    /// chunk, staged by the coordinator between the phases (a dispatched
    /// batch is parked then — faulty rounds gate receives on the
    /// coordinator); the receive phase delivers them after the regular
    /// deliveries and restores each touched inbox's sorted-by-sender
    /// invariant.
    late: Vec<ShardEntry<P::Msg>>,
    /// Scratch: chunk positions touched by late deliveries.
    late_locals: Vec<u32>,
    /// Receive result: nodes that chose [`Action::Stay`] — plus crashed
    /// nodes, which restart awake next round — ascending.
    stays: Vec<u32>,
    /// Receive result: `(wake round, node)` sleeps, ascending by node.
    sleeps: Vec<(Round, u32)>,
    /// Receive result: halted nodes with their outputs, ascending.
    halts: Vec<(u32, P::Output)>,
    /// Receive phase: first error of this chunk, in node order.
    error: Option<SimError>,
    /// Whether to stage trace events (set from the run's [`Config::trace`]).
    trace_on: bool,
    /// Receive-phase events staged by this chunk, in per-node order;
    /// absorbed by the coordinator in chunk order.
    trace: Vec<TraceEvent>,
}

impl<P: Program> Phases<P> {
    fn new(faults: Option<FaultHooks<P>>, trace_on: bool) -> Self {
        Phases {
            round: 0,
            out_items: Vec::new(),
            res: SendResults::new(),
            faults,
            fcrashed: 0,
            crashes: Vec::new(),
            crashed_nodes: Vec::new(),
            late: Vec::new(),
            late_locals: Vec::new(),
            stays: Vec::new(),
            sleeps: Vec::new(),
            halts: Vec::new(),
            error: None,
            trace_on,
            trace: Vec::new(),
        }
    }
}

/// One dispatched chunk's reusable unit of work: its programs, its
/// outbound shards and its [`Phases`]. Parked in its chunk's [`ChunkSlot`]
/// between executions; whichever executor claims the descriptor takes the
/// batch, runs the phase, and parks it back — batches are chunk-addressed,
/// never worker-addressed.
struct Batch<P: Program> {
    /// The chunk's `(node, program)` pairs, ascending by node, moved out
    /// of the coordinator's program slots for the round.
    jobs: Vec<(u32, P)>,
    /// Send phase: outbound messages sharded by the recipient's owner
    /// chunk. On completion each shard is swapped into the exchange cell
    /// `(this chunk, owner chunk)`, taking back the (drained) buffer the
    /// cell held — capacity circulates between batches and cells.
    shards: Vec<Vec<ShardEntry<P::Msg>>>,
    ph: Phases<P>,
}

/// A chunk's awake nodes, their programs and their inbox segments, as the
/// phase bodies see them: `job(i)` is the chunk's `i`-th awake node
/// (ascending) and its program, `seg(i, v)` the segment its inbox is
/// built in. A dispatched chunk owns its programs for the round
/// (`Vec<(u32, P)>`, so executors can run chunks in parallel) and keys
/// its segments by position in the chunk, so an executor never pays for
/// nodes it does not run; the inline path runs the programs in place
/// ([`InPlace`]) and keys segments by node, so delivering a message needs
/// no position lookup.
trait Jobs<P> {
    fn len(&self) -> usize;
    fn job(&mut self, i: usize) -> (u32, &mut P);
    fn seg(i: usize, v: u32) -> usize;
    /// How many segments the keys range over.
    fn segs(&self) -> usize;
}

impl<P> Jobs<P> for Vec<(u32, P)> {
    #[inline]
    fn len(&self) -> usize {
        Vec::len(self)
    }
    #[inline]
    fn job(&mut self, i: usize) -> (u32, &mut P) {
        let (v, p) = &mut self[i];
        (*v, p)
    }
    #[inline]
    fn seg(i: usize, _: u32) -> usize {
        i
    }
    fn segs(&self) -> usize {
        Vec::len(self)
    }
}

/// The inline path's jobs: the whole awake set, with the programs left in
/// the coordinator's slots.
struct InPlace<'a, P> {
    awake: &'a [u32],
    slots: &'a mut [Option<P>],
}

impl<P> Jobs<P> for InPlace<'_, P> {
    #[inline]
    fn len(&self) -> usize {
        self.awake.len()
    }
    #[inline]
    fn job(&mut self, i: usize) -> (u32, &mut P) {
        let v = self.awake[i];
        let p = self.slots[v as usize].as_mut().expect("program present");
        (v, p)
    }
    #[inline]
    fn seg(_: usize, v: u32) -> usize {
        v as usize
    }
    fn segs(&self) -> usize {
        self.slots.len()
    }
}

// ---- the injector: chunk descriptors over a preallocated slot arena ----
//
// Descriptor life cycle (all transitions SeqCst):
//
//   send:  DONE ──coordinator──▶ READY ──CAS claim──▶ RUNNING ──▶ DONE
//   recv:  DONE ──coordinator──▶ VACANT ──gate──▶ READY ──CAS──▶ RUNNING ──▶ DONE
//
// The atomics carry the claim protocol; the `Mutex`es under them only
// transfer buffer ownership (a claimed descriptor's batch mutex is always
// uncontended — the CAS serialized access first). This keeps the whole
// executor inside `#![forbid(unsafe_code)]`.

/// Descriptor states. `VACANT` is only meaningful for receive
/// descriptors: reset at round publish, it keeps stale scanners from
/// claiming a receive whose send contributions haven't all landed.
const VACANT: usize = 0;
const READY: usize = 1;
const RUNNING: usize = 2;
const DONE: usize = 3;

/// One chunk's slot in the descriptor arena.
struct ChunkSlot<P: Program> {
    /// Send descriptor state.
    send_state: AtomicUsize,
    /// Receive descriptor state.
    recv_state: AtomicUsize,
    /// Send contributions this chunk's receive still waits for. Reset to
    /// `k` at round publish; every completed send execution decrements
    /// every chunk's gate (after publishing its shards), and the
    /// decrement that hits zero opens the receive descriptor — unless the
    /// round is faulty (coordinator gates receives to stage late
    /// deliveries first) or aborting.
    pending: AtomicUsize,
    /// The chunk's parked batch; `None` exactly while an executor runs a
    /// claimed descriptor for this chunk.
    batch: Mutex<Option<Batch<P>>>,
    /// The chunk's published send results, swapped in on send completion
    /// and drained by the coordinator in chunk order.
    results: Mutex<SendResults<P>>,
}

impl<P: Program> ChunkSlot<P> {
    fn new(faults: Option<FaultHooks<P>>, trace_on: bool) -> Self {
        ChunkSlot {
            send_state: AtomicUsize::new(DONE),
            recv_state: AtomicUsize::new(DONE),
            pending: AtomicUsize::new(0),
            batch: Mutex::new(Some(Batch {
                jobs: Vec::new(),
                shards: Vec::new(),
                ph: Phases::new(faults, trace_on),
            })),
            results: Mutex::new(SendResults::new()),
        }
    }
}

/// Test-only scheduler perturbation: a seeded plan that injects forced
/// steals (skipping a claimable descriptor), yields, short parks and
/// unpark storms at every claim point and publication edge. Rolls are a
/// pure function of `(seed, executor id, per-executor counter)` —
/// deterministic per executor, chaotic in interleaving — and never touch
/// any buffer, so the bit-for-bit equivalence tests assert that *no*
/// interleaving the protocol admits changes an observable result.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChaosPlan {
    pub(crate) seed: u64,
}

enum ChaosOp {
    Pass,
    /// Skip a claimable descriptor this scan — forces another executor
    /// (or a later scan) to steal it.
    Steal,
    Yield,
    /// Park for the given number of microseconds (consumes a pending
    /// unpark token, exercising the lost-wakeup paths).
    Nap(u64),
    /// Unpark every executor out of turn.
    Storm,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ChaosPlan {
    fn roll(&self, who: usize, ctr: u64) -> ChaosOp {
        let r = splitmix64(self.seed ^ ((who as u64) << 48) ^ ctr);
        match r & 0xf {
            0..=2 => ChaosOp::Steal,
            3..=4 => ChaosOp::Yield,
            5 => ChaosOp::Nap(1 + ((r >> 8) & 0x1f)),
            6 => ChaosOp::Storm,
            _ => ChaosOp::Pass,
        }
    }
}

/// Per-executor state: its scan offset (so executors start their claim
/// scans at different descriptors), its local inbox segment pool
/// (capacity retained across rounds and whichever chunks it happens to
/// execute), and its chaos counter.
struct ExecCtx<M> {
    who: usize,
    inboxes: ChunkInboxes<M>,
    chaos_ctr: u64,
}

impl<M> ExecCtx<M> {
    fn new(who: usize) -> Self {
        ExecCtx {
            who,
            inboxes: ChunkInboxes::new(),
            chaos_ctr: 0,
        }
    }
}

/// The shared injector: the round context, the descriptor slot arena, the
/// k×k exchange cells, and the park/unpark registry. One per run, borrowed
/// by every executor for the duration of the scope.
struct StealPool<'g, P: Program> {
    graph: &'g Graph,
    ctx: RwLock<RoundCtx>,
    /// Chunk descriptor slots, `kmax` of them (chunk count never exceeds
    /// the executor count).
    slots: Vec<ChunkSlot<P>>,
    /// Exchange cells, `(source chunk, owner chunk)`-addressed at
    /// `src * kmax + dst`: send descriptor `src` swaps its outbound shard
    /// for chunk `dst` into cell `(src, dst)`; receive descriptor `dst`
    /// drains cells `(0..k, dst)` in source order.
    cells: Vec<Mutex<Vec<ShardEntry<P::Msg>>>>,
    kmax: usize,
    /// Chunk count of the round in flight (0 while idle/inline). A claim
    /// of a READY descriptor re-reads this *after* the CAS: the READY
    /// store is sequenced after the round's `k` store, so the claimer
    /// always executes with the current round's chunk count even if its
    /// scan used a stale one.
    k: AtomicUsize,
    /// Fault-free runs auto-open a chunk's receive descriptor when its
    /// pending gate hits zero; faulty runs let the coordinator stage late
    /// deliveries into the parked batches first and open all receives
    /// itself.
    auto_receive: bool,
    /// Raised (before any pending decrement) by a send descriptor that
    /// hit an error: no receive descriptor opens on an aborting round.
    abort: AtomicBool,
    shutdown: AtomicBool,
    /// Raised by an executor unwinding from a panic: whatever descriptor
    /// it held will never reach DONE, so the coordinator stops waiting.
    poisoned: AtomicBool,
    /// Every executor's thread handle, for unpark storms. Executors
    /// register before their first scan, so a registered executor never
    /// misses a wakeup: state stores happen before `unpark_all`, and a
    /// scan-then-park races at worst into a pending unpark token.
    registry: Mutex<Vec<Thread>>,
    chaos: Option<ChaosPlan>,
}

impl<P: Program> StealPool<'_, P> {
    #[inline]
    fn cell(&self, src: usize, dst: usize) -> &Mutex<Vec<ShardEntry<P::Msg>>> {
        &self.cells[src * self.kmax + dst]
    }

    fn register(&self) {
        self.registry
            .lock()
            .expect("registry lock")
            .push(thread::current());
    }

    fn unpark_all(&self) {
        // Also called while unwinding (see `Shutdown`), where a second
        // panic would abort: read through a poisoned lock.
        let registry = self.registry.lock().unwrap_or_else(PoisonError::into_inner);
        for t in registry.iter() {
            t.unpark();
        }
    }
}

/// Every executor's exit, normal or unwinding: raise shutdown and wake
/// every executor, so spawned workers leave their park and the scope can
/// join them; an unwinding exit also poisons the pool, so a coordinator
/// waiting on the panicked executor's descriptor panics in turn instead
/// of waiting forever.
struct Shutdown<'a, 'g, P: Program>(&'a StealPool<'g, P>);

impl<P: Program> Drop for Shutdown<'_, '_, P> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.poisoned.store(true, Ordering::SeqCst);
        }
        self.0.shutdown.store(true, Ordering::SeqCst);
        self.0.unpark_all();
    }
}

/// Roll the chaos plan (if any) at a scheduling edge. Returns `true` when
/// the roll demands skipping a claimable descriptor (a forced steal);
/// side-effect ops (yield/nap/storm) happen here and return `false`.
#[inline]
fn chaos_pulse<P: Program>(pool: &StealPool<'_, P>, ex: &mut ExecCtx<P::Msg>) -> bool {
    let Some(plan) = pool.chaos else { return false };
    ex.chaos_ctr += 1;
    match plan.roll(ex.who, ex.chaos_ctr) {
        ChaosOp::Pass => false,
        ChaosOp::Steal => true,
        ChaosOp::Yield => {
            thread::yield_now();
            false
        }
        ChaosOp::Nap(us) => {
            thread::park_timeout(Duration::from_micros(us));
            false
        }
        ChaosOp::Storm => {
            pool.unpark_all();
            false
        }
    }
}

/// Execute a claimed send descriptor: take the parked batch, run the send
/// phase against the published round context, publish shards into the
/// exchange cells and results into the slot, then count down every
/// chunk's pending gate — opening any receive descriptor whose last
/// contribution this was (fault-free, non-aborting rounds only).
fn execute_send<P: Program>(pool: &StealPool<'_, P>, c: usize, k: usize, ex: &mut ExecCtx<P::Msg>) {
    let slot = &pool.slots[c];
    let mut b = slot
        .batch
        .lock()
        .expect("batch slot lock")
        .take()
        .expect("claimed send descriptor has a parked batch");
    if b.shards.len() < k {
        b.shards.resize_with(k, Vec::new);
    }
    {
        let ctx = pool.ctx.read().expect("round context lock");
        let shards = &mut b.shards;
        run_send_phase(pool.graph, &ctx, &mut b.ph, &mut b.jobs, |to, env| {
            let (owner, to_local) = ctx.owner(to);
            shards[owner].push(ShardEntry { to_local, env });
        });
    }
    if b.ph.res.error.is_some() {
        // Raised before the pending decrements below: SeqCst makes the
        // store visible to whichever executor decrements a gate to zero,
        // so no receive descriptor ever opens on an aborting round.
        pool.abort.store(true, Ordering::SeqCst);
    }
    chaos_pulse(pool, ex);
    // Publish outbound shards: swap each filled buffer into its exchange
    // cell, taking back the buffer the previous round's receive drained —
    // capacity circulates between batches and cells, nothing reallocates.
    for dst in 0..k {
        let mut cell = pool.cell(c, dst).lock().expect("exchange cell lock");
        std::mem::swap(&mut *cell, &mut b.shards[dst]);
    }
    {
        let mut r = slot.results.lock().expect("send results lock");
        std::mem::swap(&mut *r, &mut b.ph.res);
    }
    *slot.batch.lock().expect("batch slot lock") = Some(b);
    slot.send_state.store(DONE, Ordering::SeqCst);
    // Contribution countdown — only after this chunk's shards and results
    // are fully published, so an opened receive sees every cell filled.
    for dst in 0..k {
        if pool.slots[dst].pending.fetch_sub(1, Ordering::SeqCst) == 1
            && pool.auto_receive
            && !pool.abort.load(Ordering::SeqCst)
        {
            pool.slots[dst].recv_state.store(READY, Ordering::SeqCst);
        }
    }
    pool.unpark_all();
}

/// Execute a claimed receive descriptor: drain the chunk's exchange cells
/// in source-chunk order into the executor-local segment pool (born
/// sorted by sender), run the receive phase, and park the batch back with
/// its action partials for the coordinator to apply in chunk order.
fn execute_receive<P: Program>(
    pool: &StealPool<'_, P>,
    c: usize,
    k: usize,
    ex: &mut ExecCtx<P::Msg>,
) {
    let slot = &pool.slots[c];
    let mut b = slot
        .batch
        .lock()
        .expect("batch slot lock")
        .take()
        .expect("claimed receive descriptor has a parked batch");
    ex.inboxes.ensure(b.jobs.len());
    chaos_pulse(pool, ex);
    for src in 0..k {
        let mut cell = pool.cell(src, c).lock().expect("exchange cell lock");
        for e in cell.drain(..) {
            ex.inboxes.push(e.to_local, e.env);
        }
    }
    run_receive_phase(pool.graph, &mut b.ph, &mut b.jobs, &mut ex.inboxes);
    *slot.batch.lock().expect("batch slot lock") = Some(b);
    slot.recv_state.store(DONE, Ordering::SeqCst);
    pool.unpark_all();
}

/// One claim scan over the descriptor arena, starting at this executor's
/// offset: claim (CAS READY → RUNNING) and execute the first claimable
/// send, then receive, descriptor. Returns whether anything was executed.
fn try_execute<P: Program>(pool: &StealPool<'_, P>, ex: &mut ExecCtx<P::Msg>) -> bool {
    let k = pool.k.load(Ordering::SeqCst);
    if k == 0 {
        return false;
    }
    for i in 0..k {
        let c = (ex.who + i) % k;
        let slot = &pool.slots[c];
        if slot.send_state.load(Ordering::SeqCst) == READY {
            if chaos_pulse(pool, ex) {
                continue; // forced steal: leave it for someone else
            }
            if slot
                .send_state
                .compare_exchange(READY, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // Re-read k after the claim: the READY we claimed was
                // published after the round's k store, so this load sees
                // the in-flight round's chunk count (the scan's k may be
                // stale).
                let kr = pool.k.load(Ordering::SeqCst);
                execute_send(pool, c, kr, ex);
                return true;
            }
        }
    }
    for i in 0..k {
        let c = (ex.who + i) % k;
        let slot = &pool.slots[c];
        if slot.recv_state.load(Ordering::SeqCst) == READY {
            if chaos_pulse(pool, ex) {
                continue;
            }
            if slot
                .recv_state
                .compare_exchange(READY, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                let kr = pool.k.load(Ordering::SeqCst);
                execute_receive(pool, c, kr, ex);
                return true;
            }
        }
    }
    false
}

/// How long the coordinator parks between help attempts while waiting on
/// a descriptor (workers park unbounded — every publication edge ends in
/// `unpark_all`, and the coordinator's timeout backstops lost tokens).
const COORD_NAP: Duration = Duration::from_micros(200);

/// Coordinator-side wait for a descriptor to reach DONE, stealing
/// whatever other descriptors are READY in the meantime.
///
/// # Panics
/// If another executor panicked: its descriptor will never finish.
fn wait_done<P: Program>(pool: &StealPool<'_, P>, ex: &mut ExecCtx<P::Msg>, c: usize, recv: bool) {
    loop {
        let state = if recv {
            &pool.slots[c].recv_state
        } else {
            &pool.slots[c].send_state
        };
        if state.load(Ordering::SeqCst) == DONE {
            return;
        }
        assert!(
            !pool.poisoned.load(Ordering::SeqCst),
            "an executor of the worker pool panicked"
        );
        if try_execute(pool, ex) {
            continue;
        }
        thread::park_timeout(COORD_NAP);
    }
}

/// Stage one fated-to-arrive message if its recipient is awake exactly
/// now — handing `stage` the recipient and the envelope — otherwise count
/// it lost: the model's rule, shared by the regular and duplicate
/// delivery paths of the send phase.
#[allow(clippy::too_many_arguments)]
#[inline]
fn stage_delivery<M>(
    ctx: &RoundCtx,
    round: Round,
    from: NodeId,
    to: NodeId,
    msg: M,
    stage: &mut impl FnMut(NodeId, Envelope<M>),
    delivered: &mut u64,
    lost: &mut u64,
    trace_on: bool,
    trace: &mut Vec<TraceEvent>,
) {
    if ctx.next_wake[to.index()] == round {
        *delivered += 1;
        if trace_on {
            trace.push(TraceEvent::Delivered { round, from, to });
        }
        stage(to, Envelope { from, msg });
    } else {
        *lost += 1;
        if trace_on {
            trace.push(TraceEvent::Lost { round, from, to });
        }
    }
}

/// The send phase of one chunk: run each job's `send`, validate and
/// expand its entries through the shared checker, and hand every
/// delivered message to `stage` (the recipient plus the envelope). Fills
/// the chunk's span/tally/error partials. A send descriptor stages into
/// owner shards; the inline path straight into the recipients' inbox
/// segments.
fn run_send_phase<P: Program, J: Jobs<P>>(
    graph: &Graph,
    ctx: &RoundCtx,
    ph: &mut Phases<P>,
    jobs: &mut J,
    stage: impl FnMut(NodeId, Envelope<P::Msg>),
) {
    // Monomorphized on fault presence: with `FAULTY = false` the
    // fate-roll closure below is dead code and the fault-free send loop
    // optimizes as if fault injection didn't exist.
    if ph.faults.is_some() {
        run_send_phase_body::<P, J, _, true>(graph, ctx, ph, jobs, stage);
    } else {
        run_send_phase_body::<P, J, _, false>(graph, ctx, ph, jobs, stage);
    }
}

fn run_send_phase_body<P, J, S, const FAULTY: bool>(
    graph: &Graph,
    ctx: &RoundCtx,
    ph: &mut Phases<P>,
    jobs: &mut J,
    mut stage: S,
) where
    P: Program,
    J: Jobs<P>,
    S: FnMut(NodeId, Envelope<P::Msg>),
{
    let n = graph.n();
    let round = ph.round;
    let Phases {
        out_items,
        res,
        faults,
        crashes,
        trace_on,
        ..
    } = ph;
    let SendResults {
        spans,
        delayed_out,
        trace,
        error,
        ..
    } = res;
    spans.clear();
    trace.clear();
    let trace_on = *trace_on;
    // Tallies live in registers for the loop, not behind `res`.
    let (mut sent, mut delivered, mut lost) = (0u64, 0u64, 0u64);
    let (mut fdropped, mut fduplicated, mut fdelayed) = (0u64, 0u64, 0u64);
    delayed_out.clear();
    crashes.clear();
    *error = None;
    let hooks = *faults;
    let mut outbox = Outbox::from_vec(std::mem::take(out_items));
    for i in 0..jobs.len() {
        let (v, p) = jobs.job(i);
        let vid = NodeId(v);
        let view = View {
            round,
            me: vid,
            ident: graph.ident(vid),
            n,
            neighbors: graph.neighbors(vid),
        };
        let span = p.span();
        match spans.last_mut() {
            Some((s, len)) if std::ptr::eq(*s, span) => *len += 1,
            _ => spans.push((span, 1)),
        }
        if trace_on {
            trace.push(TraceEvent::Awake { round, node: vid });
        }
        if FAULTY {
            if let Some(fh) = hooks {
                if fh.plan.crashes(round, v) {
                    // Save the start-of-round state *before* the node
                    // acts: a crashed node loses this round's state
                    // changes but its sends still go out (they left
                    // before the crash).
                    let mut w = Writer::new();
                    (fh.crash_io.save)(p, &mut w);
                    crashes.push((v, w.into_bytes()));
                }
            }
        }
        outbox.clear();
        p.send(&view, &mut outbox);
        let res = if !FAULTY {
            route_entries(graph, outbox.items.drain(..), vid, &mut sent, |to, msg| {
                stage_delivery(
                    ctx,
                    round,
                    vid,
                    to,
                    msg,
                    &mut stage,
                    &mut delivered,
                    &mut lost,
                    trace_on,
                    trace,
                );
            })
        } else {
            let fh = hooks.expect("FAULTY send phase implies hooks");
            // One fate roll per transmission, keyed by the sender's
            // per-round transmission index `k`, so the fates are the same
            // whatever chunk the sender lands in. Dropped messages vanish
            // (counted as `faults_dropped`, not `messages_lost`),
            // duplicates deliver two copies (each then subject to the
            // awake-recipient rule), delayed ones enter the buffer.
            let mut k = 0u32;
            route_entries(graph, outbox.items.drain(..), vid, &mut sent, |to, msg| {
                let fate = fh.plan.message_fate(round, vid.0, to.0, k);
                k += 1;
                match fate {
                    FaultKind::Deliver => stage_delivery(
                        ctx,
                        round,
                        vid,
                        to,
                        msg,
                        &mut stage,
                        &mut delivered,
                        &mut lost,
                        trace_on,
                        trace,
                    ),
                    FaultKind::Duplicate => {
                        fduplicated += 1;
                        stage_delivery(
                            ctx,
                            round,
                            vid,
                            to,
                            msg.clone(),
                            &mut stage,
                            &mut delivered,
                            &mut lost,
                            trace_on,
                            trace,
                        );
                        stage_delivery(
                            ctx,
                            round,
                            vid,
                            to,
                            msg,
                            &mut stage,
                            &mut delivered,
                            &mut lost,
                            trace_on,
                            trace,
                        );
                    }
                    FaultKind::Drop => {
                        fdropped += 1;
                        if trace_on {
                            trace.push(TraceEvent::FaultDrop {
                                round,
                                from: vid,
                                to,
                            });
                        }
                    }
                    FaultKind::Delay => {
                        fdelayed += 1;
                        let until = round + fh.plan.delay_rounds;
                        if trace_on {
                            trace.push(TraceEvent::FaultDelay {
                                round,
                                from: vid,
                                to,
                                until,
                            });
                        }
                        delayed_out.push(DelayedMsg {
                            due: until,
                            from: vid,
                            to,
                            msg,
                        });
                    }
                }
            })
        };
        if let Err(e) = res {
            *error = Some(e);
            break;
        }
    }
    *out_items = outbox.into_vec();
    (res.sent, res.delivered, res.lost) = (sent, delivered, lost);
    (res.fdropped, res.fduplicated, res.fdelayed) = (fdropped, fduplicated, fdelayed);
}

/// The receive phase of one chunk: run each job's `receive` over the
/// segments the caller filled in `inboxes` (keyed by [`Jobs::seg`]) and
/// collect each action into the stay/sleep/halt partials.
fn run_receive_phase<P: Program, J: Jobs<P>>(
    graph: &Graph,
    ph: &mut Phases<P>,
    jobs: &mut J,
    inboxes: &mut ChunkInboxes<P::Msg>,
) {
    // Same monomorphization as the send phase: fault-free runs never pay
    // for the crash-restart or late-delivery checks below.
    if ph.faults.is_some() {
        run_receive_phase_body::<P, J, true>(graph, ph, jobs, inboxes);
    } else {
        run_receive_phase_body::<P, J, false>(graph, ph, jobs, inboxes);
    }
}

fn run_receive_phase_body<P: Program, J: Jobs<P>, const FAULTY: bool>(
    graph: &Graph,
    ph: &mut Phases<P>,
    jobs: &mut J,
    inboxes: &mut ChunkInboxes<P::Msg>,
) {
    let n = graph.n();
    let round = ph.round;
    let Phases {
        faults,
        fcrashed,
        crashes,
        crashed_nodes,
        late,
        late_locals,
        stays,
        sleeps,
        halts,
        error,
        trace_on,
        trace,
        ..
    } = ph;
    let trace_on = *trace_on;
    trace.clear();
    *fcrashed = 0;
    crashed_nodes.clear();
    // The caller has already sized `inboxes` for the chunk's keys and
    // filled it in ascending sender order (senders ascend within a chunk
    // and chunks are contiguous in node order, so each segment is a
    // concatenation of sorted runs — born sorted).
    // Fault-delayed messages coming due land after the ascending-sender
    // pass; deliver them, then restore each touched segment's
    // sorted-by-sender invariant (stable, so same-sender envelopes keep
    // their staging order, whatever the chunking).
    if FAULTY && !late.is_empty() {
        late_locals.clear();
        for e in late.drain(..) {
            late_locals.push(e.to_local);
            inboxes.push(e.to_local, e.env);
        }
        late_locals.sort_unstable();
        late_locals.dedup();
        for &l in late_locals.iter() {
            inboxes.resort(l as usize);
        }
        late_locals.clear();
    }
    stays.clear();
    sleeps.clear();
    halts.clear();
    *error = None;
    let mut crash_i = 0usize;
    for i in 0..jobs.len() {
        let (v, p) = jobs.job(i);
        let seg = J::seg(i, v);
        let vid = NodeId(v);
        // A crashed node loses the round — inbox discarded, state rolled
        // back to start-of-round — and restarts awake next round.
        if FAULTY && crashes.get(crash_i).is_some_and(|c| c.0 == v) {
            let blob = &crashes[crash_i].1;
            crash_i += 1;
            inboxes.clear(seg);
            let mut r = Reader::new(blob);
            let io = faults.as_ref().expect("crash blobs imply fault hooks");
            (io.crash_io.restore)(p, &mut r)
                .expect("Persist round-trip: restore must accept its own save");
            if trace_on {
                trace.push(TraceEvent::Crash { round, node: vid });
            }
            *fcrashed += 1;
            crashed_nodes.push(v);
            stays.push(v);
            continue;
        }
        let view = View {
            round,
            me: vid,
            ident: graph.ident(vid),
            n,
            neighbors: graph.neighbors(vid),
        };
        let action = p.receive(&view, inboxes.inbox(seg));
        // Clear while the segment header is hot (see `arena`).
        inboxes.clear(seg);
        match action {
            Action::Stay => stays.push(v),
            Action::SleepUntil(until) => {
                if until <= round {
                    *error = Some(SimError::InvalidSleep {
                        node: vid,
                        round,
                        until,
                    });
                    break;
                }
                if trace_on {
                    trace.push(TraceEvent::Sleep {
                        round,
                        node: vid,
                        until,
                    });
                }
                sleeps.push((until, v));
            }
            Action::Halt => {
                if trace_on {
                    trace.push(TraceEvent::Halt { round, node: vid });
                }
                match p.output() {
                    Some(o) => halts.push((v, o)),
                    None => {
                        *error = Some(SimError::MissingOutput(vid));
                        break;
                    }
                }
            }
        }
    }
    crashes.clear();
}

/// Merge one chunk's send results into the run metrics: awake/span
/// attribution over `chunk` (its awake nodes) in order (= node order,
/// which fixes the span interning order), then the message tallies, then the staged trace
/// events (absorbed through the shared capped tracer, so the global event
/// sequence and drop count do not depend on the chunking). The
/// coordinator calls this in chunk index order — descriptor *execution*
/// order is irrelevant.
fn merge_send_results<P: Program>(
    r: &mut SendResults<P>,
    chunk: &[u32],
    metrics: &mut Metrics,
    tracer: &mut Tracer,
    faults: Option<&mut FaultCtx<P>>,
) {
    let mut rest = chunk;
    for &(span, len) in r.spans.iter() {
        let (run, tail) = rest.split_at(len as usize);
        metrics.note_awake_all(run, span);
        rest = tail;
    }
    r.spans.clear();
    metrics.messages_sent += r.sent;
    metrics.messages_delivered += r.delivered;
    metrics.messages_lost += r.lost;
    metrics.faults_dropped += r.fdropped;
    metrics.faults_duplicated += r.fduplicated;
    metrics.faults_delayed += r.fdelayed;
    if let Some(f) = faults {
        // Chunk order = node order, so the run-wide delayed buffer grows
        // in transmission order whatever the chunking.
        f.state.delayed.append(&mut r.delayed_out);
    }
    tracer.absorb(&mut r.trace);
}

/// Between the phases: resolve fault-delayed messages that have come due.
/// A delayed message is delivered only if its recipient is awake at
/// exactly its due round; a due round nobody executed (or an asleep
/// recipient) loses it — the model's rule, applied late. Deliverable
/// messages are handed to `stage` as `(recipient, envelope)` in run-wide
/// buffer order; the coordinator stages them into the owner
/// chunk's `late` buffer (on faulty rounds every receive descriptor is
/// still gated closed here, so the batches are parked by construction).
fn resolve_due_delays<P: Program>(
    f: &mut FaultCtx<P>,
    round: Round,
    ctx: &RoundCtx,
    metrics: &mut Metrics,
    tracer: &mut Tracer,
    mut stage: impl FnMut(NodeId, Envelope<P::Msg>),
) {
    if !f.state.delayed.iter().any(|d| d.due <= round) {
        return;
    }
    let mut kept = Vec::with_capacity(f.state.delayed.len());
    for d in f.state.delayed.drain(..) {
        if d.due > round {
            kept.push(d);
            continue;
        }
        let (due, from, to) = (d.due, d.from, d.to);
        if due == round && ctx.next_wake[to.index()] == round {
            metrics.messages_delivered += 1;
            tracer.push(|| TraceEvent::Delivered { round, from, to });
            stage(to, Envelope { from, msg: d.msg });
        } else {
            metrics.messages_lost += 1;
            tracer.push(|| TraceEvent::Lost {
                round: due,
                from,
                to,
            });
        }
    }
    f.state.delayed = kept;
}

/// Apply one chunk's receive partials in node order: recovery accounting,
/// stay lane extension (chunks ascend, so the lane stays globally
/// sorted), batched wheel scheduling, halt outputs, wake stamps and
/// staged trace events. `chunk` is the chunk's slice of the awake set.
/// Returns whether this chunk touched recovery accounting (a crashed or
/// still-recovering node), so the coordinator can bump
/// [`Metrics::recovery_rounds`] once per round.
#[allow(clippy::too_many_arguments)]
fn apply_receive_partials<P: Program>(
    ph: &mut Phases<P>,
    chunk: &[u32],
    next_wake: &mut [Round],
    wheel: &mut WakeWheel,
    stay: &mut Vec<u32>,
    outputs: &mut [Option<P::Output>],
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    faults: Option<&mut FaultCtx<P>>,
) -> bool {
    tracer.absorb(&mut ph.trace);
    metrics.faults_crashed += ph.fcrashed;
    ph.fcrashed = 0;
    // Recovery accounting, in the chunk's node order. A node that crashed
    // this round starts recovering (the crashed round itself is not
    // recovery energy); an awake node still marked recovering pays one
    // recovery_awake round, and its first non-`Stay` action (a sleep or
    // halt partial) ends the recovery. Recovering nodes are always awake
    // — a crash forces the node into the stay lane — so scanning the
    // chunk's awake nodes sees them all.
    let mut touched = false;
    if let Some(f) = faults {
        let rec = &mut f.state.recovering;
        let (mut ci, mut si, mut hi) = (0usize, 0usize, 0usize);
        for &v in chunk {
            if ph.crashed_nodes.get(ci).is_some_and(|&c| c == v) {
                ci += 1;
                rec[v as usize] = true;
                touched = true;
                continue;
            }
            if !rec[v as usize] {
                continue;
            }
            metrics.recovery_awake += 1;
            touched = true;
            while ph.sleeps.get(si).is_some_and(|&(_, s)| s < v) {
                si += 1;
            }
            while ph.halts.get(hi).is_some_and(|h| h.0 < v) {
                hi += 1;
            }
            let non_stay = ph.sleeps.get(si).is_some_and(|&(_, s)| s == v)
                || ph.halts.get(hi).is_some_and(|h| h.0 == v);
            if non_stay {
                rec[v as usize] = false;
            }
        }
        ph.crashed_nodes.clear();
    }
    let next = ph.round + 1;
    for &v in &ph.stays {
        next_wake[v as usize] = next;
    }
    if stay.is_empty() {
        // The first chunk of a round (the only one, inline): hand the
        // buffer over instead of copying it.
        std::mem::swap(stay, &mut ph.stays);
    } else {
        stay.extend_from_slice(&ph.stays);
        ph.stays.clear();
    }
    for &(until, v) in &ph.sleeps {
        next_wake[v as usize] = until;
    }
    wheel.schedule_all(ph.sleeps.drain(..));
    for (v, o) in ph.halts.drain(..) {
        next_wake[v as usize] = NEVER;
        outputs[v as usize] = Some(o);
    }
    touched
}

/// A spawned executor: register for unpark storms, then scan-claim-execute
/// until shutdown. Parks (unbounded) when a scan comes up empty — every
/// publication edge (round publish, descriptor completion, shutdown) ends
/// in `unpark_all`, and registration happens before the first scan, so a
/// wakeup can race at worst into a pending unpark token, never past one.
fn worker_loop<P: Program>(pool: &StealPool<'_, P>, who: usize) {
    let _exit = Shutdown(pool);
    pool.register();
    let mut ex: ExecCtx<P::Msg> = ExecCtx::new(who);
    loop {
        if pool.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if try_execute(pool, &mut ex) {
            continue;
        }
        if pool.chaos.is_some() {
            // A chaos nap is a `park_timeout`: it may swallow an unpark
            // token raised (by a publication or shutdown) after the scan
            // above. Loop back to re-check instead of falling through to
            // the unbounded park — otherwise that lost token parks this
            // executor forever.
            chaos_pulse(pool, &mut ex);
            thread::park_timeout(COORD_NAP);
            continue;
        }
        thread::park();
    }
}

/// Advance the per-round timing stamp: add the elapsed time to the
/// accumulator `pick` selects and re-stamp. When timing is off the stamp
/// is `None` and no clock is read at all.
#[inline]
fn lap(stamp: &mut Option<(&mut PhaseTimes, Instant)>, pick: fn(&mut PhaseTimes) -> &mut u64) {
    if let Some((t, at)) = stamp.as_mut() {
        let now = Instant::now();
        *pick(t) += now.duration_since(*at).as_nanos() as u64;
        *at = now;
    }
}

/// The coordinator's side of a run: the round-boundary state a
/// [`Snapshot`] captures (all of it lives here between rounds), plus the
/// round scratch and the inline path's phase state.
struct Coordinator<P: Program> {
    config: Config,
    metrics: Metrics,
    tracer: Tracer,
    outputs: Vec<Option<P::Output>>,
    wheel: WakeWheel,
    /// Nodes that chose [`Action::Stay`] last round, ascending.
    stay: Vec<u32>,
    prev_round: Round,
    /// Every node's program; all occupied between rounds. Dispatched
    /// rounds move a chunk's programs into its batch and back.
    slots: Vec<Option<P>>,
    faults: Option<FaultCtx<P>>,
    /// This round's awake set, ascending, and its scratch.
    awake: Vec<u32>,
    scratch: Vec<u32>,
    /// Dispatched rounds: degree-mass prefix and chunk bounds.
    prefix: Vec<u64>,
    bounds: Vec<u32>,
    /// The coordinator's executor context: claim-scan offset 0, plus the
    /// segment pool its inline rounds and receive steals share.
    ex: ExecCtx<P::Msg>,
    /// The inline path's phase state.
    inline: Phases<P>,
}

impl<P: Program> Coordinator<P> {
    /// The round boundary as snapshot input.
    fn state<'a>(&'a self, next_wake: &'a [Round]) -> EngineStateRef<'a, P> {
        EngineStateRef {
            prev_round: self.prev_round,
            next_wake,
            stay: &self.stay,
            wheel_events: self.wheel.pending_events(),
            outputs: &self.outputs,
            programs: &self.slots,
            metrics: &self.metrics,
            tracer: &self.tracer,
            faults: self.faults.as_ref().map(|f| &f.state),
        }
    }

    /// Run one round inline: a single chunk, no descriptors, programs in
    /// place, messages straight into their inbox segments. Kept out of
    /// line, so the loop a one-executor engine spends its whole run in is
    /// compiled on its own rather than inside the round loop next to the
    /// dispatched path.
    #[inline(never)]
    fn inline_round(
        &mut self,
        graph: &Graph,
        ctx: &mut RoundCtx,
        round: Round,
    ) -> Result<(), SimError> {
        let Coordinator {
            metrics,
            tracer,
            outputs,
            wheel,
            stay,
            slots,
            faults,
            awake,
            ex,
            inline,
            ..
        } = self;
        inline.round = round;
        let mut jobs = InPlace { awake, slots };
        let inboxes = &mut ex.inboxes;
        inboxes.ensure(jobs.segs());
        run_send_phase(graph, ctx, inline, &mut jobs, |to, env| {
            inboxes.push(to.0, env)
        });
        if let Some(e) = inline.res.error.take() {
            return Err(e);
        }
        merge_send_results(&mut inline.res, awake, metrics, tracer, faults.as_mut());
        if let Some(f) = faults.as_mut() {
            let late = &mut inline.late;
            resolve_due_delays(f, round, ctx, metrics, tracer, |to, env| {
                late.push(ShardEntry {
                    to_local: to.0,
                    env,
                })
            });
        }
        run_receive_phase(graph, inline, &mut jobs, inboxes);
        if let Some(e) = inline.error.take() {
            return Err(e);
        }
        if apply_receive_partials(
            inline,
            awake,
            &mut ctx.next_wake,
            wheel,
            stay,
            outputs,
            tracer,
            metrics,
            faults.as_mut(),
        ) {
            metrics.recovery_rounds += 1;
        }
        Ok(())
    }

    /// Run one round on the pool as `k` chunks.
    fn dispatch_round(
        &mut self,
        pool: &StealPool<'_, P>,
        round: Round,
        k: usize,
        stamp: &mut Option<(&mut PhaseTimes, Instant)>,
    ) -> Result<(), SimError> {
        // ---- publish: stamp the chunk map, fill every chunk descriptor
        // first, then open them all at once. Two loops on purpose — an
        // executor may claim a send the instant its slot turns READY, and
        // its k publish decrements must land on fully reset `pending`
        // counters and VACANT receive gates.
        let awake = &self.awake;
        let bounds = &mut self.bounds;
        partition_by_mass(&self.prefix, k, bounds);
        {
            let mut ctx = pool.ctx.write().expect("round context lock");
            ctx.bounds.clone_from(bounds);
            ctx.chunk.clear();
            ctx.chunk.reserve(awake.len());
            let mut c = 0usize;
            for (i, &v) in awake.iter().enumerate() {
                ctx.awake_pos[v as usize] = i as u32;
                while bounds[c + 1] as usize <= i {
                    c += 1;
                }
                ctx.chunk.push(c as u32);
            }
        }
        pool.abort.store(false, Ordering::SeqCst);
        pool.k.store(k, Ordering::SeqCst);
        for c in 0..k {
            let slot = &pool.slots[c];
            let mut parked = slot.batch.lock().expect("batch slot lock");
            let b = parked.as_mut().expect("batch parked between rounds");
            b.ph.round = round;
            b.jobs.clear();
            for &v in &awake[bounds[c] as usize..bounds[c + 1] as usize] {
                let p = self.slots[v as usize].take().expect("program present");
                b.jobs.push((v, p));
            }
            slot.pending.store(k, Ordering::SeqCst);
            slot.recv_state.store(VACANT, Ordering::SeqCst);
        }
        for c in 0..k {
            pool.slots[c].send_state.store(READY, Ordering::SeqCst);
        }
        pool.unpark_all();
        lap(stamp, |t| &mut t.partition_ns);

        // ---- send results, in chunk index order. The coordinator steals
        // work itself while waiting (`wait_done`), so the merge order —
        // which fixes metrics, trace, and error precedence — is untouched
        // by who executed what.
        for c in 0..k {
            wait_done(pool, &mut self.ex, c, false);
            lap(stamp, |t| &mut t.route_ns);
            let mut r = pool.slots[c].results.lock().expect("results slot lock");
            // Error precedence: chunks ascend in node order and a send
            // stops at its chunk's first routing error, so the first error
            // of the lowest-indexed chunk is the run's error.
            if let Some(e) = r.error.take() {
                return Err(e);
            }
            merge_send_results(
                &mut r,
                &self.awake[self.bounds[c] as usize..self.bounds[c + 1] as usize],
                &mut self.metrics,
                &mut self.tracer,
                self.faults.as_mut(),
            );
            lap(stamp, |t| &mut t.merge_ns);
        }
        // Between the phases: route fault-delayed messages coming due into
        // their recipients' owner batches. Only on faulty runs — fault-free
        // rounds auto-open their receives instead (`auto_receive`), so
        // this coordinator turn is skipped.
        if let Some(f) = self.faults.as_mut() {
            {
                let ctx = pool.ctx.read().expect("round context lock");
                resolve_due_delays(
                    f,
                    round,
                    &ctx,
                    &mut self.metrics,
                    &mut self.tracer,
                    |to, env| {
                        let (owner, to_local) = ctx.owner(to);
                        pool.slots[owner]
                            .batch
                            .lock()
                            .expect("batch slot lock")
                            .as_mut()
                            .expect("batch parked for staging")
                            .ph
                            .late
                            .push(ShardEntry { to_local, env });
                    },
                );
            }
            for c in 0..k {
                pool.slots[c].recv_state.store(READY, Ordering::SeqCst);
            }
            pool.unpark_all();
            lap(stamp, |t| &mut t.merge_ns);
        }

        // ---- receive partials, in chunk order (= node order): stay lane
        // stays globally sorted, wake-ups enter the wheel in node order,
        // halt outputs land in place, programs return to their slots.
        // Waiting on every receive also quiesces the round: no executor
        // holds work at a round boundary, so pause/periodic snapshots stay
        // exact.
        let mut rec_round = false;
        for c in 0..k {
            wait_done(pool, &mut self.ex, c, true);
            lap(stamp, |t| &mut t.deliver_ns);
            let mut parked = pool.slots[c].batch.lock().expect("batch slot lock");
            let b = parked.as_mut().expect("batch parked after receive");
            if let Some(e) = b.ph.error.take() {
                return Err(e);
            }
            let mut ctx = pool.ctx.write().expect("round context lock");
            rec_round |= apply_receive_partials(
                &mut b.ph,
                &self.awake[self.bounds[c] as usize..self.bounds[c + 1] as usize],
                &mut ctx.next_wake,
                &mut self.wheel,
                &mut self.stay,
                &mut self.outputs,
                &mut self.tracer,
                &mut self.metrics,
                self.faults.as_mut(),
            );
            for (v, p) in b.jobs.drain(..) {
                self.slots[v as usize] = Some(p);
            }
            lap(stamp, |t| &mut t.merge_ns);
        }
        if rec_round {
            self.metrics.recovery_rounds += 1;
        }
        Ok(())
    }

    /// Drive rounds until nothing is pending, or until `ctl` pauses the
    /// run into a snapshot.
    fn drive(
        &mut self,
        pool: &StealPool<'_, P>,
        workers: usize,
        mut ctl: Option<CkptCtl<'_, P>>,
        mut timing: Option<&mut PhaseTimes>,
    ) -> Result<Option<Snapshot>, SimError> {
        let graph = pool.graph;
        let mut last_emit = self.prev_round;
        loop {
            // Peek the next pending round without committing anything, so
            // a pause bound can snapshot this exact boundary (the stay
            // lane, when occupied, always runs before any wheel wake-up).
            let next = if !self.stay.is_empty() {
                Some(self.prev_round + 1)
            } else {
                self.wheel.peek_min()
            };
            let Some(round) = next else {
                return Ok(None);
            };
            // Snapshots happen here, at the boundary before `round`: the
            // pause bound, or a periodic emission while work is pending
            // (the final state is the returned run, never a snapshot).
            if let Some(c) = ctl.as_mut() {
                let pause = c.pause_after.is_some_and(|bound| round > bound);
                let emit = c
                    .every
                    .is_some_and(|every| self.prev_round >= last_emit.saturating_add(every));
                if pause || emit {
                    let ctx = pool.ctx.read().expect("round context lock");
                    let snap = (c.encode)(graph, self.config, self.state(&ctx.next_wake));
                    if pause {
                        return Ok(Some(snap));
                    }
                    last_emit = self.prev_round;
                    (c.sink)(&snap);
                }
            }
            // Per-round timing stamp; partition covers pop → publish.
            let mut stamp = timing.as_deref_mut().map(|t| (t, Instant::now()));
            let popped = next_awake_set(
                &mut self.wheel,
                &mut self.stay,
                self.prev_round,
                &mut self.awake,
                &mut self.scratch,
            );
            debug_assert_eq!(popped, Some(round), "peek and pop must agree");
            if round > self.config.max_rounds {
                return Err(SimError::RoundBudgetExceeded {
                    limit: self.config.max_rounds,
                });
            }
            // Rounds between the previous executed round and this one had
            // no awake node: the wheel jumped them in one batch-cascade,
            // and they are accounted here so `rounds = executed + skipped`
            // stays exact under compression.
            self.metrics.rounds_skipped += round - self.prev_round - 1;
            self.metrics.rounds = round;
            self.prev_round = round;
            let dispatch = workers > 1
                && degree_mass_prefix(graph, &self.awake, &mut self.prefix) > INLINE_MASS;
            if dispatch {
                let k = workers.min(self.awake.len());
                self.dispatch_round(pool, round, k, &mut stamp)?;
                if let Some((t, _)) = stamp.as_mut() {
                    t.dispatched_rounds += 1;
                }
            } else {
                lap(&mut stamp, |t| &mut t.partition_ns);
                let mut ctx = pool.ctx.write().expect("round context lock");
                self.inline_round(graph, &mut ctx, round)?;
                lap(&mut stamp, |t| &mut t.inline_ns);
                if let Some((t, _)) = stamp.as_mut() {
                    t.inline_rounds += 1;
                }
            }
        }
    }

    /// Account still-buffered delayed messages as lost (they never found
    /// an executed due round with an awake recipient) and unwrap the
    /// outputs.
    fn finish(mut self) -> Result<Run<P::Output>, SimError> {
        if let Some(f) = self.faults.as_mut() {
            for d in f.state.delayed.drain(..) {
                self.metrics.messages_lost += 1;
                self.tracer.push(|| TraceEvent::Lost {
                    round: d.due,
                    from: d.from,
                    to: d.to,
                });
            }
        }
        let outputs = self
            .outputs
            .into_iter()
            .enumerate()
            .map(|(v, o)| o.ok_or(SimError::MissingOutput(NodeId(v as u32))))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Run {
            outputs,
            metrics: self.metrics,
            trace: self.tracer.events,
            trace_dropped: self.tracer.dropped,
        })
    }
}

/// The executor behind every [`Engine`](crate::Engine): a persistent
/// executor pool (the coordinator plus `workers - 1` spawned threads)
/// driven round by round from a fresh or restored boundary, with optional
/// seeded fault injection, optional snapshotting at round boundaries,
/// optional per-phase timing, and an optional (test-only) chaos plan
/// perturbing the claim scheduling. A restored run keeps the snapshot's
/// config. All observable state lives coordinator-side between rounds,
/// which is exactly what a [`Snapshot`] captures — byte-identical at any
/// worker count.
// One argument per optional capability.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_threaded_core<P>(
    graph: &Graph,
    init: Init<P>,
    config: Config,
    workers: usize,
    mut faults: Option<FaultCtx<P>>,
    ctl: Option<CkptCtl<'_, P>>,
    timing: Option<&mut PhaseTimes>,
    chaos: Option<ChaosPlan>,
) -> Result<Paused<P::Output>, SimError>
where
    P: Program + Send,
{
    let n = graph.n();
    let workers = workers.max(1);
    let (programs, restored) = match init {
        Init::Fresh(p) => (p, None),
        Init::Restored { programs, state } => (programs, Some(*state)),
    };
    if programs.len() != n {
        return Err(SimError::ProgramCountMismatch {
            got: programs.len(),
            expected: n,
        });
    }
    if let Some(f) = faults.as_mut() {
        // Fresh runs start with an empty recovery bitset; restored runs
        // carry a validated length-n one (resize is then a no-op).
        f.state.recovering.resize(n, false);
    }
    // The immutable per-round fault hooks the phases need; the mutable
    // fault state (the delayed-message buffer) stays with the coordinator.
    let hooks: Option<FaultHooks<P>> = faults.as_ref().map(|f| FaultHooks {
        plan: f.state.plan,
        crash_io: f.crash_io,
    });
    let auto_receive = faults.is_none();
    let (mut coord, next_wake) = match restored {
        None => {
            let tracer = Tracer::new(config.trace);
            let mut outputs = (0..n).map(|_| None).collect::<Vec<_>>();
            let mut next_wake = Vec::with_capacity(n);
            let mut wheel = WakeWheel::new();
            seed_schedule(&programs, &mut wheel, &mut next_wake, &mut outputs)?;
            let coord = Coordinator {
                config,
                metrics: Metrics::new(n),
                inline: Phases::new(hooks, tracer.enabled()),
                tracer,
                outputs,
                wheel,
                stay: Vec::new(),
                prev_round: 0,
                slots: programs.into_iter().map(Some).collect(),
                faults,
                awake: Vec::new(),
                scratch: Vec::new(),
                prefix: Vec::new(),
                bounds: Vec::new(),
                ex: ExecCtx::new(0),
            };
            (coord, next_wake)
        }
        Some(rs) => {
            let coord = Coordinator {
                config: rs.config,
                metrics: rs.metrics,
                inline: Phases::new(hooks, rs.tracer.enabled()),
                tracer: rs.tracer,
                outputs: rs.outputs,
                wheel: rebuild_wheel(&rs.wheel_events),
                stay: rs.stay,
                prev_round: rs.prev_round,
                slots: programs.into_iter().map(Some).collect(),
                faults,
                awake: Vec::new(),
                scratch: Vec::new(),
                prefix: Vec::new(),
                bounds: Vec::new(),
                ex: ExecCtx::new(0),
            };
            (coord, rs.next_wake)
        }
    };
    if n == 0 {
        return coord.finish().map(Paused::Done);
    }

    // The shared injector: slot arena (one descriptor slot per potential
    // chunk), k×k exchange cells, round context. Preallocated once; the
    // steady state only swaps buffers through it. A one-executor engine
    // never dispatches, so it gets no slots at all.
    let kmax = if workers == 1 { 0 } else { workers };
    let trace_on = coord.tracer.enabled();
    let pool: StealPool<'_, P> = StealPool {
        graph,
        ctx: RwLock::new(RoundCtx {
            next_wake,
            awake_pos: vec![0u32; n],
            bounds: Vec::new(),
            chunk: Vec::new(),
        }),
        slots: (0..kmax).map(|_| ChunkSlot::new(hooks, trace_on)).collect(),
        cells: (0..kmax * kmax).map(|_| Mutex::new(Vec::new())).collect(),
        kmax,
        k: AtomicUsize::new(0),
        auto_receive,
        abort: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        poisoned: AtomicBool::new(false),
        registry: Mutex::new(Vec::new()),
        chaos,
    };
    // The coordinator is an executor too (it steals while it waits):
    // register it for unpark storms before anything can publish.
    pool.register();
    let paused = std::thread::scope(|scope| {
        for who in 1..workers {
            let pool_ref = &pool;
            scope.spawn(move || worker_loop(pool_ref, who));
        }
        // Every exit — completion, pause, error, panic — raises shutdown
        // and wakes every parked executor, so the scope can join them.
        let _exit = Shutdown(&pool);
        coord.drive(&pool, workers, ctl, timing)
    })?;
    match paused {
        Some(snapshot) => Ok(Paused::Snapshot(snapshot)),
        None => coord.finish().map(Paused::Done),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Outbox, Persist};
    use awake_graphs::generators;

    /// Flood the maximum ident seen so far for `n` rounds, then halt.
    #[derive(Clone)]
    struct FloodMax {
        best: u64,
        rounds: u64,
    }

    impl Program for FloodMax {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, _view: &View, out: &mut Outbox<u64>) {
            out.broadcast(self.best);
        }
        fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
            self.best = self.best.max(view.ident);
            for e in inbox {
                self.best = self.best.max(e.msg);
            }
            if view.round >= self.rounds {
                Action::Halt
            } else {
                Action::Stay
            }
        }
        fn output(&self) -> Option<u64> {
            Some(self.best)
        }
    }

    fn assert_bitwise_equal<P>(g: &Graph, mk: impl Fn() -> Vec<P>, workers: &[usize])
    where
        P: Program + Send,
        P::Output: PartialEq,
    {
        let serial = Engine::new(g, Config::default()).run(mk()).unwrap();
        for &w in workers {
            let par = Engine::with_workers(g, Config::default(), Some(w))
                .run(mk())
                .unwrap();
            assert!(serial.outputs == par.outputs, "outputs, workers = {w}");
            assert_eq!(serial.metrics, par.metrics, "metrics, workers = {w}");
        }
        // Traced runs must agree event for event — including the drop
        // counter when the cap truncates (cap 500 bites on the larger
        // workloads, so both the kept prefix and the overflow accounting
        // are exercised).
        let cfg = Config {
            trace: crate::TraceMode::Capped(500),
            ..Config::default()
        };
        let serial = Engine::new(g, cfg).run(mk()).unwrap();
        for &w in workers {
            let par = Engine::with_workers(g, cfg, Some(w)).run(mk()).unwrap();
            assert_eq!(serial.trace, par.trace, "trace, workers = {w}");
            assert_eq!(
                serial.trace_dropped, par.trace_dropped,
                "trace_dropped, workers = {w}"
            );
        }
    }

    #[test]
    fn threaded_matches_serial_flood() {
        // 160 nodes: total degree mass (2m + n = 478) exceeds INLINE_MASS,
        // so dense rounds genuinely run the multi-chunk parallel pipeline.
        let g = generators::random_tree(160, 9);
        let mk = || {
            (0..160)
                .map(|_| FloodMax {
                    best: 0,
                    rounds: 170,
                })
                .collect::<Vec<_>>()
        };
        assert_bitwise_equal(&g, mk, &[1, 2, 4, 8]);
        let run = Engine::with_workers(&g, Config::default(), Some(4))
            .run(mk())
            .unwrap();
        // everyone learned the max ident (tree has diameter < 170 rounds)
        assert!(run.outputs.iter().all(|&b| b == 160));
    }

    #[test]
    fn threaded_single_worker() {
        let g = generators::cycle(6);
        let progs = (0..6)
            .map(|_| FloodMax { best: 0, rounds: 3 })
            .collect::<Vec<_>>();
        let run = Engine::with_workers(&g, Config::default(), Some(1))
            .run(progs)
            .unwrap();
        assert_eq!(run.metrics.rounds, 3);
    }

    #[test]
    fn more_workers_than_awake_nodes() {
        // Tiny awake set, tiny mass: the inline path absorbs the round.
        let g = generators::path(3);
        let progs = (0..3)
            .map(|_| FloodMax { best: 0, rounds: 3 })
            .collect::<Vec<_>>();
        let run = Engine::with_workers(&g, Config::default(), Some(16))
            .run(progs)
            .unwrap();
        assert_eq!(run.outputs, vec![3, 3, 3]);
    }

    #[test]
    fn more_workers_than_awake_nodes_in_the_dispatched_path() {
        // K_20: only 20 awake nodes but degree mass 400 > INLINE_MASS, so
        // the round dispatches with k = 20 chunks under 32 workers — the
        // chunker must cap k at the awake count, one node per chunk.
        let g = generators::complete(20);
        let mk = || {
            (0..20)
                .map(|_| FloodMax { best: 0, rounds: 3 })
                .collect::<Vec<_>>()
        };
        assert_bitwise_equal(&g, mk, &[32]);
        let run = Engine::with_workers(&g, Config::default(), Some(32))
            .run(mk())
            .unwrap();
        assert!(run.outputs.iter().all(|&b| b == 20));
    }

    #[test]
    fn threaded_detects_budget() {
        let g = generators::path(2);
        let progs = (0..2)
            .map(|_| FloodMax {
                best: 0,
                rounds: 100,
            })
            .collect::<Vec<_>>();
        let err = Engine::with_workers(&g, Config::with_max_rounds(5), Some(2))
            .run(progs)
            .unwrap_err();
        assert_eq!(err, SimError::RoundBudgetExceeded { limit: 5 });
    }

    // ---- degree-weighted partitioning ----

    fn split(g: &Graph, awake: &[u32], k: usize) -> Vec<u32> {
        let (mut prefix, mut bounds) = (Vec::new(), Vec::new());
        degree_mass_prefix(g, awake, &mut prefix);
        partition_by_mass(&prefix, k, &mut bounds);
        bounds
    }

    #[test]
    fn partition_balances_uniform_degree_mass() {
        let g = generators::cycle(12); // every node mass 3
        let awake: Vec<u32> = (0..12).collect();
        assert_eq!(split(&g, &awake, 4), vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn partition_isolates_a_dominant_hub() {
        // Star: the hub (node 0) holds half the endpoint degree mass; the
        // splitter must give it a narrow chunk instead of dragging half
        // the leaves into worker 0.
        let g = generators::star(33); // hub degree 32, leaves degree 1
        let awake: Vec<u32> = (0..33).collect();
        let bounds = split(&g, &awake, 4);
        assert_eq!(bounds.len(), 5);
        assert_eq!((bounds[0], bounds[4]), (0, 33));
        assert!(
            bounds[1] == 1,
            "hub chunk must be the hub alone, got bounds {bounds:?}"
        );
        // every chunk non-empty and monotone
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn partition_survives_single_node_and_k_equals_len() {
        let g = generators::path(4);
        assert_eq!(split(&g, &[2], 1), vec![0, 1]);
        let awake: Vec<u32> = (0..4).collect();
        assert_eq!(split(&g, &awake, 4), vec![0, 1, 2, 3, 4]);
    }

    // ---- degenerate shapes the chunker must survive ----

    /// Node 0 stays awake through `rounds`; everyone else halts at round 1:
    /// every later round has a single awake node under many workers.
    struct LoneStayer {
        rounds: u64,
        heard: u64,
    }

    impl Program for LoneStayer {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
            out.broadcast(view.ident);
        }
        fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
            self.heard += inbox.len() as u64;
            if view.round >= self.rounds {
                Action::Halt
            } else {
                Action::Stay
            }
        }
        fn output(&self) -> Option<u64> {
            Some(self.heard)
        }
    }

    #[test]
    fn single_awake_node_rounds_under_many_workers() {
        let g = generators::star(6);
        let mk = || {
            (0..6)
                .map(|v| LoneStayer {
                    rounds: if v == 0 { 5 } else { 1 },
                    heard: 0,
                })
                .collect::<Vec<_>>()
        };
        assert_bitwise_equal(&g, mk, &[1, 2, 4, 8]);
        let run = Engine::with_workers(&g, Config::default(), Some(8))
            .run(mk())
            .unwrap();
        // round 1: hub hears all 5 leaves; rounds 2..=5: hub is alone and
        // its broadcasts are lost to the halted leaves.
        assert_eq!(run.outputs[0], 5);
        assert_eq!(run.metrics.messages_lost, 4 * 5);
        assert_eq!(run.metrics.rounds, 5);
    }

    /// Wakes at `wake`, broadcasts once, halts — wheel wakes separated by
    /// long fully-asleep gaps the skip-ahead must jump over.
    struct GappedWake {
        wake: Round,
        heard: u64,
    }

    impl Program for GappedWake {
        type Msg = u64;
        type Output = u64;
        fn initial_wake(&self) -> Option<Round> {
            Some(self.wake)
        }
        fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
            out.broadcast(view.ident);
        }
        fn receive(&mut self, _view: &View, inbox: &[Envelope<u64>]) -> Action {
            self.heard = inbox.len() as u64;
            Action::Halt
        }
        fn output(&self) -> Option<u64> {
            Some(self.heard)
        }
    }

    #[test]
    fn empty_awake_gaps_between_wheel_wakes() {
        // Pairs meet at rounds 10, 1_000 and 10^9; every round in between
        // has no awake node and must be skipped, not chunked.
        let g = generators::path(6);
        let wakes = [10u64, 10, 1_000, 1_000, 1_000_000_000, 1_000_000_000];
        let mk = || {
            wakes
                .iter()
                .map(|&wake| GappedWake { wake, heard: 0 })
                .collect::<Vec<_>>()
        };
        assert_bitwise_equal(&g, mk, &[1, 2, 4, 8]);
        let run = Engine::with_workers(&g, Config::default(), Some(4))
            .run(mk())
            .unwrap();
        assert_eq!(run.metrics.rounds, 1_000_000_000);
        assert_eq!(run.metrics.awake, vec![1; 6]);
        // each pair only hears its partner (outer neighbors sleep)
        assert_eq!(run.outputs, vec![1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn hub_holding_most_degree_agrees_across_worker_counts() {
        // A star plus a leaf-path tail, big enough to stay above the
        // inline cutoff: the hub dominates the degree mass, exercising the
        // splitter's boundary clamps at every worker count.
        let mut b = awake_graphs::GraphBuilder::new(240);
        for v in 1..200u32 {
            b.edge(0, v);
        }
        for v in 200..240u32 {
            b.edge(v - 1, v);
        }
        let g = b.build().unwrap();
        let mk = || {
            (0..240)
                .map(|_| FloodMax {
                    best: 0,
                    rounds: 12,
                })
                .collect::<Vec<_>>()
        };
        assert_bitwise_equal(&g, mk, &[1, 2, 3, 4, 8, 16]);
    }

    // ---- error precedence matches the serial engine ----

    struct BadSendAt {
        bad: bool,
    }
    impl Program for BadSendAt {
        type Msg = ();
        type Output = ();
        fn send(&mut self, view: &View, out: &mut Outbox<()>) {
            if self.bad {
                // address a non-neighbor: 2 hops away on a path
                let target = NodeId((view.me.0 + 2) % view.n as u32);
                out.to(target, ());
            }
        }
        fn receive(&mut self, _: &View, _: &[Envelope<()>]) -> Action {
            Action::Halt
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    #[test]
    fn routing_error_reports_lowest_offending_node() {
        // Round 1 on P_200 has degree mass 598 > INLINE_MASS: the error
        // surfaces from the parallel path, where higher chunks' offenders
        // run concurrently and must lose to node 3's error.
        let g = generators::path(200);
        for workers in [1, 2, 4, 8] {
            let progs: Vec<BadSendAt> = (0..200).map(|v| BadSendAt { bad: v >= 3 }).collect();
            let err = Engine::with_workers(&g, Config::default(), Some(workers))
                .run(progs)
                .unwrap_err();
            let serial_err = Engine::new(&g, Config::default())
                .run((0..200).map(|v| BadSendAt { bad: v >= 3 }).collect())
                .unwrap_err();
            assert_eq!(err, serial_err, "workers = {workers}");
            assert_eq!(
                err,
                SimError::NotANeighbor {
                    from: NodeId(3),
                    to: NodeId(5)
                }
            );
        }
    }

    struct SleepsBackward {
        offender: bool,
    }
    impl Program for SleepsBackward {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &View, _: &mut Outbox<()>) {}
        fn receive(&mut self, view: &View, _: &[Envelope<()>]) -> Action {
            if view.round >= 2 && self.offender {
                Action::SleepUntil(view.round) // invalid: not in the future
            } else if view.round >= 3 {
                Action::Halt
            } else {
                Action::Stay
            }
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    #[test]
    fn invalid_sleep_reports_lowest_offending_node() {
        // C_150 (mass 450): the offending round runs the parallel path.
        let g = generators::cycle(150);
        for workers in [1, 2, 4, 8] {
            let progs: Vec<SleepsBackward> = (0..150)
                .map(|v| SleepsBackward { offender: v >= 4 })
                .collect();
            let err = Engine::with_workers(&g, Config::default(), Some(workers))
                .run(progs)
                .unwrap_err();
            assert_eq!(
                err,
                SimError::InvalidSleep {
                    node: NodeId(4),
                    round: 2,
                    until: 2
                },
                "workers = {workers}"
            );
        }
    }

    // ---- seeded chaos interleavings: determinism is not scheduling luck --

    #[test]
    fn chaos_interleavings_stay_bit_identical() {
        // Forced steals, yields, naps, and unpark storms at seeded points
        // shuffle which executor runs each descriptor and when — outputs
        // and metrics must not move by a bit relative to the serial engine.
        let g = generators::random_tree(160, 9);
        let mk = || {
            (0..160)
                .map(|_| FloodMax {
                    best: 0,
                    rounds: 40,
                })
                .collect::<Vec<_>>()
        };
        let serial = Engine::new(&g, Config::default()).run(mk()).unwrap();
        for seed in 1u64..=8 {
            for workers in [2, 4, 8] {
                let par = Engine::with_workers(&g, Config::default(), Some(workers))
                    .with_chaos(seed)
                    .run(mk())
                    .unwrap();
                assert!(
                    serial.outputs == par.outputs,
                    "outputs, seed = {seed}, workers = {workers}"
                );
                assert_eq!(
                    serial.metrics, par.metrics,
                    "metrics, seed = {seed}, workers = {workers}"
                );
            }
        }
        // Traces too, including the drop counter under a biting cap.
        let cfg = Config {
            trace: crate::TraceMode::Capped(500),
            ..Config::default()
        };
        let serial = Engine::new(&g, cfg).run(mk()).unwrap();
        for seed in [9u64, 10] {
            for workers in [2, 8] {
                let par = Engine::with_workers(&g, cfg, Some(workers))
                    .with_chaos(seed)
                    .run(mk())
                    .unwrap();
                assert_eq!(
                    serial.trace, par.trace,
                    "trace, seed = {seed}, workers = {workers}"
                );
                assert_eq!(
                    serial.trace_dropped, par.trace_dropped,
                    "trace_dropped, seed = {seed}, workers = {workers}"
                );
            }
        }
    }

    #[test]
    fn chaos_preserves_error_precedence() {
        // Under chaos the erroring chunk may finish long after its
        // neighbors — the coordinator's chunk-order scan must still report
        // the serial engine's error (lowest node id).
        let g = generators::path(200);
        for seed in 11u64..=13 {
            let progs: Vec<BadSendAt> = (0..200).map(|v| BadSendAt { bad: v >= 3 }).collect();
            let err = Engine::with_workers(&g, Config::default(), Some(4))
                .with_chaos(seed)
                .run(progs)
                .unwrap_err();
            assert_eq!(
                err,
                SimError::NotANeighbor {
                    from: NodeId(3),
                    to: NodeId(5)
                },
                "seed = {seed}"
            );
        }
    }

    impl Persist for FloodMax {
        fn save(&self, w: &mut crate::Writer) {
            use crate::Codec;
            self.best.encode(w);
        }
        fn restore(&mut self, r: &mut crate::Reader<'_>) -> Result<(), crate::CheckpointError> {
            use crate::Codec;
            self.best = u64::decode(r)?;
            Ok(())
        }
    }

    #[test]
    fn chaos_under_faults_matches_serial() {
        // Chaos and the fault pipeline compose: the coordinator-gated
        // receives and staged late deliveries keep the serial fault
        // semantics under storms (auto_receive is off on faulty runs).
        let mut plan = FaultPlan::new(77);
        plan.drop_ppm = 60_000;
        plan.dup_ppm = 60_000;
        plan.delay_ppm = 60_000;
        plan.delay_rounds = 1;
        let g = generators::random_tree(120, 5);
        let mk = || {
            (0..120)
                .map(|_| FloodMax {
                    best: 0,
                    rounds: 30,
                })
                .collect::<Vec<_>>()
        };
        let serial = Engine::new(&g, Config::default())
            .run_faulty(mk(), &plan)
            .unwrap();
        for seed in 21u64..=23 {
            for workers in [2, 4] {
                let par = Engine::with_workers(&g, Config::default(), Some(workers))
                    .with_chaos(seed)
                    .run_faulty(mk(), &plan)
                    .unwrap();
                assert!(
                    serial.outputs == par.outputs,
                    "outputs, seed = {seed}, workers = {workers}"
                );
                assert_eq!(
                    serial.metrics, par.metrics,
                    "metrics, seed = {seed}, workers = {workers}"
                );
            }
        }
    }

    #[test]
    fn chaos_snapshot_bytes_match_serial() {
        // Rounds quiesce before every boundary — the coordinator consumes
        // every send and receive descriptor before moving on — so pause
        // snapshots must be byte-identical to the serial engine's even
        // when steal storms shuffled the round that just finished.
        let g = generators::random_tree(160, 9);
        let mk = || {
            (0..160)
                .map(|_| FloodMax {
                    best: 0,
                    rounds: 40,
                })
                .collect::<Vec<_>>()
        };
        let serial_full = Engine::new(&g, Config::default()).run(mk()).unwrap();
        let want = match Engine::new(&g, Config::default())
            .snapshot_at(mk(), None, 20)
            .unwrap()
        {
            Paused::Snapshot(s) => s,
            Paused::Done(_) => panic!("run finished before the pause"),
        };
        for seed in 31u64..=33 {
            for workers in [2, 4] {
                let got = match Engine::with_workers(&g, Config::default(), Some(workers))
                    .with_chaos(seed)
                    .snapshot_at(mk(), None, 20)
                    .unwrap()
                {
                    Paused::Snapshot(s) => s,
                    Paused::Done(_) => panic!("run finished before the pause"),
                };
                assert_eq!(
                    got, want,
                    "snapshot bytes, seed = {seed}, workers = {workers}"
                );
                // And the chaotic pause resumes to the uninterrupted run.
                let resumed = Engine::with_workers(&g, Config::default(), Some(workers))
                    .resume(mk(), &got)
                    .unwrap();
                assert!(resumed.outputs == serial_full.outputs, "resumed outputs");
                assert_eq!(resumed.metrics, serial_full.metrics, "resumed metrics");
            }
        }
    }

    /// Panics in `send` from round 2 on — only the highest node, so the
    /// panic lands in the last chunk, which a spawned executor usually
    /// claims first.
    struct PanicsLate {
        last: bool,
    }

    impl Program for PanicsLate {
        type Msg = u64;
        type Output = ();
        fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
            assert!(!(self.last && view.round >= 2), "program panicked in send");
            out.broadcast(view.ident);
        }
        fn receive(&mut self, view: &View, _: &[Envelope<u64>]) -> Action {
            if view.round >= 5 {
                Action::Halt
            } else {
                Action::Stay
            }
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    #[test]
    fn executor_panic_reaches_the_caller() {
        // P_200 has degree mass 598 > INLINE_MASS, so round 2 dispatches.
        // Whichever executor runs the panicking chunk, the run must end in
        // a panic on the calling thread, not wait forever on a descriptor
        // the panicked executor held.
        for workers in [2, 4] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let g = generators::path(200);
                let progs: Vec<PanicsLate> =
                    (0..200).map(|v| PanicsLate { last: v == 199 }).collect();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    Engine::with_workers(&g, Config::default(), Some(workers)).run(progs)
                }));
                let _ = tx.send(outcome.is_err());
            });
            let panicked = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("workers = {workers}: the pool hung on a panic"));
            assert!(panicked, "workers = {workers}: the panic must propagate");
        }
    }

    #[test]
    fn timed_run_attributes_rounds() {
        // The timing probe must account every executed round exactly once
        // (skipped rounds are free) and leave the run itself untouched.
        let g = generators::random_tree(160, 9);
        let mk = || {
            (0..160)
                .map(|_| FloodMax {
                    best: 0,
                    rounds: 40,
                })
                .collect::<Vec<_>>()
        };
        let serial = Engine::new(&g, Config::default()).run(mk()).unwrap();
        let mut t = PhaseTimes::default();
        let run = Engine::with_workers(&g, Config::default(), Some(4))
            .run_timed(mk(), &mut t)
            .unwrap();
        assert_eq!(serial.metrics, run.metrics);
        assert!(serial.outputs == run.outputs);
        assert_eq!(
            t.rounds(),
            run.metrics.rounds - run.metrics.rounds_skipped,
            "every executed round lands in exactly one bucket"
        );
        assert!(t.dispatched_rounds > 0, "dense rounds must dispatch");
        // The serial engine runs every round inline, and gets a breakdown
        // too.
        let mut t = PhaseTimes::default();
        let run = Engine::new(&g, Config::default())
            .run_timed(mk(), &mut t)
            .unwrap();
        assert_eq!(serial.metrics, run.metrics);
        assert_eq!(
            t.inline_rounds,
            run.metrics.rounds - run.metrics.rounds_skipped
        );
        assert_eq!(t.dispatched_rounds, 0);
    }
}

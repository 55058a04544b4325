//! Versioned, std-only binary snapshots of engine state.
//!
//! A [`Snapshot`] captures everything the executor needs to continue a run
//! exactly where it stopped: the current round, every node's next wake
//! round, the stay lane, the pending wake-wheel events, per-node program
//! state (through the [`Persist`] trait), the outputs produced so far,
//! [`crate::Metrics`], tracer state, and — for fault-injected
//! runs — the plan and the buffer of delayed in-flight messages.
//!
//! The load-bearing invariant, asserted by the integration tests at every
//! round of seeded runs: *run to round r, snapshot, restore, run to the
//! end* is **bit-for-bit identical** to an uninterrupted run — outputs,
//! `Metrics`, and trace — at any worker count. There is one executor (the
//! serial engine is its one-executor path), and between rounds all of its
//! observable state lives with the coordinator, so a snapshot is the same
//! bytes whatever the worker count that wrote it, and any worker count can
//! resume it.
//!
//! # Format
//!
//! Little-endian, length-prefixed, no external dependencies:
//!
//! ```text
//! magic    8 bytes  b"AWAKECKP"
//! version  u32      SNAPSHOT_VERSION (currently 3; v2 added the
//!                   awake_events / rounds_skipped metrics counters, v3
//!                   the fault-plan window fields, the recovery counters,
//!                   and the per-node recovering bitset)
//! round    u64      last processed round
//! graph    u64      fingerprint of (n, idents, adjacency)
//! config   max_rounds + trace mode
//! state    next_wake, stay lane, wheel events, outputs,
//!          per-node program blobs, metrics, tracer, fault state
//! ```
//!
//! Decoding validates the magic, the version, the graph fingerprint,
//! every length against the remaining input, and every node id and round
//! the state refers to (stay lane, wheel events, delayed messages); a
//! snapshot must also be consumed *exactly*
//! ([`CheckpointError::TrailingBytes`] otherwise), so truncated or corrupt
//! files fail with a typed error instead of producing a silently wrong
//! resume.
//!
//! # The [`Persist`] contract
//!
//! `save` writes only the program's *dynamic* state — anything that
//! changes after construction. `restore` is applied to a **freshly
//! constructed** program (the caller rebuilds the initial programs from
//! the same inputs, e.g. the same scenario seed) and must overwrite every
//! dynamic field it saved. Crash-restart uses the same pair mid-round, so
//! a `restore` after `save` must reproduce the saved state exactly even on
//! a program that has advanced past it.

use crate::engine::NEVER;
use crate::faults::{DelayedMsg, FaultPlan, FaultState};
use crate::metrics::Metrics;
use crate::program::Program;
use crate::trace::{TraceEvent, Tracer};
use crate::wheel::WakeWheel;
use crate::{Config, Round, SimError, TraceMode};
use awake_graphs::{Graph, NodeId};
use std::fmt;
use std::sync::Arc;

/// Magic bytes every snapshot starts with.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"AWAKECKP";
/// Current snapshot format version. Version 2 appended the
/// `awake_events` and `rounds_skipped` counters to the metrics block;
/// version 3 added the fault-plan window fields
/// (`burst_start`/`burst_len`/`quiet_after`), the
/// `recovery_rounds`/`recovery_awake` counters, and the per-node
/// `recovering` bitset of the fault state. Older images are rejected with
/// [`CheckpointError::UnsupportedVersion`] rather than silently restored
/// with zeroed fields.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Why a snapshot could not be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The input ended before the expected data.
    Truncated,
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(
        /// The version found in the header.
        u32,
    ),
    /// A decoded value is structurally invalid.
    Corrupt(
        /// What was invalid.
        &'static str,
    ),
    /// The snapshot was taken on a different graph (node count, idents, or
    /// adjacency differ).
    GraphMismatch,
    /// Decoding succeeded but bytes were left over — the snapshot and the
    /// program types disagree.
    TrailingBytes,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "snapshot truncated"),
            CheckpointError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (supported: {SNAPSHOT_VERSION})"
                )
            }
            CheckpointError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            CheckpointError::GraphMismatch => {
                write!(f, "snapshot was taken on a different graph")
            }
            CheckpointError::TrailingBytes => {
                write!(f, "snapshot has trailing bytes after decoding")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Why a resume failed: either the snapshot itself, or the continued
/// simulation.
#[derive(Debug)]
pub enum ResumeError {
    /// The snapshot could not be decoded or applied.
    Checkpoint(CheckpointError),
    /// The continued run failed.
    Sim(SimError),
}

impl From<CheckpointError> for ResumeError {
    fn from(e: CheckpointError) -> Self {
        ResumeError::Checkpoint(e)
    }
}

impl From<SimError> for ResumeError {
    fn from(e: SimError) -> Self {
        ResumeError::Sim(e)
    }
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Checkpoint(e) => write!(f, "{e}"),
            ResumeError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// An append-only byte sink for [`Codec::encode`] and [`Persist::save`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Append raw bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Encode one value.
    #[inline]
    pub fn put<T: Codec>(&mut self, v: &T) {
        v.encode(self);
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A bounds-checked cursor over snapshot bytes for [`Codec::decode`] and
/// [`Persist::restore`].
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Consume exactly `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(CheckpointError::Truncated)?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Decode one value.
    #[inline]
    pub fn get<T: Codec>(&mut self) -> Result<T, CheckpointError> {
        T::decode(self)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Binary serialization of one value, little-endian and self-delimiting.
///
/// Implemented for the std types snapshots are built from; algorithm
/// crates implement it for their message and output types so their
/// programs can be [`Persist`]ed.
pub trait Codec: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
    /// Decode one value from `r`, consuming exactly what `encode` wrote.
    ///
    /// # Errors
    /// [`CheckpointError::Truncated`] if the input ends early, or
    /// [`CheckpointError::Corrupt`] on structurally invalid data.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError>;
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode(&self, w: &mut Writer) {
                w.bytes(&self.to_le_bytes());
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
                let b = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("exact take")))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i64);

impl Codec for usize {
    fn encode(&self, w: &mut Writer) {
        (*self as u64).encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        usize::try_from(u64::decode(r)?).map_err(|_| CheckpointError::Corrupt("usize overflow"))
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut Writer) {
        w.bytes(&[*self as u8]);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("bool")),
        }
    }
}

impl Codec for () {
    fn encode(&self, _w: &mut Writer) {}
    fn decode(_r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(())
    }
}

impl Codec for String {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        w.bytes(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::decode(r)?;
        let b = r.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| CheckpointError::Corrupt("utf-8 string"))
    }
}

impl Codec for NodeId {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(NodeId(u32::decode(r)?))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.bytes(&[0]),
            Some(v) => {
                w.bytes(&[1]);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(CheckpointError::Corrupt("option tag")),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::decode(r)?;
        // Every element consumes at least one byte for the types snapshots
        // store, so a length beyond the remaining input is corruption —
        // reject it before reserving memory for it.
        if len > r.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for std::collections::BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::decode(r)?;
        if len > r.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let mut out = std::collections::BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Codec + Ord> Codec for std::collections::BTreeSet<T> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::decode(r)?;
        if len > r.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let mut out = std::collections::BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for std::collections::VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = usize::decode(r)?;
        if len > r.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let mut out = std::collections::VecDeque::with_capacity(len);
        for _ in 0..len {
            out.push_back(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Arc<T> {
    fn encode(&self, w: &mut Writer) {
        T::encode(self, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Arc::new(T::decode(r)?))
    }
}

macro_rules! tuple_codec {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn encode(&self, w: &mut Writer) {
                $(self.$idx.encode(w);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

tuple_codec!(A: 0, B: 1);
tuple_codec!(A: 0, B: 1, C: 2);
tuple_codec!(A: 0, B: 1, C: 2, D: 3);
tuple_codec!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Per-node program state capture for snapshots and crash-restart.
///
/// `save` writes the program's *dynamic* state (everything that changes
/// after construction); `restore` overwrites that state on a freshly
/// constructed program. The pair must round-trip exactly: `restore` after
/// `save` reproduces the saved state bit for bit, even when applied to a
/// program that has since advanced (crash-restart applies it to the
/// post-send program of the crashed round).
pub trait Persist {
    /// Write this program's dynamic state.
    fn save(&self, w: &mut Writer);
    /// Overwrite this program's dynamic state from `r`.
    ///
    /// # Errors
    /// Any [`CheckpointError`] from decoding; on error the program state is
    /// unspecified and the caller discards it.
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError>;
}

/// The save/restore entry points of a concrete `P: Persist`, captured as
/// plain function pointers so the executor — which deliberately has
/// no `Persist` bound — can crash-restart nodes. Built by the bounded
/// public wrappers via [`CrashIo::of`].
pub(crate) struct CrashIo<P> {
    pub(crate) save: fn(&P, &mut Writer),
    pub(crate) restore: fn(&mut P, &mut Reader<'_>) -> Result<(), CheckpointError>,
}

impl<P> Clone for CrashIo<P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P> Copy for CrashIo<P> {}

impl<P: Persist> CrashIo<P> {
    pub(crate) fn of() -> Self {
        CrashIo {
            save: P::save,
            restore: P::restore,
        }
    }
}

/// A self-contained, versioned snapshot of a paused run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    round: Round,
    bytes: Vec<u8>,
}

impl Snapshot {
    /// The last round the snapshotted run processed: resuming continues
    /// strictly after it.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The serialized form (write this to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reconstruct a snapshot from its serialized form, validating the
    /// header (magic + version) eagerly.
    ///
    /// # Errors
    /// [`CheckpointError::BadMagic`], [`CheckpointError::UnsupportedVersion`],
    /// or [`CheckpointError::Truncated`] if even the header is incomplete.
    /// The body is validated later, on resume.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(&bytes);
        if r.take(8)? != SNAPSHOT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::decode(&mut r)?;
        if version != SNAPSHOT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let round = Round::decode(&mut r)?;
        Ok(Snapshot { round, bytes })
    }
}

/// Whether a run paused for a snapshot actually reached the pause point,
/// or completed first.
#[derive(Debug)]
pub enum Paused<O> {
    /// The run finished before the requested pause round.
    Done(crate::Run<O>),
    /// The run paused; resume it with the snapshot.
    Snapshot(Snapshot),
}

/// A borrowed view of everything a snapshot captures, assembled by an
/// executor at a round boundary.
pub(crate) struct EngineStateRef<'a, P: Program> {
    pub(crate) prev_round: Round,
    pub(crate) next_wake: &'a [Round],
    pub(crate) stay: &'a [u32],
    /// Pending wheel events, sorted by `(round, node)`.
    pub(crate) wheel_events: Vec<(Round, u32)>,
    pub(crate) outputs: &'a [Option<P::Output>],
    /// The executor's program slots, all occupied between rounds.
    pub(crate) programs: &'a [Option<P>],
    pub(crate) metrics: &'a Metrics,
    pub(crate) tracer: &'a Tracer,
    pub(crate) faults: Option<&'a FaultState<P::Msg>>,
}

/// Everything [`decode_snapshot`] reconstructs (programs are restored in
/// place into the caller's freshly built vector).
pub(crate) struct RestoredState<M, O> {
    pub(crate) config: Config,
    pub(crate) prev_round: Round,
    pub(crate) next_wake: Vec<Round>,
    pub(crate) stay: Vec<u32>,
    pub(crate) wheel_events: Vec<(Round, u32)>,
    pub(crate) outputs: Vec<Option<O>>,
    pub(crate) metrics: Metrics,
    pub(crate) tracer: Tracer,
    pub(crate) faults: Option<FaultState<M>>,
}

/// FNV-1a over the graph's shape: node count, idents, and adjacency. A
/// resume on a graph with a different fingerprint is rejected.
fn graph_fingerprint(g: &Graph) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn fnv(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(PRIME)
    }
    let mut h = fnv(OFFSET, g.n() as u64);
    for v in 0..g.n() as u32 {
        h = fnv(h, g.ident(NodeId(v)));
        let nb = g.neighbors(NodeId(v));
        h = fnv(h, nb.len() as u64);
        for &w in nb {
            h = fnv(h, w.0 as u64 + 1);
        }
    }
    h
}

fn encode_trace_mode(mode: TraceMode, w: &mut Writer) {
    match mode {
        TraceMode::Off => w.bytes(&[0]),
        TraceMode::Capped(cap) => {
            w.bytes(&[1]);
            cap.encode(w);
        }
    }
}

fn decode_trace_mode(r: &mut Reader<'_>) -> Result<TraceMode, CheckpointError> {
    match r.take(1)?[0] {
        0 => Ok(TraceMode::Off),
        1 => Ok(TraceMode::Capped(usize::decode(r)?)),
        _ => Err(CheckpointError::Corrupt("trace mode tag")),
    }
}

impl Codec for TraceEvent {
    fn encode(&self, w: &mut Writer) {
        match self {
            TraceEvent::Awake { round, node } => {
                w.bytes(&[0]);
                round.encode(w);
                node.encode(w);
            }
            TraceEvent::Delivered { round, from, to } => {
                w.bytes(&[1]);
                round.encode(w);
                from.encode(w);
                to.encode(w);
            }
            TraceEvent::Lost { round, from, to } => {
                w.bytes(&[2]);
                round.encode(w);
                from.encode(w);
                to.encode(w);
            }
            TraceEvent::Sleep { round, node, until } => {
                w.bytes(&[3]);
                round.encode(w);
                node.encode(w);
                until.encode(w);
            }
            TraceEvent::Halt { round, node } => {
                w.bytes(&[4]);
                round.encode(w);
                node.encode(w);
            }
            TraceEvent::FaultDrop { round, from, to } => {
                w.bytes(&[5]);
                round.encode(w);
                from.encode(w);
                to.encode(w);
            }
            TraceEvent::FaultDelay {
                round,
                from,
                to,
                until,
            } => {
                w.bytes(&[6]);
                round.encode(w);
                from.encode(w);
                to.encode(w);
                until.encode(w);
            }
            TraceEvent::Crash { round, node } => {
                w.bytes(&[7]);
                round.encode(w);
                node.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(match r.take(1)?[0] {
            0 => TraceEvent::Awake {
                round: r.get()?,
                node: r.get()?,
            },
            1 => TraceEvent::Delivered {
                round: r.get()?,
                from: r.get()?,
                to: r.get()?,
            },
            2 => TraceEvent::Lost {
                round: r.get()?,
                from: r.get()?,
                to: r.get()?,
            },
            3 => TraceEvent::Sleep {
                round: r.get()?,
                node: r.get()?,
                until: r.get()?,
            },
            4 => TraceEvent::Halt {
                round: r.get()?,
                node: r.get()?,
            },
            5 => TraceEvent::FaultDrop {
                round: r.get()?,
                from: r.get()?,
                to: r.get()?,
            },
            6 => TraceEvent::FaultDelay {
                round: r.get()?,
                from: r.get()?,
                to: r.get()?,
                until: r.get()?,
            },
            7 => TraceEvent::Crash {
                round: r.get()?,
                node: r.get()?,
            },
            _ => return Err(CheckpointError::Corrupt("trace event tag")),
        })
    }
}

impl Codec for FaultPlan {
    fn encode(&self, w: &mut Writer) {
        self.seed.encode(w);
        self.drop_ppm.encode(w);
        self.dup_ppm.encode(w);
        self.delay_ppm.encode(w);
        self.crash_ppm.encode(w);
        self.delay_rounds.encode(w);
        self.burst_start.encode(w);
        self.burst_len.encode(w);
        self.quiet_after.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(FaultPlan {
            seed: r.get()?,
            drop_ppm: r.get()?,
            dup_ppm: r.get()?,
            delay_ppm: r.get()?,
            crash_ppm: r.get()?,
            delay_rounds: r.get()?,
            burst_start: r.get()?,
            burst_len: r.get()?,
            quiet_after: r.get()?,
        })
    }
}

impl<M: Codec> Codec for DelayedMsg<M> {
    fn encode(&self, w: &mut Writer) {
        self.due.encode(w);
        self.from.encode(w);
        self.to.encode(w);
        self.msg.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(DelayedMsg {
            due: r.get()?,
            from: r.get()?,
            to: r.get()?,
            msg: r.get()?,
        })
    }
}

/// Serialize a paused run. The executor calls this with the same logical
/// state at a round boundary whatever its worker count, so snapshots of
/// the same run at the same round are byte-identical (asserted in tests).
pub(crate) fn encode_snapshot<P>(
    graph: &Graph,
    config: Config,
    st: EngineStateRef<'_, P>,
) -> Snapshot
where
    P: Program + Persist,
    P::Msg: Codec,
    P::Output: Codec,
{
    let n = graph.n();
    let mut w = Writer::new();
    w.bytes(&SNAPSHOT_MAGIC);
    SNAPSHOT_VERSION.encode(&mut w);
    st.prev_round.encode(&mut w);
    graph_fingerprint(graph).encode(&mut w);
    config.max_rounds.encode(&mut w);
    encode_trace_mode(config.trace, &mut w);
    n.encode(&mut w);
    st.next_wake.to_vec().encode(&mut w);
    st.stay.to_vec().encode(&mut w);
    st.wheel_events.encode(&mut w);
    st.outputs.len().encode(&mut w);
    for o in st.outputs {
        o.encode(&mut w);
    }
    for p in st.programs {
        p.as_ref()
            .expect("program parked between rounds")
            .save(&mut w);
    }
    // metrics
    let m = st.metrics;
    m.awake.encode(&mut w);
    m.rounds.encode(&mut w);
    m.messages_sent.encode(&mut w);
    m.messages_delivered.encode(&mut w);
    m.messages_lost.encode(&mut w);
    m.faults_dropped.encode(&mut w);
    m.faults_duplicated.encode(&mut w);
    m.faults_delayed.encode(&mut w);
    m.faults_crashed.encode(&mut w);
    m.recovery_rounds.encode(&mut w);
    m.recovery_awake.encode(&mut w);
    m.awake_events.encode(&mut w);
    m.rounds_skipped.encode(&mut w);
    let (names, counts) = m.span_data();
    names.len().encode(&mut w);
    for name in names {
        name.to_string().encode(&mut w);
    }
    counts.to_vec().encode(&mut w);
    // tracer
    st.tracer.events.encode(&mut w);
    st.tracer.dropped.encode(&mut w);
    // faults
    match st.faults {
        None => w.bytes(&[0]),
        Some(f) => {
            w.bytes(&[1]);
            f.plan.encode(&mut w);
            f.delayed.encode(&mut w);
            f.recovering.encode(&mut w);
        }
    }
    Snapshot {
        round: st.prev_round,
        bytes: w.into_bytes(),
    }
}

/// Decode a snapshot against `graph`, restoring per-node program state
/// into `programs` (freshly constructed initial programs, one per node).
pub(crate) fn decode_snapshot<P>(
    graph: &Graph,
    snapshot: &Snapshot,
    programs: &mut [P],
) -> Result<RestoredState<P::Msg, P::Output>, CheckpointError>
where
    P: Program + Persist,
    P::Msg: Codec,
    P::Output: Codec,
{
    let n = graph.n();
    debug_assert_eq!(programs.len(), n, "callers check the program count");
    let mut r = Reader::new(&snapshot.bytes);
    if r.take(8)? != SNAPSHOT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::decode(&mut r)?;
    if version != SNAPSHOT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let prev_round = Round::decode(&mut r)?;
    if u64::decode(&mut r)? != graph_fingerprint(graph) {
        return Err(CheckpointError::GraphMismatch);
    }
    let max_rounds = Round::decode(&mut r)?;
    let trace = decode_trace_mode(&mut r)?;
    let config = Config { max_rounds, trace };
    if usize::decode(&mut r)? != n {
        return Err(CheckpointError::GraphMismatch);
    }
    let next_wake: Vec<Round> = r.get()?;
    if next_wake.len() != n {
        return Err(CheckpointError::Corrupt("next_wake length"));
    }
    let stay: Vec<u32> = r.get()?;
    if stay.windows(2).any(|w| w[0] >= w[1]) || stay.iter().any(|&v| v as usize >= n) {
        return Err(CheckpointError::Corrupt("stay lane"));
    }
    let wheel_events: Vec<(Round, u32)> = r.get()?;
    if wheel_events
        .iter()
        .any(|&(round, v)| round <= prev_round || v as usize >= n)
    {
        return Err(CheckpointError::Corrupt("wheel event"));
    }
    let outputs_len = usize::decode(&mut r)?;
    if outputs_len != n {
        return Err(CheckpointError::Corrupt("outputs length"));
    }
    let mut outputs: Vec<Option<P::Output>> = Vec::with_capacity(n);
    for _ in 0..n {
        outputs.push(r.get()?);
    }
    for p in programs.iter_mut() {
        p.restore(&mut r)?;
    }
    // metrics
    let mut metrics = Metrics::new(n);
    metrics.awake = r.get()?;
    if metrics.awake.len() != n {
        return Err(CheckpointError::Corrupt("awake length"));
    }
    metrics.rounds = r.get()?;
    metrics.messages_sent = r.get()?;
    metrics.messages_delivered = r.get()?;
    metrics.messages_lost = r.get()?;
    metrics.faults_dropped = r.get()?;
    metrics.faults_duplicated = r.get()?;
    metrics.faults_delayed = r.get()?;
    metrics.faults_crashed = r.get()?;
    metrics.recovery_rounds = r.get()?;
    metrics.recovery_awake = r.get()?;
    metrics.awake_events = r.get()?;
    metrics.rounds_skipped = r.get()?;
    let name_count = usize::decode(&mut r)?;
    if name_count > r.remaining() {
        return Err(CheckpointError::Truncated);
    }
    let mut names: Vec<&'static str> = Vec::with_capacity(name_count);
    for _ in 0..name_count {
        // Span labels are `&'static str` by design (a handful per run);
        // restored labels are leaked once per resume, and content-based
        // interning in `Metrics` keeps them equal to the originals.
        names.push(Box::leak(String::decode(&mut r)?.into_boxed_str()));
    }
    let counts: Vec<Vec<u64>> = r.get()?;
    if counts.len() != names.len() || counts.iter().any(|c| c.len() != n) {
        return Err(CheckpointError::Corrupt("span counts"));
    }
    metrics.restore_span_data(names, counts);
    // tracer
    let mut tracer = Tracer::new(trace);
    tracer.events = r.get()?;
    tracer.dropped = r.get()?;
    // faults
    let faults = match r.take(1)?[0] {
        0 => None,
        1 => {
            let plan: FaultPlan = r.get()?;
            let delayed: Vec<DelayedMsg<P::Msg>> = r.get()?;
            // Every buffered message is still in flight (resolved messages
            // leave the buffer in the round they come due) and travels
            // between two nodes of this graph.
            if delayed
                .iter()
                .any(|d| d.from.index() >= n || d.to.index() >= n || d.due <= prev_round)
            {
                return Err(CheckpointError::Corrupt("delayed message"));
            }
            let recovering: Vec<bool> = r.get()?;
            if recovering.len() != n {
                return Err(CheckpointError::Corrupt("recovering length"));
            }
            let mut f = FaultState::new(plan);
            f.delayed = delayed;
            f.recovering = recovering;
            Some(f)
        }
        _ => return Err(CheckpointError::Corrupt("fault state tag")),
    };
    if r.remaining() != 0 {
        return Err(CheckpointError::TrailingBytes);
    }
    // Cross-validate halted/asleep bookkeeping so a corrupt snapshot can't
    // put the scheduler into an impossible state.
    for (v, &wake) in next_wake.iter().enumerate() {
        if wake == NEVER && outputs[v].is_none() {
            return Err(CheckpointError::Corrupt("halted node without output"));
        }
    }
    Ok(RestoredState {
        config,
        prev_round,
        next_wake,
        stay,
        wheel_events,
        outputs,
        metrics,
        tracer,
        faults,
    })
}

/// Rebuild a wake wheel holding exactly `events` (all strictly after the
/// restored round — validated during decode). Bucket layout is relative to
/// the wheel's running position, so the rebuilt wheel is not byte-identical
/// to the original — but pop order and peek results are, which is all the
/// executor observes.
pub(crate) fn rebuild_wheel(events: &[(Round, u32)]) -> WakeWheel {
    let mut wheel = WakeWheel::new();
    wheel.schedule_all(events.iter().copied());
    wheel
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        assert_eq!(r.remaining(), 0, "decode must consume exactly");
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(0xabcdu16);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX / 3);
        roundtrip(-42i64);
        roundtrip(usize::MAX / 2);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
        roundtrip(String::from("héllo"));
        roundtrip(NodeId(7));
        roundtrip(Some(9u64));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip((1u8, 2u64));
        roundtrip((1u8, 2u64, NodeId(3)));
        roundtrip((1u8, 2u64, NodeId(3), true));
        roundtrip((1u8, 2u64, NodeId(3), true, String::from("x")));
        roundtrip(Arc::new(vec![(1u64, 2u16)]));
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert_eq!(
                Vec::<u64>::decode(&mut r).unwrap_err(),
                CheckpointError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        let mut w = Writer::new();
        (u64::MAX / 2).encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            Vec::<u64>::decode(&mut r).unwrap_err(),
            CheckpointError::Truncated
        );
    }

    #[test]
    fn corrupt_tags_are_typed_errors() {
        let mut r = Reader::new(&[9]);
        assert!(matches!(
            bool::decode(&mut r).unwrap_err(),
            CheckpointError::Corrupt(_)
        ));
        let mut r = Reader::new(&[7, 0]);
        assert!(matches!(
            Option::<u8>::decode(&mut r).unwrap_err(),
            CheckpointError::Corrupt(_)
        ));
    }

    #[test]
    fn snapshot_header_is_validated_eagerly() {
        assert_eq!(
            Snapshot::from_bytes(b"NOTA".to_vec()).unwrap_err(),
            CheckpointError::Truncated,
            "shorter than the magic itself"
        );
        assert_eq!(
            Snapshot::from_bytes(b"NOTASNAP".to_vec()).unwrap_err(),
            CheckpointError::BadMagic,
            "full-length wrong magic loses to the magic check, not length"
        );
        let mut bad = SNAPSHOT_MAGIC.to_vec();
        bad.extend_from_slice(&99u32.to_le_bytes());
        bad.extend_from_slice(&5u64.to_le_bytes());
        assert_eq!(
            Snapshot::from_bytes(bad).unwrap_err(),
            CheckpointError::UnsupportedVersion(99)
        );
        let mut wrong_magic = b"XXXXXXXX".to_vec();
        wrong_magic.extend_from_slice(&[0; 12]);
        assert_eq!(
            Snapshot::from_bytes(wrong_magic).unwrap_err(),
            CheckpointError::BadMagic
        );
        let mut good = SNAPSHOT_MAGIC.to_vec();
        good.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        good.extend_from_slice(&17u64.to_le_bytes());
        assert_eq!(Snapshot::from_bytes(good).unwrap().round(), 17);
    }

    #[test]
    fn trace_event_roundtrips() {
        for ev in [
            TraceEvent::Awake {
                round: 1,
                node: NodeId(2),
            },
            TraceEvent::Delivered {
                round: 3,
                from: NodeId(0),
                to: NodeId(1),
            },
            TraceEvent::Lost {
                round: 4,
                from: NodeId(1),
                to: NodeId(0),
            },
            TraceEvent::Sleep {
                round: 5,
                node: NodeId(3),
                until: 9,
            },
            TraceEvent::Halt {
                round: 6,
                node: NodeId(4),
            },
            TraceEvent::FaultDrop {
                round: 7,
                from: NodeId(2),
                to: NodeId(3),
            },
            TraceEvent::FaultDelay {
                round: 8,
                from: NodeId(3),
                to: NodeId(4),
                until: 11,
            },
            TraceEvent::Crash {
                round: 9,
                node: NodeId(5),
            },
        ] {
            roundtrip(ev);
        }
    }

    #[test]
    fn fault_plan_and_delayed_roundtrip() {
        let mut plan = FaultPlan::new(77);
        plan.drop_ppm = 1;
        plan.dup_ppm = 2;
        plan.delay_ppm = 3;
        plan.crash_ppm = 4;
        plan.delay_rounds = 5;
        plan.burst_start = 6;
        plan.burst_len = 7;
        plan.quiet_after = 8;
        roundtrip(plan);
        roundtrip(DelayedMsg {
            due: 12,
            from: NodeId(1),
            to: NodeId(2),
            msg: 99u64,
        });
    }

    /// Floods the largest ident heard for `rounds` rounds, then halts.
    struct FloodMax {
        best: u64,
        rounds: u64,
    }

    impl Program for FloodMax {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, _: &crate::View, out: &mut crate::Outbox<u64>) {
            out.broadcast(self.best);
        }
        fn receive(&mut self, view: &crate::View, inbox: &[crate::Envelope<u64>]) -> crate::Action {
            self.best = inbox
                .iter()
                .fold(self.best.max(view.ident), |b, e| b.max(e.msg));
            if view.round >= self.rounds {
                crate::Action::Halt
            } else {
                crate::Action::Stay
            }
        }
        fn output(&self) -> Option<u64> {
            Some(self.best)
        }
    }

    impl Persist for FloodMax {
        fn save(&self, w: &mut Writer) {
            self.best.encode(w);
        }
        fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
            self.best = u64::decode(r)?;
            Ok(())
        }
    }

    /// A snapshot whose delayed-message buffer names a node past the graph
    /// must fail to decode with a typed error at any worker count, not pass
    /// decode and panic (or hang the pool) on resume.
    #[test]
    fn delayed_message_to_a_missing_node_is_a_typed_error() {
        let g = awake_graphs::generators::cycle(12);
        let n = g.n();
        let mk = || {
            (0..n)
                .map(|_| FloodMax {
                    best: 0,
                    rounds: 10,
                })
                .collect::<Vec<_>>()
        };
        let mut plan = FaultPlan::new(5);
        plan.delay_ppm = 300_000;
        plan.delay_rounds = 4;
        let snap = match crate::Engine::new(&g, Config::default())
            .snapshot_at(mk(), Some(&plan), 3)
            .unwrap()
        {
            Paused::Snapshot(s) => s,
            Paused::Done(_) => panic!("run finished before the pause"),
        };
        // The snapshot ends with the delayed buffer, whose last entry is
        // `due, from, to, msg` (u64, u32, u32, u64), then the recovering
        // bitset (u64 length + n bytes). Re-encode the last message's `to`
        // as n + 5, after checking the offset against the decoded buffer.
        let mut state = decode_snapshot(&g, &snap, &mut mk()).unwrap();
        let delayed = state.faults.take().expect("faulty snapshot").delayed;
        let last = delayed
            .last()
            .expect("the pause must catch a message in flight");
        let mut bytes = snap.as_bytes().to_vec();
        let at = bytes.len() - (8 + n) - 8 - 4;
        assert_eq!(bytes[at..at + 4], last.to.0.to_le_bytes(), "offset of `to`");
        bytes[at..at + 4].copy_from_slice(&(n as u32 + 5).to_le_bytes());
        let bad = Snapshot::from_bytes(bytes).unwrap();
        for workers in [None, Some(2)] {
            let err = crate::Engine::with_workers(&g, Config::default(), workers)
                .resume(mk(), &bad)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    ResumeError::Checkpoint(CheckpointError::Corrupt("delayed message"))
                ),
                "workers = {workers:?}: {err}"
            );
        }
    }

    #[test]
    fn error_displays_are_informative() {
        assert!(CheckpointError::Truncated.to_string().contains("truncated"));
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::UnsupportedVersion(3)
            .to_string()
            .contains("version 3"));
        assert!(CheckpointError::GraphMismatch
            .to_string()
            .contains("different graph"));
        assert!(CheckpointError::TrailingBytes
            .to_string()
            .contains("trailing"));
        let re: ResumeError = CheckpointError::BadMagic.into();
        assert!(re.to_string().contains("magic"));
        let rs: ResumeError = SimError::MissingOutput(NodeId(0)).into();
        assert!(rs.to_string().contains("output"));
    }
}

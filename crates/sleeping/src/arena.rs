//! Per-round inbox storage: pooled per-recipient segments, no sorting.
//!
//! Messages are delivered straight into their recipient's segment — **one**
//! write per message on the inline path (a dispatched round adds one hop
//! through an owner shard, so chunks can be built on other executors).
//! Segments are pooled `Vec`s that are cleared (capacity retained) per
//! round, so the steady state allocates nothing; and because awake nodes
//! transmit in ascending order, each segment is born sorted by sender —
//! the seed engine's per-round `sort_by_key` is replaced by a debug
//! assertion.
//!
//! A flat single-`Vec` arena with per-node offset ranges built by a stable
//! counting sort was implemented and benchmarked first; it loses to the
//! segment pool by ~2.5× per message at experiment scale (n = 4096,
//! Δ = 16) because grouping-by-recipient touches each message ~3 extra
//! times (stage, permute, place) with cache-hostile access patterns, while
//! direct segment delivery touches it once.
//!
//! A segment pool is keyed by whatever the chunk running on it chooses:
//! the inline path (one chunk, the whole awake set) keys segments by node
//! and pushes each delivered message straight into its recipient's
//! segment during the send phase — one write, no position lookup; a
//! dispatched chunk keys them by the recipient's position within the
//! chunk, so an executor never pays for nodes outside the chunks it runs,
//! and its receive descriptor drains the incoming owner shards in
//! source-chunk order (chunks are contiguous in node order and senders
//! within a chunk ascend, so the concatenation is a full sort by sender —
//! same born-sorted invariant).

use crate::program::Envelope;

/// An executor-owned pool of inbox segments, keyed by node on the inline
/// path and by position within the chunk on a dispatched one.
///
/// `Program::receive` gets [`inbox`](Self::inbox) straight, and the
/// executor [`clear`](Self::clear)s the segment right after, while its
/// header is hot — so every round starts with all segments empty, without
/// a separate cold-cache pass. Capacity is retained across rounds and
/// chunk shapes, so the steady state allocates nothing.
#[derive(Debug)]
pub(crate) struct ChunkInboxes<M> {
    segs: Vec<Vec<Envelope<M>>>,
}

impl<M> ChunkInboxes<M> {
    pub(crate) fn new() -> Self {
        ChunkInboxes { segs: Vec::new() }
    }

    /// Make at least `len` segments addressable (pool only ever grows).
    pub(crate) fn ensure(&mut self, len: usize) {
        if self.segs.len() < len {
            self.segs.resize_with(len, Vec::new);
        }
    }

    /// Deliver one envelope into segment `local`. Callers guarantee
    /// envelopes for a fixed recipient arrive in ascending sender order.
    #[inline]
    pub(crate) fn push(&mut self, local: u32, env: Envelope<M>) {
        self.segs[local as usize].push(env);
    }

    /// The inbox in segment `local`, sorted by sender.
    ///
    /// Sortedness is free: senders transmit in ascending order, so
    /// envelopes arrive in sender order (debug-asserted here — a
    /// comparison sort would be redundant work).
    #[inline]
    pub(crate) fn inbox(&self, local: usize) -> &[Envelope<M>] {
        let slice = &self.segs[local];
        debug_assert!(
            slice.windows(2).all(|w| w[0].from <= w[1].from),
            "chunk inbox {local} must arrive sorted by sender"
        );
        slice
    }

    /// Restore the sorted-by-sender invariant of segment `local` after an out-of-order delivery (a fault-delayed
    /// message arriving after the regular ascending-sender pass). Stable,
    /// so envelopes from the same sender keep their staging order — every
    /// chunking stages in the same order and therefore ends with identical
    /// inboxes.
    #[inline]
    pub(crate) fn resort(&mut self, local: usize) {
        self.segs[local].sort_by_key(|e| e.from);
    }

    /// Clear segment `local` (capacity retained).
    #[inline]
    pub(crate) fn clear(&mut self, local: usize) {
        self.segs[local].clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awake_graphs::NodeId;

    #[test]
    fn chunk_inboxes_concatenate_source_runs_in_order() {
        let mut c: ChunkInboxes<u64> = ChunkInboxes::new();
        c.ensure(2);
        // source chunk 0 (senders 0, 1), then source chunk 1 (sender 5):
        // concatenation per recipient stays sorted by sender.
        c.push(
            0,
            Envelope {
                from: NodeId(0),
                msg: 10,
            },
        );
        c.push(
            1,
            Envelope {
                from: NodeId(1),
                msg: 11,
            },
        );
        c.push(
            0,
            Envelope {
                from: NodeId(1),
                msg: 12,
            },
        );
        c.push(
            0,
            Envelope {
                from: NodeId(5),
                msg: 50,
            },
        );
        assert_eq!(
            c.inbox(0)
                .iter()
                .map(|e| (e.from.0, e.msg))
                .collect::<Vec<_>>(),
            vec![(0, 10), (1, 12), (5, 50)]
        );
        assert_eq!(c.inbox(1).len(), 1);
        c.clear(0);
        assert!(c.inbox(0).is_empty(), "cleared, capacity retained");
        // growing the pool keeps existing segments intact
        c.ensure(5);
        assert_eq!(c.inbox(1).len(), 1);
    }
}

//! The wake-up scheduler: a hierarchical bucket (timing-wheel) queue.
//!
//! The executors must repeatedly answer "which round is next, and who wakes
//! then?" over the full `u64` round space — the paper's schedules jump by
//! polynomially long sleeps, so the queue has to skip-ahead in O(awake)
//! rather than scan rounds. A binary heap does this in `O(log n)` per
//! node-round with poor locality; this wheel does it in amortized `O(1)`
//! per event with a handful of word-sized bitmap probes per advance.
//!
//! Rounds are split into [`LEVELS`] groups of [`GROUP_BITS`] bits. An event
//! is bucketed at the *highest* group in which its round differs from the
//! wheel's current position, so level 0 holds the rounds of the current
//! 64-round block exactly, and higher levels hold coarser "cascade later"
//! bags. A per-level occupancy bitmap makes "lowest non-empty bucket" a
//! `trailing_zeros` instruction. Advancing to the next event drains at most
//! one bucket per level back down (each event cascades at most [`LEVELS`]
//! times over its lifetime), and every bucket is a reusable `Vec`, so the
//! steady state allocates nothing.
//!
//! The dominant action of dense algorithm phases — [`Action::Stay`] — never
//! touches this structure at all: the executors keep a *fast lane* of nodes
//! waking at `previous round + 1` and only consult the wheel for genuine
//! sleeps (see `Engine::run`).
//!
//! [`Action::Stay`]: crate::Action::Stay

use crate::Round;

/// Bits per wheel level; each level has `2^GROUP_BITS` buckets.
const GROUP_BITS: u32 = 6;
/// Buckets per level (64, so one occupancy word per level).
const SLOTS: usize = 1 << GROUP_BITS;
/// Levels needed to cover all of `u64` (`11 * 6 = 66 ≥ 64`).
const LEVELS: usize = 11;

/// A hierarchical bucket queue of `(wake round, node)` events.
#[derive(Debug)]
pub(crate) struct WakeWheel {
    /// `buckets[level * SLOTS + slot]`; reused across the run.
    buckets: Vec<Vec<(Round, u32)>>,
    /// One bit per bucket, per level.
    occupied: [u64; LEVELS],
    /// The last round handed out; all stored events are strictly later.
    current: Round,
    /// Total events stored.
    len: usize,
    /// Memoized earliest pending round; `None` = unknown (recomputed and
    /// re-memoized by the next [`peek_min`](Self::peek_min)).
    cached_min: Option<Round>,
}

impl WakeWheel {
    pub(crate) fn new() -> Self {
        WakeWheel {
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            current: 0,
            len: 0,
            cached_min: None,
        }
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All pending `(round, node)` events, sorted by `(round, node)` — the
    /// wheel's logical content for checkpointing. Bucket layout is relative
    /// to the wheel's running position, so snapshots store this canonical
    /// form and restore rebuilds a fresh wheel from it: pop order and peek
    /// results (all the executors observe) are position-independent.
    pub(crate) fn pending_events(&self) -> Vec<(Round, u32)> {
        let mut events: Vec<(Round, u32)> = Vec::with_capacity(self.len);
        for bucket in &self.buckets {
            events.extend_from_slice(bucket);
        }
        events.sort_unstable();
        events
    }

    /// The level at which `round` is bucketed relative to `current`:
    /// the highest 6-bit group where they differ.
    #[inline]
    fn level_of(&self, round: Round) -> usize {
        let diff = round ^ self.current;
        debug_assert!(diff != 0, "events must be strictly in the future");
        ((63 - diff.leading_zeros()) / GROUP_BITS) as usize
    }

    /// Queue `node` to wake at `round`.
    ///
    /// `round` must be strictly greater than the last round handed out by
    /// [`pop_next`](Self::pop_next) — the executors validate sleeps before
    /// scheduling them.
    #[inline]
    pub(crate) fn schedule(&mut self, round: Round, node: u32) {
        debug_assert!(
            round > self.current,
            "schedule({round}) ≤ current ({})",
            self.current
        );
        let level = self.level_of(round);
        let slot = (round >> (GROUP_BITS * level as u32)) as usize & (SLOTS - 1);
        self.buckets[level * SLOTS + slot].push((round, node));
        self.occupied[level] |= 1 << slot;
        self.len += 1;
        if self.len == 1 {
            // Only event stored: trivially the minimum.
            self.cached_min = Some(round);
        } else if let Some(m) = self.cached_min {
            if round < m {
                self.cached_min = Some(round);
            }
        }
        // A `None` memo must stay `None`: it means "unknown", and events this
        // schedule never saw may be pending earlier than `round`. Promoting it
        // to `Some(round)` here would make peek_min report a too-late minimum
        // after a pop_next + schedule sequence. Only a full recomputation
        // (peek_min) may re-arm the memo.
    }

    /// Queue a batch of `(wake round, node)` events.
    ///
    /// The batched form of [`schedule`](Self::schedule): the executor
    /// applies each chunk's sleep partial in one call, chunk by chunk in
    /// node order, so wake-ups enter the wheel in node order whatever the
    /// chunking. Every event must be strictly in the future, like
    /// `schedule`.
    #[inline]
    pub(crate) fn schedule_all(&mut self, events: impl IntoIterator<Item = (Round, u32)>) {
        for (round, node) in events {
            self.schedule(round, node);
        }
    }

    /// The earliest pending round, without advancing the wheel.
    ///
    /// No cascade: the executors use this to decide whether the wheel
    /// participates in a stay-lane round *before* committing the wheel's
    /// position, so sleeps scheduled while processing that round stay
    /// insertable. Amortized O(1): `schedule` keeps a valid memo tight,
    /// and only a `pop_next` invalidates it, so at most one recomputation
    /// — a scan of the lowest occupied bucket, where the global minimum
    /// must live — happens per pop.
    pub(crate) fn peek_min(&mut self) -> Option<Round> {
        if self.len == 0 {
            return None;
        }
        if let Some(m) = self.cached_min {
            return Some(m);
        }
        let min = if self.occupied[0] != 0 {
            let slot = self.occupied[0].trailing_zeros() as usize;
            Some((self.current & !((SLOTS as u64) - 1)) | slot as u64)
        } else {
            let level = (1..LEVELS)
                .find(|&l| self.occupied[l] != 0)
                .expect("len > 0 implies some occupied level");
            let slot = self.occupied[level].trailing_zeros() as usize;
            self.buckets[level * SLOTS + slot]
                .iter()
                .map(|&(r, _)| r)
                .min()
        };
        self.cached_min = min;
        min
    }

    /// Advance to the earliest pending round, append its nodes to `out`
    /// (in arbitrary order — callers sort), and return the round.
    ///
    /// A gap of any width — one round or 10¹² — costs a **single pass**
    /// over one bucket: when the current 64-round block is empty, the
    /// lowest occupied bucket of the lowest non-empty level is drained
    /// once, virtual time is rebased directly to that bucket's minimum
    /// round, and only the bucket's later events are re-inserted (each
    /// lands at its final level relative to the new position, no
    /// level-by-level trickle). Executor cost is therefore proportional to
    /// awake *events*, not elapsed rounds — the event-compression the
    /// Sleeping model's accounting assumes.
    pub(crate) fn pop_next(&mut self, out: &mut Vec<u32>) -> Option<Round> {
        if self.len == 0 {
            return None;
        }
        // Level 0 buckets are exact rounds inside the current 64-round
        // block; anything at a higher level is in a later block.
        if self.occupied[0] != 0 {
            let slot = self.occupied[0].trailing_zeros() as usize;
            let round = (self.current & !((SLOTS as u64) - 1)) | slot as u64;
            let bucket = &mut self.buckets[slot];
            self.len -= bucket.len();
            for &(r, node) in bucket.iter() {
                debug_assert_eq!(r, round, "level-0 buckets hold one exact round");
                out.push(node);
            }
            bucket.clear();
            self.occupied[0] &= !(1 << slot);
            self.current = round;
            // Invalidate at the point of return, not at entry: cascades
            // re-insert events through `schedule`, which would otherwise
            // re-memoize the very round being popped here — and peek_min
            // would then report an already-popped round, making the
            // executors skip coinciding wake-ups.
            self.cached_min = None;
            return Some(round);
        }
        // Batch-cascade across the idle gap in one pass. The lowest
        // occupied bucket of the lowest non-empty level holds the global
        // minimum: lower levels are empty, higher slots of this level hold
        // strictly larger group values, and higher levels differ from
        // `current` in a more significant group. Every event of that
        // minimum round shares the bucket (equal rounds bucket together),
        // so draining it once yields the full wake set.
        let level = (1..LEVELS)
            .find(|&l| self.occupied[l] != 0)
            .expect("len > 0 implies some occupied level");
        let slot = self.occupied[level].trailing_zeros() as usize;
        let mut bucket = std::mem::take(&mut self.buckets[level * SLOTS + slot]);
        self.occupied[level] &= !(1 << slot);
        self.len -= bucket.len();
        let round = bucket
            .iter()
            .map(|&(r, _)| r)
            .min()
            .expect("occupied buckets are non-empty");
        // Rebase virtual time directly to the jump target. Other buckets
        // keep their (level, slot): their groups above `level` still match
        // `current`'s (unchanged), and at `level` they still differ.
        self.current = round;
        for &(r, node) in bucket.iter() {
            if r == round {
                out.push(node);
            } else {
                // Strictly later: re-insert at its final level relative to
                // the new position — one hop, not a per-level trickle.
                self.schedule(r, node);
            }
        }
        bucket.clear();
        // Return the drained Vec so its capacity is reused.
        self.buckets[level * SLOTS + slot] = bucket;
        // Same point-of-return invalidation as the level-0 path: the
        // re-inserting `schedule` calls above may have re-armed the memo
        // with a round that is not the global minimum.
        self.cached_min = None;
        Some(round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(w: &mut WakeWheel) -> Vec<(Round, Vec<u32>)> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        while let Some(r) = w.pop_next(&mut batch) {
            batch.sort_unstable();
            out.push((r, std::mem::take(&mut batch)));
        }
        out
    }

    #[test]
    fn orders_rounds_and_batches_ties() {
        let mut w = WakeWheel::new();
        for (r, v) in [(5u64, 0u32), (1, 1), (5, 2), (100, 3), (1, 4)] {
            w.schedule(r, v);
        }
        let got = drain_all(&mut w);
        assert_eq!(got, vec![(1, vec![1, 4]), (5, vec![0, 2]), (100, vec![3])]);
        assert!(w.is_empty());
    }

    #[test]
    fn skip_ahead_over_huge_gaps() {
        let mut w = WakeWheel::new();
        w.schedule(1, 0);
        let mut batch = Vec::new();
        assert_eq!(w.pop_next(&mut batch), Some(1));
        w.schedule(1_000_000_000_000, 1);
        w.schedule(u64::MAX / 4, 2);
        batch.clear();
        assert_eq!(w.pop_next(&mut batch), Some(1_000_000_000_000));
        assert_eq!(batch, vec![1]);
        batch.clear();
        assert_eq!(w.pop_next(&mut batch), Some(u64::MAX / 4));
        assert_eq!(batch, vec![2]);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut w = WakeWheel::new();
        w.schedule(2, 0);
        w.schedule(2, 1);
        let mut batch = Vec::new();
        assert_eq!(w.pop_next(&mut batch), Some(2));
        batch.sort_unstable();
        assert_eq!(batch, vec![0, 1]);
        // schedule relative to the new position, spanning block boundaries
        w.schedule(3, 0);
        w.schedule(64, 1);
        w.schedule(65, 2);
        batch.clear();
        assert_eq!(w.pop_next(&mut batch), Some(3));
        assert_eq!(batch, vec![0]);
        batch.clear();
        assert_eq!(w.pop_next(&mut batch), Some(64));
        assert_eq!(batch, vec![1]);
        batch.clear();
        assert_eq!(w.pop_next(&mut batch), Some(65));
        assert_eq!(batch, vec![2]);
        assert_eq!(w.pop_next(&mut batch), None);
    }

    /// Regression: a cascading pop_next re-inserts events via `schedule`,
    /// which used to re-memoize the very round being popped; peek_min then
    /// returned the already-popped round. Wakes at 65/66 from current = 0
    /// cascade across the first 64-round block boundary.
    #[test]
    fn peek_is_fresh_after_a_cascading_pop() {
        let mut w = WakeWheel::new();
        w.schedule(65, 0);
        w.schedule(66, 1);
        let mut batch = Vec::new();
        assert_eq!(w.pop_next(&mut batch), Some(65));
        assert_eq!(batch, vec![0]);
        assert_eq!(w.peek_min(), Some(66), "memo must not hold popped round");
        batch.clear();
        assert_eq!(w.pop_next(&mut batch), Some(66));
        assert_eq!(batch, vec![1]);
        assert_eq!(w.peek_min(), None);
    }

    /// Regression: after a pop leaves older events pending, a `schedule` of
    /// a *later* round must not re-arm the memo — peek_min would otherwise
    /// report the freshly scheduled round and hide the older event.
    #[test]
    fn schedule_after_pop_does_not_hide_older_events() {
        let mut w = WakeWheel::new();
        w.schedule(66, 0);
        w.schedule(70, 1);
        let mut batch = Vec::new();
        assert_eq!(w.pop_next(&mut batch), Some(66));
        w.schedule(100, 2);
        assert_eq!(w.peek_min(), Some(70), "70 is still pending, not 100");
        batch.clear();
        assert_eq!(w.pop_next(&mut batch), Some(70));
        assert_eq!(batch, vec![1]);
        assert_eq!(w.peek_min(), Some(100));
    }

    /// A wheel rebuilt from `pending_events` must be observationally equal
    /// to the original — the checkpoint/restore contract for the scheduler.
    #[test]
    fn pending_events_rebuild_an_equivalent_wheel() {
        let mut w = WakeWheel::new();
        w.schedule(65, 0);
        w.schedule(66, 1);
        w.schedule(1 << 40, 2);
        let mut batch = Vec::new();
        assert_eq!(w.pop_next(&mut batch), Some(65));
        w.schedule(66, 3);
        let events = w.pending_events();
        assert_eq!(events, vec![(66, 1), (66, 3), (1 << 40, 2)]);
        let mut rebuilt = WakeWheel::new();
        rebuilt.schedule_all(events);
        assert_eq!(rebuilt.peek_min(), w.peek_min());
        assert_eq!(drain_all(&mut rebuilt), drain_all(&mut w));
    }

    #[test]
    fn schedule_all_equals_repeated_schedule() {
        let events = [(5u64, 0u32), (1, 1), (70, 2), (5, 3), (1 << 30, 4)];
        let mut batched = WakeWheel::new();
        batched.schedule_all(events);
        let mut single = WakeWheel::new();
        for (r, v) in events {
            single.schedule(r, v);
        }
        assert_eq!(batched.peek_min(), single.peek_min());
        assert_eq!(drain_all(&mut batched), drain_all(&mut single));
    }

    /// The batch-cascade drains one bucket per jump: events sharing the far
    /// bucket but due at different rounds must separate correctly, and the
    /// memo must be fresh after the jump (both historical failure modes).
    #[test]
    fn batch_cascade_separates_colocated_far_events() {
        let mut w = WakeWheel::new();
        let base = 1u64 << 40;
        // all four share the level-6-ish bucket relative to current = 0
        w.schedule(base + 5, 0);
        w.schedule(base + 5, 1);
        w.schedule(base + 70, 2);
        w.schedule(base + (1 << 20), 3);
        let mut batch = Vec::new();
        assert_eq!(w.pop_next(&mut batch), Some(base + 5));
        batch.sort_unstable();
        assert_eq!(batch, vec![0, 1]);
        assert_eq!(w.peek_min(), Some(base + 70), "memo fresh after the jump");
        batch.clear();
        assert_eq!(w.pop_next(&mut batch), Some(base + 70));
        assert_eq!(batch, vec![2]);
        batch.clear();
        assert_eq!(w.pop_next(&mut batch), Some(base + (1 << 20)));
        assert_eq!(batch, vec![3]);
        assert!(w.is_empty());
    }

    #[test]
    fn agrees_with_a_reference_heap_on_random_workloads() {
        use awake_graphs::rng::Rng;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut rng = Rng::seed_from_u64(99);
        for case in 0..50 {
            let mut w = WakeWheel::new();
            let mut heap: BinaryHeap<Reverse<(Round, u32)>> = BinaryHeap::new();
            let mut current = 0u64;
            let mut pending = 0usize;
            let mut node = 0u32;
            for _ in 0..200 {
                // schedule a burst of future events, then pop one batch
                for _ in 0..rng.gen_range(0..4) {
                    let gap = match rng.bounded_u64(3) {
                        0 => 1 + rng.bounded_u64(3),
                        1 => 1 + rng.bounded_u64(200),
                        _ => 1 + rng.bounded_u64(1 << 40),
                    };
                    w.schedule(current + gap, node);
                    heap.push(Reverse((current + gap, node)));
                    node += 1;
                    pending += 1;
                }
                // Cross-check peek_min against the heap's min between every
                // schedule burst and pop, so stale memos (e.g. left behind
                // by a cascade) can't hide: peek must agree whether it is
                // answered from the memo or recomputed.
                assert_eq!(
                    w.peek_min(),
                    heap.peek().map(|&Reverse((r, _))| r),
                    "case {case} peek after schedules"
                );
                if pending == 0 {
                    continue;
                }
                let mut batch = Vec::new();
                let r = w.pop_next(&mut batch).expect("pending events");
                assert_eq!(
                    w.peek_min(),
                    heap.iter()
                        .map(|&Reverse((hr, _))| hr)
                        .filter(|&hr| hr != r)
                        .min(),
                    "case {case} peek after pop at {r}"
                );
                batch.sort_unstable();
                let mut expect = Vec::new();
                let Reverse((er, _)) = *heap.peek().unwrap();
                while let Some(&Reverse((hr, hv))) = heap.peek() {
                    if hr != er {
                        break;
                    }
                    heap.pop();
                    expect.push(hv);
                }
                expect.sort_unstable();
                assert_eq!(r, er, "case {case}");
                assert_eq!(batch, expect, "case {case} round {r}");
                pending -= batch.len();
                current = r;
            }
        }
    }
}

//! Awake-complexity and message accounting.

use crate::Round;
use awake_graphs::NodeId;
use std::collections::BTreeMap;

/// Resource accounting for one execution.
///
/// The two headline numbers of the Sleeping model are
/// [`max_awake`](Metrics::max_awake) (the *awake complexity*) and
/// [`rounds`](Metrics::rounds) (the *round complexity*). Spans attribute
/// awake rounds to algorithm phases (driven by [`crate::Program::span`]),
/// which is how the experiment harness reports per-lemma budgets.
///
/// Span labels are interned on first use: each distinct label gets a small
/// integer id and a dense per-node counter column, so the executor's
/// per-node-round accounting is a table lookup plus an increment — no
/// per-node map structures on the hot path. Executions that attribute the
/// same rounds to the same spans in the same order compare equal, which is
/// what the serial/threaded bit-for-bit equivalence tests assert.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of awake rounds per node.
    pub awake: Vec<u64>,
    /// Last round at which any node was awake (round complexity).
    pub rounds: Round,
    /// Messages handed to the engine.
    pub messages_sent: u64,
    /// Messages received by an awake node.
    pub messages_delivered: u64,
    /// Messages lost because the recipient was asleep or halted.
    pub messages_lost: u64,
    /// Messages discarded in flight by an injected fault
    /// ([`FaultPlan`](crate::FaultPlan) drops — distinct from the model's
    /// own [`messages_lost`](Metrics::messages_lost)).
    pub faults_dropped: u64,
    /// Messages duplicated in flight by an injected fault (each copy then
    /// delivered or lost normally).
    pub faults_duplicated: u64,
    /// Messages delayed in flight by an injected fault.
    pub faults_delayed: u64,
    /// Node crash-restarts injected by a fault plan.
    pub faults_crashed: u64,
    /// Rounds in which at least one node was recovering from a crash (the
    /// crashed round itself, or a post-crash awake round before the node's
    /// first non-`Stay` action). Zero on fault-free runs — the counter is
    /// only touched on the fault-monomorphized executor paths.
    pub recovery_rounds: u64,
    /// Awake node-rounds spent recovering: after a crash-restart, every
    /// awake round of that node until its first non-`Stay` action. This is
    /// the *energy overhead* of recovery — the quantity the degraded
    /// budgets bound.
    pub recovery_awake: u64,
    /// Total awake node-round events executed — the Sleeping model's cost
    /// unit, and what the event-compressed executors' work is proportional
    /// to. Always equals [`total_awake`](Metrics::total_awake), but kept as
    /// a running counter so reports read it in O(1).
    pub awake_events: u64,
    /// Virtual rounds jumped over without per-round work: rounds in which
    /// no node was awake, skipped by the wheel's batch-cascade. Together
    /// with [`rounds`](Metrics::rounds) this quantifies the compression
    /// (`rounds = executed rounds + rounds_skipped` for a run that starts
    /// at round 1).
    pub rounds_skipped: u64,
    /// Interned span labels, in first-seen order.
    span_names: Vec<&'static str>,
    /// One dense per-node counter column per interned span:
    /// `span_counts[s][v]` = awake rounds of node `v` attributed to span `s`.
    span_counts: Vec<Vec<u64>>,
}

impl Metrics {
    /// Fresh metrics for `n` nodes (also useful for external accounting,
    /// e.g. the Lemma 8 composition helper in `awake-core`).
    pub fn new(n: usize) -> Self {
        Metrics {
            awake: vec![0; n],
            rounds: 0,
            messages_sent: 0,
            messages_delivered: 0,
            messages_lost: 0,
            faults_dropped: 0,
            faults_duplicated: 0,
            faults_delayed: 0,
            faults_crashed: 0,
            recovery_rounds: 0,
            recovery_awake: 0,
            awake_events: 0,
            rounds_skipped: 0,
            span_names: Vec::new(),
            span_counts: Vec::new(),
        }
    }

    /// The span table for checkpointing: `(labels, per-node counter columns)`.
    pub(crate) fn span_data(&self) -> (&[&'static str], &[Vec<u64>]) {
        (&self.span_names, &self.span_counts)
    }

    /// Overwrite the span table from a checkpoint. Content-based interning
    /// in [`span_id`](Metrics::span_id) keeps restored labels equal to the
    /// originals even though they are distinct allocations.
    pub(crate) fn restore_span_data(&mut self, names: Vec<&'static str>, counts: Vec<Vec<u64>>) {
        debug_assert_eq!(names.len(), counts.len());
        self.span_names = names;
        self.span_counts = counts;
    }

    /// The id of `span`, interning it on first use.
    ///
    /// Labels come from [`crate::Program::span`], so there are a handful per
    /// execution: a linear scan (pointer comparison first) beats any map.
    #[inline]
    fn span_id(&mut self, span: &'static str) -> usize {
        if let Some(id) = self
            .span_names
            .iter()
            .position(|&s| std::ptr::eq(s, span) || s == span)
        {
            return id;
        }
        self.span_names.push(span);
        self.span_counts.push(vec![0; self.awake.len()]);
        self.span_names.len() - 1
    }

    /// Record one awake round for `v`, attributed to `span`.
    #[inline]
    pub fn note_awake(&mut self, v: NodeId, span: &'static str) {
        self.awake[v.index()] += 1;
        self.awake_events += 1;
        let id = self.span_id(span);
        self.span_counts[id][v.index()] += 1;
    }

    /// Record one awake round for each of `nodes`, all attributed to
    /// `span` (interned once for the whole run of nodes).
    #[inline]
    pub(crate) fn note_awake_all(&mut self, nodes: &[u32], span: &'static str) {
        let id = self.span_id(span);
        self.awake_events += nodes.len() as u64;
        let counts = &mut self.span_counts[id];
        for &v in nodes {
            self.awake[v as usize] += 1;
            counts[v as usize] += 1;
        }
    }

    /// The awake complexity: `max_v` (#rounds `v` was awake).
    pub fn max_awake(&self) -> u64 {
        self.awake.iter().copied().max().unwrap_or(0)
    }

    /// The `q`-th percentile of the per-node awake distribution
    /// (see [`percentile`]): how many rounds the typical (p50) or the
    /// near-worst (p99) node was awake — the audit columns that catch hot
    /// *nodes*, not just the maximum.
    pub fn awake_percentile(&self, q: u8) -> u64 {
        percentile(&self.awake, q)
    }

    /// Median per-node awake rounds (`awake_percentile(50)`).
    pub fn awake_p50(&self) -> u64 {
        self.awake_percentile(50)
    }

    /// 99th-percentile per-node awake rounds (`awake_percentile(99)`).
    pub fn awake_p99(&self) -> u64 {
        self.awake_percentile(99)
    }

    /// Average awake rounds per node (the *node-averaged* awake complexity).
    pub fn avg_awake(&self) -> f64 {
        if self.awake.is_empty() {
            0.0
        } else {
            self.awake.iter().sum::<u64>() as f64 / self.awake.len() as f64
        }
    }

    /// Total awake node-rounds (≈ simulation work).
    pub fn total_awake(&self) -> u64 {
        self.awake.iter().sum()
    }

    /// All span labels seen, in first-recorded order.
    pub fn span_names(&self) -> &[&'static str] {
        &self.span_names
    }

    /// Max over nodes of awake rounds attributed to `span`.
    pub fn span_max_awake(&self, span: &str) -> u64 {
        self.span_names
            .iter()
            .position(|&s| s == span)
            .map(|id| self.span_counts[id].iter().copied().max().unwrap_or(0))
            .unwrap_or(0)
    }

    /// All span labels seen, with `(max-per-node, total)` awake rounds.
    pub fn span_summary(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (id, &name) in self.span_names.iter().enumerate() {
            let col = &self.span_counts[id];
            let max = col.iter().copied().max().unwrap_or(0);
            let total: u64 = col.iter().sum();
            let e = out.entry(name).or_insert((0, 0));
            e.0 = e.0.max(max);
            e.1 += total;
        }
        out
    }
}

/// Coordinator-side wall-clock attribution of the executor's round
/// pipeline, collected by [`Engine::run_timed`](crate::Engine::run_timed).
/// A serial engine runs every round inline, so its whole run lands in
/// `partition_ns` and `inline_ns`.
///
/// The accumulators are nanosecond totals over the whole run; the
/// `*_ns_per_round` accessors divide by the number of rounds that actually
/// exercised the corresponding stage, so the numbers stay comparable across
/// runs with different inline/dispatched mixes. Attribution is from the
/// coordinator's point of view: `route`/`deliver` time includes the
/// coordinator *helping* (stealing descriptors) while it waits, which is
/// exactly the wall-clock cost a caller observes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Popping the next awake set, mass-partitioning it into chunks and
    /// publishing the round context plus per-chunk job batches.
    pub partition_ns: u64,
    /// Dispatched rounds: waiting (and helping) until every send
    /// descriptor is executed — routing, fault fate rolls, shard staging.
    pub route_ns: u64,
    /// Dispatched rounds: waiting (and helping) until every receive
    /// descriptor is executed — shard draining and `Program::receive`.
    pub deliver_ns: u64,
    /// Coordinator-side merging of partial results in chunk order: metric
    /// tallies, span attribution, trace absorption, delayed-message
    /// resolution and action application.
    pub merge_ns: u64,
    /// Rounds absorbed whole by the coordinator's inline fast path
    /// (single chunk, no descriptor traffic), end to end.
    pub inline_ns: u64,
    /// Rounds that went through the dispatched multi-chunk pipeline.
    pub dispatched_rounds: u64,
    /// Rounds taken by the inline fast path.
    pub inline_rounds: u64,
}

impl PhaseTimes {
    /// Total executed rounds covered by this accounting.
    pub fn rounds(&self) -> u64 {
        self.dispatched_rounds + self.inline_rounds
    }

    #[inline]
    fn per(ns: u64, rounds: u64) -> f64 {
        if rounds == 0 {
            0.0
        } else {
            ns as f64 / rounds as f64
        }
    }

    /// Partition time per executed round (inline and dispatched alike).
    pub fn partition_ns_per_round(&self) -> f64 {
        Self::per(self.partition_ns, self.rounds())
    }

    /// Send-descriptor (route) wait time per dispatched round.
    pub fn route_ns_per_round(&self) -> f64 {
        Self::per(self.route_ns, self.dispatched_rounds)
    }

    /// Receive-descriptor (deliver) wait time per dispatched round.
    pub fn deliver_ns_per_round(&self) -> f64 {
        Self::per(self.deliver_ns, self.dispatched_rounds)
    }

    /// Merge/apply time per dispatched round.
    pub fn merge_ns_per_round(&self) -> f64 {
        Self::per(self.merge_ns, self.dispatched_rounds)
    }

    /// Inline fast-path time per inline round.
    pub fn inline_ns_per_round(&self) -> f64 {
        Self::per(self.inline_ns, self.inline_rounds)
    }
}

/// Nearest-rank percentile of `values` (`q` in `0..=100`): the smallest
/// element with at least `⌈q·n/100⌉` elements `≤` it. `q = 0` is the
/// minimum, `q = 100` the maximum; an empty slice yields `0`. Exact and
/// deterministic — no interpolation — so report columns derived from it
/// stay byte-stable.
pub fn percentile(values: &[u64], q: u8) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    percentile_of_sorted(&sorted, q)
}

/// [`percentile`] over an already **ascending-sorted** slice — the form
/// for callers reading several ranks out of one sort (e.g. a report row's
/// p50 and p99 columns).
pub fn percentile_of_sorted(sorted: &[u64], q: u8) -> u64 {
    debug_assert!(q <= 100, "percentile out of range: {q}");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * q as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation() {
        let mut m = Metrics::new(3);
        m.note_awake(NodeId(0), "a");
        m.note_awake(NodeId(0), "a");
        m.note_awake(NodeId(1), "b");
        assert_eq!(m.max_awake(), 2);
        assert_eq!(m.total_awake(), 3);
        assert_eq!(m.awake_events, m.total_awake(), "running counter agrees");
        assert!((m.avg_awake() - 1.0).abs() < 1e-9);
        assert_eq!(m.span_max_awake("a"), 2);
        assert_eq!(m.span_max_awake("missing"), 0);
        let s = m.span_summary();
        assert_eq!(s["a"], (2, 2));
        assert_eq!(s["b"], (1, 1));
    }

    #[test]
    fn empty_metrics() {
        let m = Metrics::new(0);
        assert_eq!(m.max_awake(), 0);
        assert_eq!(m.avg_awake(), 0.0);
        assert_eq!(m.awake_p50(), 0);
        assert_eq!(m.awake_p99(), 0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 0), 7);
        assert_eq!(percentile(&[7], 100), 7);
        // 1..=100: pQ is exactly Q.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&v, 1), 1);
        // Unsorted input, even length: nearest-rank takes the lower of the
        // two middle elements.
        assert_eq!(percentile(&[9, 1, 3, 7], 50), 3);
        assert_eq!(percentile(&[9, 1, 3, 7], 75), 7);
    }

    #[test]
    fn awake_percentiles_summarize_the_distribution() {
        let mut m = Metrics::new(10);
        // one hot node, nine cold ones
        for _ in 0..100 {
            m.note_awake(NodeId(0), "hot");
        }
        for v in 1..10u32 {
            m.note_awake(NodeId(v), "cold");
        }
        assert_eq!(m.max_awake(), 100);
        assert_eq!(m.awake_p50(), 1);
        assert_eq!(m.awake_p99(), 100);
        assert_eq!(m.awake_percentile(90), 1);
    }

    #[test]
    fn interning_is_by_content_and_first_seen_order() {
        let mut m = Metrics::new(2);
        // distinct allocations with identical content must intern together
        let a1: &'static str = Box::leak("phase-x".to_string().into_boxed_str());
        let a2: &'static str = Box::leak("phase-x".to_string().into_boxed_str());
        m.note_awake(NodeId(0), a1);
        m.note_awake(NodeId(1), a2);
        m.note_awake(NodeId(0), "other");
        assert_eq!(m.span_names(), &["phase-x", "other"]);
        assert_eq!(m.span_summary()["phase-x"], (1, 2));
    }

    #[test]
    fn equality_tracks_span_attribution() {
        let mk = || {
            let mut m = Metrics::new(2);
            m.note_awake(NodeId(0), "a");
            m.note_awake(NodeId(1), "b");
            m
        };
        assert_eq!(mk(), mk());
        let mut other = mk();
        other.note_awake(NodeId(1), "a");
        assert_ne!(mk(), other);
    }
}

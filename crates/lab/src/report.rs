//! The shared report model: one schema for suite runs and micro benches.
//!
//! Two layers:
//!
//! * [`Report`] / [`ScenarioReport`] / [`ScenarioMetrics`] — the output of
//!   a suite run (`awake-lab/report/v2`). The *canonical* JSON form
//!   ([`Report::canonical_json`]) contains only deterministic fields and is
//!   byte-stable across runs at a fixed seed; [`Report::to_json`] adds the
//!   per-scenario wall time and allocation counts.
//! * [`PerfStats`] / [`BenchReport`] — the micro-bench schema
//!   (`awake-lab/bench/v1`, the shape of `BENCH_engine.json`). The bench
//!   crate emits through these types, so the CI baseline differ and the
//!   suite runner read one format.

use awake_core::compose::Composition;
use awake_sleeping::{percentile_of_sorted, Metrics, PhaseTimes};
use std::fmt::Write as _;

/// Deterministic per-scenario measurements.
///
/// Every field is a pure function of (scenario, seed): two runs of the same
/// scenario — serial or sharded, debug or release — must compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMetrics {
    /// Round complexity (last round any node was awake).
    pub rounds: u64,
    /// Awake complexity (max over nodes of awake rounds).
    pub max_awake: u64,
    /// Median of the per-node awake distribution (nearest rank).
    pub awake_p50: u64,
    /// 99th percentile of the per-node awake distribution (nearest rank) —
    /// together with `awake_p50` this catches hot *nodes*, not just the
    /// maximum.
    pub awake_p99: u64,
    /// Total awake node-rounds (≈ simulation work).
    pub total_awake: u64,
    /// Node-averaged awake rounds.
    pub avg_awake: f64,
    /// Messages handed to the engine.
    pub messages_sent: u64,
    /// Messages lost to sleeping/halted recipients.
    pub messages_lost: u64,
    /// Messages dropped by an injected [`awake_sleeping::FaultPlan`]
    /// (`0` on fault-free runs — distinct from `messages_lost`, which
    /// counts the model's own asleep-recipient losses).
    pub faults_dropped: u64,
    /// Messages duplicated by fault injection.
    pub faults_duplicated: u64,
    /// Messages delayed by fault injection.
    pub faults_delayed: u64,
    /// Node crash-restarts injected.
    pub faults_crashed: u64,
    /// Rounds in which at least one node was recovering from a crash
    /// (zero on fault-free runs).
    pub recovery_rounds: u64,
    /// Awake node-rounds spent recovering from crashes — the energy
    /// overhead of recovery, the quantity the degraded budgets bound
    /// (zero on fault-free runs).
    pub recovery_awake: u64,
    /// Total awake node-round events executed — the Sleeping model's cost
    /// unit, which the event-compressed executors' wall time is
    /// proportional to (equals `total_awake`; kept as its own column so
    /// the compression gate reads it without re-deriving).
    pub awake_events: u64,
    /// Virtual rounds jumped without per-round work (no node awake):
    /// `rounds − rounds_skipped` is the number of rounds actually executed.
    pub rounds_skipped: u64,
}

impl ScenarioMetrics {
    /// Collect from a single engine run (one sort serves both percentile
    /// columns).
    pub fn from_metrics(m: &Metrics) -> Self {
        let mut sorted = m.awake.clone();
        sorted.sort_unstable();
        ScenarioMetrics {
            rounds: m.rounds,
            max_awake: m.max_awake(),
            awake_p50: percentile_of_sorted(&sorted, 50),
            awake_p99: percentile_of_sorted(&sorted, 99),
            total_awake: m.total_awake(),
            avg_awake: m.avg_awake(),
            messages_sent: m.messages_sent,
            messages_lost: m.messages_lost,
            faults_dropped: m.faults_dropped,
            faults_duplicated: m.faults_duplicated,
            faults_delayed: m.faults_delayed,
            faults_crashed: m.faults_crashed,
            recovery_rounds: m.recovery_rounds,
            recovery_awake: m.recovery_awake,
            awake_events: m.awake_events,
            rounds_skipped: m.rounds_skipped,
        }
    }

    /// Collect from a staged pipeline (Lemma 8 additive accounting: the
    /// percentiles are taken over the per-node sums across stages, and the
    /// fault/recovery counters sum like every other quantity).
    pub fn from_composition(c: &Composition) -> Self {
        let mut per_node = c.awake_per_node();
        let (total_awake, max_awake) = (per_node.iter().sum(), c.max_awake());
        per_node.sort_unstable();
        ScenarioMetrics {
            rounds: c.rounds(),
            max_awake,
            awake_p50: percentile_of_sorted(&per_node, 50),
            awake_p99: percentile_of_sorted(&per_node, 99),
            total_awake,
            avg_awake: c.avg_awake(),
            messages_sent: c.messages_sent(),
            messages_lost: c.messages_lost(),
            faults_dropped: c.faults_dropped(),
            faults_duplicated: c.faults_duplicated(),
            faults_delayed: c.faults_delayed(),
            faults_crashed: c.faults_crashed(),
            recovery_rounds: c.recovery_rounds(),
            recovery_awake: c.recovery_awake(),
            awake_events: c.awake_events(),
            rounds_skipped: c.rounds_skipped(),
        }
    }
}

/// Non-deterministic measurements: excluded from the canonical JSON form
/// and from determinism comparisons.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    /// Wall-clock time for the scenario (graph build + solve + validate).
    pub wall_ns: f64,
    /// Heap allocations during the scenario, when the host binary installs
    /// a counting allocator (see [`crate::runner::Runner::with_alloc_probe`]);
    /// `0` otherwise. Attribution is only exact on a serial runner.
    pub allocations: u64,
}

/// The result of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (unique within the suite).
    pub name: String,
    /// Problem label ([`crate::scenario::ProblemKind::key`]).
    pub problem: &'static str,
    /// Graph-family label ([`crate::scenario::GraphFamily::key`]).
    pub family: String,
    /// Solver label ([`crate::scenario::Algo::key`]).
    pub algo: String,
    /// The derived per-scenario RNG seed actually used.
    pub seed: u64,
    /// Nodes in the built graph.
    pub n: usize,
    /// Edges in the built graph.
    pub m: usize,
    /// Whether the problem validator accepted the outputs.
    pub valid: bool,
    /// The closed-form awake budget of (algo × problem class × graph) —
    /// [`awake_core::bounds::budget_for`] with this scenario's parameters.
    pub awake_bound: u64,
    /// The closed-form round budget, same source.
    pub round_bound: u64,
    /// The audit verdict: `max_awake ≤ awake_bound && rounds ≤
    /// round_bound`. `suite --audit` fails on any `false`.
    pub bound_ok: bool,
    /// Deterministic measurements.
    pub metrics: ScenarioMetrics,
    /// Wall time / allocations (non-deterministic).
    pub timing: Timing,
}

/// The result of a suite run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Suite name (preset name, or a caller-chosen label).
    pub suite: String,
    /// The suite seed every scenario seed was derived from.
    pub seed: u64,
    /// Per-scenario results, in suite order (independent of sharding).
    pub scenarios: Vec<ScenarioReport>,
}

/// Schema tag of [`Report`] JSON documents. `v2` added the budget-audit
/// columns (`awake_bound`, `round_bound`, `bound_ok`) and the per-node
/// awake percentiles (`awake_p50`, `awake_p99`); `v3` added the four
/// fault-injection counters (`faults_dropped`, `faults_duplicated`,
/// `faults_delayed`, `faults_crashed`) to every scenario row; `v4` added
/// the event-compression counters (`awake_events`, `rounds_skipped`);
/// `v5` added the crash-recovery counters (`recovery_rounds`,
/// `recovery_awake` — zero on fault-free rows) and made the budget columns
/// of fault-injected rows carry the *degraded* budgets
/// ([`awake_core::bounds::degraded_budget_for`]), so `bound_ok` is a real
/// gate on every row — see the migration notes in `CHANGES.md`.
pub const REPORT_SCHEMA: &str = "awake-lab/report/v5";
/// Schema tag of [`BenchReport`] JSON documents (`BENCH_engine.json`).
pub const BENCH_SCHEMA: &str = "awake-lab/bench/v1";

impl Report {
    /// Full JSON document, including per-scenario timing.
    pub fn to_json(&self) -> String {
        self.json(true)
    }

    /// Deterministic JSON document: timing omitted. Byte-stable across
    /// runs, executors, shard counts, and build profiles at a fixed seed —
    /// the form the golden-snapshot test pins.
    pub fn canonical_json(&self) -> String {
        self.json(false)
    }

    fn json(&self, timings: bool) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": \"{REPORT_SCHEMA}\",\n  \"suite\": {},\n  \"seed\": {},\n  \"scenarios\": [",
            json_str(&self.suite),
            self.seed
        );
        for (i, s) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": {}, \"problem\": {}, \"family\": {}, \"algo\": {}, \
                 \"seed\": {}, \"n\": {}, \"m\": {}, \"valid\": {}, \
                 \"rounds\": {}, \"max_awake\": {}, \"awake_p50\": {}, \"awake_p99\": {}, \
                 \"total_awake\": {}, \"avg_awake\": {:.3}, \
                 \"messages_sent\": {}, \"messages_lost\": {}, \
                 \"faults_dropped\": {}, \"faults_duplicated\": {}, \
                 \"faults_delayed\": {}, \"faults_crashed\": {}, \
                 \"recovery_rounds\": {}, \"recovery_awake\": {}, \
                 \"awake_events\": {}, \"rounds_skipped\": {}, \
                 \"awake_bound\": {}, \"round_bound\": {}, \"bound_ok\": {}",
                json_str(&s.name),
                json_str(s.problem),
                json_str(&s.family),
                json_str(&s.algo),
                s.seed,
                s.n,
                s.m,
                s.valid,
                s.metrics.rounds,
                s.metrics.max_awake,
                s.metrics.awake_p50,
                s.metrics.awake_p99,
                s.metrics.total_awake,
                s.metrics.avg_awake,
                s.metrics.messages_sent,
                s.metrics.messages_lost,
                s.metrics.faults_dropped,
                s.metrics.faults_duplicated,
                s.metrics.faults_delayed,
                s.metrics.faults_crashed,
                s.metrics.recovery_rounds,
                s.metrics.recovery_awake,
                s.metrics.awake_events,
                s.metrics.rounds_skipped,
                s.awake_bound,
                s.round_bound,
                s.bound_ok,
            );
            if timings {
                let _ = write!(
                    out,
                    ", \"wall_ms\": {:.3}, \"allocations\": {}",
                    s.timing.wall_ns / 1e6,
                    s.timing.allocations
                );
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// An aligned text table of the suite (one row per scenario).
    pub fn text_table(&self) -> String {
        let mut out = String::new();
        let name_w = self
            .scenarios
            .iter()
            .map(|s| s.name.chars().count())
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = writeln!(
            out,
            "{:<name_w$} {:>6} {:>7} {:>9} {:>9} {:>7} {:>7} {:>9} {:>10} {:>9} {:>6} {:>6}",
            "scenario",
            "n",
            "m",
            "rounds",
            "awake",
            "p50",
            "p99",
            "bound",
            "msgs",
            "wall ms",
            "valid",
            "≤bound"
        );
        let _ = writeln!(out, "{}", "-".repeat(name_w + 96));
        for s in &self.scenarios {
            let _ = writeln!(
                out,
                "{:<name_w$} {:>6} {:>7} {:>9} {:>9} {:>7} {:>7} {:>9} {:>10} {:>9.2} {:>6} {:>6}",
                s.name,
                s.n,
                s.m,
                s.metrics.rounds,
                s.metrics.max_awake,
                s.metrics.awake_p50,
                s.metrics.awake_p99,
                s.awake_bound,
                s.metrics.messages_sent,
                s.timing.wall_ns / 1e6,
                if s.valid { "yes" } else { "NO" },
                if s.bound_ok { "yes" } else { "NO" },
            );
        }
        out
    }
}

/// Schema tag of the energy-trajectory document (`BENCH_energy.json`).
/// `v2` added the per-point compression telemetry: `awake_events` (the
/// Sleeping model's cost unit), `rounds_skipped` (virtual rounds jumped by
/// the batch-cascade), and `wall_ms` — together they let CI budget the
/// sweep and gate the `wall_ms / awake_events` compression ratio.
pub const ENERGY_SCHEMA: &str = "awake-lab/energy/v2";

/// Render a suite report as the `BENCH_energy.json` document: one point
/// per scenario, relating the **measured** awake complexity to the
/// closed-form bound and to `log₂ n`. For the `scaling` preset (Theorem 1
/// and BM21 swept over `n ∈ {2^10 .. 2^21}`) the `awake_per_log2n` series
/// is the paper's headline claim made empirical — `O(√log n · log* n)` is
/// `o(log n)`, so the ratio must trend *down* as `n` grows.
pub fn energy_json(report: &Report) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"schema\": \"{ENERGY_SCHEMA}\",\n  \"suite\": {},\n  \"seed\": {},\n  \"points\": [",
        json_str(&report.suite),
        report.seed
    );
    for (i, s) in report.scenarios.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let log2n = (s.n.max(2) as f64).log2();
        let _ = write!(
            out,
            "\n    {{\"algo\": {}, \"family\": {}, \"n\": {}, \"log2_n\": {:.3}, \
             \"max_awake\": {}, \"awake_bound\": {}, \
             \"awake_per_log2n\": {:.3}, \"bound_per_log2n\": {:.3}, \
             \"rounds\": {}, \"round_bound\": {}, \"bound_ok\": {}, \
             \"awake_events\": {}, \"rounds_skipped\": {}, \"wall_ms\": {:.3}}}",
            json_str(&s.algo),
            json_str(&s.family),
            s.n,
            log2n,
            s.metrics.max_awake,
            s.awake_bound,
            s.metrics.max_awake as f64 / log2n,
            s.awake_bound as f64 / log2n,
            s.metrics.rounds,
            s.round_bound,
            s.bound_ok,
            s.metrics.awake_events,
            s.metrics.rounds_skipped,
            s.timing.wall_ns / 1e6,
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Raw counters of one timed benchmark workload; the derived rates are the
/// section fields of `BENCH_engine.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfStats {
    /// Awake node-rounds executed.
    pub node_rounds: u64,
    /// Messages handed to the engine.
    pub messages: u64,
    /// Heap allocations during the timed window.
    pub allocations: u64,
    /// Elapsed wall time, nanoseconds.
    pub wall_ns: f64,
}

impl PerfStats {
    /// Nanoseconds per awake node-round.
    pub fn ns_per_node_round(&self) -> f64 {
        self.wall_ns / self.node_rounds as f64
    }

    /// Awake node-rounds per second — the headline throughput metric the
    /// CI regression gate checks.
    pub fn node_rounds_per_sec(&self) -> f64 {
        self.node_rounds as f64 / (self.wall_ns / 1e9)
    }

    /// Messages per second.
    pub fn messages_per_sec(&self) -> f64 {
        self.messages as f64 / (self.wall_ns / 1e9)
    }

    /// Heap allocations per awake node-round — the zero-allocation
    /// steady-state claim as a number.
    pub fn allocations_per_node_round(&self) -> f64 {
        self.allocations as f64 / self.node_rounds as f64
    }

    /// One JSON section, the exact field set of `BENCH_engine.json`.
    pub fn section_json(&self) -> String {
        format!(
            "{{\"ns_per_node_round\": {:.2}, \"node_rounds_per_sec\": {:.0}, \
             \"messages_per_sec\": {:.0}, \"allocations\": {}, \
             \"allocations_per_node_round\": {:.4}}}",
            self.ns_per_node_round(),
            self.node_rounds_per_sec(),
            self.messages_per_sec(),
            self.allocations,
            self.allocations_per_node_round()
        )
    }
}

/// One worker-count row of the [`ThreadedScaling`] section.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRow {
    /// Worker threads used.
    pub workers: usize,
    /// Measured stats at that worker count.
    pub stats: PerfStats,
}

/// The `threaded_scaling` section of `BENCH_engine.json`: one dense
/// workload at delivery-pipeline scale, run on the serial engine and on
/// the worker-pool executor at several worker counts. The
/// [`w4_vs_serial`](Self::w4_vs_serial) ratio is measured within one
/// process on one machine, so it is portable across hardware — the CI
/// gate tracks it to catch delivery-pipeline regressions that the serial
/// rows are blind to.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadedScaling {
    /// Nodes.
    pub n: usize,
    /// Approximate degree.
    pub degree: usize,
    /// Rounds simulated.
    pub rounds: u64,
    /// The serial engine on the same workload (the ratio denominator).
    pub serial: PerfStats,
    /// Worker-pool rows, ascending by worker count.
    pub rows: Vec<ScalingRow>,
}

impl ThreadedScaling {
    /// 4-worker throughput over serial — the portable pipeline-health
    /// ratio. `None` if no 4-worker row was measured.
    pub fn w4_vs_serial(&self) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.workers == 4)
            .map(|r| r.stats.node_rounds_per_sec() / self.serial.node_rounds_per_sec())
    }

    fn section_json(&self) -> String {
        let mut out = format!(
            "{{\n    \"n\": {}, \"degree\": {}, \"rounds\": {},\n    \"serial\": {}",
            self.n,
            self.degree,
            self.rounds,
            self.serial.section_json()
        );
        for row in &self.rows {
            let _ = write!(
                out,
                ",\n    \"w{}\": {}",
                row.workers,
                row.stats.section_json()
            );
        }
        if let Some(r) = self.w4_vs_serial() {
            let _ = write!(out, ",\n    \"w4_vs_serial\": {r:.3}");
        }
        out.push_str("\n  }");
        out
    }
}

/// The `phase_times` section of `BENCH_engine.json`: where a worker-pool
/// round's wall time goes, collected by
/// `awake_sleeping::Engine::run_timed` on a 4-worker engine over the
/// scaling workload.
/// Phase splits move with hardware and load, so these rows never gate in
/// `baselines::diff_bench` — they are the forensic context for a
/// `w4_vs_serial` regression: *which* pipeline stage ate the time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTimesBench {
    /// Worker threads the timed run used.
    pub workers: usize,
    /// Rounds that went through the dispatched multi-chunk pipeline.
    pub dispatched_rounds: u64,
    /// Rounds absorbed whole by the coordinator's inline fast path.
    pub inline_rounds: u64,
    /// Awake-set partitioning + job publication, ns per executed round.
    pub partition_ns_per_round: f64,
    /// Send-descriptor (route) wait, ns per dispatched round.
    pub route_ns_per_round: f64,
    /// Receive-descriptor (deliver) wait, ns per dispatched round.
    pub deliver_ns_per_round: f64,
    /// Coordinator-side merge/apply, ns per dispatched round.
    pub merge_ns_per_round: f64,
    /// Inline fast path end to end, ns per inline round.
    pub inline_ns_per_round: f64,
}

impl PhaseTimesBench {
    /// Collect from a [`PhaseTimes`] accumulated over one or more timed
    /// runs at `workers` threads.
    pub fn from_phase_times(workers: usize, t: &PhaseTimes) -> Self {
        PhaseTimesBench {
            workers,
            dispatched_rounds: t.dispatched_rounds,
            inline_rounds: t.inline_rounds,
            partition_ns_per_round: t.partition_ns_per_round(),
            route_ns_per_round: t.route_ns_per_round(),
            deliver_ns_per_round: t.deliver_ns_per_round(),
            merge_ns_per_round: t.merge_ns_per_round(),
            inline_ns_per_round: t.inline_ns_per_round(),
        }
    }

    fn section_json(&self) -> String {
        format!(
            "{{\n    \"workers\": {}, \"dispatched_rounds\": {}, \"inline_rounds\": {},\n    \
             \"partition_ns_per_round\": {:.1}, \"route_ns_per_round\": {:.1}, \
             \"deliver_ns_per_round\": {:.1}, \"merge_ns_per_round\": {:.1}, \
             \"inline_ns_per_round\": {:.1}\n  }}",
            self.workers,
            self.dispatched_rounds,
            self.inline_rounds,
            self.partition_ns_per_round,
            self.route_ns_per_round,
            self.deliver_ns_per_round,
            self.merge_ns_per_round,
            self.inline_ns_per_round,
        )
    }
}

/// The `edge_problems` section of `BENCH_engine.json`: the line-graph
/// virtualization adapter solving maximal matching and (2Δ−1)-edge
/// coloring on one seeded workload — the edge-workload throughput the CI
/// gate tracks alongside the vertex-problem engine numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeProblemsBench {
    /// Nodes of the host graph.
    pub n: usize,
    /// Edges of the host graph (= virtual nodes simulated).
    pub m: usize,
    /// Maximal matching through the adapter (serial engine).
    pub matching: PerfStats,
    /// (2Δ−1)-edge coloring through the adapter (serial engine).
    pub edge_coloring: PerfStats,
}

impl EdgeProblemsBench {
    fn section_json(&self) -> String {
        format!(
            "{{\n    \"n\": {}, \"m\": {},\n    \"matching\": {},\n    \"edge_coloring\": {}\n  }}",
            self.n,
            self.m,
            self.matching.section_json(),
            self.edge_coloring.section_json()
        )
    }
}

/// The micro-bench report (`BENCH_engine.json`): current serial engine,
/// worker-pool executor, the in-bench legacy reconstruction — every
/// report carries its own baseline — the threaded-scaling sweep, and the
/// edge-problem adapter workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Workload label (e.g. `"engine/flood"`).
    pub bench: String,
    /// Nodes.
    pub n: usize,
    /// Approximate degree.
    pub degree: usize,
    /// Rounds simulated.
    pub rounds: u64,
    /// Detected core count of the machine that produced the report
    /// (`std::thread::available_parallelism`, `0` = detection failed). CI
    /// reads this to demote multi-worker throughput ratios to
    /// informational rows on runners that cannot physically exhibit
    /// parallel speedup (see `baselines::diff_bench`).
    pub cores: usize,
    /// The current serial engine.
    pub engine: PerfStats,
    /// The worker-pool executor (4 workers).
    pub threaded_4_workers: PerfStats,
    /// The pre-optimization hot-path reconstruction.
    pub legacy_baseline: PerfStats,
    /// Worker-count sweep of the delivery pipeline at a larger n.
    pub threaded_scaling: ThreadedScaling,
    /// Per-phase wall-time attribution of the worker-pool pipeline on the
    /// scaling workload (informational in the CI gate).
    pub phase_times: PhaseTimesBench,
    /// Edge problems through the line-graph adapter.
    pub edge_problems: EdgeProblemsBench,
}

impl BenchReport {
    /// Serial-engine throughput over the legacy reconstruction — the
    /// machine-portable speedup figure.
    pub fn speedup_vs_legacy(&self) -> f64 {
        self.engine.node_rounds_per_sec() / self.legacy_baseline.node_rounds_per_sec()
    }

    /// The full `BENCH_engine.json` document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"{BENCH_SCHEMA}\",\n  \"bench\": {},\n  \"n\": {},\n  \
             \"degree\": {},\n  \"rounds\": {},\n  \"cores\": {},\n  \"engine\": {},\n  \
             \"threaded_4_workers\": {},\n  \"legacy_baseline\": {},\n  \
             \"threaded_scaling\": {},\n  \"phase_times\": {},\n  \"edge_problems\": {},\n  \
             \"speedup_vs_legacy\": {:.3}\n}}\n",
            json_str(&self.bench),
            self.n,
            self.degree,
            self.rounds,
            self.cores,
            self.engine.section_json(),
            self.threaded_4_workers.section_json(),
            self.legacy_baseline.section_json(),
            self.threaded_scaling.section_json(),
            self.phase_times.section_json(),
            self.edge_problems.section_json(),
            self.speedup_vs_legacy()
        )
    }
}

/// Escape a string as a JSON string literal.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            suite: "t".into(),
            seed: 1,
            scenarios: vec![ScenarioReport {
                name: "mis/path-4/trivial".into(),
                problem: "mis",
                family: "path-4".into(),
                algo: "trivial".into(),
                seed: 99,
                n: 4,
                m: 3,
                valid: true,
                awake_bound: 5,
                round_bound: 5,
                bound_ok: true,
                metrics: ScenarioMetrics {
                    rounds: 5,
                    max_awake: 3,
                    awake_p50: 2,
                    awake_p99: 3,
                    total_awake: 10,
                    avg_awake: 2.5,
                    messages_sent: 12,
                    messages_lost: 2,
                    faults_dropped: 1,
                    faults_duplicated: 0,
                    faults_delayed: 0,
                    faults_crashed: 4,
                    recovery_rounds: 6,
                    recovery_awake: 9,
                    awake_events: 10,
                    rounds_skipped: 2,
                },
                timing: Timing {
                    wall_ns: 1.5e6,
                    allocations: 7,
                },
            }],
        }
    }

    #[test]
    fn canonical_json_omits_timing() {
        let r = sample();
        let full = r.to_json();
        let canon = r.canonical_json();
        assert!(full.contains("wall_ms"));
        assert!(full.contains("allocations"));
        assert!(!canon.contains("wall_ms"));
        assert!(!canon.contains("allocations"));
        assert!(canon.contains("\"schema\": \"awake-lab/report/v5\""));
        // the audit, percentile, fault, recovery and compression columns
        // are deterministic, hence canonical
        for key in [
            "\"awake_p50\": 2",
            "\"awake_p99\": 3",
            "\"faults_dropped\": 1",
            "\"faults_duplicated\": 0",
            "\"faults_delayed\": 0",
            "\"faults_crashed\": 4",
            "\"recovery_rounds\": 6",
            "\"recovery_awake\": 9",
            "\"awake_events\": 10",
            "\"rounds_skipped\": 2",
            "\"awake_bound\": 5",
            "\"round_bound\": 5",
            "\"bound_ok\": true",
        ] {
            assert!(canon.contains(key), "missing {key} in {canon}");
        }
    }

    #[test]
    fn energy_json_relates_measured_to_bound_and_log_n() {
        let mut r = sample();
        r.scenarios[0].n = 1024;
        let j = energy_json(&r);
        for key in [
            "\"schema\": \"awake-lab/energy/v2\"",
            "\"n\": 1024",
            "\"log2_n\": 10.000",
            "\"max_awake\": 3",
            "\"awake_bound\": 5",
            "\"awake_per_log2n\": 0.300",
            "\"bound_per_log2n\": 0.500",
            "\"round_bound\": 5",
            "\"bound_ok\": true",
            "\"awake_events\": 10",
            "\"rounds_skipped\": 2",
            "\"wall_ms\": 1.500",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn canonical_json_ignores_timing_values() {
        let mut a = sample();
        let mut b = sample();
        a.scenarios[0].timing.wall_ns = 1.0;
        b.scenarios[0].timing.wall_ns = 2.0;
        assert_eq!(a.canonical_json(), b.canonical_json());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn perf_stats_derivations() {
        let p = PerfStats {
            node_rounds: 1000,
            messages: 4000,
            allocations: 10,
            wall_ns: 1e6,
        };
        assert!((p.ns_per_node_round() - 1000.0).abs() < 1e-9);
        assert!((p.node_rounds_per_sec() - 1e6).abs() < 1e-3);
        assert!((p.messages_per_sec() - 4e6).abs() < 1e-3);
        assert!((p.allocations_per_node_round() - 0.01).abs() < 1e-12);
        let j = p.section_json();
        assert!(j.contains("\"node_rounds_per_sec\": 1000000"));
    }

    #[test]
    fn phase_times_bench_divides_by_the_right_round_counts() {
        let t = PhaseTimes {
            partition_ns: 1000,
            route_ns: 800,
            deliver_ns: 600,
            merge_ns: 400,
            inline_ns: 300,
            dispatched_rounds: 4,
            inline_rounds: 1,
        };
        let b = PhaseTimesBench::from_phase_times(4, &t);
        assert_eq!(b.workers, 4);
        // Partition covers every executed round (5); the dispatched-only
        // stages divide by dispatched rounds (4); inline by inline (1).
        assert!((b.partition_ns_per_round - 200.0).abs() < 1e-9);
        assert!((b.route_ns_per_round - 200.0).abs() < 1e-9);
        assert!((b.deliver_ns_per_round - 150.0).abs() < 1e-9);
        assert!((b.merge_ns_per_round - 100.0).abs() < 1e-9);
        assert!((b.inline_ns_per_round - 300.0).abs() < 1e-9);
    }

    #[test]
    fn bench_report_json_shape() {
        let p = PerfStats {
            node_rounds: 100,
            messages: 100,
            allocations: 0,
            wall_ns: 1e6,
        };
        let scaling = ThreadedScaling {
            n: 64,
            degree: 4,
            rounds: 5,
            serial: p,
            rows: vec![
                ScalingRow {
                    workers: 1,
                    stats: p,
                },
                ScalingRow {
                    workers: 4,
                    stats: PerfStats { wall_ns: 5e5, ..p },
                },
            ],
        };
        assert!((scaling.w4_vs_serial().unwrap() - 2.0).abs() < 1e-9);
        let b = BenchReport {
            bench: "engine/flood".into(),
            n: 8,
            degree: 2,
            rounds: 3,
            cores: 4,
            engine: p,
            threaded_4_workers: p,
            legacy_baseline: PerfStats { wall_ns: 2e6, ..p },
            threaded_scaling: scaling,
            phase_times: PhaseTimesBench {
                workers: 4,
                dispatched_rounds: 4,
                inline_rounds: 1,
                partition_ns_per_round: 120.5,
                route_ns_per_round: 300.0,
                deliver_ns_per_round: 250.0,
                merge_ns_per_round: 180.0,
                inline_ns_per_round: 90.0,
            },
            edge_problems: EdgeProblemsBench {
                n: 8,
                m: 12,
                matching: p,
                edge_coloring: p,
            },
        };
        assert!((b.speedup_vs_legacy() - 2.0).abs() < 1e-9);
        let j = b.to_json();
        for key in [
            "\"schema\"",
            "\"engine\"",
            "\"threaded_4_workers\"",
            "\"legacy_baseline\"",
            "\"threaded_scaling\"",
            "\"w1\"",
            "\"w4\"",
            "\"w4_vs_serial\": 2.000",
            "\"cores\": 4",
            "\"phase_times\"",
            "\"dispatched_rounds\": 4",
            "\"inline_rounds\": 1",
            "\"partition_ns_per_round\": 120.5",
            "\"route_ns_per_round\": 300.0",
            "\"deliver_ns_per_round\": 250.0",
            "\"merge_ns_per_round\": 180.0",
            "\"inline_ns_per_round\": 90.0",
            "\"edge_problems\"",
            "\"matching\"",
            "\"edge_coloring\"",
            "\"speedup_vs_legacy\": 2.000",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn scaling_without_w4_row_omits_the_ratio() {
        let p = PerfStats {
            node_rounds: 100,
            messages: 100,
            allocations: 0,
            wall_ns: 1e6,
        };
        let scaling = ThreadedScaling {
            n: 64,
            degree: 4,
            rounds: 5,
            serial: p,
            rows: vec![ScalingRow {
                workers: 2,
                stats: p,
            }],
        };
        assert_eq!(scaling.w4_vs_serial(), None);
        assert!(!scaling.section_json().contains("w4_vs_serial"));
    }

    #[test]
    fn text_table_has_one_row_per_scenario() {
        let t = sample().text_table();
        assert_eq!(t.lines().count(), 3); // header + rule + 1 row
        assert!(t.contains("mis/path-4/trivial"));
    }
}

//! Benchmark of the paper's Theorem 1 pipeline (Theorem 13's clustering,
//! then Theorem 9 on top of it) and of the BM21 baseline, end to end and
//! layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload (so `peak_rss_mb` is its own), generates
//! the input from the seed, solves it over and over for `--seconds`, and
//! checks every solve: the problem's `validate`, the closed-form budget,
//! identical counts on every repeat, and the counts pinned in `pins.tsv`
//! for that seed. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! * `--trace 0` reports the end-to-end metrics, untraced.
//! * `--trace 1` records spans around each public call (written to
//!   `.bench_out/`) and reports per-layer self times and counts, plus the
//!   tracing overhead against untraced solves of the same run. Theorem 1
//!   is run as its two calls, and the result must equal the untraced
//!   `theorem1::solve_with_inputs` bit for bit.
//!
//! To pin a new seed, copy `max_awake`, `rounds` and `awake_events` from a
//! short `--trace 0` run at that seed into `pins.tsv`.

mod alloc;
mod trace;
mod workload;

use awake_core::compose::Composition;
use awake_sleeping::Metrics;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{Counts, Instance, Outcome, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Untraced, set-up is repeated at least this many times and for at least
/// `SETUP_SECS`, and `setup_s` is the median. Traced, it is repeated
/// exactly this many times, so set-up spans stay few.
const SETUP_MIN_REPS: usize = 5;
const SETUP_SECS: f64 = 1.0;

/// Pinned exact counts per workload and seed.
const PINS: &str = include_str!("../pins.tsv");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let names: Vec<_> = workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required, one of {names:?}"))?,
        seed,
        seconds,
        trace,
    })
}

/// The pinned counts of `workload` at `seed`, if that seed is pinned.
fn pinned(workload: Workload, seed: u64) -> Option<Counts> {
    PINS.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let num = |i: usize| f[i].parse::<u64>().expect("pins.tsv holds integers");
            (f[0] == workload.name() && num(1) == seed).then(|| Counts {
                max_awake: num(2),
                rounds: num(3),
                awake_events: num(4),
            })
        })
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Checks every solve of a run and counts attempts and failures.
struct Checker {
    expected: Option<Counts>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(workload: Workload, seed: u64) -> Self {
        Checker {
            expected: pinned(workload, seed),
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one solve. Until a pin is known, the first good solve's
    /// counts become the expectation, so every repeat must match it.
    fn record(&mut self, inst: &Instance, solved: &Result<Outcome, String>) {
        self.attempted += 1;
        let verdict = solved
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|o| inst.check(o, self.expected).map(|()| o.counts()));
        match verdict {
            Ok(c) => {
                self.expected.get_or_insert(c);
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED solve {}: {e}", self.attempted);
            }
        }
    }
}

/// Run `f` over and over for about `seconds`: at least once, and not
/// again once a run as long as the last one would end past the window.
fn repeat_for(seconds: f64, mut f: impl FnMut()) {
    let t0 = Instant::now();
    loop {
        let start = Instant::now();
        f();
        let last = start.elapsed().as_secs_f64();
        if t0.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
}

/// Generate the input repeatedly and return the last instance with the
/// median set-up seconds.
fn setup(args: &Args, mut tracer: Option<&mut Tracer>) -> (Instance, f64) {
    let t0 = Instant::now();
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let inst = match tracer.as_deref_mut() {
            Some(t) => t.span("setup", |t| args.workload.setup(args.seed, Some(t))),
            None => args.workload.setup(args.seed, None),
        };
        times.push(start.elapsed().as_secs_f64());
        let long_enough = tracer.is_some() || t0.elapsed().as_secs_f64() >= SETUP_SECS;
        if times.len() >= SETUP_MIN_REPS && long_enough {
            return (inst, median(times));
        }
    }
}

type Report = Vec<(&'static str, f64, &'static str)>;

/// The untraced pass: end-to-end metrics.
fn end_to_end(args: &Args, checker: &mut Checker) -> Report {
    let (inst, setup_s) = setup(args, None);
    let mut times = Vec::new();
    let mut allocs_per_event = Vec::new();
    let mut last = None;
    let mut peak_rss_mb = None;
    repeat_for(args.seconds, || {
        let a0 = alloc::allocations();
        let t0 = Instant::now();
        let solved = inst.solve();
        let dt = t0.elapsed().as_secs_f64();
        let allocs = alloc::allocations() - a0;
        // The footprint of set-up and one solve: later solves only add
        // whatever the allocator happens to keep from earlier ones.
        peak_rss_mb.get_or_insert_with(|| alloc::peak_rss_mb().unwrap_or(0.0));
        let solved = solved.map_err(|e| format!("solver error: {e}"));
        checker.record(&inst, &solved);
        if let Ok(o) = solved {
            times.push(dt);
            allocs_per_event.push(ratio(allocs as f64, o.counts().awake_events));
            last = Some(o.counts());
        }
    });
    // The first solve fills caches and the allocator's free lists: it is
    // checked but, when others follow it, not timed.
    let warm = usize::from(times.len() > 1);
    let (times, allocs_per_event) = (&times[warm..], &allocs_per_event[warm..]);
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let secs = |t: Option<&f64>| t.map_or("-".to_string(), |t| format!("{t:.4}"));
    let quartile = |q: f64| secs(sorted.get((q * (sorted.len() - 1) as f64) as usize));
    println!(
        "solve_s is the median of {} solves of {} after {warm} warm-up; quartiles {} and {} s; \
         the 11th slowest {} s",
        times.len(),
        args.workload.name(),
        quartile(0.25),
        quartile(0.75),
        secs(sorted.iter().rev().nth(10))
    );
    let c = last.unwrap_or(Counts {
        max_awake: 0,
        rounds: 0,
        awake_events: 0,
    });
    let solved_share = 1.0 - ratio(checker.failed as f64, checker.attempted);
    vec![
        ("solve_s", median(times.to_vec()), "s"),
        (
            "allocs_per_event",
            median(allocs_per_event.to_vec()),
            "count",
        ),
        ("peak_rss_mb", peak_rss_mb.unwrap_or(0.0), "MiB"),
        ("setup_s", setup_s, "s"),
        ("max_awake", c.max_awake as f64, "rounds"),
        ("rounds", c.rounds as f64, "rounds"),
        ("awake_events", c.awake_events as f64, "count"),
        ("solved_share", solved_share, "ratio"),
    ]
}

/// Sum `f` over the stages whose name contains `part`.
fn stage_sum(c: &Composition, part: &str, f: impl Fn(&Metrics) -> u64) -> u64 {
    c.stages
        .iter()
        .filter(|s| s.name.contains(part))
        .map(|s| f(&s.metrics))
        .sum()
}

/// Push the three figures of the call traced as `span`, named by `names`:
/// median self seconds, then nanoseconds and allocations per awake event
/// of the call's `events`.
fn call_layer(
    report: &mut Report,
    tracer: &Tracer,
    span: &str,
    names: [&'static str; 3],
    events: u64,
) {
    let costs = tracer.self_costs(span);
    let secs = median(costs.iter().map(|c| c.secs()).collect());
    let allocs = median(costs.iter().map(|c| c.allocs as f64).collect());
    report.push((names[0], secs, "s"));
    report.push((names[1], ratio(secs * 1e9, events), "ns"));
    report.push((names[2], ratio(allocs, events), "count"));
}

/// The traced pass: per-layer metrics and the tracing overhead.
fn per_layer(args: &Args, checker: &mut Checker) -> (Report, Tracer) {
    let mut tracer = Tracer::new();
    let (inst, _) = setup(args, Some(&mut tracer));
    let mut untraced = Vec::new();
    let mut last = None;
    let mut round = 0;
    repeat_for(args.seconds, || {
        // alternate which side runs first, so neither always gets the
        // warmer caches
        let traced_first = round % 2 == 1;
        round += 1;
        let (mut plain, mut traced) = (None, None);
        for traced_turn in [traced_first, !traced_first] {
            if traced_turn {
                traced = Some(inst.solve_traced(&mut tracer));
            } else {
                let t0 = Instant::now();
                let solved = inst.solve();
                untraced.push(t0.elapsed().as_secs_f64());
                plain = Some(solved);
            }
        }
        let err = |e| format!("solver error: {e}");
        let plain = plain.expect("ran untraced").map_err(err);
        let traced = match (traced.expect("ran traced").map_err(err), &plain) {
            (Ok(t), Ok(p)) if !t.identical(p) => Err("traced run differs from untraced".into()),
            (t, _) => t,
        };
        checker.record(&inst, &plain);
        // the check is the problem's `validate` plus the cheap budget and
        // pin comparisons
        tracer.span("olocal.validate", |_| checker.record(&inst, &traced));
        last = traced.ok().or(last.take());
    });
    println!(
        "per-layer figures are medians over {} traced solves of {}",
        untraced.len(),
        args.workload.name()
    );

    let mut r = Report::new();
    let build = tracer.self_costs("graphs.build");
    r.push((
        "graphs.build_s",
        median(build.iter().map(|c| c.secs()).collect()),
        "s",
    ));
    let empty = Composition::new();
    let (c, iterations) = last
        .as_ref()
        .map_or((&empty, 0), |o| (&o.composition, o.iteration_stats.len()));
    let events = |part: &str| stage_sum(c, part, |m| m.awake_events);
    let sent = |part: &str| stage_sum(c, part, |m| m.messages_sent) as f64;

    let t13 = events("theorem13/");
    let names = [
        "theorem13.compute_s",
        "theorem13.ns_per_event",
        "theorem13.allocs_per_event",
    ];
    call_layer(&mut r, &tracer, "theorem13.compute", names, t13);
    r.push(("theorem13.awake_events", t13 as f64, "count"));
    r.push(("theorem13.messages_sent", sent("theorem13/"), "count"));
    r.push(("theorem13.iterations", iterations as f64, "count"));
    r.push((
        "theorem13.lemma15.awake_events",
        events("/lemma15") as f64,
        "count",
    ));
    r.push((
        "theorem13.lemma14.awake_events",
        events("/lemma14") as f64,
        "count",
    ));

    let t9 = events("theorem9/");
    let names = [
        "theorem9.solve_s",
        "theorem9.ns_per_event",
        "theorem9.allocs_per_event",
    ];
    call_layer(&mut r, &tracer, "theorem9.solve", names, t9);
    r.push(("theorem9.awake_events", t9 as f64, "count"));
    r.push(("theorem9.messages_sent", sent("theorem9/"), "count"));

    let names = ["bm21.solve_s", "bm21.ns_per_event", "bm21.allocs_per_event"];
    call_layer(&mut r, &tracer, "bm21.solve", names, events("bm21/"));
    r.push((
        "bm21.linial.awake_events",
        events("bm21/linial") as f64,
        "count",
    ));
    r.push((
        "bm21.lemma11.awake_events",
        events("bm21/lemma11") as f64,
        "count",
    ));

    let delivered = stage_sum(c, "", |m| m.messages_delivered) as f64;
    r.push((
        "sleeping.delivered_ratio",
        ratio(delivered, c.messages_sent()),
        "ratio",
    ));
    r.push(("faults.dropped", c.faults_dropped() as f64, "count"));
    r.push(("faults.crashed", c.faults_crashed() as f64, "count"));
    let recovery = ratio(c.recovery_awake() as f64, c.awake_events());
    r.push(("redundant.recovery_share", recovery, "ratio"));

    let validate = tracer.self_costs("olocal.validate");
    r.push((
        "olocal.validate_s",
        median(validate.iter().map(|c| c.secs()).collect()),
        "s",
    ));
    let root = if args.workload.is_theorem1() {
        "theorem1"
    } else {
        "bm21.solve"
    };
    let overhead = median(tracer.durations(root)) - median(untraced);
    r.push(("trace.overhead_s", overhead, "s"));
    (r, tracer)
}

/// The result line: one JSON object, every value with all its digits.
fn result_json(checker: &Checker, report: &Report) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        checker.failed == 0 && checker.attempted > 0,
        checker.attempted,
        checker.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checker = Checker::new(args.workload, args.seed);
    let report = if args.trace {
        let (report, tracer) = per_layer(&args, &mut checker);
        let path = format!(
            ".bench_out/spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
        report
    } else {
        end_to_end(&args, &mut checker)
    };
    for (name, value, unit) in &report {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!(
        "{} of {} solves failed (failed_share {})",
        checker.failed,
        checker.attempted,
        ratio(checker.failed as f64, checker.attempted)
    );
    println!("{}", result_json(&checker, &report));
    ExitCode::SUCCESS
}

//! E2 — §1.1: the Δ-sweep at fixed `n`. BM21's awake complexity grows as
//! `2·log₂ Δ + O(log* n)`; Theorem 1's schedule never consults Δ, but its
//! measured awake count does depend on how many Theorem 13 iterations the
//! instance needs (a second iteration runs Lemma 14 and a deeper
//! Theorem 9 gather), and denser graphs need more of them.
//!
//! The paper's improvement kicks in when `Δ ≫ 2^{√log n}`; at feasible
//! scales the measured curves show the *slopes*. The run checks two shape
//! claims against its own table and exits non-zero if either fails:
//!
//! * Theorem 1's column is constant among rows with equal Theorem 13
//!   iteration counts;
//! * BM21's column never falls as Δ grows, and ends above where it starts.

use awake_bench::{header, run_trivial};
use awake_core::{bm21, theorem1};
use awake_graphs::generators;
use awake_olocal::problems::MaximalIndependentSet;
use std::collections::BTreeMap;

fn main() {
    println!("E2: awake vs Δ at fixed n = 512 (MIS)");
    header("      Δ | trivial |  bm21 | thm1 | t13 iters | thm1/bm21");
    let n = 512usize;
    let p = MaximalIndependentSet;
    let mut bm21_col: Vec<u64> = Vec::new();
    // Theorem 1's awake counts seen per Theorem 13 iteration count.
    let mut thm1_by_iters: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for delta in [4usize, 8, 16, 32, 64, 128, 256] {
        let g = generators::random_with_max_degree(n, delta, 1000 + delta as u64);
        let t = run_trivial(&g, &p).max_awake();
        let b = bm21::solve(&g, &p, &vec![(); n], None)
            .unwrap()
            .composition
            .max_awake();
        let r = theorem1::solve(&g, &p, Default::default()).unwrap();
        let a = r.composition.max_awake();
        let iters = r.iteration_stats.len();
        println!(
            "{:>7} | {:>7} | {:>5} | {:>4} | {:>9} | {:>9.2}",
            g.max_degree(),
            t,
            b,
            a,
            iters,
            a as f64 / b as f64
        );
        bm21_col.push(b);
        thm1_by_iters.entry(iters).or_default().push(a);
    }

    let mut failed = false;
    for (iters, awake) in &thm1_by_iters {
        let constant = awake.windows(2).all(|w| w[0] == w[1]);
        println!(
            "shape check: Theorem 1 at {iters} Theorem 13 iteration(s): {awake:?} — {}",
            if constant { "constant" } else { "NOT constant" }
        );
        failed |= !constant;
    }
    let rises = bm21_col.windows(2).all(|w| w[0] <= w[1]) && bm21_col.last() > bm21_col.first();
    println!(
        "shape check: BM21 {bm21_col:?} — {}",
        if rises {
            "rises with Δ"
        } else {
            "does NOT rise with Δ"
        }
    );
    failed |= !rises;
    if failed {
        eprintln!("E2: a shape claim failed");
        std::process::exit(1);
    }
}

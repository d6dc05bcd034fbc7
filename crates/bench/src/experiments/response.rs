//! Query response time (Section V-B): the deep provenance of the final
//! output, timed per run kind, plus the strategy ablation.
//!
//! The paper tested several strategies and settled on compute-the-base-
//! representation-once-then-project; with it, small runs answered in ≈23 ms,
//! medium ≈213 ms, large ≈1.1 s (Oracle 10g, 2007 hardware), always < 30 s.
//! Our embedded warehouse is orders of magnitude faster in absolute terms;
//! the *shape* to reproduce is (a) response time grows with run size and
//! (b) the materialize-once strategy beats rebuild-per-query as soon as a
//! run is queried more than once.

use crate::workloads::Corpus;
use std::fmt::Write as _;
use std::time::Instant;
use zoom_gen::{RunKind, Summary};

/// Timing for one run kind.
#[derive(Clone, Copy, Debug)]
pub struct KindTiming {
    /// The run kind.
    pub kind: RunKind,
    /// Mean cold time (materialize the view-run + query), ms.
    pub cold_ms: f64,
    /// Max cold time, ms.
    pub cold_max_ms: f64,
    /// Mean warm time (cached materialization), ms.
    pub warm_ms: f64,
}

/// Times deep provenance of the final output across the corpus, per kind.
/// Queries run against the UBio view (the representative user view).
pub fn run(corpus: &Corpus) -> Vec<KindTiming> {
    corpus.zoom.warehouse().clear_cache();
    let mut out = Vec::new();
    for kind in RunKind::ALL {
        let mut cold = Vec::new();
        let mut warm = Vec::new();
        for w in &corpus.workflows {
            for (k, runs) in &w.runs {
                if *k != kind {
                    continue;
                }
                for &rid in runs {
                    let t0 = Instant::now();
                    let r1 = corpus
                        .zoom
                        .deep_provenance_of_final_output(rid, w.bio)
                        .expect("visible");
                    cold.push(t0.elapsed().as_secs_f64() * 1e3);
                    let t1 = Instant::now();
                    let r2 = corpus
                        .zoom
                        .deep_provenance_of_final_output(rid, w.bio)
                        .expect("visible");
                    warm.push(t1.elapsed().as_secs_f64() * 1e3);
                    assert_eq!(r1.tuples(), r2.tuples());
                }
            }
        }
        let c = Summary::of(&cold);
        out.push(KindTiming {
            kind,
            cold_ms: c.mean,
            cold_max_ms: c.max,
            warm_ms: Summary::of(&warm).mean,
        });
    }
    out
}

/// Strategy ablation on the largest runs: rebuild-per-query vs. cached
/// materialization, over `queries_per_run` consecutive queries.
pub fn strategy_ablation(corpus: &Corpus, queries_per_run: usize) -> String {
    let mut rebuild = Vec::new();
    let mut cached = Vec::new();
    corpus.zoom.warehouse().clear_cache();
    for w in &corpus.workflows {
        for (k, runs) in &w.runs {
            if *k != RunKind::Large {
                continue;
            }
            let Some(&rid) = runs.first() else { continue };
            let outs = corpus.zoom.final_outputs(rid).expect("loaded");
            let target = outs[0];

            let t0 = Instant::now();
            for _ in 0..queries_per_run {
                let vr = corpus
                    .zoom
                    .warehouse()
                    .view_run_uncached(rid, w.bio)
                    .expect("valid pair");
                let run = corpus.zoom.warehouse().run(rid).expect("loaded");
                std::hint::black_box(
                    zoom_warehouse::deep_provenance(
                        run,
                        &vr,
                        zoom_warehouse::Reach::Bfs,
                        target,
                        &mut zoom_warehouse::Deadline::unlimited(),
                    )
                    .expect("visible"),
                );
            }
            rebuild.push(t0.elapsed().as_secs_f64() * 1e3 / queries_per_run as f64);

            let t1 = Instant::now();
            for _ in 0..queries_per_run {
                std::hint::black_box(
                    corpus
                        .zoom
                        .deep_provenance(rid, w.bio, target)
                        .expect("visible"),
                );
            }
            cached.push(t1.elapsed().as_secs_f64() * 1e3 / queries_per_run as f64);
        }
    }
    let (r, c) = (Summary::of(&rebuild), Summary::of(&cached));
    format!(
        "strategy ablation on large runs ({queries_per_run} queries/run):\n\
         rebuild-per-query : {:.3} ms/query (max {:.3})\n\
         materialize-once  : {:.3} ms/query (max {:.3})  -> {:.1}x faster\n\
         (the paper reached the same conclusion: compute the base once, then project)\n",
        r.mean,
        r.max,
        c.mean,
        c.max,
        r.mean / c.mean.max(1e-9)
    )
}

/// Renders the response-time report.
pub fn report(corpus: &Corpus) -> String {
    let timings = run(corpus);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "QUERY RESPONSE TIME — deep provenance of the final output (UBio view)"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>14} {:>14} {:>14}",
        "run kind", "cold mean ms", "cold max ms", "warm mean ms"
    );
    for t in &timings {
        let _ = writeln!(
            out,
            "{:<16} {:>14.3} {:>14.3} {:>14.3}",
            t.kind.label(),
            t.cold_ms,
            t.cold_max_ms,
            t.warm_ms
        );
    }
    let _ = writeln!(
        out,
        "(paper, Oracle 10g: small ≈23 ms, medium ≈213 ms, large ≈1.1 s, max < 30 s)"
    );
    out.push('\n');
    out.push_str(&strategy_ablation(corpus, 5));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{build_corpus, Scale};

    #[test]
    fn response_grows_with_run_size_and_warm_beats_cold() {
        let corpus = build_corpus(Scale::Quick, 20);
        let t = run(&corpus);
        assert_eq!(t.len(), 3);
        let small = t.iter().find(|x| x.kind == RunKind::Small).unwrap();
        let large = t.iter().find(|x| x.kind == RunKind::Large).unwrap();
        assert!(large.cold_ms > small.cold_ms);
        // Warm (cached) queries skip materialization.
        assert!(large.warm_ms <= large.cold_ms);
    }

    #[test]
    fn ablation_prefers_materialization() {
        let corpus = build_corpus(Scale::Quick, 21);
        let s = strategy_ablation(&corpus, 3);
        assert!(s.contains("faster"), "{s}");
    }
}

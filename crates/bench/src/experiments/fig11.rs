//! Figure 11 — effect of view granularity on the size of the query result:
//! mean deep-provenance result size vs. the percentage of relevant modules,
//! per run kind, averaged over the four workflow classes. The paper's
//! shape: monotone growth, with Class 4 (loops) growing faster than linear
//! because randomly-flagged modules expose loop iterations.

use crate::workloads::{random_relevant, Corpus, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use zoom_gen::{RunKind, Summary, WorkflowClass};
use zoom_model::{UserView, ViewRun};
use zoom_views::relev_user_view_builder;

/// One curve point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Percentage of relevant modules.
    pub percent: u32,
    /// Mean tuples per run kind, in [`RunKind::ALL`] order.
    pub tuples: [f64; 3],
    /// Mean tuples for Class 4 only (all kinds pooled) — the super-linear
    /// series the paper calls out.
    pub class4: f64,
}

/// Runs the experiment. For each percentage (0..=100 step 10) and each
/// random draw, a view is built and the deep provenance of the final
/// output of one run per (workflow, kind) is measured. Workflows are
/// processed in parallel (crossbeam scoped threads); views built here are
/// queried directly and never registered, so the warehouse is only read.
pub fn run(corpus: &Corpus, scale: Scale, seed: u64) -> Vec<Point> {
    let percents: Vec<u32> = (0..=100).step_by(10).map(|p| p as u32).collect();
    // Collect per-workflow samples: (class, kind, percent) -> sizes.
    type Sample = (WorkflowClass, RunKind, u32, f64);
    let all: Vec<Sample> = crossbeam::thread::scope(|s| {
        let mut handles = Vec::new();
        for (wi, w) in corpus.workflows.iter().enumerate() {
            let percents = &percents;
            handles.push(s.spawn(move |_| {
                let mut rng = StdRng::seed_from_u64(seed ^ (wi as u64) << 17);
                let mut samples: Vec<Sample> = Vec::new();
                for &percent in percents {
                    for _ in 0..scale.draws_per_percent() {
                        let relevant = random_relevant(&w.spec, percent, &mut rng);
                        let view: UserView = relev_user_view_builder(&w.spec, &relevant)
                            .expect("builds")
                            .view;
                        for (kind, runs) in &w.runs {
                            let Some(&rid) = runs.first() else { continue };
                            let run = corpus.zoom.warehouse().run(rid).expect("loaded");
                            let vr = ViewRun::new(run, &view);
                            let target = run.final_outputs()[0];
                            let size = zoom_warehouse::deep_provenance(
                                run,
                                &vr,
                                zoom_warehouse::Reach::Bfs,
                                target,
                                &mut zoom_warehouse::Deadline::unlimited(),
                            )
                            .expect("run is well-formed")
                            .expect("final output visible")
                            .tuples() as f64;
                            samples.push((w.class, *kind, percent, size));
                        }
                    }
                }
                samples
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker succeeds"))
            .collect()
    })
    .expect("scope completes");

    percents
        .iter()
        .map(|&percent| {
            let kind_mean = |kind: RunKind| {
                Summary::of(
                    &all.iter()
                        .filter(|(_, k, p, _)| *k == kind && *p == percent)
                        .map(|&(_, _, _, v)| v)
                        .collect::<Vec<_>>(),
                )
                .mean
            };
            let class4 = Summary::of(
                &all.iter()
                    .filter(|(c, _, p, _)| *c == WorkflowClass::Loop && *p == percent)
                    .map(|&(_, _, _, v)| v)
                    .collect::<Vec<_>>(),
            )
            .mean;
            Point {
                percent,
                tuples: [
                    kind_mean(RunKind::Small),
                    kind_mean(RunKind::Medium),
                    kind_mean(RunKind::Large),
                ],
                class4,
            }
        })
        .collect()
}

/// Renders Figure 11.
pub fn report(corpus: &Corpus, scale: Scale, seed: u64) -> String {
    let points = run(corpus, scale, seed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "FIGURE 11 — result size vs. % relevant modules (mean tuples, scale: {scale:?})"
    );
    let _ = writeln!(
        out,
        "{:>9} {:>12} {:>12} {:>12} {:>14}",
        "percent", "run1 small", "run2 medium", "run3 large", "Class4 (all)"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:>8}% {:>12.1} {:>12.1} {:>12.1} {:>14.1}",
            p.percent, p.tuples[0], p.tuples[1], p.tuples[2], p.class4
        );
    }
    // Super-linearity indicator for Class 4: compare second-half growth to
    // first-half growth.
    let c4 = |i: usize| points[i].class4;
    let n = points.len();
    let first_half = c4(n / 2) - c4(0);
    let second_half = c4(n - 1) - c4(n / 2);
    let _ = writeln!(
        out,
        "\nClass4 growth: first half +{first_half:.1}, second half +{second_half:.1} tuples \
         (paper: more than linear — loop iterations surface as granularity increases)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::build_corpus;

    #[test]
    fn result_size_grows_with_granularity() {
        let corpus = build_corpus(Scale::Quick, 40);
        let points = run(&corpus, Scale::Quick, 41);
        assert_eq!(points.len(), 11);
        for kind_idx in 0..3 {
            // Endpoints: 100% relevant (UAdmin-equivalent) must exceed 0%.
            assert!(
                points.last().unwrap().tuples[kind_idx] > points.first().unwrap().tuples[kind_idx],
                "kind {kind_idx}"
            );
        }
        // Weak monotonicity within noise: each curve's max is at >= 70%.
        for kind_idx in 0..3 {
            let max_at = points
                .iter()
                .enumerate()
                .max_by(|a, b| {
                    a.1.tuples[kind_idx]
                        .partial_cmp(&b.1.tuples[kind_idx])
                        .expect("no NaN")
                })
                .expect("nonempty")
                .0;
            assert!(max_at >= 7, "kind {kind_idx} peaked too early: {max_at}");
        }
    }
}

//! View-aware run comparison.
//!
//! The paper's motivation is reproducibility ("to understand and reproduce
//! the results of an experiment"), and its related work notes that existing
//! comparative-visualization tools do not "provide provenance information
//! at various levels of user views". This module compares two runs of the
//! same workflow *through a user view*: executions are aligned per
//! composite module in execution order, and compared by their visible I/O
//! shape. The payoff of view-awareness: two runs that differ only inside a
//! composite (say, a different number of alignment-loop iterations) are
//! **identical** at that view level, while UAdmin still sees the difference.

use std::fmt;
use zoom_model::{CompositeId, StepId, UserView, ViewRun, WorkflowRun};

/// How one aligned pair of executions compares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecMatch {
    /// The composite module both executions instantiate.
    pub composite: CompositeId,
    /// Execution id in the first run.
    pub a: StepId,
    /// Execution id in the second run.
    pub b: StepId,
    /// Visible input cardinalities `(a, b)`.
    pub inputs: (usize, usize),
    /// Visible output cardinalities `(a, b)`.
    pub outputs: (usize, usize),
}

impl ExecMatch {
    /// Whether the two executions have the same visible I/O shape.
    pub fn same_shape(&self) -> bool {
        self.inputs.0 == self.inputs.1 && self.outputs.0 == self.outputs.1
    }
}

/// The result of comparing two runs through one view.
#[derive(Clone, Debug, Default)]
pub struct RunComparison {
    /// Aligned execution pairs, per composite, in execution order.
    pub matched: Vec<ExecMatch>,
    /// Executions present only in the first run.
    pub only_in_a: Vec<(CompositeId, StepId)>,
    /// Executions present only in the second run.
    pub only_in_b: Vec<(CompositeId, StepId)>,
}

impl RunComparison {
    /// `true` when the two runs are indistinguishable at this view level:
    /// the same executions per composite with the same visible I/O shapes.
    pub fn identical_shape(&self) -> bool {
        self.only_in_a.is_empty()
            && self.only_in_b.is_empty()
            && self.matched.iter().all(ExecMatch::same_shape)
    }

    /// Number of aligned pairs with diverging shapes.
    pub fn divergences(&self) -> usize {
        self.matched.iter().filter(|m| !m.same_shape()).count()
            + self.only_in_a.len()
            + self.only_in_b.len()
    }
}

/// Compares two runs, each with its view-run through the same view
/// (callers obtain both from the warehouse's `(run, view)` queries).
///
/// # Panics
/// Panics if the runs belong to different specifications.
pub fn compare_view_runs(
    (run_a, a): (&WorkflowRun, &ViewRun),
    (run_b, b): (&WorkflowRun, &ViewRun),
) -> RunComparison {
    assert_eq!(
        run_a.spec_name(),
        run_b.spec_name(),
        "runs of different workflows"
    );

    let mut out = RunComparison::default();
    // Group executions by composite, preserving each run's execution order
    // (ViewRun orders execs by smallest member step).
    let composites: std::collections::BTreeSet<CompositeId> =
        a.execs().chain(b.execs()).map(|e| e.composite).collect();
    for c in composites {
        let of = |vr: &ViewRun| -> Vec<(u32, StepId)> {
            vr.execs()
                .enumerate()
                .filter(|(_, e)| e.composite == c)
                .map(|(i, e)| (i as u32, e.id))
                .collect()
        };
        let (ea, eb) = (of(a), of(b));
        let n = ea.len().min(eb.len());
        for k in 0..n {
            let (ia, sa) = ea[k];
            let (ib, sb) = eb[k];
            out.matched.push(ExecMatch {
                composite: c,
                a: sa,
                b: sb,
                inputs: (a.inputs_of(run_a, ia).len(), b.inputs_of(run_b, ib).len()),
                outputs: (a.outputs_of(run_a, ia).len(), b.outputs_of(run_b, ib).len()),
            });
        }
        for &(_, s) in &ea[n..] {
            out.only_in_a.push((c, s));
        }
        for &(_, s) in &eb[n..] {
            out.only_in_b.push((c, s));
        }
    }
    out
}

/// A displayable comparison report.
pub struct ComparisonReport<'a> {
    /// The comparison.
    pub comparison: &'a RunComparison,
    /// The view, for composite names.
    pub view: &'a UserView,
}

impl fmt::Display for ComparisonReport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.comparison;
        if c.identical_shape() {
            return writeln!(
                f,
                "runs are indistinguishable at view level `{}` \
                 ({} execution(s) aligned)",
                self.view.name(),
                c.matched.len()
            );
        }
        writeln!(
            f,
            "runs diverge at view level `{}`: {} divergence(s)",
            self.view.name(),
            c.divergences()
        )?;
        for m in &c.matched {
            if !m.same_shape() {
                writeln!(
                    f,
                    "  {}: {} vs {} — inputs {}/{} outputs {}/{}",
                    self.view.composite_name(m.composite),
                    m.a,
                    m.b,
                    m.inputs.0,
                    m.inputs.1,
                    m.outputs.0,
                    m.outputs.1
                )?;
            }
        }
        for &(comp, s) in &c.only_in_a {
            writeln!(
                f,
                "  {}: execution {s} only in the first run",
                self.view.composite_name(comp)
            )?;
        }
        for &(comp, s) in &c.only_in_b {
            writeln!(
                f,
                "  {}: execution {s} only in the second run",
                self.view.composite_name(comp)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoom_model::{RunBuilder, SpecBuilder, WorkflowRun, WorkflowSpec};
    use zoom_views::relev_user_view_builder;

    /// input -> A -> B -> C -> output with loop C -> B.
    fn spec() -> WorkflowSpec {
        let mut b = SpecBuilder::new("cmp");
        b.analysis("A");
        b.analysis("B");
        b.analysis("C");
        b.from_input("A")
            .edge("A", "B")
            .edge("B", "C")
            .edge("C", "B")
            .to_output("C");
        b.build().unwrap()
    }

    /// A run with `iters` traversals of the B/C loop.
    fn run(s: &WorkflowSpec, iters: usize) -> WorkflowRun {
        let (a, b, c) = (
            s.module("A").unwrap(),
            s.module("B").unwrap(),
            s.module("C").unwrap(),
        );
        let mut rb = RunBuilder::new(s);
        let s1 = rb.step(a);
        rb.input_edge(s1, [1]);
        let mut d = 2u64;
        let mut prev = s1;
        for i in 0..iters {
            let sb = rb.step(b);
            let sc = rb.step(c);
            rb.data_edge(prev, sb, [d]);
            rb.data_edge(sb, sc, [d + 1]);
            d += 2;
            if i + 1 == iters {
                rb.output_edge(sc, [d]);
            }
            prev = sc;
        }
        rb.build().unwrap()
    }

    #[test]
    fn identical_runs_compare_identical() {
        let s = spec();
        let (r1, r2) = (run(&s, 2), run(&s, 2));
        let admin = zoom_model::UserView::admin(&s);
        let cmp = compare_view_runs(
            (&r1, &ViewRun::new(&r1, &admin)),
            (&r2, &ViewRun::new(&r2, &admin)),
        );
        assert!(cmp.identical_shape());
        assert_eq!(cmp.divergences(), 0);
        assert_eq!(cmp.matched.len(), 5); // A + 2x(B, C)
    }

    #[test]
    fn view_abstracts_away_loop_differences() {
        let s = spec();
        // Three loop iterations vs two.
        let (r1, r2) = (run(&s, 3), run(&s, 2));

        // UAdmin sees the extra B and C executions.
        let admin = zoom_model::UserView::admin(&s);
        let cmp = compare_view_runs(
            (&r1, &ViewRun::new(&r1, &admin)),
            (&r2, &ViewRun::new(&r2, &admin)),
        );
        assert!(!cmp.identical_shape());
        assert_eq!(cmp.only_in_a.len(), 2);

        // A view that folds the loop into one composite (relevant = {A})
        // cannot tell the runs apart: the loop is internal.
        let a = s.module("A").unwrap();
        let coarse = relev_user_view_builder(&s, &[a]).unwrap().view;
        let cmp = compare_view_runs(
            (&r1, &ViewRun::new(&r1, &coarse)),
            (&r2, &ViewRun::new(&r2, &coarse)),
        );
        assert!(
            cmp.identical_shape(),
            "loop iterations are hidden inside the composite: {cmp:?}"
        );
    }

    #[test]
    fn report_rendering() {
        let s = spec();
        let (r1, r2) = (run(&s, 3), run(&s, 2));
        let admin = zoom_model::UserView::admin(&s);
        let cmp = compare_view_runs(
            (&r1, &ViewRun::new(&r1, &admin)),
            (&r2, &ViewRun::new(&r2, &admin)),
        );
        let report = ComparisonReport {
            comparison: &cmp,
            view: &admin,
        }
        .to_string();
        assert!(report.contains("diverge"), "{report}");
        assert!(report.contains("only in the first run"), "{report}");

        let same = compare_view_runs(
            (&r1, &ViewRun::new(&r1, &admin)),
            (&r1, &ViewRun::new(&r1, &admin)),
        );
        let report = ComparisonReport {
            comparison: &same,
            view: &admin,
        }
        .to_string();
        assert!(report.contains("indistinguishable"), "{report}");
    }

    #[test]
    #[should_panic(expected = "different workflows")]
    fn mismatched_workflows_panic() {
        let s = spec();
        let r = run(&s, 2);
        let mut b = SpecBuilder::new("other");
        b.analysis("A");
        b.from_input("A").to_output("A");
        let o = b.build().unwrap();
        let mut rb = RunBuilder::new(&o);
        let s1 = rb.step(o.module("A").unwrap());
        rb.input_edge(s1, [1]).output_edge(s1, [2]);
        let ro = rb.build().unwrap();
        compare_view_runs(
            (&r, &ViewRun::new(&r, &zoom_model::UserView::admin(&s))),
            (&ro, &ViewRun::new(&ro, &zoom_model::UserView::admin(&o))),
        );
    }
}

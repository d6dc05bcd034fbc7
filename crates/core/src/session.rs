//! Interactive query sessions (Section IV): "By selecting a run and
//! clicking on an edge between two steps, the user can see the data set
//! passed between them. … As the user's needs evolve, he may modify the set
//! of modules he considers to be relevant. The provenance graph is then
//! automatically modified for the new user view."
//!
//! A [`QuerySession`] pins one run, holds a current view, and re-answers
//! the focused provenance question whenever the view changes. View switches
//! ride the warehouse's materialization cache, reproducing the prototype's
//! cheap-switch behavior.

use crate::system::Zoom;
use std::time::Duration;
use zoom_model::DataId;
use zoom_warehouse::{typed, Cx, Hist, Op, ProvenanceResult, Result, RunId, ViewId};

/// One user's interactive provenance-exploration session over one run.
#[derive(Debug)]
pub struct QuerySession<'a> {
    zoom: &'a Zoom,
    /// Who the session's queries execute as and their time budget. A
    /// session opened with [`QuerySession::open_as`] names its tenant, so
    /// the tenant's visibility policy (DESIGN.md §16) is enforced on each
    /// answer — including after view switches.
    cx: Cx<'a>,
    run: RunId,
    view: ViewId,
    focus: Option<DataId>,
    /// Wall-clock cost of the queries issued so far (for the interactivity
    /// experiments).
    history: Vec<(ViewId, Duration)>,
}

impl<'a> QuerySession<'a> {
    /// Opens a session on `run` at the given initial view.
    pub fn new(zoom: &'a Zoom, run: RunId, view: ViewId) -> Self {
        QuerySession {
            zoom,
            cx: Cx::ADMIN,
            run,
            view,
            focus: None,
            history: Vec::new(),
        }
    }

    /// Opens a session whose queries execute as `tenant`, with the
    /// tenant's visibility policy enforced on every answer.
    pub fn open_as(zoom: &'a Zoom, tenant: &'a str, run: RunId, view: ViewId) -> Self {
        QuerySession {
            cx: Cx::tenant(tenant),
            ..QuerySession::new(zoom, run, view)
        }
    }

    /// Sets (or clears) this session's per-query time budget; `None`
    /// defers to the system default. Queries that exceed it return
    /// [`zoom_warehouse::WarehouseError::DeadlineExceeded`] instead of
    /// running unboundedly — an interactive session would rather re-ask
    /// at a coarser view than hang — and `Zoom::cancel_queries` reaches
    /// them like any other query.
    pub fn set_deadline(&mut self, budget: Option<Duration>) {
        self.cx.budget = budget;
    }

    /// The session's run.
    pub fn run(&self) -> RunId {
        self.run
    }

    /// The current view.
    pub fn view(&self) -> ViewId {
        self.view
    }

    /// The focused data object, if any.
    pub fn focus(&self) -> Option<DataId> {
        self.focus
    }

    /// Focuses a data object and answers its deep provenance at the current
    /// view level.
    pub fn focus_data(&mut self, data: DataId) -> Result<ProvenanceResult> {
        self.focus = Some(data);
        self.query()
    }

    /// Focuses the run's final output.
    pub fn focus_final_output(&mut self) -> Result<ProvenanceResult> {
        let outs: Vec<DataId> = typed(self.zoom.read(&self.cx, &Op::FinalOutputs(self.run)))?;
        let &d = outs
            .first()
            .ok_or(zoom_warehouse::WarehouseError::NoFinalOutputs(self.run))?;
        self.focus_data(d)
    }

    /// Switches the current view and re-answers the focused question
    /// (Section V's view-granularity interactivity experiment). Returns the
    /// new answer; data hidden by the new view surfaces as an error.
    pub fn switch_view(&mut self, view: ViewId) -> Result<ProvenanceResult> {
        let start = std::time::Instant::now();
        self.view = view;
        let res = self.query();
        // The ≈13 ms figure of Section V-B, measured live: switch cost is
        // the re-answer cost at the new view level.
        self.zoom
            .warehouse()
            .metrics_registry()
            .observe(Hist::ViewSwitch, start.elapsed().as_nanos() as u64);
        res
    }

    /// Re-runs the focused deep-provenance query, timing it.
    pub fn query(&mut self) -> Result<ProvenanceResult> {
        let data = self
            .focus
            .ok_or(zoom_warehouse::WarehouseError::DataNotFound(DataId(0)))?;
        let start = std::time::Instant::now();
        let op = Op::DeepProvenance(self.run, self.view, data);
        let res = typed(self.zoom.read(&self.cx, &op));
        self.history.push((self.view, start.elapsed()));
        res
    }

    /// `(view, duration)` per query issued, in order.
    pub fn history(&self) -> &[(ViewId, Duration)] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoom_model::{RunBuilder, SpecBuilder};

    fn system() -> (Zoom, RunId, ViewId, ViewId) {
        let mut b = SpecBuilder::new("sess");
        b.formatting("F");
        b.analysis("R");
        b.from_input("F").edge("F", "R").to_output("R");
        let s = b.build().unwrap();
        let mut z = Zoom::new();
        let sid = z.register_workflow(s.clone()).unwrap();
        let admin = z.admin_view(sid).unwrap();
        let bb = z.black_box_view(sid).unwrap();
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(s.module("F").unwrap());
        let s2 = rb.step(s.module("R").unwrap());
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .output_edge(s2, [3]);
        let rid = z.load_run(sid, rb.build().unwrap()).unwrap();
        (z, rid, admin, bb)
    }

    #[test]
    fn focus_and_switch() {
        let (z, rid, admin, bb) = system();
        let mut sess = QuerySession::new(&z, rid, admin);
        assert!(sess.focus().is_none());
        let res = sess.focus_final_output().unwrap();
        assert_eq!(res.tuples(), 3);
        assert_eq!(sess.focus(), Some(DataId(3)));

        let res = sess.switch_view(bb).unwrap();
        assert_eq!(res.tuples(), 2);
        assert_eq!(sess.view(), bb);

        let res = sess.switch_view(admin).unwrap();
        assert_eq!(res.tuples(), 3);
        assert_eq!(sess.history().len(), 3);
    }

    #[test]
    fn view_switches_feed_the_metrics_histogram() {
        let (z, rid, admin, bb) = system();
        let mut sess = QuerySession::new(&z, rid, admin);
        sess.focus_final_output().unwrap();
        sess.switch_view(bb).unwrap();
        sess.switch_view(admin).unwrap();
        let m = z.metrics();
        assert_eq!(m.view_switch.count, 2);
        assert!(m.view_switch.sum_nanos > 0);
    }

    #[test]
    fn hidden_focus_surfaces_error_on_switch() {
        let (z, rid, admin, bb) = system();
        let mut sess = QuerySession::new(&z, rid, admin);
        sess.focus_data(DataId(2)).unwrap();
        assert!(sess.switch_view(bb).is_err());
    }

    #[test]
    fn query_without_focus_errors() {
        let (z, rid, admin, _) = system();
        let mut sess = QuerySession::new(&z, rid, admin);
        assert!(sess.query().is_err());
        assert_eq!(sess.run(), rid);
    }
}

//! Per-tenant visibility policies compiled into **privacy views**
//! (DESIGN.md §16).
//!
//! *Provenance Views for Module Privacy* (Davidson et al.) reduces hiding
//! a module's behaviour to querying through a user view coarse enough to
//! conceal it: data that never crosses a composite boundary is invisible,
//! so a hidden module absorbed into a multi-module composite exposes only
//! the composite's aggregate I/O. This module turns that observation into
//! an enforcement layer:
//!
//! * [`VisibilityPolicy`] — what a tenant must not see: module labels
//!   and/or whole workflow names.
//! * [`conceal`] — the policy compiler: runs the paper's
//!   `RelevUserViewBuilder` with **inverted relevance** (relevant = the
//!   modules that are *not* hidden), then repairs any hidden module left
//!   in a singleton composite by deterministically merging it with a
//!   neighbouring composite. The result is validated by
//!   [`UserView::validate`] at registration like any other view. A policy
//!   with no concealing view (a single-module workflow whose only module
//!   is hidden) is a typed [`WarehouseError::PolicyUnsatisfiable`], not a
//!   panic.
//! * [`partition_join`] — the coarsest-common-refinement *meet* of the
//!   requested view and the privacy view in the coarseness order, used
//!   when a restricted tenant asks for a view that neither refines nor is
//!   refined by its privacy view.
//! * [`PolicyTable`] — per-tenant policies plus the compiled caches:
//!   (tenant × spec) → compiled outcome and (tenant × requested view) →
//!   effective view. A table with no policies answers
//!   [`PolicyTable::is_empty`] from one relaxed atomic load, so
//!   unrestricted deployments pay a single branch per query.
//! * [`Gate`] — the one enforcement point: [`Gate::apply`] maps each
//!   [`Op`] kind to its checks. The local facade's `Zoom::apply_as` and
//!   the daemon's request handler both call it, so the two paths cannot
//!   drift apart.
//!
//! Enforcement is **view substitution before dispatch**: a gate rewrites
//! a restricted tenant's query to run against the effective view, and
//! renders denials byte-identically to the corresponding not-found error
//! so present-but-hidden is indistinguishable from absent.

use crate::metrics::Counter;
use crate::op::{Answer, Op, Store};
use crate::query::ProvenanceResult;
use crate::schema::{RunId, SpecId, ViewId};
use crate::store::{Result as WhResult, Warehouse, WarehouseError};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use zoom_graph::NodeId;
use zoom_model::{CompositeModule, DataId, UserView, WorkflowSpec};
use zoom_views::relev_user_view_builder;

/// What a tenant must not see. Module labels apply across every workflow
/// (a label names the same step class wherever it occurs); workflow names
/// hide the whole workflow — its runs, views, and name resolution.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VisibilityPolicy {
    /// Module labels whose behaviour must be concealed.
    pub hidden_modules: Vec<String>,
    /// Workflow (specification) names that must be invisible outright.
    pub hidden_workflows: Vec<String>,
}

crate::json::json_object!(VisibilityPolicy {
    hidden_modules,
    hidden_workflows
});

impl VisibilityPolicy {
    /// `true` when the policy hides nothing (equivalent to no policy).
    pub fn is_empty(&self) -> bool {
        self.hidden_modules.is_empty() && self.hidden_workflows.is_empty()
    }

    /// `true` when the whole workflow named `name` is hidden.
    pub fn hides_workflow(&self, name: &str) -> bool {
        self.hidden_workflows.iter().any(|w| w == name)
    }

    /// The hidden module ids present in `spec`, sorted.
    pub fn hidden_in(&self, spec: &WorkflowSpec) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = spec
            .module_ids()
            .filter(|&m| self.hidden_modules.iter().any(|h| h == spec.label(m)))
            .collect();
        ids.sort();
        ids
    }
}

/// Builds a [`UserView`] from a bare partition: parts sorted by smallest
/// member, composites named `P1..Pk` in that order.
fn view_from_parts(
    spec: &WorkflowSpec,
    name: impl Into<String>,
    mut parts: Vec<Vec<NodeId>>,
) -> WhResult<UserView> {
    for p in &mut parts {
        p.sort();
        p.dedup();
    }
    parts.retain(|p| !p.is_empty());
    parts.sort_by_key(|p| p[0]);
    let composites = parts
        .into_iter()
        .enumerate()
        .map(|(k, p)| CompositeModule::new(format!("P{}", k + 1), p))
        .collect();
    UserView::new(name, spec, composites).map_err(WarehouseError::Model)
}

/// The privacy view for `hidden` in `spec`: `RelevUserViewBuilder` with
/// relevance inverted (relevant = every module *not* hidden), followed by
/// a repair pass that merges any hidden module left in a singleton
/// composite into the composite of its smallest-id predecessor module
/// (falling back to its smallest successor, then to the smallest other
/// module), so every hidden module ends up concealed inside a composite
/// of at least two modules.
///
/// The two boundary cases the satellite audit called out are total here:
/// an empty `hidden` set is rejected up front (it means "no policy", not
/// "black box"), and hiding *every* module inverts to an empty relevant
/// set, which the builder already maps to the single black-box composite.
/// The only unsatisfiable shape is a workflow with one module: every
/// partition of one module is a singleton composite, which exposes the
/// module's full I/O behaviour — that is
/// [`WarehouseError::PolicyUnsatisfiable`], never a panicking `unwrap`.
pub fn conceal(spec: &WorkflowSpec, hidden: &[NodeId]) -> WhResult<UserView> {
    let mut hidden: Vec<NodeId> = hidden.to_vec();
    hidden.sort();
    hidden.dedup();
    debug_assert!(
        !hidden.is_empty(),
        "conceal() is for restricted specs; exempt specs never reach it"
    );
    if spec.module_count() <= 1 {
        return Err(WarehouseError::PolicyUnsatisfiable {
            spec: spec.name().to_string(),
            reason: "the workflow's only module is hidden, and every view of a \
                     single-module workflow is a singleton composite that exposes \
                     the module's full I/O behaviour"
                .to_string(),
        });
    }
    let hidden_set: HashSet<NodeId> = hidden.iter().copied().collect();
    let relevant: Vec<NodeId> = spec
        .module_ids()
        .filter(|m| !hidden_set.contains(m))
        .collect();
    let built = relev_user_view_builder(spec, &relevant).map_err(WarehouseError::Model)?;

    let mut parts: Vec<Vec<NodeId>> = built
        .view
        .composites()
        .iter()
        .map(|c| c.members.clone())
        .collect();
    // Repair: the inverted-relevance builder may leave a hidden module as
    // its own (non-relevant) composite when no relevant neighbour absorbs
    // it and no other hidden module shares its context. A singleton
    // composite exposes its module's exact I/O, so merge it — choosing
    // the neighbour deterministically keeps compilation reproducible
    // across shards and restarts.
    while let Some(i) = parts
        .iter()
        .position(|p| p.len() == 1 && hidden_set.contains(&p[0]))
    {
        let m = parts[i][0];
        let neighbour = spec
            .graph()
            .predecessors(m)
            .filter(|&n| spec.is_module(n))
            .min()
            .or_else(|| {
                spec.graph()
                    .successors(m)
                    .filter(|&n| spec.is_module(n))
                    .min()
            })
            .or_else(|| spec.module_ids().filter(|&n| n != m).min())
            .expect("module_count >= 2, so a merge partner exists");
        let j = parts
            .iter()
            .position(|p| p.contains(&neighbour))
            .expect("partition covers every module");
        debug_assert_ne!(i, j, "neighbour is a different module");
        let (keep, drop) = (i.min(j), i.max(j));
        let moved = parts.remove(drop);
        parts[keep].extend(moved);
    }

    let labels: Vec<&str> = hidden.iter().map(|&m| spec.label(m)).collect();
    view_from_parts(spec, format!("UPriv({})", labels.join(",")), parts)
}

/// The join of two partitions in the coarseness order: the finest
/// partition coarser than both `a` and `b` (transitive closure of "same
/// composite in either view"). Querying through the join reveals only
/// data visible in *both* views, so it is always at least as concealing
/// as the privacy view it folds in.
pub fn partition_join(
    spec: &WorkflowSpec,
    a: &UserView,
    b: &UserView,
    name: impl Into<String>,
) -> WhResult<UserView> {
    let n = spec.graph().node_count();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let union = |parent: &mut [usize], x: usize, y: usize| {
        let (rx, ry) = (find(parent, x), find(parent, y));
        if rx != ry {
            let (lo, hi) = (rx.min(ry), rx.max(ry));
            parent[hi] = lo;
        }
    };
    for view in [a, b] {
        for c in view.composites() {
            let first = c.members[0].index();
            for &m in &c.members[1..] {
                union(&mut parent, first, m.index());
            }
        }
    }
    let mut by_root: HashMap<usize, Vec<NodeId>> = HashMap::new();
    for m in spec.module_ids() {
        let root = find(&mut parent, m.index());
        by_root.entry(root).or_default().push(m);
    }
    view_from_parts(spec, name, by_root.into_values().collect())
}

/// `true` when `a` and `b` induce the same partition of the same spec's
/// modules (names are ignored — only visibility semantics matter).
pub fn partitions_equal(a: &UserView, b: &UserView) -> bool {
    a.spec_name() == b.spec_name() && a.refines(b) && b.refines(a)
}

/// The tables the policy compiler reads and registers privacy views
/// into: a shared [`Warehouse`] (read-only), a [`MutRegistrar`] over an
/// exclusively borrowed in-process [`Store`], or the sharded
/// [`crate::wire::ShardRouter`]. Enforcement counters land in the tables'
/// [`MetricsRegistry`](crate::metrics::MetricsRegistry).
pub trait ViewRegistry {
    /// Runs `f` over the registered specifications, views and runs. A
    /// router answers from shard 0, whose broadcast tables every shard
    /// shares; it records counters there too.
    fn with_tables<T>(&self, f: impl FnOnce(&Warehouse) -> T) -> T;
    /// Registers `view`, or returns the id of an existing view with the
    /// same name under `spec` without registering.
    fn register_view_if_absent(&self, spec: SpecId, view: &UserView) -> WhResult<ViewId>;
    /// The specification `run` belongs to. The gates look it up only
    /// once a policy is installed.
    fn run_spec(&self, run: RunId) -> WhResult<SpecId> {
        self.with_tables(|w| w.run_spec(run))
    }
    /// A clone of a registered specification.
    fn spec_of(&self, id: SpecId) -> WhResult<WorkflowSpec> {
        self.with_tables(|w| w.spec(id).cloned())
    }
    /// A clone of a registered view.
    fn view_of(&self, id: ViewId) -> WhResult<UserView> {
        self.with_tables(|w| w.view(id).cloned())
    }
    /// Counts one enforcement event.
    fn record(&self, event: Counter) {
        self.with_tables(|w| w.metrics_registry().add(event, 1))
    }
}

/// A shared warehouse borrow is a *read-only* registry, for the
/// query-time (`&self`) paths of the local facade. The facade eagerly
/// compiles after every registration, so query-time decisions are cache
/// lookups or refinement shortcuts that never register; if a genuinely
/// cold decision does need to register a join view, the attempt fails
/// closed with [`WarehouseError::ViewNotFound`] (the [`Gate`] maps
/// internal enforcement errors to the plain not-found rendering).
/// Registering goes through [`MutRegistrar`].
impl ViewRegistry for Warehouse {
    fn with_tables<T>(&self, f: impl FnOnce(&Warehouse) -> T) -> T {
        f(self)
    }
    fn register_view_if_absent(&self, spec: SpecId, view: &UserView) -> WhResult<ViewId> {
        self.find_view(spec, view.name())
            .ok_or(WarehouseError::ViewNotFound(ViewId(u32::MAX)))
    }
}

/// [`ViewRegistry`] over an exclusively borrowed in-process [`Store`].
/// The policy compiler's trait takes `&self` (the daemon path registers
/// through the router's interior mutability), so the exclusive borrow is
/// threaded through a `RefCell` — sound because the compiler never
/// re-enters the registrar.
pub struct MutRegistrar<'a, B: ?Sized = Warehouse>(RefCell<&'a mut B>);

impl<'a, B: Store + ?Sized> MutRegistrar<'a, B> {
    /// Wraps an exclusively borrowed store.
    pub fn new(store: &'a mut B) -> Self {
        MutRegistrar(RefCell::new(store))
    }
}

impl<B: Store + ?Sized> ViewRegistry for MutRegistrar<'_, B> {
    fn with_tables<T>(&self, f: impl FnOnce(&Warehouse) -> T) -> T {
        f(self.0.borrow().tables())
    }
    fn register_view_if_absent(&self, spec: SpecId, view: &UserView) -> WhResult<ViewId> {
        self.0
            .borrow_mut()
            .register_view_if_absent(spec, view.clone())
    }
}

/// The compiled outcome of one (tenant × spec) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Compiled {
    /// The spec contains nothing this tenant's policy hides.
    Exempt,
    /// The workflow is hidden outright — or its policy is unsatisfiable,
    /// which must render identically to absence (surfacing "your policy
    /// cannot conceal this workflow" at query time would itself confirm
    /// the workflow exists).
    Denied,
    /// Queries run through the privacy view (or its meet with the
    /// requested view).
    Restricted {
        /// The registered privacy view.
        privacy: ViewId,
    },
}

/// What the enforcement point should do with one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Decision {
    /// Execute unchanged.
    Pass,
    /// Refuse, rendered byte-identically to the not-found error the same
    /// request would produce if the target did not exist.
    Deny,
    /// Execute against this view instead of the requested one.
    Substitute(ViewId),
}

/// Per-tenant policies plus the compiled caches. All methods take
/// `&self`; interior locks are per-map `RwLock`s and the no-policy fast
/// path reads one atomic.
#[derive(Debug, Default)]
pub struct PolicyTable {
    policies: RwLock<HashMap<String, Arc<VisibilityPolicy>>>,
    /// Number of tenants with an installed policy — the query fast path.
    count: AtomicUsize,
    compiled: RwLock<HashMap<(String, SpecId), Compiled>>,
    /// (tenant × requested view) → effective view, for Restricted specs.
    effective: RwLock<HashMap<(String, ViewId), ViewId>>,
}

impl PolicyTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when no tenant has a policy — one relaxed atomic load, the
    /// entire per-query cost for unrestricted deployments.
    pub fn is_empty(&self) -> bool {
        self.count.load(Ordering::Relaxed) == 0
    }

    /// The installed policy for `tenant`, if any.
    pub fn get(&self, tenant: &str) -> Option<Arc<VisibilityPolicy>> {
        self.policies.read().get(tenant).cloned()
    }

    /// Tenants with an installed policy, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let mut t: Vec<String> = self.policies.read().keys().cloned().collect();
        t.sort();
        t
    }

    /// Installs (or with `None`/an empty policy, clears) `tenant`'s
    /// policy, after strictly compiling it against every registered spec
    /// so an unsatisfiable policy fails *here*, at administration time,
    /// instead of silently denying at query time. Compiled caches for the
    /// tenant are purged either way.
    pub fn install<R: ViewRegistry>(
        &self,
        tenant: &str,
        policy: Option<VisibilityPolicy>,
        reg: &R,
    ) -> WhResult<()> {
        let policy = policy.filter(|p| !p.is_empty());
        if let Some(p) = &policy {
            for spec_id in reg.with_tables(Warehouse::spec_ids) {
                let spec = reg.spec_of(spec_id)?;
                if p.hides_workflow(spec.name()) {
                    continue;
                }
                let hidden = p.hidden_in(&spec);
                if !hidden.is_empty() {
                    // Surfaces PolicyUnsatisfiable without registering:
                    // registration happens lazily on the first decision.
                    conceal(&spec, &hidden)?;
                }
            }
        }
        self.purge_tenant(tenant);
        let mut policies = self.policies.write();
        match policy {
            Some(p) => {
                policies.insert(tenant.to_string(), Arc::new(p));
            }
            None => {
                policies.remove(tenant);
            }
        }
        self.count.store(policies.len(), Ordering::Relaxed);
        drop(policies);
        Ok(())
    }

    /// Drops `tenant`'s compiled cache entries.
    fn purge_tenant(&self, tenant: &str) {
        self.compiled.write().retain(|(t, _), _| t != tenant);
        self.effective.write().retain(|(t, _), _| t != tenant);
    }

    /// The compiled outcome for (tenant × spec), compiling and
    /// registering the privacy view on first use. Unsatisfiable policies
    /// compile to [`Compiled::Denied`] — at query time the tenant must
    /// see plain absence.
    fn compiled_for<R: ViewRegistry>(
        &self,
        tenant: &str,
        policy: &VisibilityPolicy,
        spec_id: SpecId,
        reg: &R,
    ) -> WhResult<Compiled> {
        if let Some(c) = self
            .compiled
            .read()
            .get(&(tenant.to_string(), spec_id))
            .copied()
        {
            reg.record(Counter::PolicyCacheHits);
            return Ok(c);
        }
        let spec = reg.spec_of(spec_id)?;
        let outcome = if policy.hides_workflow(spec.name()) {
            Compiled::Denied
        } else {
            let hidden = policy.hidden_in(&spec);
            if hidden.is_empty() {
                Compiled::Exempt
            } else {
                match conceal(&spec, &hidden) {
                    Ok(view) => {
                        reg.record(Counter::PolicyCompilations);
                        let id = register_named(reg, spec_id, view)?;
                        Compiled::Restricted { privacy: id }
                    }
                    Err(WarehouseError::PolicyUnsatisfiable { .. }) => Compiled::Denied,
                    Err(e) => return Err(e),
                }
            }
        };
        self.compiled
            .write()
            .insert((tenant.to_string(), spec_id), outcome);
        Ok(outcome)
    }

    /// Whether `tenant` may address `spec_id` at all. `true` means
    /// denied: the caller renders the same not-found error bytes a
    /// genuinely absent target would produce.
    fn spec_denied<R: ViewRegistry>(
        &self,
        tenant: &str,
        spec_id: SpecId,
        reg: &R,
    ) -> WhResult<bool> {
        if self.is_empty() {
            return Ok(false);
        }
        let Some(policy) = self.get(tenant) else {
            return Ok(false);
        };
        let denied = matches!(
            self.compiled_for(tenant, &policy, spec_id, reg)?,
            Compiled::Denied
        );
        if denied {
            reg.record(Counter::PolicyDenials);
        }
        Ok(denied)
    }

    /// `true` when `tenant`'s policy conceals modules inside `spec_id`
    /// (compiled state `Restricted`); see [`Gate::conceal`].
    fn spec_restricted<R: ViewRegistry>(
        &self,
        tenant: &str,
        spec_id: SpecId,
        reg: &R,
    ) -> WhResult<bool> {
        if self.is_empty() {
            return Ok(false);
        }
        let Some(policy) = self.get(tenant) else {
            return Ok(false);
        };
        Ok(matches!(
            self.compiled_for(tenant, &policy, spec_id, reg)?,
            Compiled::Restricted { .. }
        ))
    }

    /// The enforcement decision for one view-addressed query by `tenant`
    /// against `spec_id` through `requested`.
    ///
    /// A `requested` id that does not resolve, or that belongs to another
    /// spec, passes through unchanged so the natural error path renders —
    /// enforcement must not invent new error shapes an attacker could
    /// fingerprint.
    fn view_decision<R: ViewRegistry>(
        &self,
        tenant: &str,
        spec_id: SpecId,
        requested: ViewId,
        reg: &R,
    ) -> WhResult<Decision> {
        if self.is_empty() {
            return Ok(Decision::Pass);
        }
        let Some(policy) = self.get(tenant) else {
            return Ok(Decision::Pass);
        };
        match self.compiled_for(tenant, &policy, spec_id, reg)? {
            Compiled::Exempt => Ok(Decision::Pass),
            Compiled::Denied => {
                reg.record(Counter::PolicyDenials);
                Ok(Decision::Deny)
            }
            Compiled::Restricted { privacy } => {
                if let Some(&eff) = self.effective.read().get(&(tenant.to_string(), requested)) {
                    reg.record(Counter::PolicyCacheHits);
                    return Ok(if eff == requested {
                        Decision::Pass
                    } else {
                        reg.record(Counter::PolicySubstitutions);
                        Decision::Substitute(eff)
                    });
                }
                let spec = reg.spec_of(spec_id)?;
                let Ok(req_view) = reg.view_of(requested) else {
                    return Ok(Decision::Pass);
                };
                if req_view.spec_name() != spec.name() {
                    return Ok(Decision::Pass);
                }
                let priv_view = reg.view_of(privacy)?;
                let eff = if priv_view.refines(&req_view) {
                    // The request is already at least as coarse as the
                    // privacy view (e.g. UBlackBox): nothing to enforce.
                    requested
                } else if req_view.refines(&priv_view) {
                    // The request is strictly finer (e.g. UAdmin): the
                    // privacy view *is* the meet.
                    privacy
                } else {
                    let name = format!("{}⊓{}", req_view.name(), priv_view.name());
                    let joined = partition_join(&spec, &req_view, &priv_view, name)?;
                    register_named(reg, spec_id, joined)?
                };
                self.effective
                    .write()
                    .insert((tenant.to_string(), requested), eff);
                if eff == requested {
                    Ok(Decision::Pass)
                } else {
                    reg.record(Counter::PolicySubstitutions);
                    Ok(Decision::Substitute(eff))
                }
            }
        }
    }

    /// Eagerly compiles every installed policy against every registered
    /// spec and view — the local facade calls this after each
    /// registration so query-time decisions are pure cache lookups.
    /// Unsatisfiable combinations compile to denial (matching the lazy
    /// path); errors from the registry itself propagate.
    pub fn compile_all<R: ViewRegistry>(&self, reg: &R) -> WhResult<()> {
        if self.is_empty() {
            return Ok(());
        }
        for tenant in self.tenants() {
            let Some(policy) = self.get(&tenant) else {
                continue;
            };
            for spec_id in reg.with_tables(Warehouse::spec_ids) {
                let compiled = self.compiled_for(&tenant, &policy, spec_id, reg)?;
                if matches!(compiled, Compiled::Restricted { .. }) {
                    for view_id in reg.with_tables(|w| w.views_of_spec(spec_id).to_vec()) {
                        self.view_decision(&tenant, spec_id, view_id, reg)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// One tenant's enforcement point, built per request by both facades:
/// the local `Zoom::apply_as` and the daemon's request handler.
///
/// Every gate starts with the [`PolicyTable::is_empty`] load, so a
/// deployment without policies pays one branch, and looks the run's spec
/// up only past it. Denials render byte-identically to the not-found
/// error an absent target produces. Internal policy errors fail *closed*
/// the same way — a distinct error would confirm the target exists.
pub struct Gate<'a, R> {
    policies: &'a PolicyTable,
    tenant: &'a str,
    reg: &'a R,
}

impl PolicyTable {
    /// `tenant`'s [`Gate`] over `reg`.
    pub fn gate<'a, R: ViewRegistry>(&'a self, tenant: &'a str, reg: &'a R) -> Gate<'a, R> {
        Gate {
            policies: self,
            tenant,
            reg,
        }
    }
}

impl<R: ViewRegistry> Gate<'_, R> {
    /// `run`'s spec, looked up only once a policy is installed; `None`
    /// for a run the registry cannot resolve, whose natural
    /// `RunNotFound` then renders downstream.
    fn policed_spec(&self, run: RunId) -> Option<SpecId> {
        if self.policies.is_empty() {
            return None;
        }
        self.reg.run_spec(run).ok()
    }

    /// Whether the tenant's policy hides `spec` (internal errors deny).
    fn denied(&self, spec: SpecId) -> bool {
        !matches!(
            self.policies.spec_denied(self.tenant, spec, self.reg),
            Ok(false)
        )
    }

    /// The view gate: the view a query against `(run, view)` executes
    /// with — unchanged for unrestricted tenants, the compiled privacy
    /// (or meet) view for restricted ones, and `Err(RunNotFound)` when
    /// the policy denies the run's workflow.
    pub fn view(&self, run: RunId, view: ViewId) -> WhResult<ViewId> {
        let Some(spec) = self.policed_spec(run) else {
            return Ok(view);
        };
        // One compiled-cache read: the decision maps a denied workflow to
        // `Deny` itself.
        match self
            .policies
            .view_decision(self.tenant, spec, view, self.reg)
        {
            Ok(Decision::Pass) => Ok(view),
            Ok(Decision::Substitute(v)) => Ok(v),
            Ok(Decision::Deny) | Err(_) => Err(WarehouseError::RunNotFound(run)),
        }
    }

    /// The run gate, for viewless run-addressed requests:
    /// `Err(RunNotFound)` when the policy hides the run's workflow.
    fn run(&self, run: RunId) -> WhResult<()> {
        match self.policed_spec(run) {
            Some(spec) if self.denied(spec) => Err(WarehouseError::RunNotFound(run)),
            _ => Ok(()),
        }
    }

    /// The spec gate, for spec-addressed requests (ingest, view
    /// building): `Err(SpecNotFound)` when the policy hides the workflow.
    pub fn spec(&self, spec: SpecId) -> WhResult<()> {
        if !self.policies.is_empty() && self.denied(spec) {
            return Err(WarehouseError::SpecNotFound(spec));
        }
        Ok(())
    }

    /// The id a view-returning request hands back: a restricted tenant
    /// gets its effective view, so the id it holds is already safe to
    /// query with and never finer than its policy allows.
    pub fn view_id(&self, spec: SpecId, id: ViewId) -> ViewId {
        if self.policies.is_empty() {
            return id;
        }
        match self.policies.view_decision(self.tenant, spec, id, self.reg) {
            Ok(Decision::Substitute(v)) => v,
            _ => id,
        }
    }

    /// Renders hidden-data answers as absence: a
    /// [`WarehouseError::DataNotVisible`] from a query against `run`
    /// becomes [`WarehouseError::DataNotFound`] when the tenant's policy
    /// conceals modules in the run's workflow. Without this, probing a
    /// data id internal to a concealed composite answers "exists but
    /// hidden" — an existence oracle distinguishing two runs that differ
    /// only inside hidden modules.
    fn conceal<T>(&self, run: RunId, res: WhResult<T>) -> WhResult<T> {
        let Err(WarehouseError::DataNotVisible { data, view }) = res else {
            return res;
        };
        if let Some(spec) = self.policed_spec(run) {
            match self.policies.spec_restricted(self.tenant, spec, self.reg) {
                Ok(true) | Err(_) => return Err(WarehouseError::DataNotFound(data)),
                Ok(false) => {}
            }
        }
        Err(WarehouseError::DataNotVisible { data, view })
    }

    /// The one enforcement point: maps `op`'s kind to its privacy checks
    /// and runs `exec` on what passes.
    ///
    /// * Spec-addressed writes and view building pass the spec gate;
    ///   view-returning ops hand back the [`Gate::view_id`] rewrite.
    /// * Stream appends, seals and final outputs pass the run gate.
    /// * View-addressed queries pass the view gate, run at the effective
    ///   view, and have a `DataNotVisible` answer concealed as
    ///   `DataNotFound` when the policy restricts the workflow.
    /// * A batch routes every triple through the view gate on its own.
    ///
    /// Spec registration is ungated: it addresses nothing that exists.
    pub fn apply(&self, op: &Op, exec: impl FnOnce(&Op) -> WhResult<Answer>) -> WhResult<Answer> {
        if self.policies.is_empty() {
            return exec(op);
        }
        match op {
            Op::RegisterSpec(_) => exec(op),
            Op::RegisterView(spec, _) | Op::BuildView(spec, _) | Op::AdminView(spec) => {
                self.spec(*spec)?;
                Ok(match exec(op)? {
                    Answer::View(id) => Answer::View(self.view_id(*spec, id)),
                    other => other,
                })
            }
            Op::LoadLog(spec, _) | Op::BeginStream(spec) => {
                self.spec(*spec)?;
                exec(op)
            }
            Op::PushEvent(run, _) | Op::SealStream(run) | Op::FinalOutputs(run) => {
                self.run(*run)?;
                exec(op)
            }
            Op::DeepProvenance(run, view, _)
            | Op::ImmediateProvenance(run, view, _)
            | Op::DependentsOf(run, view, _)
            | Op::DataBetween(run, view, ..)
            | Op::VisibleData(run, view) => {
                let effective = self.view(*run, *view)?;
                let answer = if effective == *view {
                    exec(op)
                } else {
                    exec(&op.retarget(*run, Some(effective)))
                };
                self.conceal(*run, answer)
            }
            Op::Batch(queries) => self.batch(queries, exec),
        }
    }

    /// The batch slot router: each triple passes the view gate on its
    /// own. Allowed triples keep their input slot and run as one batch at
    /// their effective views; denied ones answer in place with the error
    /// an absent run produces.
    fn batch(
        &self,
        queries: &[(RunId, ViewId, DataId)],
        exec: impl FnOnce(&Op) -> WhResult<Answer>,
    ) -> WhResult<Answer> {
        let mut slots: Vec<Option<WhResult<ProvenanceResult>>> =
            (0..queries.len()).map(|_| None).collect();
        let mut routed: Vec<(usize, (RunId, ViewId, DataId))> = Vec::new();
        for (i, &(run, view, data)) in queries.iter().enumerate() {
            match self.view(run, view) {
                Ok(v) => routed.push((i, (run, v, data))),
                Err(e) => slots[i] = Some(Err(e)),
            }
        }
        let triples = routed.iter().map(|&(_, t)| t).collect();
        let answers = match exec(&Op::Batch(triples))? {
            Answer::Batch(answers) => answers,
            other => return Ok(other),
        };
        for (&(i, (run, _, _)), ans) in routed.iter().zip(answers) {
            slots[i] = Some(self.conceal(run, ans));
        }
        Ok(Answer::Batch(
            slots
                .into_iter()
                .map(|s| s.expect("every batch slot answered"))
                .collect(),
        ))
    }
}

/// Registers `view` under a collision-safe name: if a different partition
/// already owns the name (a tenant maliciously pre-registering `UPriv(…)`
/// must not capture the privacy view), deterministic `#2`, `#3`, …
/// suffixes are tried until a free name — or an equal partition, which is
/// reused — is found.
fn register_named<R: ViewRegistry>(reg: &R, spec_id: SpecId, view: UserView) -> WhResult<ViewId> {
    let base = view.name().to_string();
    let spec = reg.spec_of(spec_id)?;
    let mut name = base.clone();
    let mut k = 2;
    loop {
        match reg.with_tables(|w| w.find_view(spec_id, &name)) {
            Some(existing) => {
                let existing_view = reg.view_of(existing)?;
                if partitions_equal(&existing_view, &view) {
                    return Ok(existing);
                }
            }
            None => {
                let renamed = UserView::new(name.clone(), &spec, view.composites().to_vec())
                    .map_err(WarehouseError::Model)?;
                let id = reg.register_view_if_absent(spec_id, &renamed)?;
                // A racing registration of the same name with a different
                // partition loses here and retries under the next suffix.
                let won = reg.view_of(id)?;
                if partitions_equal(&won, &renamed) {
                    return Ok(id);
                }
            }
        }
        name = format!("{base}#{k}");
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoom_model::SpecBuilder;

    fn chain(labels: &[&str]) -> WorkflowSpec {
        let mut b = SpecBuilder::new("chain");
        for l in labels {
            b.analysis(*l);
        }
        b.from_input(labels[0]);
        for w in labels.windows(2) {
            b.edge(w[0], w[1]);
        }
        b.to_output(labels[labels.len() - 1]);
        b.build().expect("valid chain spec")
    }

    #[test]
    fn conceal_absorbs_hidden_module_into_neighbour() {
        let s = chain(&["A", "H", "B"]);
        let h = s.module("H").expect("module");
        let v = conceal(&s, &[h]).expect("satisfiable");
        v.validate(&s).expect("valid partition");
        let c = v.composite_of(h);
        assert!(
            v.members(c).len() >= 2,
            "hidden module must not be a singleton composite: {v:?}"
        );
    }

    #[test]
    fn conceal_all_modules_is_black_box() {
        let s = chain(&["A", "B", "C"]);
        let all: Vec<NodeId> = s.module_ids().collect();
        let v = conceal(&s, &all).expect("black box conceals everything");
        assert_eq!(v.size(), 1);
    }

    #[test]
    fn conceal_single_module_spec_is_unsatisfiable() {
        let s = chain(&["Only"]);
        let m = s.module("Only").expect("module");
        match conceal(&s, &[m]) {
            Err(WarehouseError::PolicyUnsatisfiable { spec, .. }) => assert_eq!(spec, "chain"),
            other => panic!("expected PolicyUnsatisfiable, got {other:?}"),
        }
    }

    #[test]
    fn join_is_coarser_than_both() {
        let s = chain(&["A", "B", "C", "D"]);
        let m = |l: &str| s.module(l).expect("module");
        let v1 = view_from_parts(
            &s,
            "V1",
            vec![vec![m("A"), m("B")], vec![m("C")], vec![m("D")]],
        )
        .expect("valid");
        let v2 = view_from_parts(
            &s,
            "V2",
            vec![vec![m("A")], vec![m("B"), m("C")], vec![m("D")]],
        )
        .expect("valid");
        let j = partition_join(&s, &v1, &v2, "J").expect("joins");
        assert!(v1.refines(&j));
        assert!(v2.refines(&j));
        assert_eq!(j.size(), 2); // {A,B,C} ∪ {D}
    }

    #[test]
    fn a_gated_query_reads_the_compiled_cache_once() {
        let mut wh = Warehouse::new();
        let s = chain(&["A", "H", "B"]);
        let sid = wh.register_spec(s.clone()).expect("registers");
        let admin = wh
            .register_view(sid, UserView::admin(&s))
            .expect("registers");
        let mut rb = zoom_model::RunBuilder::new(&s);
        let steps: Vec<_> = ["A", "H", "B"]
            .iter()
            .map(|l| rb.step(s.module(l).expect("module")))
            .collect();
        rb.input_edge(steps[0], [1])
            .data_edge(steps[0], steps[1], [2])
            .data_edge(steps[1], steps[2], [3])
            .output_edge(steps[2], [4]);
        let rid = wh.load_run(sid, rb.build().expect("run")).expect("loads");
        let table = PolicyTable::new();
        {
            let reg = MutRegistrar::new(&mut wh);
            for (tenant, hidden_modules, hidden_workflows) in [
                ("restricted", vec!["H".into()], vec![]),
                ("denied", vec![], vec!["chain".into()]),
                ("exempt", vec!["Z".into()], vec![]),
            ] {
                let policy = VisibilityPolicy {
                    hidden_modules,
                    hidden_workflows,
                };
                table.install(tenant, Some(policy), &reg).expect("installs");
            }
            table.compile_all(&reg).expect("compiles");
        }
        let privacy = || wh.metrics().privacy;
        // One compiled-cache hit per query; a restricted workflow adds
        // the effective-view cache's hit.
        for (tenant, hits, denials) in [("restricted", 2, 0), ("denied", 1, 1), ("exempt", 1, 0)] {
            let before = privacy();
            let _ = table.gate(tenant, &wh).view(rid, admin);
            let after = privacy();
            assert_eq!(
                (
                    after.cache_hits - before.cache_hits,
                    after.denials - before.denials
                ),
                (hits, denials),
                "{tenant}"
            );
        }
    }

    #[test]
    fn decision_table_fast_path_and_substitution() {
        let mut wh = Warehouse::new();
        let s = chain(&["A", "H", "B"]);
        let h = s.module("H").expect("module");
        let sid = wh.register_spec(s.clone()).expect("registers");
        let admin = wh
            .register_view(sid, UserView::admin(&s))
            .expect("registers");
        let table = PolicyTable::new();
        assert!(table.is_empty());

        {
            let reg = MutRegistrar::new(&mut wh);
            table
                .install(
                    "restricted",
                    Some(VisibilityPolicy {
                        hidden_modules: vec!["H".into()],
                        hidden_workflows: vec![],
                    }),
                    &reg,
                )
                .expect("satisfiable");
            assert!(!table.is_empty());
            // Unrestricted tenant: pass.
            assert_eq!(
                table
                    .view_decision("other", sid, admin, &reg)
                    .expect("decides"),
                Decision::Pass
            );
            // Restricted tenant through UAdmin: substituted to the
            // privacy view (UAdmin refines everything).
            let d = table
                .view_decision("restricted", sid, admin, &reg)
                .expect("decides");
            let Decision::Substitute(pv) = d else {
                panic!("expected substitution, got {d:?}");
            };
            let priv_view = reg.view_of(pv).expect("registered");
            assert!(priv_view.members(priv_view.composite_of(h)).len() >= 2);
            // Cached second decision.
            assert_eq!(
                table
                    .view_decision("restricted", sid, admin, &reg)
                    .expect("decides"),
                Decision::Substitute(pv)
            );
        }
        let snap = wh.metrics();
        assert!(snap.privacy.substitutions >= 2);
        assert!(snap.privacy.cache_hits >= 1);
        assert_eq!(snap.privacy.compilations, 1);
    }

    #[test]
    fn hidden_workflow_denies_and_unsatisfiable_denies_lazily() {
        let mut wh = Warehouse::new();
        let s = chain(&["A", "B"]);
        let sid = wh.register_spec(s).expect("registers");
        let table = PolicyTable::new();
        let reg = MutRegistrar::new(&mut wh);
        table
            .install(
                "t",
                Some(VisibilityPolicy {
                    hidden_modules: vec![],
                    hidden_workflows: vec!["chain".into()],
                }),
                &reg,
            )
            .expect("installs");
        assert!(table.spec_denied("t", sid, &reg).expect("decides"));
        assert!(!table.spec_denied("other", sid, &reg).expect("decides"));
    }

    #[test]
    fn install_rejects_unsatisfiable_policy_up_front() {
        let mut wh = Warehouse::new();
        let s = chain(&["Only"]);
        wh.register_spec(s).expect("registers");
        let table = PolicyTable::new();
        let reg = MutRegistrar::new(&mut wh);
        let err = table
            .install(
                "t",
                Some(VisibilityPolicy {
                    hidden_modules: vec!["Only".into()],
                    hidden_workflows: vec![],
                }),
                &reg,
            )
            .expect_err("unsatisfiable");
        assert!(matches!(err, WarehouseError::PolicyUnsatisfiable { .. }));
        assert!(table.is_empty(), "failed install must not leave a policy");
    }

    #[test]
    fn name_squatting_cannot_capture_the_privacy_view() {
        let mut wh = Warehouse::new();
        let s = chain(&["A", "H", "B"]);
        let sid = wh.register_spec(s.clone()).expect("registers");
        // An attacker pre-registers a fully-revealing view under the
        // name the compiler would pick.
        let squat = UserView::new(
            "UPriv(H)",
            &s,
            s.module_ids()
                .map(|m| CompositeModule::new(s.label(m).to_string(), vec![m]))
                .collect(),
        )
        .expect("valid squat");
        wh.register_view(sid, squat).expect("registers");
        let admin = wh
            .register_view(sid, UserView::admin(&s))
            .expect("registers");
        let table = PolicyTable::new();
        let reg = MutRegistrar::new(&mut wh);
        table
            .install(
                "t",
                Some(VisibilityPolicy {
                    hidden_modules: vec!["H".into()],
                    hidden_workflows: vec![],
                }),
                &reg,
            )
            .expect("installs");
        let d = table.view_decision("t", sid, admin, &reg).expect("decides");
        let Decision::Substitute(pv) = d else {
            panic!("expected substitution, got {d:?}");
        };
        let v = reg.view_of(pv).expect("registered");
        assert_eq!(v.name(), "UPriv(H)#2", "squatted name must be skipped");
        let h = s.module("H").expect("module");
        assert!(
            v.members(v.composite_of(h)).len() >= 2,
            "the squatted singleton view must not be reused"
        );
    }
}

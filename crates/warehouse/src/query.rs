//! Provenance queries over materialized view-runs.
//!
//! Two semantics coexist, both taken from the paper:
//!
//! * **Immediate provenance** of a visible object is the producing
//!   (possibly virtual) execution together with its *full input set* —
//!   "the immediate provenance of d413 seen by Joe would be S13 and its
//!   input, {d308,…,d408}" (Section II).
//! * **Deep provenance** follows the prototype's implementation: "first
//!   compute UAdmin and then remove information hidden within composite
//!   steps of the given user view" (Section V-B). The answer is the
//!   base-level recursive closure (the `CONNECT BY` analog on the raw run),
//!   projected to the data visible at the view level, with steps replaced
//!   by their composite executions. This projection is what makes the
//!   paper's Figure 10 monotone — coarser views always return *fewer*
//!   tuples — whereas naively recursing over full composite input sets
//!   could drag in side-branch inputs that never fed the queried object.
//!
//! [`deep_provenance`] and [`dependents_of`] read the base closure from a
//! [`Reach`] — a per-query BFS, a prebuilt [`ProvenanceIndex`] row, or a
//! [`LabelIndex`] — under a [`Deadline`], and share one projection kernel.
//! `deep_provenance_indexed`/`_labeled` are their deadline-free bitset and
//! label forms. The `*_bfs` reference forms are the original
//! whole-graph-scan implementation, kept verbatim as the oracle for the
//! property tests.

use crate::index::ProvenanceIndex;
use crate::labels::LabelIndex;
use crate::resilience::{Deadline, Interrupt};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use zoom_graph::{radix_sort_by_key, BitSet, EdgeId, NodeId};
use zoom_model::{DataId, StepId, ViewRun, WorkflowRun};

/// A structural inconsistency detected while answering a query — the
/// [`ViewRun`] does not belong to the run being queried (or was
/// hand-loaded corrupt). Formerly these aborted the process via
/// `expect`; a serving system must refuse the query instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryError {
    /// The producer node of `data` in the view-run is neither the input
    /// endpoint nor an execution node.
    ProducerNotAnExec {
        /// The queried data object.
        data: DataId,
    },
    /// A step in the run's closure has no execution in the view-run —
    /// the view-run was materialized from a different run.
    StepWithoutExec {
        /// The orphaned step.
        step: StepId,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::ProducerNotAnExec { data } => write!(
                f,
                "producer of data object {} is neither the input endpoint nor an execution",
                data.0
            ),
            QueryError::StepWithoutExec { step } => write!(
                f,
                "step {} has no execution in the view-run (view-run built from a different run?)",
                step.0
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Why a deadline-aware deep query did not produce an answer: either the
/// view-run is structurally inconsistent ([`QueryError`]) or the traversal
/// was interrupted by its [`Deadline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryFailure {
    /// A structural inconsistency (the non-resilient failure mode).
    Corrupt(QueryError),
    /// The deadline passed or the query was cancelled mid-traversal.
    Interrupted(Interrupt),
}

impl From<QueryError> for QueryFailure {
    fn from(e: QueryError) -> Self {
        QueryFailure::Corrupt(e)
    }
}

impl From<Interrupt> for QueryFailure {
    fn from(i: Interrupt) -> Self {
        QueryFailure::Interrupted(i)
    }
}

impl fmt::Display for QueryFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryFailure::Corrupt(e) => e.fmt(f),
            QueryFailure::Interrupted(i) => i.fmt(f),
        }
    }
}

impl std::error::Error for QueryFailure {}

/// Unwraps a [`QueryFailure`] from a traversal run under
/// [`Deadline::unlimited`], where interruption is impossible.
fn corrupt_only(f: QueryFailure) -> QueryError {
    match f {
        QueryFailure::Corrupt(e) => e,
        QueryFailure::Interrupted(_) => unreachable!("unlimited deadline never interrupts"),
    }
}

/// One row of a provenance answer: a visible data object and its producer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProvenanceRow {
    /// The data object.
    pub data: DataId,
    /// Its producer: the (possibly virtual) execution id, or `None` for
    /// user-input data.
    pub producer: Option<StepId>,
}

/// The answer to a deep-provenance query at some view level.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceResult {
    /// The queried data object.
    pub target: DataId,
    /// One row per data object in the provenance (sorted by data id) —
    /// the result-size metric of the paper's Figures 10 and 11.
    pub rows: Vec<ProvenanceRow>,
    /// The distinct (possibly virtual) executions involved, sorted.
    pub execs: Vec<StepId>,
}

impl ProvenanceResult {
    /// Number of tuples in the answer (the Figure 10/11 y-axis).
    pub fn tuples(&self) -> usize {
        self.rows.len()
    }

    /// Number of distinct data items in the answer.
    pub fn data_items(&self) -> usize {
        self.rows.len()
    }

    /// Number of executions in the answer.
    pub fn exec_count(&self) -> usize {
        self.execs.len()
    }

    /// The distinct data ids, sorted.
    pub fn data_ids(&self) -> Vec<DataId> {
        self.rows.iter().map(|r| r.data).collect()
    }
}

/// The immediate provenance of a data object (Section II).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ImmediateProvenance {
    /// Produced by a (possibly virtual) execution; the answer is that
    /// execution and its full input set.
    Produced {
        /// The producing execution id.
        exec: StepId,
        /// The execution's input data, sorted.
        inputs: Vec<DataId>,
    },
    /// Input by the user; the answer is whatever metadata was recorded
    /// (resolved by the warehouse layer, which owns the run metadata).
    UserInput,
}

/// Computes the immediate provenance of `d` at this view level.
/// `Ok(None)` means `d` is not visible (it was passed strictly inside a
/// composite execution); an error means the view-run is structurally
/// inconsistent.
pub fn immediate_provenance(
    run: &WorkflowRun,
    vr: &ViewRun,
    d: DataId,
) -> Result<Option<ImmediateProvenance>, QueryError> {
    let Some(producer) = vr.producer_node(run, d) else {
        return Ok(None);
    };
    if producer == vr.input() {
        return Ok(Some(ImmediateProvenance::UserInput));
    }
    let Some(i) = vr.exec_index_at(producer) else {
        return Err(QueryError::ProducerNotAnExec { data: d });
    };
    Ok(Some(ImmediateProvenance::Produced {
        exec: vr.exec(i).id,
        inputs: vr.inputs_of(run, i),
    }))
}

/// The (possibly virtual) execution id of run-graph node `node`: `None`
/// for the input/output endpoints, an error for a step the view-run has no
/// execution for (it was built from a different run). One dense array load
/// on the answer path; the run is only consulted to name the orphan.
#[inline]
fn exec_id_at(run: &WorkflowRun, vr: &ViewRun, node: NodeId) -> Result<Option<StepId>, QueryError> {
    if let Some(e) = vr.exec_at_run_node(node) {
        return Ok(Some(e.id));
    }
    match run.step_at(node) {
        Some((sid, _)) => Err(QueryError::StepWithoutExec { step: sid }),
        None => Ok(None),
    }
}

/// The run-graph producer of `d` and `d`'s canonical slot when `d` is
/// visible through `vr`. A view-run whose tables do not fit `run` was
/// built from another run and cannot vouch for visibility: the error names
/// `d`'s producing step.
fn visible_start(
    run: &WorkflowRun,
    vr: &ViewRun,
    d: DataId,
) -> Result<Option<(NodeId, usize)>, QueryError> {
    if !vr.fits(run) {
        if let Some((step, _)) = run.producer_node(d).and_then(|p| run.step_at(p)) {
            return Err(QueryError::StepWithoutExec { step });
        }
    }
    Ok(vr.visible_producer_slot(run, d))
}

/// The edges of a closure member that carry an answer's data.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    /// Deep provenance: the members' in-edges; the answer also lists the
    /// members' executions.
    Deep,
    /// Forward provenance (dependents): the members' out-edges.
    Forward,
}

/// The projection kernel behind every deep-provenance and dependents
/// form: the data visible through `vr` on the `side` edges of the closure
/// `members` (plus the datum at slot `target`), one row per datum by
/// ascending id, and for [`Side::Deep`] the members' executions by
/// ascending id. Member order is irrelevant and repeats are harmless.
///
/// 1. *Gather.* Each member's edge slots are or-ed, a word at a time, from
///    the view's visibility bits into a slot bitset. Deep marks each
///    member's execution index in a second bitset; forward marks the
///    member itself there instead, so a closure assembled from
///    overlapping parts is gathered once.
/// 2. *Rows.* The set slots are walked in slot order an edge at a time,
///    with one producer lookup per edge. A datum is emitted at its
///    canonical slot ([`WorkflowRun::is_canonical_slot`]). At any other
///    slot it is emitted only if its canonical slot is unmarked, which the
///    walk (already past it) then marks, so every datum is emitted once.
/// 3. *Fallback sort.* Slot order is usually id order already. If the
///    emitted ids are not ascending, one radix sort by id restores it
///    ([`radix_sort_by_key`]: stable, two passes for a run's small ids);
///    ids are unique, since a datum has one producer.
/// 4. *Execs.* The execution bitset is read twice: non-virtual executions,
///    then virtual ones. That is ascending by id, since execution index
///    order follows each execution's smallest member step, a non-virtual
///    execution's id is its one member step, and virtual ids are numbered
///    in index order after the largest step id.
///
/// One scratch allocation holds both bitsets, and `rows` and `execs` are
/// allocated once each at their final size: a deep projection makes three
/// heap allocations and a forward one two, plus the fallback sort's
/// buffer when it runs. The cost is `O(answer + (execs + slots) / 64)` words
/// (forward: nodes for execs), and only zeroing the scratch is paid on
/// the whole run: the reads cover just the span of words the gather
/// touched. The deadline is polled per member.
fn project<R: Row>(
    run: &WorkflowRun,
    vr: &ViewRun,
    side: Side,
    members: impl IntoIterator<Item = usize>,
    target: Option<usize>,
    deadline: &mut Deadline,
) -> Result<(Vec<R>, Vec<StepId>), QueryFailure> {
    let g = run.graph();
    let slot_words = run.slot_count().div_ceil(64);
    let marked = match side {
        Side::Deep => vr.exec_count(),
        Side::Forward => g.node_count(),
    };
    let mut scratch = vec![0u64; slot_words + marked.div_ceil(64)];
    let (slots, marks) = scratch.split_at_mut(slot_words);
    let visible = vr.visible_slots().blocks();
    // The bits the gather may set: the walk and the execution passes read
    // back only their words, so a small closure of a large run costs
    // O(answer) beyond zeroing the scratch.
    let (mut touched, mut touched_execs) = (0..0, 0..0);
    if let Some(t) = target {
        test_and_set(slots, t);
        cover(&mut touched, t..t + 1);
    }
    for i in members {
        deadline.tick()?;
        let n = NodeId::from_index(i);
        match side {
            Side::Deep => {
                match vr.exec_index_at_run_node(n) {
                    Some(x) => {
                        test_and_set(marks, x as usize);
                        cover(&mut touched_execs, x as usize..x as usize + 1);
                    }
                    None => {
                        if let Some((step, _)) = run.step_at(n) {
                            return Err(QueryError::StepWithoutExec { step }.into());
                        }
                    }
                }
                for e in g.in_edges(n) {
                    cover(&mut touched, run.edge_slots(e));
                    or_range(slots, visible, run.edge_slots(e));
                }
            }
            Side::Forward => {
                if test_and_set(marks, i) {
                    for e in g.out_edges(n) {
                        or_range(slots, visible, run.edge_slots(e));
                        cover(&mut touched, run.edge_slots(e));
                    }
                }
            }
        }
    }

    let words = words_of(&touched);
    let slots = &mut slots[..words.end];
    let mut rows = Vec::with_capacity(count_ones(&slots[words.start..]));
    let mut ascending = true;
    let mut next = next_one(slots, words.start * 64);
    let mut e = EdgeId::from_index(0);
    while let Some(mut slot) = next {
        e = run.edge_of_slot(slot, e);
        let span = run.edge_slots(e);
        let src = g.source(e);
        let producer = match side {
            Side::Deep => exec_id_at(run, vr, src)?,
            Side::Forward => None,
        };
        let data = g.edge(e);
        loop {
            let x = data[slot - span.start];
            if run.is_canonical_slot(slot)
                || run
                    .canonical_slot(src, x)
                    .is_none_or(|c| test_and_set(slots, c))
            {
                ascending &= rows.last().is_none_or(|r: &R| r.data() < x);
                rows.push(R::new(x, producer));
            }
            next = next_one(slots, slot + 1);
            match next {
                Some(s) if s < span.end => slot = s,
                _ => break,
            }
        }
    }
    if !ascending {
        radix_sort_by_key(&mut rows, |r| r.data().0);
    }

    let mut execs = Vec::new();
    if side == Side::Deep {
        let words = words_of(&touched_execs);
        let marks = &marks[..words.end];
        let total = count_ones(&marks[words.start..]);
        execs.reserve_exact(total);
        for virtual_pass in [false, true] {
            if execs.len() == total {
                break;
            }
            let mut i = next_one(marks, words.start * 64);
            while let Some(x) = i {
                let exec = vr.exec(x as u32);
                if exec.is_virtual == virtual_pass {
                    execs.push(exec.id);
                }
                i = next_one(marks, x + 1);
            }
        }
    }
    Ok((rows, execs))
}

/// A row of a projected answer, made from a datum and its producing
/// execution (`None` for user input).
trait Row: Copy {
    fn new(data: DataId, producer: Option<StepId>) -> Self;
    fn data(&self) -> DataId;
}

impl Row for ProvenanceRow {
    fn new(data: DataId, producer: Option<StepId>) -> Self {
        ProvenanceRow { data, producer }
    }

    fn data(&self) -> DataId {
        self.data
    }
}

/// A dependents row is the datum alone.
impl Row for DataId {
    fn new(data: DataId, _: Option<StepId>) -> Self {
        data
    }

    fn data(&self) -> DataId {
        *self
    }
}

/// Sets bit `i` of `words`; returns whether it was clear.
#[inline]
fn test_and_set(words: &mut [u64], i: usize) -> bool {
    let (w, bit) = (&mut words[i / 64], 1u64 << (i % 64));
    let clear = *w & bit == 0;
    *w |= bit;
    clear
}

/// `dst |= src` on the bits in `range`; bits past the end of `src` read
/// as clear.
#[inline]
fn or_range(dst: &mut [u64], src: &[u64], range: Range<usize>) {
    if range.is_empty() {
        return;
    }
    let (first, last) = (range.start / 64, (range.end - 1) / 64);
    for (w, d) in (first..=last).zip(&mut dst[first..=last]) {
        let mut mask = u64::MAX;
        if w == first {
            mask &= u64::MAX << (range.start % 64);
        }
        if w == last {
            mask &= u64::MAX >> (63 - (range.end - 1) % 64);
        }
        *d |= src.get(w).copied().unwrap_or(0) & mask;
    }
}

/// Widens `span` to cover `bits`.
#[inline]
fn cover(span: &mut Range<usize>, bits: Range<usize>) {
    if span.start >= span.end {
        *span = bits;
    } else {
        span.start = span.start.min(bits.start);
        span.end = span.end.max(bits.end);
    }
}

/// The words holding the bits of `span` (none when it is empty).
fn words_of(span: &Range<usize>) -> Range<usize> {
    if span.start >= span.end {
        return 0..0;
    }
    span.start / 64..span.end.div_ceil(64)
}

/// The first set bit of `words` at or after `from`.
#[inline]
fn next_one(words: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut bits = words.get(w)? & (u64::MAX << (from % 64));
    while bits == 0 {
        w += 1;
        bits = *words.get(w)?;
    }
    Some(w * 64 + bits.trailing_zeros() as usize)
}

/// The number of set bits in `words`.
fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Where a query's base closure comes from: a per-query BFS over the run
/// graph, a prebuilt bitset [`ProvenanceIndex`], or a prebuilt
/// [`LabelIndex`]. An index must have been built from the queried run.
#[derive(Clone, Copy, Debug)]
pub enum Reach<'a> {
    /// A per-query traversal, no index.
    Bfs,
    /// One precomputed closure row per node.
    Bitset(&'a ProvenanceIndex),
    /// The closure enumerated from tree-cover interval labels: every
    /// subtree whose post-order interval proves non-membership is skipped
    /// unvisited, so the closure costs `O(answer)`.
    Labels(&'a LabelIndex),
}

/// A closure query over a [`Reach`]: [`deep_provenance`] or
/// [`dependents_of`].
pub type Kernel<T> =
    fn(&WorkflowRun, &ViewRun, Reach, DataId, &mut Deadline) -> Result<Option<T>, QueryFailure>;

/// The nodes reachable from `starts` (included) along predecessors
/// (`forward == false`) or successors, by BFS; `deadline` is polled per
/// visited node.
fn bfs(
    run: &WorkflowRun,
    starts: impl IntoIterator<Item = NodeId>,
    forward: bool,
    deadline: &mut Deadline,
) -> Result<BitSet, Interrupt> {
    let g = run.graph();
    let mut visited = BitSet::new(g.node_count());
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for s in starts {
        if visited.insert(s.index()) {
            queue.push_back(s);
        }
    }
    while let Some(n) = queue.pop_front() {
        deadline.tick()?;
        let mut visit = |m: NodeId| {
            if visited.insert(m.index()) {
                queue.push_back(m);
            }
        };
        if forward {
            g.successors(n).for_each(&mut visit);
        } else {
            g.predecessors(n).for_each(&mut visit);
        }
    }
    Ok(visited)
}

/// Computes the deep provenance of `d` at this view level: the base-level
/// recursive closure over `run`, read from `reach`, projected to the view —
/// hidden data dropped, steps replaced by their composite executions.
/// `Ok(None)` means `d` is not visible at this view level (or absent from
/// the run); an error means the view-run does not match the run, or that
/// `deadline` interrupted the traversal. The closure and the projection
/// poll `deadline` per member, so an adversarial run cannot pin the
/// caller unbounded.
pub fn deep_provenance(
    run: &WorkflowRun,
    vr: &ViewRun,
    reach: Reach,
    d: DataId,
    deadline: &mut Deadline,
) -> Result<Option<ProvenanceResult>, QueryFailure> {
    // d itself must be visible at this view level and present in the run.
    let Some((start, slot)) = visible_start(run, vr, d)? else {
        return Ok(None);
    };
    let (rows, execs) = match reach {
        Reach::Bfs => {
            let members = bfs(run, [start], false, deadline)?;
            project(run, vr, Side::Deep, members.iter(), Some(slot), deadline)?
        }
        Reach::Bitset(index) => {
            let members = index.ancestors(start).iter();
            project(run, vr, Side::Deep, members, Some(slot), deadline)?
        }
        Reach::Labels(labels) => {
            let members = labels.ancestors_of(start);
            project(run, vr, Side::Deep, members, Some(slot), deadline)?
        }
    };
    Ok(Some(ProvenanceResult {
        target: d,
        rows,
        execs,
    }))
}

/// [`deep_provenance`] from a bitset index, without a deadline.
pub fn deep_provenance_indexed(
    run: &WorkflowRun,
    vr: &ViewRun,
    index: &ProvenanceIndex,
    d: DataId,
) -> Result<Option<ProvenanceResult>, QueryError> {
    let reach = Reach::Bitset(index);
    deep_provenance(run, vr, reach, d, &mut Deadline::unlimited()).map_err(corrupt_only)
}

/// [`deep_provenance`] from a label index, without a deadline.
pub fn deep_provenance_labeled(
    run: &WorkflowRun,
    vr: &ViewRun,
    labels: &LabelIndex,
    d: DataId,
) -> Result<Option<ProvenanceResult>, QueryError> {
    let reach = Reach::Labels(labels);
    deep_provenance(run, vr, reach, d, &mut Deadline::unlimited()).map_err(corrupt_only)
}

/// Reference implementation of [`deep_provenance`] — the original
/// whole-graph-scan projection, kept as the oracle the property tests
/// compare the indexed path against.
pub fn deep_provenance_bfs(
    run: &WorkflowRun,
    vr: &ViewRun,
    d: DataId,
) -> Result<Option<ProvenanceResult>, QueryError> {
    let Some((start, _)) = visible_start(run, vr, d)? else {
        return Ok(None);
    };
    let g = run.graph();

    let mut visited = BitSet::new(g.node_count());
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    visited.insert(start.index());
    queue.push_back(start);
    while let Some(n) = queue.pop_front() {
        for p in g.predecessors(n) {
            if visited.insert(p.index()) {
                queue.push_back(p);
            }
        }
    }

    let mut rows: Vec<ProvenanceRow> = Vec::new();
    let mut execs: Vec<StepId> = Vec::new();
    rows.push(ProvenanceRow {
        data: d,
        producer: exec_id_at(run, vr, start)?,
    });
    for n in g.node_ids() {
        if !visited.contains(n.index()) {
            continue;
        }
        if let Some(e) = exec_id_at(run, vr, n)? {
            execs.push(e);
        }
        for edge in g.in_edges(n) {
            let src = g.source(edge);
            let src_id = exec_id_at(run, vr, src)?;
            for &x in g.edge(edge) {
                if vr.is_visible(run, x) {
                    rows.push(ProvenanceRow {
                        data: x,
                        producer: src_id,
                    });
                }
            }
        }
    }
    rows.sort();
    rows.dedup();
    execs.sort();
    execs.dedup();
    Ok(Some(ProvenanceResult {
        target: d,
        rows,
        execs,
    }))
}

/// The canned forward query of Section IV ("Return the data objects which
/// have a given data object in their data provenance"): the base-level
/// forward closure of `d` over `run`, read from `reach`, projected to
/// view-visible data, excluding `d` itself, sorted. Returns `None` if `d`
/// is not visible, and like [`deep_provenance`] refuses a view-run built
/// from another run ([`QueryError::StepWithoutExec`]).
///
/// `d` flows along the out-edges of its producer that carry it; every
/// node reachable from a consumer of `d` depends on `d` (step-granularity
/// dependency: a step's outputs depend on all of its inputs). With an
/// index the closure is the union of the consumers' descendant rows or
/// labels, which the kernel gathers member by member, once each.
pub fn dependents_of(
    run: &WorkflowRun,
    vr: &ViewRun,
    reach: Reach,
    d: DataId,
    deadline: &mut Deadline,
) -> Result<Option<Vec<DataId>>, QueryFailure> {
    let Some((start, _)) = visible_start(run, vr, d)? else {
        return Ok(None);
    };
    let consumers = consumers(run, start, d);
    let (mut out, _) = match reach {
        Reach::Bfs => {
            let members = bfs(run, consumers, true, deadline)?;
            project(run, vr, Side::Forward, members.iter(), None, deadline)?
        }
        Reach::Bitset(index) => {
            let members = consumers.flat_map(|t| index.descendants(t).iter());
            project(run, vr, Side::Forward, members, None, deadline)?
        }
        Reach::Labels(labels) => {
            let members = consumers.flat_map(|t| labels.descendants_of(t));
            project(run, vr, Side::Forward, members, None, deadline)?
        }
    };
    out.retain(|&x| x != d);
    Ok(Some(out))
}

/// The consumers of `d`, produced by `start`: the targets of the
/// out-edges of `start` that carry it.
fn consumers(run: &WorkflowRun, start: NodeId, d: DataId) -> impl Iterator<Item = NodeId> + '_ {
    let g = run.graph();
    g.out_edges(start)
        .filter(move |&e| g.edge(e).binary_search(&d).is_ok())
        .map(|e| g.target(e))
}

/// Reference implementation of [`dependents_of`] — the original
/// whole-graph-scan collection, kept as the property-test oracle.
pub fn dependents_of_bfs(
    run: &WorkflowRun,
    vr: &ViewRun,
    d: DataId,
) -> Result<Option<Vec<DataId>>, QueryError> {
    let Some((start, _)) = visible_start(run, vr, d)? else {
        return Ok(None);
    };
    let g = run.graph();
    let mut visited = BitSet::new(g.node_count());
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for e in g.out_edges(start) {
        if g.edge(e).contains(&d) {
            let t = g.target(e);
            if visited.insert(t.index()) {
                queue.push_back(t);
            }
        }
    }
    while let Some(n) = queue.pop_front() {
        for s in g.successors(n) {
            if visited.insert(s.index()) {
                queue.push_back(s);
            }
        }
    }
    let mut out: Vec<DataId> = Vec::new();
    for n in g.node_ids() {
        if !visited.contains(n.index()) || run.step_at(n).is_none() {
            continue;
        }
        for e in g.out_edges(n) {
            out.extend(g.edge(e).iter().copied().filter(|&x| vr.is_visible(run, x)));
        }
    }
    out.sort();
    out.dedup();
    out.retain(|&x| x != d);
    Ok(Some(out))
}

/// The data set passed between two (possibly virtual) executions — the
/// prototype's "clicking on an edge between two steps" interaction
/// (Section IV). `from`/`to` may also be the special `input`/`output`
/// endpoints when `None`. Returns an empty set when no edge connects them.
pub fn data_between(
    run: &WorkflowRun,
    vr: &ViewRun,
    from: Option<StepId>,
    to: Option<StepId>,
) -> Option<Vec<DataId>> {
    let resolve = |id: Option<StepId>, endpoint: NodeId| match id {
        None => Some(endpoint),
        Some(sid) => Some(vr.node_of_exec(vr.exec_index_by_id(sid)?)),
    };
    let a = resolve(from, vr.input())?;
    let b = resolve(to, vr.output())?;
    Some(vr.data_between(run, a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoom_model::{RunBuilder, SpecBuilder, UserView, WorkflowRun, WorkflowSpec};

    /// [`deep_provenance`] by BFS, without a deadline.
    fn deep(
        r: &WorkflowRun,
        vr: &ViewRun,
        d: DataId,
    ) -> Result<Option<ProvenanceResult>, QueryFailure> {
        deep_provenance(r, vr, Reach::Bfs, d, &mut Deadline::unlimited())
    }

    /// [`dependents_of`] from `reach`, without a deadline.
    fn deps(
        r: &WorkflowRun,
        vr: &ViewRun,
        reach: Reach,
        d: DataId,
    ) -> Result<Option<Vec<DataId>>, QueryFailure> {
        dependents_of(r, vr, reach, d, &mut Deadline::unlimited())
    }

    /// input -> A -> B -> C -> output, A also feeds C directly.
    fn setup() -> (WorkflowSpec, WorkflowRun) {
        let mut b = SpecBuilder::new("q");
        b.analysis("A");
        b.analysis("B");
        b.analysis("C");
        b.from_input("A")
            .edge("A", "B")
            .edge("B", "C")
            .edge("A", "C")
            .to_output("C");
        let s = b.build().unwrap();
        let (a, bb, c) = (
            s.module("A").unwrap(),
            s.module("B").unwrap(),
            s.module("C").unwrap(),
        );
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(a);
        let s2 = rb.step(bb);
        let s3 = rb.step(c);
        rb.input_edge(s1, [1])
            .data_edge(s1, s2, [2])
            .data_edge(s2, s3, [3])
            .data_edge(s1, s3, [4])
            .output_edge(s3, [5]);
        let r = rb.build().unwrap();
        (s, r)
    }

    #[test]
    fn deep_provenance_at_admin_level() {
        let (s, r) = setup();
        let vr = ViewRun::new(&r, &UserView::admin(&s));
        let res = deep(&r, &vr, DataId(5)).unwrap().unwrap();
        assert_eq!(res.target, DataId(5));
        // All data d1..d5, all three steps.
        assert_eq!(res.data_ids(), (1..=5).map(DataId).collect::<Vec<_>>());
        assert_eq!(res.execs, vec![StepId(1), StepId(2), StepId(3)]);
        assert_eq!(res.tuples(), 5);
        // Producers recorded per row.
        assert_eq!(
            res.rows[0],
            ProvenanceRow {
                data: DataId(1),
                producer: None
            }
        );
        assert_eq!(
            res.rows[4],
            ProvenanceRow {
                data: DataId(5),
                producer: Some(StepId(3))
            }
        );
    }

    #[test]
    fn deep_provenance_of_intermediate() {
        let (s, r) = setup();
        let vr = ViewRun::new(&r, &UserView::admin(&s));
        let res = deep(&r, &vr, DataId(3)).unwrap().unwrap();
        assert_eq!(res.data_ids(), vec![DataId(1), DataId(2), DataId(3)]);
        assert_eq!(res.execs, vec![StepId(1), StepId(2)]);
    }

    #[test]
    fn blackbox_hides_and_shrinks() {
        let (s, r) = setup();
        let vr = ViewRun::new(&r, &UserView::black_box(&s));
        // Intermediates are invisible.
        assert!(deep(&r, &vr, DataId(3)).unwrap().is_none());
        let res = deep(&r, &vr, DataId(5)).unwrap().unwrap();
        assert_eq!(res.data_ids(), vec![DataId(1), DataId(5)]);
        assert_eq!(res.execs.len(), 1);
    }

    #[test]
    fn immediate_provenance_variants() {
        let (s, r) = setup();
        let vr = ViewRun::new(&r, &UserView::admin(&s));
        match immediate_provenance(&r, &vr, DataId(5)).unwrap().unwrap() {
            ImmediateProvenance::Produced { exec, inputs } => {
                assert_eq!(exec, StepId(3));
                assert_eq!(inputs, vec![DataId(3), DataId(4)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            immediate_provenance(&r, &vr, DataId(1)).unwrap().unwrap(),
            ImmediateProvenance::UserInput
        );
        assert!(immediate_provenance(&r, &vr, DataId(99)).unwrap().is_none());
    }

    #[test]
    fn forward_dependents() {
        let (s, r) = setup();
        let vr = ViewRun::new(&r, &UserView::admin(&s));
        // Everything downstream of d2: d3 (from S2) and d5 (from S3).
        assert_eq!(
            deps(&r, &vr, Reach::Bfs, DataId(2)).unwrap().unwrap(),
            vec![DataId(3), DataId(5)]
        );
        // d4 feeds only S3.
        assert_eq!(
            deps(&r, &vr, Reach::Bfs, DataId(4)).unwrap().unwrap(),
            vec![DataId(5)]
        );
        // The final output has no dependents.
        assert_eq!(
            deps(&r, &vr, Reach::Bfs, DataId(5)).unwrap().unwrap(),
            vec![]
        );
        // d1 feeds everything.
        assert_eq!(
            deps(&r, &vr, Reach::Bfs, DataId(1)).unwrap().unwrap(),
            vec![DataId(2), DataId(3), DataId(4), DataId(5)]
        );
    }

    #[test]
    fn data_between_execs() {
        let (s, r) = setup();
        let vr = ViewRun::new(&r, &UserView::admin(&s));
        // S1 -> S3 carries d4; S1 -> S2 carries d2.
        assert_eq!(
            data_between(&r, &vr, Some(StepId(1)), Some(StepId(3))).unwrap(),
            vec![DataId(4)]
        );
        assert_eq!(
            data_between(&r, &vr, Some(StepId(1)), Some(StepId(2))).unwrap(),
            vec![DataId(2)]
        );
        // input -> S1 carries d1; S3 -> output carries d5.
        assert_eq!(
            data_between(&r, &vr, None, Some(StepId(1))).unwrap(),
            vec![DataId(1)]
        );
        assert_eq!(
            data_between(&r, &vr, Some(StepId(3)), None).unwrap(),
            vec![DataId(5)]
        );
        // No edge S2 -> S1.
        assert_eq!(
            data_between(&r, &vr, Some(StepId(2)), Some(StepId(1))).unwrap(),
            vec![]
        );
        // Unknown exec id.
        assert!(data_between(&r, &vr, Some(StepId(42)), None).is_none());
    }

    /// A view-run materialized from a *different* run — the realistic
    /// hand-loaded corruption: the admin view-run of a one-step run, which
    /// knows only StepId(1) and does not fit [`setup`]'s run.
    fn foreign_view_run() -> ViewRun {
        let mut b = SpecBuilder::new("tiny");
        b.analysis("X");
        b.from_input("X").to_output("X");
        let tiny = b.build().unwrap();
        let mut rb = RunBuilder::new(&tiny);
        let s1 = rb.step(tiny.module("X").unwrap());
        rb.input_edge(s1, [1]).output_edge(s1, [5]);
        let tiny_run = rb.build().unwrap();
        ViewRun::new(&tiny_run, &UserView::admin(&tiny))
    }

    /// A foreign view-run yields a typed error from every deep form
    /// instead of aborting the process.
    #[test]
    fn mismatched_view_run_errors_instead_of_panicking() {
        let (_, r) = setup();
        let vr = foreign_view_run();

        // Querying the 3-step run through the 1-step view-run reaches
        // steps 2 and 3, which have no execution in `vr`.
        let err = deep(&r, &vr, DataId(5)).unwrap_err();
        assert!(matches!(
            err,
            QueryFailure::Corrupt(QueryError::StepWithoutExec { .. })
        ));
        let err = deep_provenance_bfs(&r, &vr, DataId(5)).unwrap_err();
        assert!(matches!(err, QueryError::StepWithoutExec { .. }));
        let index = crate::index::ProvenanceIndex::build(&r).unwrap();
        let err = deep_provenance_indexed(&r, &vr, &index, DataId(5)).unwrap_err();
        assert!(matches!(err, QueryError::StepWithoutExec { .. }));
        assert!(err.to_string().contains("no execution in the view-run"));
    }

    /// The dependents forms refuse a foreign view-run like the deep forms,
    /// instead of reading its visibility bits against the wrong run: the
    /// plain form (and its oracle), then one test per index backend.
    #[test]
    fn mismatched_view_run_refuses_plain_dependents() {
        let (_, r) = setup();
        let vr = foreign_view_run();
        let err = deps(&r, &vr, Reach::Bfs, DataId(2)).unwrap_err();
        assert!(matches!(
            err,
            QueryFailure::Corrupt(QueryError::StepWithoutExec { .. })
        ));
        let err = dependents_of_bfs(&r, &vr, DataId(2)).unwrap_err();
        assert!(matches!(err, QueryError::StepWithoutExec { .. }));
    }

    #[test]
    fn mismatched_view_run_refuses_bitset_indexed_dependents() {
        let (_, r) = setup();
        let index = crate::index::ProvenanceIndex::build(&r).unwrap();
        let err = deps(&r, &foreign_view_run(), Reach::Bitset(&index), DataId(2)).unwrap_err();
        assert!(matches!(
            err,
            QueryFailure::Corrupt(QueryError::StepWithoutExec { .. })
        ));
    }

    #[test]
    fn mismatched_view_run_refuses_label_indexed_dependents() {
        let (_, r) = setup();
        let labels = LabelIndex::build(&r).unwrap();
        let err = deps(&r, &foreign_view_run(), Reach::Labels(&labels), DataId(2)).unwrap_err();
        assert!(matches!(
            err,
            QueryFailure::Corrupt(QueryError::StepWithoutExec { .. })
        ));
    }

    #[test]
    fn expired_deadline_interrupts_deep_query() {
        use crate::resilience::{CancelToken, Deadline, Interrupt};
        let (s, r) = setup();
        let vr = ViewRun::new(&r, &UserView::admin(&s));
        // An already-expired cutoff: the traversal must unwind with
        // DeadlineExceeded, deterministically (no timing dependence).
        let mut dead = Deadline::at(std::time::Instant::now());
        let mut interrupted = false;
        // The 3-step run is smaller than one stride, so loop until a tick
        // lands on the stride boundary.
        for _ in 0..crate::resilience::CHECK_STRIDE {
            match deep_provenance(&r, &vr, Reach::Bfs, DataId(5), &mut dead) {
                Err(QueryFailure::Interrupted(Interrupt::DeadlineExceeded)) => {
                    interrupted = true;
                    break;
                }
                Ok(Some(_)) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(interrupted, "expired deadline never fired within a stride");

        // A raised cancel token fires on the very first check.
        let token = CancelToken::new();
        token.cancel();
        let mut cancelled = Deadline::unlimited().with_token(token);
        let mut saw_cancel = false;
        for _ in 0..crate::resilience::CHECK_STRIDE {
            if let Err(QueryFailure::Interrupted(Interrupt::Cancelled)) =
                deep_provenance(&r, &vr, Reach::Bfs, DataId(5), &mut cancelled)
            {
                saw_cancel = true;
                break;
            }
        }
        assert!(saw_cancel);

        // Every reach answers alike under an unlimited deadline.
        let index = ProvenanceIndex::build(&r).unwrap();
        let labels = LabelIndex::build(&r).unwrap();
        for reach in [Reach::Bitset(&index), Reach::Labels(&labels)] {
            let mut unlimited = Deadline::unlimited();
            assert_eq!(
                deep_provenance(&r, &vr, reach, DataId(5), &mut unlimited).unwrap(),
                deep(&r, &vr, DataId(5)).unwrap()
            );
            assert_eq!(
                deps(&r, &vr, reach, DataId(2)).unwrap(),
                deps(&r, &vr, Reach::Bfs, DataId(2)).unwrap()
            );
        }
    }

    #[test]
    fn deep_provenance_of_user_input_is_trivial() {
        let (s, r) = setup();
        let vr = ViewRun::new(&r, &UserView::admin(&s));
        let res = deep(&r, &vr, DataId(1)).unwrap().unwrap();
        assert_eq!(res.tuples(), 1);
        assert!(res.execs.is_empty());
        assert_eq!(res.rows[0].producer, None);
    }
}

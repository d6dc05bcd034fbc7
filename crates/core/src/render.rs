//! Provenance-answer rendering — the stand-in for ZOOM's graphical display
//! (the paper's Figure 9 shows the deep provenance of `d447` as a graph).
//!
//! Renders a [`ProvenanceResult`] either as GraphViz DOT (the provenance
//! subgraph of the view-run) or as an indented text tree rooted at the
//! queried data object.

use std::fmt::Write as _;
use zoom_graph::fxhash::FxHashMap;
use zoom_graph::{Digraph, NodeId};
use zoom_model::run::format_data_range;
use zoom_model::{DataId, UserView, ViewRun, WorkflowRun};
use zoom_warehouse::ProvenanceResult;

/// A node of the view-level run graph.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ViewRunNode {
    /// Beginning of the execution.
    Input,
    /// End of the execution.
    Output,
    /// A composite execution (an index for [`ViewRun::exec`]).
    Exec(u32),
}

/// The view-level run graph of `vr`, derived from the `run` it was built
/// from: the input and output nodes, one node per execution, and one edge
/// per pair of view nodes that run edges join, carrying their data
/// (sorted), in order of the pair's first run edge.
fn view_graph(run: &WorkflowRun, vr: &ViewRun) -> Digraph<ViewRunNode, Vec<DataId>> {
    let rg = run.graph();
    let mut graph = Digraph::with_capacity(vr.exec_count() + 2, rg.edge_count());
    graph.add_node(ViewRunNode::Input);
    graph.add_node(ViewRunNode::Output);
    for i in 0..vr.exec_count() as u32 {
        graph.add_node(ViewRunNode::Exec(i));
    }
    let mut slot_of_pair: FxHashMap<(NodeId, NodeId), usize> = FxHashMap::default();
    let mut merged: Vec<(NodeId, NodeId, Vec<DataId>)> = Vec::new();
    for (_, s, t, data) in rg.edges() {
        let (vs, vt) = (vr.view_node(run, s), vr.view_node(run, t));
        if vs == vt {
            continue; // internal to a composite execution: hidden
        }
        let slot = *slot_of_pair.entry((vs, vt)).or_insert_with(|| {
            merged.push((vs, vt, Vec::new()));
            merged.len() - 1
        });
        merged[slot].2.extend_from_slice(data);
    }
    for (vs, vt, mut data) in merged {
        data.sort_unstable();
        data.dedup();
        graph.add_edge(vs, vt, data);
    }
    graph
}

/// Renders a view-run as DOT, labeling executions `S13:M10`-style.
pub fn view_run_to_dot(run: &WorkflowRun, vr: &ViewRun, view: &UserView) -> String {
    use zoom_graph::dot::{to_dot, DotStyle};
    let style = DotStyle {
        node_label: Box::new(move |_, n: &ViewRunNode| match n {
            ViewRunNode::Input => "input".to_string(),
            ViewRunNode::Output => "output".to_string(),
            ViewRunNode::Exec(i) => {
                let e = vr.exec(*i);
                format!("{}:{}", e.id, view.composite_name(e.composite))
            }
        }),
        node_attrs: Box::new(|_, n: &ViewRunNode| match n {
            ViewRunNode::Input | ViewRunNode::Output => "shape=circle".to_string(),
            ViewRunNode::Exec(_) => "shape=box,style=dotted".to_string(),
        }),
        edge_label: Box::new(|_, data: &Vec<DataId>| format_data_range(data)),
        graph_attrs: vec!["rankdir=LR".to_string()],
    };
    to_dot(
        &view_graph(run, vr),
        &format!("{} through {}", run.spec_name(), view.name()),
        &style,
    )
}

/// Renders the provenance subgraph (the visited executions, the input node
/// when involved, and the data edges among them) as DOT.
pub fn provenance_to_dot(
    run: &WorkflowRun,
    vr: &ViewRun,
    view: &UserView,
    result: &ProvenanceResult,
) -> String {
    let g = view_graph(run, vr);
    let involved = |n: zoom_graph::NodeId| -> bool {
        match g.node(n) {
            ViewRunNode::Input => true, // kept if it has edges into the set
            ViewRunNode::Output => false,
            ViewRunNode::Exec(i) => result.execs.binary_search(&vr.exec(*i).id).is_ok(),
        }
    };
    let mut s = String::new();
    let _ = writeln!(s, "digraph \"provenance of {}\" {{", result.target);
    let _ = writeln!(s, "  rankdir=LR;");
    let mut used_input = false;
    // Edges among involved nodes, restricted to provenance data.
    let in_result = |d: DataId| result.rows.binary_search_by_key(&d, |r| r.data).is_ok();
    for (_, src, tgt, data) in g.edges() {
        if !involved(src) || !involved(tgt) || matches!(g.node(tgt), ViewRunNode::Input) {
            continue;
        }
        let shown: Vec<DataId> = data.iter().copied().filter(|&d| in_result(d)).collect();
        if shown.is_empty() {
            continue;
        }
        if matches!(g.node(src), ViewRunNode::Input) {
            used_input = true;
        }
        let _ = writeln!(
            s,
            "  n{} -> n{} [label=\"{}\"];",
            src.index(),
            tgt.index(),
            format_data_range(&shown)
        );
    }
    // Node declarations.
    for (id, node) in g.nodes() {
        match node {
            ViewRunNode::Input if used_input => {
                let _ = writeln!(s, "  n{} [label=\"input\",shape=circle];", id.index());
            }
            ViewRunNode::Exec(i) if involved(id) => {
                let e = vr.exec(*i);
                let _ = writeln!(
                    s,
                    "  n{} [label=\"{}:{}\",shape=box{}];",
                    id.index(),
                    e.id,
                    zoom_graph::dot::escape(view.composite_name(e.composite)),
                    if e.is_virtual { ",style=dotted" } else { "" }
                );
            }
            _ => {}
        }
    }
    s.push_str("}\n");
    s
}

/// Renders a specification with a user view overlaid as dotted composite
/// boxes — the paper's Figure 1, where `M9`, `M10`, `M11` appear as dotted
/// rectangles around their member modules. Relevant modules are shaded.
/// Composite boxes are drawn only for non-singleton composites (singleton
/// boxes add no information).
pub fn view_on_spec_to_dot(
    spec: &zoom_model::WorkflowSpec,
    view: &UserView,
    relevant: &[zoom_graph::NodeId],
) -> String {
    use std::fmt::Write as _;
    use zoom_graph::dot::escape;
    let mut s = String::new();
    let _ = writeln!(s, "digraph \"{}\" {{", escape(spec.name()));
    let _ = writeln!(s, "  rankdir=LR;");
    let _ = writeln!(s, "  n0 [label=\"input\",shape=circle];");
    let _ = writeln!(s, "  n1 [label=\"output\",shape=circle];");
    for c in view.composite_ids() {
        let members = view.members(c);
        let declare = |s: &mut String, m: zoom_graph::NodeId, indent: &str| {
            let attrs = if relevant.contains(&m) {
                "shape=box,style=filled,fillcolor=gray"
            } else {
                "shape=box"
            };
            let _ = writeln!(
                s,
                "{indent}n{} [label=\"{}\",{}];",
                m.index(),
                escape(spec.label(m)),
                attrs
            );
        };
        if members.len() == 1 {
            declare(&mut s, members[0], "  ");
        } else {
            let _ = writeln!(s, "  subgraph cluster_{} {{", c.index());
            let _ = writeln!(s, "    style=dotted;");
            let _ = writeln!(s, "    label=\"{}\";", escape(view.composite_name(c)));
            for &m in members {
                declare(&mut s, m, "    ");
            }
            let _ = writeln!(s, "  }}");
        }
    }
    for (_, src, tgt, _) in spec.graph().edges() {
        let _ = writeln!(s, "  n{} -> n{};", src.index(), tgt.index());
    }
    s.push_str("}\n");
    s
}

/// Renders the provenance as an indented text tree rooted at the target:
/// each level shows a data object, its producer, and (recursively) the
/// producer's inputs. Shared sub-provenance is expanded once and referenced
/// afterwards (`…see above`); data ranges are compacted.
pub fn provenance_to_text(
    run: &WorkflowRun,
    vr: &ViewRun,
    view: &UserView,
    result: &ProvenanceResult,
) -> String {
    let mut out = String::new();
    let mut expanded: Vec<DataId> = Vec::new();
    render_datum(run, vr, view, result.target, 0, &mut expanded, &mut out);
    out
}

fn render_datum(
    run: &WorkflowRun,
    vr: &ViewRun,
    view: &UserView,
    d: DataId,
    depth: usize,
    expanded: &mut Vec<DataId>,
    out: &mut String,
) {
    let pad = "  ".repeat(depth);
    let Some(producer) = vr.producer_node(run, d) else {
        let _ = writeln!(out, "{pad}{d} (not visible at this level)");
        return;
    };
    if producer == vr.input() {
        let _ = writeln!(out, "{pad}{d} <- user input");
        return;
    }
    let idx = vr
        .exec_index_at(producer)
        .expect("producer is input or exec");
    let exec = vr.exec(idx);
    if expanded.contains(&d) {
        let _ = writeln!(
            out,
            "{pad}{d} <- {}:{} (see above)",
            exec.id,
            view.composite_name(exec.composite)
        );
        return;
    }
    expanded.push(d);
    let inputs = vr.inputs_of(run, idx);
    let _ = writeln!(
        out,
        "{pad}{d} <- {}:{} ({} input{})",
        exec.id,
        view.composite_name(exec.composite),
        inputs.len(),
        if inputs.len() == 1 { "" } else { "s" }
    );
    // Compact: group inputs by producer; expand one representative per
    // producer and list the rest as a range.
    let mut by_producer: Vec<(Option<zoom_graph::NodeId>, Vec<DataId>)> = Vec::new();
    for x in inputs {
        let p = vr.producer_node(run, x);
        if let Some(entry) = by_producer.iter_mut().find(|(pp, _)| *pp == p) {
            entry.1.push(x);
        } else {
            by_producer.push((p, vec![x]));
        }
    }
    for (p, data) in by_producer {
        match p {
            Some(n) if n == vr.input() => {
                let pad2 = "  ".repeat(depth + 1);
                let _ = writeln!(out, "{pad2}{} <- user input", format_data_range(&data));
            }
            _ => {
                // Recurse on the first datum; siblings share the producer.
                render_datum(run, vr, view, data[0], depth + 1, expanded, out);
                if data.len() > 1 {
                    let pad2 = "  ".repeat(depth + 1);
                    let _ = writeln!(
                        out,
                        "{pad2}(+ {} more from the same execution: {})",
                        data.len() - 1,
                        format_data_range(&data[1..])
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoom_model::{RunBuilder, SpecBuilder, UserView};

    fn spec() -> zoom_model::WorkflowSpec {
        let mut b = SpecBuilder::new("render");
        b.analysis("A");
        b.analysis("B");
        b.from_input("A").edge("A", "B").to_output("B");
        b.build().unwrap()
    }

    fn setup() -> (WorkflowRun, ViewRun, UserView, ProvenanceResult) {
        let s = spec();
        let mut rb = RunBuilder::new(&s);
        let s1 = rb.step(s.module("A").unwrap());
        let s2 = rb.step(s.module("B").unwrap());
        rb.input_edge(s1, [1, 2])
            .data_edge(s1, s2, [3])
            .output_edge(s2, [4]);
        let r = rb.build().unwrap();
        let v = UserView::admin(&s);
        let vr = ViewRun::new(&r, &v);
        let res = zoom_warehouse::deep_provenance_bfs(&r, &vr, zoom_model::DataId(4))
            .unwrap()
            .unwrap();
        (r, vr, v, res)
    }

    #[test]
    fn text_tree_shows_chain() {
        let (r, vr, v, res) = setup();
        let text = provenance_to_text(&r, &vr, &v, &res);
        assert!(text.contains("d4 <- S2:B"), "{text}");
        assert!(text.contains("d3 <- S1:A"), "{text}");
        assert!(text.contains("d1..d2 <- user input"), "{text}");
    }

    #[test]
    fn clustered_view_rendering() {
        let mut b = SpecBuilder::new("cluster");
        b.analysis("A");
        b.analysis("B");
        b.analysis("C");
        b.from_input("A")
            .edge("A", "B")
            .edge("B", "C")
            .to_output("C");
        let s = b.build().unwrap();
        let (a, bb, c) = (
            s.module("A").unwrap(),
            s.module("B").unwrap(),
            s.module("C").unwrap(),
        );
        let v = UserView::new(
            "v",
            &s,
            vec![
                zoom_model::CompositeModule::new("AB", vec![a, bb]),
                zoom_model::CompositeModule::new("C", vec![c]),
            ],
        )
        .unwrap();
        let dot = view_on_spec_to_dot(&s, &v, &[a]);
        assert!(dot.contains("subgraph cluster_0"), "{dot}");
        assert!(dot.contains("label=\"AB\""));
        assert!(dot.contains("style=dotted"));
        assert!(dot.contains("fillcolor=gray")); // A is relevant
                                                 // Singleton composite C gets no cluster box.
        assert!(!dot.contains("subgraph cluster_1"));
        assert!(dot.contains("n0 ->"));
    }

    #[test]
    fn dot_contains_involved_nodes_and_data() {
        let (r, vr, v, res) = setup();
        let dot = provenance_to_dot(&r, &vr, &v, &res);
        assert!(dot.contains("S1:A"));
        assert!(dot.contains("S2:B"));
        assert!(dot.contains("d1..d2"));
        assert!(dot.contains("d3"));
        assert!(dot.contains("input"));
        // The output node never appears.
        assert!(!dot.contains("output"));
    }

    #[test]
    fn dot_of_partial_provenance_excludes_unrelated() {
        let (r, vr, v, _) = setup();
        // Provenance of d3 involves only S1.
        let res = zoom_warehouse::deep_provenance_bfs(&r, &vr, zoom_model::DataId(3))
            .unwrap()
            .unwrap();
        let dot = provenance_to_dot(&r, &vr, &v, &res);
        assert!(dot.contains("S1:A"));
        assert!(!dot.contains("S2:B"));
    }

    #[test]
    fn view_run_dot_shows_virtual_ids() {
        let (r, _, _, _) = setup();
        let v = UserView::black_box(&spec());
        let dot = view_run_to_dot(&r, &ViewRun::new(&r, &v), &v);
        assert!(dot.contains("S3:render-blackbox"), "{dot}");
        assert!(dot.contains("style=dotted"));
        assert!(dot.contains("label=\"d1..d2\""), "{dot}");
    }
}

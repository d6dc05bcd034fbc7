//! Property tests for the per-tenant privacy views of DESIGN.md §16: a
//! restricted tenant must not be able to distinguish two runs that differ
//! only *inside* the concealed composites — by any query form, by the
//! answers' exact bytes, or by error shapes (present-but-hidden data must
//! render identically to data that never existed).
//!
//! Construction: a chain workflow `M1 → … → Mn` with one hidden module H.
//! The compiled privacy view (`conceal`) places H in a composite with at
//! least one chain neighbour, so the data edge between them is internal
//! to the composite. Run A carries one datum on that edge; run B carries
//! different (and more) data ids there. Everything else is identical, so
//! the two runs differ only in the hidden module's concealed I/O — and
//! the restricted tenant's whole query matrix must agree on them, both
//! through the local [`Zoom`] facade and over the wire through
//! [`RemoteZoom`]. Both facades enforce through the same gate, and a
//! parity property pins that: every tenant's transcript is byte-equal
//! whichever facade answered it.

use proptest::prelude::*;
use std::fmt::{Debug, Display, Write as _};
use std::time::Duration;
use zoom::core::{Answer, Cx, Daemon, DaemonConfig, Op, QuerySession, RemoteZoom, Zoom};
use zoom::model::{DataId, SpecBuilder, UserView, WorkflowRun, WorkflowSpec};
use zoom::warehouse::{typed, RunId, ViewId, VisibilityPolicy, WarehouseError};
use zoom_graph::NodeId;

/// A chain spec `M1 → … → Mn` and its module ids in chain order.
fn chain_spec(n: usize) -> (WorkflowSpec, Vec<NodeId>) {
    let mut b = SpecBuilder::new("chain");
    let labels: Vec<String> = (1..=n).map(|i| format!("M{i}")).collect();
    for (i, l) in labels.iter().enumerate() {
        if i % 2 == 0 {
            b.analysis(l.clone());
        } else {
            b.formatting(l.clone());
        }
    }
    b.from_input(&labels[0]);
    for w in labels.windows(2) {
        b.edge(&w[0], &w[1]);
    }
    b.to_output(&labels[n - 1]);
    let spec = b.build().expect("chains are valid workflows");
    let mods: Vec<NodeId> = labels
        .iter()
        .map(|l| spec.module(l).expect("just built"))
        .collect();
    (spec, mods)
}

/// The chain position `j` such that modules `j` and `j+1` share the
/// privacy view's composite containing `hidden` — the data edge between
/// them is internal to the concealed composite, and one endpoint is the
/// hidden module itself.
fn concealed_edge(pv: &UserView, mods: &[NodeId], hidden: usize) -> usize {
    let comp = pv
        .composites()
        .iter()
        .find(|c| c.members.contains(&mods[hidden]))
        .expect("conceal() places every hidden module in a composite");
    if hidden > 0 && comp.members.contains(&mods[hidden - 1]) {
        hidden - 1
    } else {
        assert!(
            comp.members.contains(&mods[hidden + 1]),
            "a concealing composite absorbs a chain neighbour"
        );
        hidden
    }
}

/// A chain run: input `d1`, data `d(i+1)` between positions `i` and
/// `i+1`, output `d(n+1)` — except the edge at `internal_at`, which
/// carries `internal_ids` instead.
fn chain_run(
    spec: &WorkflowSpec,
    mods: &[NodeId],
    internal_at: usize,
    internal_ids: &[u64],
) -> WorkflowRun {
    let n = mods.len();
    let mut rb = zoom::model::RunBuilder::new(spec);
    let steps: Vec<_> = mods.iter().map(|&m| rb.step(m)).collect();
    rb.input_edge(steps[0], [1]);
    for i in 0..n - 1 {
        if i == internal_at {
            rb.data_edge(steps[i], steps[i + 1], internal_ids.iter().copied());
        } else {
            rb.data_edge(steps[i], steps[i + 1], [i as u64 + 2]);
        }
    }
    rb.output_edge(steps[n - 1], [n as u64 + 1]);
    rb.build().expect("chain runs are valid")
}

/// One tenant's full query matrix over one run: every read op kind,
/// each probe through each data-addressed form, and one batch of them all.
fn matrix(run: RunId, view: ViewId, probes: &[u64]) -> Vec<Op> {
    let mut ops = vec![Op::VisibleData(run, view), Op::FinalOutputs(run)];
    for &d in probes {
        let d = DataId(d);
        ops.extend([
            Op::DeepProvenance(run, view, d),
            Op::ImmediateProvenance(run, view, d),
            Op::DependentsOf(run, view, d),
        ]);
    }
    ops.push(Op::Batch(
        probes.iter().map(|&d| (run, view, DataId(d))).collect(),
    ));
    ops
}

/// Appends one answer to a transcript: its debug form (lists in the
/// order they were answered), errors — batch slots' included — by their
/// display text: the bytes a client sees, whichever facade produced them.
fn line<E: Debug + Display>(t: &mut String, op: &Op, r: Result<Answer<E>, E>) {
    let rendered = match r {
        Ok(Answer::Batch(slots)) => {
            let slots: Vec<_> = slots
                .into_iter()
                .map(|s| s.map_err(|e| e.to_string()))
                .collect();
            format!("Batch({slots:?})")
        }
        Ok(a) => format!("{a:?}"),
        Err(e) => format!("err:{e}"),
    };
    let _ = writeln!(t, "{op:?}: {rendered}");
}

/// Every answer `tenant` can extract locally for one run.
fn local_transcript(zoom: &Zoom, tenant: &str, run: RunId, view: ViewId, probes: &[u64]) -> String {
    let mut t = String::new();
    for op in matrix(run, view, probes) {
        line(&mut t, &op, zoom.read(&Cx::tenant(tenant), &op));
    }
    t
}

/// The same matrix over the wire, as the tenant's own connection — wire
/// rendering included.
fn remote_transcript(rz: &mut RemoteZoom, run: RunId, view: ViewId, probes: &[u64]) -> String {
    let mut t = String::new();
    for op in matrix(run, view, probes) {
        line(&mut t, &op, rz.apply(&op));
    }
    t
}

/// Strips the run id from a transcript so the two runs' transcripts are
/// directly comparable (the ids themselves legitimately differ).
fn normalized(t: &str, run: RunId) -> String {
    t.replace(&format!("{run:?}"), "RUN")
        .replace(&run.to_string(), "RUN")
        .replace(&format!("run {}", run.0), "run RUN")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Local facade: the full tenant-scoped query matrix cannot tell the
    /// two runs apart, while an unrestricted tenant (the control) can.
    #[test]
    fn restricted_tenant_cannot_distinguish_hidden_internals(
        n in 3usize..8,
        hidden_pick in 0usize..8,
        extra in 0usize..2,
    ) {
        let extra = extra == 1;
        let hidden = hidden_pick % n;
        let (spec, mods) = chain_spec(n);
        let hidden_label = spec.label(mods[hidden]).to_string();
        let pv = zoom::warehouse::conceal(&spec, &[mods[hidden]]).expect("n >= 2");
        let j = concealed_edge(&pv, &mods, hidden);

        let mut zoom = Zoom::new();
        let sid = zoom.register_workflow(spec.clone()).unwrap();
        let admin = zoom.admin_view(sid).unwrap();
        let ids_b: Vec<u64> = if extra { vec![1000, 1001] } else { vec![1000] };
        let rid_a = zoom.load_run(sid, chain_run(&spec, &mods, j, &[j as u64 + 2])).unwrap();
        let rid_b = zoom.load_run(sid, chain_run(&spec, &mods, j, &ids_b)).unwrap();
        zoom.set_policy("alice", Some(VisibilityPolicy {
            hidden_modules: vec![hidden_label],
            hidden_workflows: vec![],
        })).unwrap();

        // Probes: every datum of either run plus a never-existed id —
        // the concealed edge's data ids included, from both runs.
        let mut probes: Vec<u64> = (1..=n as u64 + 1).collect();
        probes.extend([1000, 1001, 4242]);

        let ta = normalized(&local_transcript(&zoom, "alice", rid_a, admin, &probes), rid_a);
        let tb = normalized(&local_transcript(&zoom, "alice", rid_b, admin, &probes), rid_b);
        prop_assert_eq!(&ta, &tb, "restricted transcripts diverged");

        // Control: without a policy the same matrix distinguishes the
        // runs (otherwise this test proves nothing).
        let ca = normalized(&local_transcript(&zoom, "bob", rid_a, admin, &probes), rid_a);
        let cb = normalized(&local_transcript(&zoom, "bob", rid_b, admin, &probes), rid_b);
        prop_assert_ne!(&ca, &cb, "unrestricted control could not distinguish the runs");

        // Hidden-and-present renders exactly like absent: the concealed
        // datum of run B probed as alice vs. a never-existed id.
        let hidden_err = zoom
            .deep_provenance_as("alice", rid_b, admin, DataId(1000))
            .unwrap_err()
            .to_string();
        let absent_err = zoom
            .deep_provenance_as("alice", rid_b, admin, DataId(4242))
            .unwrap_err()
            .to_string();
        let e1 = hidden_err.replace("1000", "D");
        let e2 = absent_err.replace("4242", "D");
        prop_assert_eq!(e1, e2, "hidden datum distinguishable from absent");

        // Interactive sessions ride the same enforcement.
        let mut sa = QuerySession::open_as(&zoom, "alice", rid_a, admin);
        let mut sb = QuerySession::open_as(&zoom, "alice", rid_b, admin);
        let ra = sa.focus_final_output().unwrap();
        let rb = sb.focus_final_output().unwrap();
        prop_assert_eq!(ra.rows, rb.rows);
        // A session conceals hidden data like every other tenant-scoped
        // path, deadline-bounded queries included.
        for deadline in [None, Some(Duration::from_secs(60))] {
            sb.set_deadline(deadline);
            let hidden = sb.focus_data(DataId(1000)).unwrap_err().to_string();
            let absent = sb.focus_data(DataId(4242)).unwrap_err().to_string();
            prop_assert_eq!(
                hidden.replace("1000", "D"),
                absent.replace("4242", "D"),
                "session: hidden datum distinguishable from absent"
            );
        }
    }

    /// Remote facade: the wire path (daemon enforcement + error
    /// rendering) is just as blind.
    #[test]
    fn remote_restricted_tenant_cannot_distinguish_hidden_internals(
        n in 3usize..7,
        hidden_pick in 0usize..8,
    ) {
        let hidden = hidden_pick % n;
        let (spec, mods) = chain_spec(n);
        let hidden_label = spec.label(mods[hidden]).to_string();
        let pv = zoom::warehouse::conceal(&spec, &[mods[hidden]]).expect("n >= 2");
        let j = concealed_edge(&pv, &mods, hidden);

        let daemon = Daemon::spawn("127.0.0.1:0", DaemonConfig { shards: 2, ..DaemonConfig::default() })
            .expect("ephemeral port");
        let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
        let sid = ctl.register_workflow(spec.clone()).unwrap();
        let admin = ctl.admin_view(sid).unwrap();
        let log_a = zoom::model::EventLog::from_run(&chain_run(&spec, &mods, j, &[j as u64 + 2]), &spec);
        let log_b = zoom::model::EventLog::from_run(&chain_run(&spec, &mods, j, &[1000, 1001]), &spec);
        let rid_a = ctl.load_log(sid, &log_a).unwrap();
        let rid_b = ctl.load_log(sid, &log_b).unwrap();
        // Tokenless daemon: loopback connections are admin, so the
        // operator connection may install alice's policy.
        ctl.set_policy("alice", Some(VisibilityPolicy {
            hidden_modules: vec![hidden_label],
            hidden_workflows: vec![],
        }), None).unwrap();

        let mut alice = RemoteZoom::connect(daemon.addr(), "alice").unwrap();
        let mut probes: Vec<u64> = (1..=n as u64 + 1).collect();
        probes.extend([1000, 1001, 4242]);
        let ta = normalized(&remote_transcript(&mut alice, rid_a, admin, &probes), rid_a);
        let tb = normalized(&remote_transcript(&mut alice, rid_b, admin, &probes), rid_b);
        prop_assert_eq!(&ta, &tb, "restricted wire transcripts diverged");

        let mut bob = RemoteZoom::connect(daemon.addr(), "bob").unwrap();
        let ca = normalized(&remote_transcript(&mut bob, rid_a, admin, &probes), rid_a);
        let cb = normalized(&remote_transcript(&mut bob, rid_b, admin, &probes), rid_b);
        prop_assert_ne!(&ca, &cb, "unrestricted wire control could not distinguish the runs");

        // Hidden-and-present vs. never-existed over the wire: identical
        // error bytes modulo the probed id.
        let hidden_err = alice.deep_provenance(rid_b, admin, DataId(1000)).unwrap_err().to_string();
        let absent_err = alice.deep_provenance(rid_b, admin, DataId(4242)).unwrap_err().to_string();
        prop_assert_eq!(hidden_err.replace("1000", "D"), absent_err.replace("4242", "D"));
    }

    /// Facade ≡ daemon: the local `Zoom::read` and the daemon answer
    /// every tenant's full query matrix — batch included — with the same
    /// bytes, for a restricted tenant (substitution and concealment), a
    /// tenant whose policy hides the whole workflow (denial), and an
    /// unrestricted one, at a view finer and a view coarser than the
    /// privacy view.
    #[test]
    fn facade_and_daemon_transcripts_are_byte_equal(
        n in 3usize..7,
        hidden_pick in 0usize..8,
    ) {
        let hidden = hidden_pick % n;
        let (spec, mods) = chain_spec(n);
        let pv = zoom::warehouse::conceal(&spec, &[mods[hidden]]).expect("n >= 2");
        let j = concealed_edge(&pv, &mods, hidden);
        let logs = [
            chain_run(&spec, &mods, j, &[j as u64 + 2]),
            chain_run(&spec, &mods, j, &[1000, 1001]),
        ]
        .map(|r| zoom::model::EventLog::from_run(&r, &spec));
        let policies = [
            ("alice", VisibilityPolicy {
                hidden_modules: vec![spec.label(mods[hidden]).to_string()],
                hidden_workflows: vec![],
            }),
            ("carol", VisibilityPolicy {
                hidden_modules: vec![],
                hidden_workflows: vec!["chain".to_string()],
            }),
        ];

        let mut zoom = Zoom::new();
        let sid = zoom.register_workflow(spec.clone()).unwrap();
        let views = [
            zoom.admin_view(sid).unwrap(),
            zoom.black_box_view(sid).unwrap(),
        ];
        let runs: Vec<RunId> = logs.iter().map(|l| zoom.load_log(sid, l).unwrap()).collect();
        for (tenant, policy) in &policies {
            zoom.set_policy(tenant, Some(policy.clone())).unwrap();
        }

        let daemon = Daemon::spawn("127.0.0.1:0", DaemonConfig { shards: 2, ..DaemonConfig::default() })
            .expect("ephemeral port");
        let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
        prop_assert_eq!(ctl.register_workflow(spec.clone()).unwrap(), sid);
        prop_assert_eq!(ctl.admin_view(sid).unwrap(), views[0]);
        prop_assert_eq!(ctl.register_view(sid, UserView::black_box(&spec)).unwrap(), views[1]);
        for (l, &rid) in logs.iter().zip(&runs) {
            prop_assert_eq!(ctl.load_log(sid, l).unwrap(), rid);
        }
        for (tenant, policy) in &policies {
            ctl.set_policy(tenant, Some(policy.clone()), None).unwrap();
        }

        let mut probes: Vec<u64> = (1..=n as u64 + 1).collect();
        probes.extend([1000, 1001, 4242]);
        for tenant in ["alice", "carol", "bob"] {
            let mut rz = RemoteZoom::connect(daemon.addr(), tenant).unwrap();
            for &run in &runs {
                for &view in &views {
                    let local = local_transcript(&zoom, tenant, run, view, &probes);
                    let remote = remote_transcript(&mut rz, run, view, &probes);
                    prop_assert_eq!(&local, &remote, "{} diverged on {} at {}", tenant, run, view);
                }
            }
        }
    }
}

/// Deterministic regression: substitution answers equal what an
/// unrestricted caller sees at the privacy view directly — enforcement
/// is view substitution, not result rewriting.
#[test]
fn substitution_matches_direct_privacy_view_query() {
    let (spec, mods) = chain_spec(5);
    let mut zoom = Zoom::new();
    let sid = zoom.register_workflow(spec.clone()).unwrap();
    let admin = zoom.admin_view(sid).unwrap();
    let rid = zoom
        .load_run(sid, chain_run(&spec, &mods, 1, &[3]))
        .unwrap();
    zoom.set_policy(
        "alice",
        Some(VisibilityPolicy {
            hidden_modules: vec!["M2".to_string()],
            hidden_workflows: vec![],
        }),
    )
    .unwrap();
    let pv_id = zoom
        .private_view(sid, &["M2"])
        .expect("satisfiable: 5 modules");
    let visible: Vec<DataId> =
        typed(zoom.read(&Cx::tenant("alice"), &Op::VisibleData(rid, admin))).unwrap();
    for d in visible {
        let as_alice = zoom.deep_provenance_as("alice", rid, admin, d).unwrap();
        let direct = zoom.deep_provenance(rid, pv_id, d).unwrap();
        assert_eq!(as_alice.rows, direct.rows);
    }
    // The metrics registry counted the substitutions.
    let m = zoom.metrics();
    assert!(m.privacy.substitutions > 0, "{m:?}");
}

/// An unsatisfiable policy (single-module workflow) fails at
/// administration time with the typed error, not at query time.
#[test]
fn unsatisfiable_policy_fails_at_install() {
    let mut b = SpecBuilder::new("solo");
    b.analysis("Only");
    b.from_input("Only").to_output("Only");
    let spec = b.build().unwrap();
    let mut zoom = Zoom::new();
    zoom.register_workflow(spec).unwrap();
    let err = zoom
        .set_policy(
            "alice",
            Some(VisibilityPolicy {
                hidden_modules: vec!["Only".to_string()],
                hidden_workflows: vec![],
            }),
        )
        .unwrap_err();
    assert!(
        matches!(err, WarehouseError::PolicyUnsatisfiable { .. }),
        "{err}"
    );
}

//! End-to-end tests of the daemon's privacy enforcement and the
//! observability surfaces it gates: server-side `Resolve` must not be an
//! existence oracle for hidden workflows, the slow-query ring must not
//! leak cross-tenant query context, and policy administration itself is
//! admin-gated.

use zoom::core::{Answer, Cx, Daemon, DaemonConfig, Op, RemoteZoom, Zoom};
use zoom::model::{DataId, EventLog};
use zoom::warehouse::{SlowQuery, VisibilityPolicy};
use zoom_gen::library::{figure2_run, phylogenomic};

fn spawn(shards: usize, admin_token: Option<&str>) -> Daemon {
    Daemon::spawn(
        "127.0.0.1:0",
        DaemonConfig {
            shards,
            admin_token: admin_token.map(str::to_string),
            ..DaemonConfig::default()
        },
    )
    .expect("daemon binds an ephemeral port")
}

/// Loads the phylogenomic demo through `ctl` and returns (spec, admin
/// view, run).
fn load_demo(ctl: &mut RemoteZoom) -> (zoom::core::SpecId, zoom::core::ViewId, zoom::core::RunId) {
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = EventLog::from_run(&run, &spec);
    let sid = ctl.register_workflow(spec).unwrap();
    let vid = ctl.admin_view(sid).unwrap();
    let rid = ctl.load_log(sid, &log).unwrap();
    (sid, vid, rid)
}

/// Satellite 2 (golden bytes): resolving a hidden-and-present workflow
/// must answer byte-for-byte what resolving it on a daemon that never
/// registered it answers — no existence oracle.
#[test]
fn resolve_renders_hidden_exactly_like_absent() {
    // Daemon A: the workflow exists, hidden from alice.
    let with_wf = spawn(2, None);
    let mut ctl = RemoteZoom::connect(with_wf.addr(), "ctl").unwrap();
    load_demo(&mut ctl);
    ctl.set_policy(
        "alice",
        Some(VisibilityPolicy {
            hidden_modules: vec![],
            hidden_workflows: vec!["phylogenomic".to_string()],
        }),
        None,
    )
    .unwrap();

    // Daemon B: the workflow genuinely does not exist.
    let without_wf = spawn(2, None);
    let mut probe = RemoteZoom::connect(without_wf.addr(), "alice").unwrap();

    let mut alice = RemoteZoom::connect(with_wf.addr(), "alice").unwrap();
    let hidden_err = alice.resolve("phylogenomic", None).unwrap_err().to_string();
    let absent_err = probe.resolve("phylogenomic", None).unwrap_err().to_string();
    assert_eq!(
        hidden_err, absent_err,
        "hidden-and-present must render like truly-absent"
    );
    // The golden bytes themselves, pinned: a change here is a protocol
    // change an attacker could fingerprint across versions.
    assert_eq!(hidden_err, "no workflow named `phylogenomic`");

    // View-name resolution through a hidden workflow is equally blind.
    let hidden_view = alice
        .resolve("phylogenomic", Some("UAdmin"))
        .unwrap_err()
        .to_string();
    let absent_view = probe
        .resolve("phylogenomic", Some("UAdmin"))
        .unwrap_err()
        .to_string();
    assert_eq!(hidden_view, absent_view);

    // The unrestricted tenant still resolves normally.
    let (sid, vid, runs) = ctl.resolve("phylogenomic", Some("UAdmin")).unwrap();
    assert_eq!(sid.0, 0);
    assert!(vid.is_some());
    assert_eq!(runs.len(), 1);
}

/// A hidden workflow's runs render as absent runs, byte-identically.
#[test]
fn hidden_workflow_runs_render_like_absent_runs() {
    let daemon = spawn(2, None);
    let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
    let (_, vid, rid) = load_demo(&mut ctl);
    ctl.set_policy(
        "alice",
        Some(VisibilityPolicy {
            hidden_modules: vec![],
            hidden_workflows: vec!["phylogenomic".to_string()],
        }),
        None,
    )
    .unwrap();
    let mut alice = RemoteZoom::connect(daemon.addr(), "alice").unwrap();
    let hidden = alice
        .deep_provenance(rid, vid, DataId(1))
        .unwrap_err()
        .to_string();
    let absent = alice
        .deep_provenance(zoom::core::RunId(999), vid, DataId(1))
        .unwrap_err()
        .to_string();
    assert_eq!(
        hidden.replace(&format!("{}", rid.0), "R"),
        absent.replace("999", "R")
    );
    assert_eq!(
        alice.final_outputs(rid).unwrap_err().to_string(),
        format!("{rid} not found")
    );
}

/// Satellite 1: the slow-query ring is tenant-filtered for non-admin
/// callers and only admin may reset the capture threshold.
#[test]
fn slowlog_is_tenant_scoped_without_admin_token() {
    let daemon = spawn(2, Some("sekrit"));
    let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
    let (_, vid, rid) = load_demo(&mut ctl);

    // Admin (token) opens capture for everything.
    assert!(ctl.slow_queries_admin(Some(0), Some("sekrit")).is_ok());

    let mut alice = RemoteZoom::connect(daemon.addr(), "alice").unwrap();
    let mut bob = RemoteZoom::connect(daemon.addr(), "bob").unwrap();
    let spec = phylogenomic();
    let finals = figure2_run(&spec).final_outputs();
    alice.deep_provenance(rid, vid, finals[0]).unwrap();
    bob.deep_provenance(rid, vid, finals[0]).unwrap();
    bob.apply(&Op::DependentsOf(rid, vid, DataId(1))).unwrap();

    // Each non-admin tenant sees exactly its own entries.
    let alice_log = alice.slow_queries(None).unwrap();
    assert!(!alice_log.is_empty());
    assert!(alice_log
        .iter()
        .all(|q| q.tenant.as_deref() == Some("alice")));
    let bob_log = bob.slow_queries(None).unwrap();
    assert!(bob_log.iter().all(|q| q.tenant.as_deref() == Some("bob")));
    assert!(bob_log.len() > alice_log.len());

    // A non-admin "threshold reset" is ignored: the ring keeps capturing.
    let before = ctl.slow_queries_admin(None, Some("sekrit")).unwrap().len();
    alice.slow_queries(Some(u64::MAX)).unwrap();
    alice.deep_provenance(rid, vid, finals[0]).unwrap();
    let after = ctl.slow_queries_admin(None, Some("sekrit")).unwrap().len();
    assert!(after > before, "non-admin must not disable capture");

    // Admin sees the full cross-tenant ring.
    let full = ctl.slow_queries_admin(None, Some("sekrit")).unwrap();
    let tenants: std::collections::HashSet<_> =
        full.iter().filter_map(|q| q.tenant.clone()).collect();
    assert!(
        tenants.contains("alice") && tenants.contains("bob"),
        "{tenants:?}"
    );
}

/// Metrics snapshots embed the slow-query ring: non-admin callers get it
/// filtered to their own tenant.
#[test]
fn metrics_slowlog_is_tenant_filtered() {
    let daemon = spawn(2, Some("sekrit"));
    let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
    let (_, vid, rid) = load_demo(&mut ctl);
    ctl.slow_queries_admin(Some(0), Some("sekrit")).unwrap();
    let mut alice = RemoteZoom::connect(daemon.addr(), "alice").unwrap();
    let spec = phylogenomic();
    let finals = figure2_run(&spec).final_outputs();
    alice.deep_provenance(rid, vid, finals[0]).unwrap();
    ctl.deep_provenance(rid, vid, finals[0]).unwrap();

    let own = alice.metrics_per_shard().unwrap();
    assert!(own
        .iter()
        .flat_map(|s| &s.slow_queries)
        .all(|q| q.tenant.as_deref() == Some("alice")));

    let full = ctl.metrics_per_shard_admin(Some("sekrit")).unwrap();
    let tenants: std::collections::HashSet<_> = full
        .iter()
        .flat_map(|s| &s.slow_queries)
        .filter_map(|q| q.tenant.clone())
        .collect();
    assert!(tenants.contains("ctl"), "{tenants:?}");
}

/// Policy administration is admin-gated; reading one's own policy is not.
#[test]
fn policy_administration_requires_admin() {
    let daemon = spawn(2, Some("sekrit"));
    let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
    load_demo(&mut ctl);
    let policy = VisibilityPolicy {
        hidden_modules: vec!["M5".to_string()],
        hidden_workflows: vec![],
    };

    // Tokenless install is refused even from loopback (token configured).
    assert!(ctl.set_policy("alice", Some(policy.clone()), None).is_err());
    ctl.set_policy("alice", Some(policy.clone()), Some("sekrit"))
        .unwrap();

    // Alice reads her own policy without a token…
    let mut alice = RemoteZoom::connect(daemon.addr(), "alice").unwrap();
    assert_eq!(alice.policy("alice", None).unwrap(), Some(policy));
    // …but not another tenant's.
    assert!(alice.policy("ctl", None).is_err());
    // And cannot clear her own restriction.
    assert!(alice.set_policy("alice", None, None).is_err());

    // Admin clears it.
    ctl.set_policy("alice", None, Some("sekrit")).unwrap();
    assert_eq!(ctl.policy("alice", Some("sekrit")).unwrap(), None);
}

/// An unsatisfiable policy is refused at install time over the wire.
#[test]
fn unsatisfiable_policy_is_refused_at_install() {
    let daemon = spawn(1, None);
    let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
    let mut b = zoom::model::SpecBuilder::new("solo");
    b.analysis("Only");
    b.from_input("Only");
    b.to_output("Only");
    ctl.register_workflow(b.build().unwrap()).unwrap();
    let err = ctl
        .set_policy(
            "alice",
            Some(VisibilityPolicy {
                hidden_modules: vec!["Only".to_string()],
                hidden_workflows: vec![],
            }),
            None,
        )
        .unwrap_err()
        .to_string();
    assert!(err.contains("unsatisfiable"), "{err}");
}

/// View-returning requests hand a restricted tenant the effective (meet)
/// id — the id it holds is already safe to query with.
#[test]
fn view_registration_returns_the_effective_view() {
    let daemon = spawn(2, None);
    let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
    let (sid, admin_vid, rid) = load_demo(&mut ctl);
    ctl.set_policy(
        "alice",
        Some(VisibilityPolicy {
            hidden_modules: vec!["M5".to_string()],
            hidden_workflows: vec![],
        }),
        None,
    )
    .unwrap();

    let mut alice = RemoteZoom::connect(daemon.addr(), "alice").unwrap();
    // Alice re-requests the admin view: she gets the privacy meet back,
    // not the admin id.
    let got = alice.admin_view(sid).unwrap();
    assert_ne!(got, admin_vid);
    // And querying with it answers — the substituted view is real.
    let spec = phylogenomic();
    let finals = figure2_run(&spec).final_outputs();
    let res = alice.deep_provenance(rid, got, finals[0]).unwrap();
    assert!(res.tuples() > 0);

    // Local-facade equivalence: the daemon's answer equals what the
    // in-process facade answers for the same policy.
    let mut local = Zoom::new();
    let lsid = local.register_workflow(spec.clone()).unwrap();
    let lvid = local.admin_view(lsid).unwrap();
    let lrid = local.load_run(lsid, figure2_run(&spec)).unwrap();
    local
        .set_policy(
            "alice",
            Some(VisibilityPolicy {
                hidden_modules: vec!["M5".to_string()],
                hidden_workflows: vec![],
            }),
        )
        .unwrap();
    let lres = local
        .deep_provenance_as("alice", lrid, lvid, finals[0])
        .unwrap();
    assert_eq!(lres.rows, res.rows);
}

/// A restricted tenant's batch fans out to worker threads, and every
/// slow-log entry its queries leave names that tenant: on the facade and
/// through a two-shard daemon, each with one worker per available CPU.
/// No entry is left untagged.
#[test]
fn batch_slow_log_entries_carry_the_tenant_across_workers() {
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let policy = VisibilityPolicy {
        hidden_modules: vec!["M5".to_string()],
        hidden_workflows: vec![],
    };
    let data: Vec<DataId> = run.all_data().into_iter().step_by(40).collect();
    let batch = |rid, vid| Op::Batch(data.iter().map(|&d| (rid, vid, d)).collect());
    let all_tagged = |log: &[SlowQuery], answered: usize| {
        assert_eq!(log.len(), answered, "one entry per answered query");
        assert!(
            log.iter()
                .all(|q| q.tenant.as_deref() == Some("restricted")),
            "{:?}",
            log.iter().map(|q| &q.tenant).collect::<Vec<_>>()
        );
    };

    let mut z = Zoom::new();
    let sid = z.register_workflow(spec.clone()).unwrap();
    let vid = z.admin_view(sid).unwrap();
    let rid = z.load_run(sid, run.clone()).unwrap();
    z.set_policy("restricted", Some(policy.clone())).unwrap();
    z.set_slow_query_threshold_nanos(0);
    let Answer::Batch(slots) = z.read(&Cx::tenant("restricted"), &batch(rid, vid)).unwrap() else {
        panic!("a batch answers a batch");
    };
    let answered = slots.iter().filter(|s| s.is_ok()).count();
    assert!(answered >= 2, "{slots:?}");
    all_tagged(&z.slow_queries(), answered);

    let daemon = spawn(2, None);
    let mut ctl = RemoteZoom::connect(daemon.addr(), "ctl").unwrap();
    let (_, vid, rid) = load_demo(&mut ctl);
    ctl.set_policy("restricted", Some(policy), None).unwrap();
    ctl.slow_queries_admin(Some(0), None).unwrap();
    let mut restricted = RemoteZoom::connect(daemon.addr(), "restricted").unwrap();
    let Answer::Batch(remote) = restricted.apply(&batch(rid, vid)).unwrap() else {
        panic!("a batch answers a batch");
    };
    assert_eq!(remote.iter().filter(|s| s.is_ok()).count(), answered);
    all_tagged(&ctl.slow_queries_admin(None, None).unwrap(), answered);
}

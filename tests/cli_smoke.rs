//! End-to-end tests of the `zoomctl` binary: the demo → inspect → query →
//! render → repl pipeline, driven exactly as a user would.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn zoomctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_zoomctl"))
}

fn temp_snapshot(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("zoomctl-test-{name}-{}", std::process::id()));
    p
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("zoomctl spawns");
    assert!(
        out.status.success(),
        "zoomctl failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn demo_inspect_query_render() {
    let snap = temp_snapshot("pipeline");
    let snap_s = snap.to_str().expect("utf-8 path");

    let out = run_ok(zoomctl().args(["demo", snap_s]));
    assert!(out.contains("demo warehouse written"));

    let out = run_ok(zoomctl().args(["stats", snap_s]));
    assert!(out.contains("data objects : 447"), "{out}");
    assert!(
        out.contains("index        : auto (labels at >= 4096 nodes)"),
        "{out}"
    );

    let out = run_ok(zoomctl().args(["specs", snap_s]));
    assert!(out.contains("phylogenomic"), "{out}");

    let out = run_ok(zoomctl().args(["views", snap_s, "phylogenomic"]));
    assert!(out.contains("UAdmin"));
    assert!(out.contains("UV(M2,M3,M7)"));

    let out = run_ok(zoomctl().args(["runs", snap_s, "phylogenomic"]));
    assert!(out.contains("10 steps"), "{out}");
    assert!(out.contains("d447"));

    // The paper's question through Joe's view.
    let out = run_ok(zoomctl().args([
        "query",
        snap_s,
        "phylogenomic",
        "0",
        "UV(M2,M3,M7)",
        "immediate d413",
    ]));
    assert!(out.contains("101 input(s): d308..d408"), "{out}");

    // Register Mary's view from the CLI; the snapshot is updated in place.
    let out =
        run_ok(zoomctl().args(["build-view", snap_s, "phylogenomic", "M2", "M3", "M5", "M7"]));
    assert!(out.contains("size 5"), "{out}");
    let out = run_ok(zoomctl().args([
        "query",
        snap_s,
        "phylogenomic",
        "0",
        "UV(M2,M3,M5,M7)",
        "immediate d413",
    ]));
    assert!(out.contains("1 input(s): d411"), "{out}");

    // DOT rendering.
    let out = run_ok(zoomctl().args(["render", snap_s, "phylogenomic", "0", "UAdmin", "d447"]));
    assert!(out.starts_with("digraph"));
    assert!(out.contains("S10:M7"));

    std::fs::remove_file(&snap).ok();
}

#[test]
fn repl_session_via_stdin() {
    let snap = temp_snapshot("repl");
    let snap_s = snap.to_str().expect("utf-8 path");
    run_ok(zoomctl().args(["demo", snap_s]));

    let mut child = zoomctl()
        .args(["repl", snap_s, "phylogenomic", "0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    {
        use std::io::Write;
        let stdin = child.stdin.as_mut().expect("piped");
        stdin
            .write_all(b"flag M3\nflag M7\nimmediate d413\nview UAdmin\nfinal\nquit\n")
            .expect("writes");
    }
    let out = child.wait_with_output().expect("completes");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("rebuilt: UV(M3,M7)"), "{text}");
    assert!(text.contains("produced by"), "{text}");
    assert!(text.contains("d447"), "{text}");
    assert!(text.contains("session views saved"), "{text}");

    std::fs::remove_file(&snap).ok();
}

#[test]
fn compact_and_fsck_durable_directory() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("zoomctl-test-durable-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_s = dir.to_str().expect("utf-8 path");

    // Populate a durable store through the library API, as an embedding
    // application would.
    {
        use zoom::gen::library::{figure2_run, phylogenomic};
        let mut z = zoom::Zoom::open_durable(&dir).expect("durable open");
        let spec = phylogenomic();
        let sid = z.register_workflow(spec.clone()).expect("spec");
        z.admin_view(sid).expect("view");
        z.load_run(sid, figure2_run(&spec)).expect("run");
    }

    // fsck reports the journaled state without modifying it.
    let out = run_ok(zoomctl().args(["fsck", dir_s]));
    assert!(out.contains("epoch:           0"), "{out}");
    assert!(out.contains("journal records: 3"), "{out}");
    assert!(out.contains("1 specs, 1 views, 1 runs"), "{out}");
    assert!(out.contains("torn bytes:      0"), "{out}");

    // compact swings to a snapshot generation.
    let out = run_ok(zoomctl().args(["compact", dir_s]));
    assert!(out.contains("epoch 1"), "{out}");
    assert!(out.contains("journal tail : 0 records"), "{out}");

    let out = run_ok(zoomctl().args(["fsck", dir_s]));
    assert!(out.contains("epoch:           1"), "{out}");
    assert!(out.contains("snapshot:        snap-000001.zoomwh"), "{out}");
    assert!(out.contains("strays:          (none)"), "{out}");

    // compact on a non-durable path is a clean error.
    let out = zoomctl()
        .args(["compact", "/nonexistent-zoom-dir"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no MANIFEST"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_are_reported_cleanly() {
    let snap = temp_snapshot("errors");
    let snap_s = snap.to_str().expect("utf-8 path");

    // Missing snapshot.
    let out = zoomctl().args(["stats", snap_s]).output().expect("spawns");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot load"));

    run_ok(zoomctl().args(["demo", snap_s]));
    // Unknown workflow.
    let out = zoomctl()
        .args(["views", snap_s, "nope"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no workflow named"));
    // Bad query form.
    let out = zoomctl()
        .args(["query", snap_s, "phylogenomic", "0", "UAdmin", "frobnicate"])
        .output()
        .expect("spawns");
    assert!(!out.status.success());

    std::fs::remove_file(&snap).ok();
}

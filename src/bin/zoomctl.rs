//! `zoomctl` — a command-line front end to the ZOOM provenance warehouse.
//!
//! The prototype of Section IV exposed view building and provenance
//! querying through a GUI; this CLI exposes the same operations over a
//! warehouse snapshot file:
//!
//! ```sh
//! zoomctl demo lab.zoom                       # create a demo warehouse
//! zoomctl stats lab.zoom                      # sizes
//! zoomctl specs lab.zoom                      # list workflows
//! zoomctl views lab.zoom phylogenomic         # list views of a workflow
//! zoomctl build-view lab.zoom phylogenomic M2 M3 M7
//! zoomctl query lab.zoom phylogenomic 0 UAdmin "deep d447"
//! zoomctl render lab.zoom phylogenomic 0 "UV(M2,M3,M7)" d447 > prov.dot
//! ```
//!
//! Run indices are per-workflow (0 = first loaded run).

use std::path::Path;
use std::process::ExitCode;

/// Writes a line to stdout, ignoring broken pipes (`zoomctl … | head`).
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// Like [`out!`] without the newline.
macro_rules! out_raw {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = write!(std::io::stdout(), $($arg)*);
    }};
}
use zoom::core::{
    Answer, CannedQuery, Cx, Op, PushOutcome, ReplayOptions, RunId, SpecId, TraceRecorder,
    TraceReplayer, TraceTarget, ViewId, VisibilityPolicy,
};
use zoom::model::{DataId, LogEvent, StepId, Timestamp, UserView};
use zoom::warehouse::json::{self, JsonObject};
use zoom::Zoom;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("zoomctl: {msg}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(raw: &[String]) -> Result<(), String> {
    // `--connect <addr>` (plus optional `--tenant <name>`) may appear
    // anywhere; strip both before positional parsing so every subcommand
    // keeps its local shape minus the snapshot path.
    let mut args: Vec<String> = Vec::with_capacity(raw.len());
    let mut connect: Option<String> = None;
    let mut tenant = "zoomctl".to_string();
    let mut i = 0;
    while i < raw.len() {
        match raw[i].as_str() {
            "--connect" => {
                i += 1;
                connect = Some(raw.get(i).ok_or("missing address for --connect")?.clone());
            }
            "--tenant" => {
                i += 1;
                tenant = raw.get(i).ok_or("missing name for --tenant")?.clone();
            }
            other => args.push(other.to_string()),
        }
        i += 1;
    }
    if let Some(addr) = connect {
        return dispatch_remote(&addr, &tenant, &args);
    }
    let args = &args[..];
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "demo" => demo(path_arg(args, 1)?),
        "stats" => stats(path_arg(args, 1)?, args.iter().any(|a| a == "--json")),
        "slowlog" => slowlog(path_arg(args, 1)?, &args[2..]),
        "specs" => specs(path_arg(args, 1)?),
        "views" => views(path_arg(args, 1)?, str_arg(args, 2, "workflow name")?),
        "runs" => runs(path_arg(args, 1)?, str_arg(args, 2, "workflow name")?),
        "build-view" => build_view(
            path_arg(args, 1)?,
            str_arg(args, 2, "workflow name")?,
            &args[3..],
        ),
        "query" => query(
            path_arg(args, 1)?,
            str_arg(args, 2, "workflow name")?,
            str_arg(args, 3, "run index")?,
            str_arg(args, 4, "view name")?,
            str_arg(args, 5, "query text")?,
        ),
        "compare" => compare(
            path_arg(args, 1)?,
            str_arg(args, 2, "workflow name")?,
            str_arg(args, 3, "first run index")?,
            str_arg(args, 4, "second run index")?,
            str_arg(args, 5, "view name")?,
        ),
        "repl" => repl(
            path_arg(args, 1)?,
            str_arg(args, 2, "workflow name")?,
            str_arg(args, 3, "run index")?,
        ),
        "render" => render(
            path_arg(args, 1)?,
            str_arg(args, 2, "workflow name")?,
            str_arg(args, 3, "run index")?,
            str_arg(args, 4, "view name")?,
            str_arg(args, 5, "data id")?,
        ),
        "ingest" => ingest(
            path_arg(args, 1)?,
            str_arg(args, 2, "workflow name")?,
            &args[3..],
        ),
        "replay" => replay(&mut Zoom::new(), path_arg(args, 1)?, &args[2..], true),
        "record-demo" => record_demo(path_arg(args, 1)?),
        "compact" => compact(dir_arg(args, 1)?),
        "fsck" => fsck(dir_arg(args, 1)?),
        "health" => health(path_arg(args, 1)?, args.iter().any(|a| a == "--json")),
        "help" | "--help" | "-h" => {
            out_raw!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (see `zoomctl help`)")),
    }
}

const HELP: &str = "\
zoomctl — ZOOM*UserViews provenance warehouse CLI

usage:
  zoomctl demo <snapshot>                              create a demo warehouse
  zoomctl stats <snapshot> [--json]                    warehouse sizes
      --json adds live metrics: query latency histograms, cache
      hit/miss/eviction counters, journal fsync latency, slow queries
  zoomctl slowlog <snapshot> [--threshold-nanos N] [--json]
      audit-sweep every run/view and print the slow-query ring buffer
  zoomctl specs <snapshot>                             list workflows
  zoomctl views <snapshot> <workflow>                  list its views
  zoomctl runs <snapshot> <workflow>                   list its runs
  zoomctl build-view <snapshot> <workflow> <module>... build & register a view
  zoomctl query <snapshot> <workflow> <run#> <view> <query>
      query forms: deep dN | immediate dN | dependents dN
                   | between X Y | final | visible
  zoomctl render <snapshot> <workflow> <run#> <view> <dataid>
      emit the provenance graph as GraphViz DOT on stdout
  zoomctl repl <snapshot> <workflow> <run#>
      interactive session: flag/unflag modules, switch views, run queries
  zoomctl compare <snapshot> <workflow> <run#> <run#> <view>
      compare two runs at a view level (reproducibility check)
  zoomctl ingest <snapshot|dir> <workflow> [events-file|-] [--follow] [--seal]
      stream run events into the warehouse one at a time; the run is
      queryable mid-stream. Line protocol (times auto-ticked):
        user-input <d> <user> | step-started <s> <module>
        param <s> <key> <value> | read <s> <d> | wrote <s> <d>
        step-finished <s> | finalized <d> | seal
      --follow tails the file until a `seal` line arrives;
      --seal seals at end of input even without a `seal` line.
      Durable directories journal every event as it is acknowledged.
  zoomctl replay <trace> [--check] [--speed N] [--json]
      re-execute a recorded trace against a fresh warehouse, diffing
      result digests op by op. --check exits 2 on any mismatch;
      --speed 1 paces to recorded (virtual) time, 0 = flat out.
  zoomctl record-demo <trace>
      deterministically record the golden demo trace artifact
  zoomctl compact <dir>
      force a durable-store compaction (snapshot + fresh journal)
  zoomctl fsck <dir>
      verify a durable store: manifest, snapshot, journal, strays
  zoomctl health <snapshot|dir> [--json]
      write-availability and circuit-breaker state: degraded stores
      report open breakers, retry counts, and rejected writes

daemon mode — add `--connect HOST:PORT` (and optionally `--tenant NAME`)
to run against a live zoomd instead of a snapshot; the snapshot path
argument is dropped:
  zoomctl --connect A ping                             liveness probe
  zoomctl --connect A demo                             load the demo workload
  zoomctl --connect A stats [--json] [--admin-token TOK]
      aggregate across shards; without admin, embedded slow-query rows
      are filtered to your own tenant
  zoomctl --connect A slowlog [--threshold-nanos N] [--json] [--admin-token TOK]
      your tenant's slow queries; admin sees the full cross-tenant ring
      and may set the capture threshold
  zoomctl --connect A health [--json]                  per-shard health
  zoomctl --connect A build-view <workflow> <module>...
  zoomctl --connect A query <workflow> <run#> <view> <query>
  zoomctl --connect A ingest <workflow> [events-file|-] [--follow] [--seal]
  zoomctl --connect A replay <trace> [--check] [--speed N] [--json]
  zoomctl --connect A compact                          checkpoint durable shards
  zoomctl --connect A policy set <tenant> [--hide-module M]... [--hide-workflow W]...
                              [--admin-token TOK]
      install <tenant>'s visibility policy: hidden modules are concealed
      inside composites of the coarsest safe view; hidden workflows do
      not exist for that tenant (admin-gated like shutdown)
  zoomctl --connect A policy show <tenant> [--json] [--admin-token TOK]
      print a tenant's policy (your own needs no token)
  zoomctl --connect A policy clear <tenant> [--admin-token TOK]
      remove a tenant's policy (admin-gated)
  zoomctl --connect A shutdown [--admin-token TOK]     stop the daemon
";

fn path_arg(args: &[String], i: usize) -> Result<&Path, String> {
    args.get(i)
        .map(Path::new)
        .ok_or_else(|| "missing snapshot path".to_string())
}

fn dir_arg(args: &[String], i: usize) -> Result<&Path, String> {
    args.get(i)
        .map(Path::new)
        .ok_or_else(|| "missing durable directory path".to_string())
}

fn str_arg<'a>(args: &'a [String], i: usize, what: &str) -> Result<&'a str, String> {
    args.get(i)
        .map(String::as_str)
        .ok_or_else(|| format!("missing {what}"))
}

fn load(path: &Path) -> Result<Zoom, String> {
    Zoom::load(path).map_err(|e| format!("cannot load `{}`: {e}", path.display()))
}

fn resolve_spec(zoom: &Zoom, name: &str) -> Result<SpecId, String> {
    zoom.warehouse()
        .spec_by_name(name)
        .ok_or_else(|| format!("no workflow named `{name}`"))
}

fn resolve_view(zoom: &Zoom, spec: SpecId, name: &str) -> Result<ViewId, String> {
    zoom.warehouse()
        .find_view(spec, name)
        .ok_or_else(|| format!("no view named `{name}` for this workflow"))
}

fn resolve_run(zoom: &Zoom, spec: SpecId, index: &str) -> Result<RunId, String> {
    let i: usize = index
        .parse()
        .map_err(|_| format!("`{index}` is not a run index"))?;
    zoom.warehouse()
        .runs_of_spec(spec)
        .get(i)
        .copied()
        .ok_or_else(|| format!("run index {i} out of range"))
}

fn demo(path: &Path) -> Result<(), String> {
    use zoom_gen::library::{figure2_run, phylogenomic};
    let mut zoom = Zoom::new();
    let spec = phylogenomic();
    let sid = zoom
        .register_workflow(spec.clone())
        .map_err(|e| e.to_string())?;
    zoom.admin_view(sid).map_err(|e| e.to_string())?;
    zoom.black_box_view(sid).map_err(|e| e.to_string())?;
    zoom.build_view(sid, &["M2", "M3", "M7"])
        .map_err(|e| e.to_string())?;
    zoom.load_run(sid, figure2_run(&spec))
        .map_err(|e| e.to_string())?;
    zoom.save(path).map_err(|e| e.to_string())?;
    out!(
        "demo warehouse written to {} (workflow `phylogenomic`, 1 run, 3 views)",
        path.display()
    );
    Ok(())
}

fn stats(path: &Path, json: bool) -> Result<(), String> {
    let zoom = load(path)?;
    if json {
        out!("{}", zoom.metrics().to_json());
        return Ok(());
    }
    let s = zoom.warehouse().stats();
    out!("workflows    : {}", s.specs);
    out!("views        : {}", s.views);
    out!("runs         : {}", s.runs);
    out!("steps        : {}", s.steps);
    out!("data objects : {}", s.data_objects);
    out!(
        "index        : {} (labels at >= {} nodes)",
        zoom.warehouse().backend_policy(),
        zoom.warehouse().labels_threshold()
    );
    Ok(())
}

/// Sweeps deep provenance of every run's final outputs through every view
/// of its workflow, then prints the slow-query ring buffer. With the
/// default threshold of 0 every query lands in the log (newest last), so
/// the sweep doubles as a per-view latency audit of the snapshot.
fn slowlog(path: &Path, rest: &[String]) -> Result<(), String> {
    let mut threshold: u64 = 0;
    let mut json = false;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--json" => json = true,
            "--threshold-nanos" => {
                i += 1;
                threshold = rest
                    .get(i)
                    .ok_or("missing value for --threshold-nanos")?
                    .parse()
                    .map_err(|_| "--threshold-nanos takes a nanosecond count".to_string())?;
            }
            other => return Err(format!("unknown slowlog option `{other}`")),
        }
        i += 1;
    }
    let zoom = load(path)?;
    zoom.set_slow_query_threshold_nanos(threshold);
    let wh = zoom.warehouse();
    let specs = wh.stats().specs as u32;
    for si in 0..specs {
        let sid = SpecId(si);
        for &rid in wh.runs_of_spec(sid) {
            let finals = zoom.final_outputs(rid).map_err(|e| e.to_string())?;
            for &vid in wh.views_of_spec(sid) {
                for &d in &finals {
                    // Hidden-at-this-view answers are part of the audit, not
                    // failures.
                    let _ = zoom.deep_provenance(rid, vid, d);
                }
            }
        }
    }
    let slow = zoom.slow_queries();
    if json {
        out!("{}", json::to_string(&slow));
        return Ok(());
    }
    if slow.is_empty() {
        out!("no queries above {threshold} ns");
        return Ok(());
    }
    out!(
        "{:>5} {:>10} {:<24} {:>6} {:>8} {:>12}",
        "seq",
        "kind",
        "view",
        "run",
        "data",
        "nanos"
    );
    for q in &slow {
        out!(
            "{:>5} {:>10} {:<24} {:>6} {:>8} {:>12}",
            q.seq,
            q.kind.name(),
            q.view_name,
            q.run.0,
            q.data.map_or("-".to_string(), |d| format!("d{d}")),
            q.nanos
        );
    }
    Ok(())
}

fn specs(path: &Path) -> Result<(), String> {
    let zoom = load(path)?;
    let wh = zoom.warehouse();
    let n = wh.stats().specs as u32;
    for i in 0..n {
        let id = SpecId(i);
        if let Ok(spec) = wh.spec(id) {
            out!(
                "{:<30} {} modules, {} views, {} runs",
                spec.name(),
                spec.module_count(),
                wh.views_of_spec(id).len(),
                wh.runs_of_spec(id).len()
            );
        }
    }
    Ok(())
}

fn views(path: &Path, name: &str) -> Result<(), String> {
    let zoom = load(path)?;
    let sid = resolve_spec(&zoom, name)?;
    for &v in zoom.warehouse().views_of_spec(sid) {
        let view = zoom.warehouse().view(v).map_err(|e| e.to_string())?;
        out!("{:<24} size {}", view.name(), view.size());
    }
    Ok(())
}

fn runs(path: &Path, name: &str) -> Result<(), String> {
    let zoom = load(path)?;
    let sid = resolve_spec(&zoom, name)?;
    for (i, &r) in zoom.warehouse().runs_of_spec(sid).iter().enumerate() {
        let run = zoom.warehouse().run(r).map_err(|e| e.to_string())?;
        out!(
            "run {:<3} {} steps, {} data objects, finals {}",
            i,
            run.step_count(),
            run.data_count(),
            zoom::model::run::format_data_range(&run.final_outputs())
        );
    }
    Ok(())
}

fn build_view(path: &Path, name: &str, labels: &[String]) -> Result<(), String> {
    if labels.is_empty() {
        return Err("give at least one relevant module label".to_string());
    }
    let mut zoom = load(path)?;
    let sid = resolve_spec(&zoom, name)?;
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let vid = zoom.build_view(sid, &refs).map_err(|e| e.to_string())?;
    let view = zoom.warehouse().view(vid).map_err(|e| e.to_string())?;
    out!("registered view `{}` (size {})", view.name(), view.size());
    let vname = view.name().to_string();
    let spec = zoom.warehouse().spec(sid).map_err(|e| e.to_string())?;
    let composites: Vec<String> = zoom
        .warehouse()
        .view(vid)
        .map_err(|e| e.to_string())?
        .composites()
        .iter()
        .map(|c| {
            let ms: Vec<&str> = c.members.iter().map(|&m| spec.label(m)).collect();
            format!("  {} = {ms:?}", c.name)
        })
        .collect();
    for line in composites {
        out!("{line}");
    }
    zoom.save(path).map_err(|e| e.to_string())?;
    out!("snapshot updated ({vname})");
    Ok(())
}

fn query(
    path: &Path,
    name: &str,
    run_index: &str,
    view_name: &str,
    text: &str,
) -> Result<(), String> {
    let zoom = load(path)?;
    let sid = resolve_spec(&zoom, name)?;
    let rid = resolve_run(&zoom, sid, run_index)?;
    let vid = resolve_view(&zoom, sid, view_name)?;
    let q = CannedQuery::parse(text).map_err(|e| e.to_string())?;
    let answer = zoom
        .read(&Cx::ADMIN, &q.op(rid, vid))
        .map_err(|e| e.to_string())?;
    out!("{answer}");
    Ok(())
}

/// Compares two runs of one workflow through a view — two runs differing
/// only inside a composite (e.g. loop iterations) are identical at that
/// level.
fn compare(
    path: &Path,
    name: &str,
    run_a: &str,
    run_b: &str,
    view_name: &str,
) -> Result<(), String> {
    let zoom = load(path)?;
    let sid = resolve_spec(&zoom, name)?;
    let ra = resolve_run(&zoom, sid, run_a)?;
    let rb = resolve_run(&zoom, sid, run_b)?;
    let vid = resolve_view(&zoom, sid, view_name)?;
    let vra = zoom
        .warehouse()
        .view_run(ra, vid)
        .map_err(|e| e.to_string())?;
    let vrb = zoom
        .warehouse()
        .view_run(rb, vid)
        .map_err(|e| e.to_string())?;
    let run = |r| zoom.warehouse().run(r).map_err(|e| e.to_string());
    let cmp = zoom::core::compare_view_runs((run(ra)?, &vra), (run(rb)?, &vrb));
    let view = zoom.warehouse().view(vid).map_err(|e| e.to_string())?;
    out_raw!(
        "{}",
        zoom::core::ComparisonReport {
            comparison: &cmp,
            view,
        }
    );
    Ok(())
}

/// The interactive session of Section IV: flag or unflag modules (the good
/// view is rebuilt and switched to each time), jump between registered
/// views, and run canned queries — all against one run.
fn repl(path: &Path, name: &str, run_index: &str) -> Result<(), String> {
    use std::io::BufRead;
    let mut zoom = load(path)?;
    let sid = resolve_spec(&zoom, name)?;
    let rid = resolve_run(&zoom, sid, run_index)?;
    let mut current = zoom.admin_view(sid).map_err(|e| e.to_string())?;
    let mut flags: Vec<String> = Vec::new();
    out!(
        "interactive session on `{name}` run {run_index} — commands: \
         flag <module> | unflag <module> | view <name> | views | modules | \
         <query form> | tree dN | quit"
    );
    print_prompt(&zoom, current);
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() {
            print_prompt(&zoom, current);
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            // `trim` + the emptiness check above make this unreachable, but
            // a prompt beats a panic if that invariant ever shifts.
            print_prompt(&zoom, current);
            continue;
        };
        let rest: Vec<&str> = parts.collect();
        match (cmd, rest.as_slice()) {
            ("quit" | "exit", _) => break,
            ("views", _) => {
                for &v in zoom.warehouse().views_of_spec(sid) {
                    let view = zoom.warehouse().view(v).map_err(|e| e.to_string())?;
                    let marker = if v == current { "*" } else { " " };
                    out!(" {marker} {:<24} size {}", view.name(), view.size());
                }
            }
            ("modules", _) => {
                let spec = zoom.warehouse().spec(sid).map_err(|e| e.to_string())?;
                for m in spec.module_ids() {
                    let label = spec.label(m);
                    let marker = if flags.iter().any(|f| f == label) {
                        "*"
                    } else {
                        " "
                    };
                    out!(" {marker} {label} ({})", spec.kind(m));
                }
            }
            ("view", [vname]) => match resolve_view(&zoom, sid, vname) {
                Ok(v) => {
                    current = v;
                    out!("switched to {vname}");
                }
                Err(e) => out!("{e}"),
            },
            ("flag" | "unflag", [module]) => {
                if cmd == "flag" {
                    if !flags.iter().any(|f| f == module) {
                        flags.push((*module).to_string());
                    }
                } else {
                    flags.retain(|f| f != module);
                }
                let refs: Vec<&str> = flags.iter().map(String::as_str).collect();
                match zoom.build_view(sid, &refs) {
                    Ok(v) => {
                        current = v;
                        let view = zoom.warehouse().view(v).map_err(|e| e.to_string())?;
                        out!("rebuilt: {} (size {})", view.name(), view.size());
                    }
                    Err(e) => out!("cannot build view: {e}"),
                }
            }
            ("tree", [d]) => {
                let parsed = d.strip_prefix('d').unwrap_or(d).parse::<u64>().map(DataId);
                match parsed {
                    Err(_) => out!("`{d}` is not a data id"),
                    Ok(d) => match zoom.deep_provenance(rid, current, d) {
                        Err(e) => out!("{e}"),
                        Ok(res) => {
                            let vr = zoom
                                .warehouse()
                                .view_run(rid, current)
                                .map_err(|e| e.to_string())?;
                            let view = zoom.warehouse().view(current).map_err(|e| e.to_string())?;
                            let run = zoom.warehouse().run(rid).map_err(|e| e.to_string())?;
                            out_raw!("{}", zoom::core::provenance_to_text(run, &vr, view, &res));
                        }
                    },
                }
            }
            _ => match CannedQuery::parse(line) {
                Ok(q) => match zoom.read(&Cx::ADMIN, &q.op(rid, current)) {
                    Ok(a) => out!("{a}"),
                    Err(e) => out!("{e}"),
                },
                Err(e) => out!("{e}"),
            },
        }
        print_prompt(&zoom, current);
    }
    zoom.save(path).map_err(|e| e.to_string())?;
    out!("session views saved to {}", path.display());
    Ok(())
}

fn print_prompt(zoom: &Zoom, current: zoom::core::ViewId) {
    let name = zoom
        .warehouse()
        .view(current)
        .map(|v| v.name().to_string())
        .unwrap_or_else(|_| format!("{current}"));
    out!("[{name}]>");
}

fn parse_data_id(s: &str) -> Result<DataId, String> {
    s.strip_prefix('d')
        .unwrap_or(s)
        .parse::<u64>()
        .map(DataId)
        .map_err(|_| format!("`{s}` is not a data id"))
}

fn parse_step_id(s: &str) -> Result<StepId, String> {
    s.strip_prefix('s')
        .unwrap_or(s)
        .parse::<u32>()
        .map(StepId)
        .map_err(|_| format!("`{s}` is not a step id"))
}

/// Parses one ingest-protocol line into an event (`Ok(None)` = `seal`).
/// Times are auto-ticked: the stream's own ordering is the clock.
fn parse_ingest_line(line: &str, time: Timestamp) -> Result<Option<LogEvent>, String> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    let ev = match parts.as_slice() {
        ["seal"] => return Ok(None),
        ["user-input", d, user] => LogEvent::UserInput {
            data: parse_data_id(d)?,
            user: (*user).to_string(),
            time,
        },
        ["step-started", s, module] => LogEvent::StepStarted {
            step: parse_step_id(s)?,
            module: (*module).to_string(),
            time,
        },
        ["param", s, key, value] => LogEvent::Param {
            step: parse_step_id(s)?,
            key: (*key).to_string(),
            value: (*value).to_string(),
            time,
        },
        ["read", s, d] => LogEvent::Read {
            step: parse_step_id(s)?,
            data: parse_data_id(d)?,
            time,
        },
        ["wrote", s, d] => LogEvent::Wrote {
            step: parse_step_id(s)?,
            data: parse_data_id(d)?,
            time,
        },
        ["step-finished", s] => LogEvent::StepFinished {
            step: parse_step_id(s)?,
            time,
        },
        ["finalized", d] => LogEvent::Finalized {
            data: parse_data_id(d)?,
            time,
        },
        _ => return Err(format!("unparseable ingest line: `{line}`")),
    };
    Ok(Some(ev))
}

/// Streams run events into a warehouse one at a time. The run commits
/// step-by-step as provenance closes, answering queries mid-stream; a
/// `seal` line (or `--seal`) completes it. Snapshot targets are saved at
/// the end; durable directories journal every acknowledged event as it
/// arrives, so a crash mid-stream loses nothing.
fn ingest(target: &Path, workflow: &str, rest: &[String]) -> Result<(), String> {
    let durable = target.join(zoom::warehouse::durable::MANIFEST).exists();
    let mut zoom = if durable {
        Zoom::open_durable(target).map_err(|e| e.to_string())?
    } else {
        load(target)?
    };
    let sid = resolve_spec(&zoom, workflow)?;
    let rid: RunId =
        zoom::warehouse::typed(zoom.apply(&Op::BeginStream(sid))).map_err(|e| e.to_string())?;
    out!("streaming run {rid} on `{workflow}`");
    let (events, committed, sealed) = stream_lines(rid, rest, |op| zoom.apply(op))?;
    out!(
        "ingested {events} events, {committed} steps committed, run {rid} {}",
        if sealed { "sealed" } else { "left open" }
    );
    if durable {
        out!(
            "every acknowledged event is journaled in {}",
            target.display()
        );
    } else {
        if !sealed {
            out!("note: snapshots persist only the committed prefix, not the open stream");
        }
        zoom.save(target).map_err(|e| e.to_string())?;
        out!("snapshot updated: {}", target.display());
    }
    Ok(())
}

/// Streams ingest-protocol lines (`[events-file|-] [--follow] [--seal]`)
/// into the open stream `rid` through `apply`, printing each commit, and
/// seals when asked to. Returns `(events, steps committed, sealed)`.
fn stream_lines<E: std::fmt::Display>(
    rid: RunId,
    rest: &[String],
    mut apply: impl FnMut(&Op) -> Result<Answer<E>, E>,
) -> Result<(usize, usize, bool), String> {
    let mut source: Option<&str> = None;
    let mut follow = false;
    let mut seal_at_end = false;
    for a in rest {
        match a.as_str() {
            "--follow" => follow = true,
            "--seal" => seal_at_end = true,
            other if source.is_none() => source = Some(other),
            other => return Err(format!("unexpected ingest argument `{other}`")),
        }
    }
    let source = source.unwrap_or("-");

    let mut tick = 0u64;
    let mut events = 0usize;
    let mut committed = 0usize;
    let mut sealed = false;
    let mut push_line =
        |apply: &mut dyn FnMut(&Op) -> Result<Answer<E>, E>, line: &str| -> Result<bool, String> {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                return Ok(false);
            }
            tick += 1;
            let Some(ev) = parse_ingest_line(line, Timestamp(tick))? else {
                return Ok(true); // seal requested
            };
            if let Answer::Push(PushOutcome::Committed(steps)) =
                apply(&Op::PushEvent(rid, ev)).map_err(|e| e.to_string())?
            {
                committed += steps.len();
                let ids: Vec<String> = steps.iter().map(|s| format!("{s}")).collect();
                out!("committed {}", ids.join(", "));
            }
            events += 1;
            Ok(false)
        };

    if source == "-" {
        use std::io::BufRead;
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| e.to_string())?;
            if push_line(&mut apply, &line)? {
                sealed = true;
                break;
            }
        }
    } else {
        // File source: process complete lines only; with --follow, poll
        // for growth until a `seal` line lands.
        let path = Path::new(source);
        let mut offset = 0usize;
        'outer: loop {
            let content = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read `{source}`: {e}"))?;
            let new = &content[offset.min(content.len())..];
            let complete = new.rfind('\n').map(|i| i + 1).unwrap_or(0);
            for line in new[..complete].lines() {
                if push_line(&mut apply, line)? {
                    sealed = true;
                    break 'outer;
                }
            }
            offset += complete;
            if !follow {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }

    if sealed || seal_at_end {
        apply(&Op::SealStream(rid)).map_err(|e| format!("seal failed: {e}"))?;
        sealed = true;
    }
    Ok((events, committed, sealed))
}

/// Re-executes a recorded trace against `target` (a fresh in-memory
/// warehouse, or a daemon), diffing every operation's result digest
/// against the recording. A fresh daemon allocates the same id
/// sequences, so a clean trace replays clean over the wire too; `timing`
/// adds the recorded-vs-elapsed lines the local report prints.
fn replay(
    target: &mut impl TraceTarget,
    trace: &Path,
    rest: &[String],
    timing: bool,
) -> Result<(), String> {
    let mut check = false;
    let mut json = false;
    let mut speed = 0.0f64;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--check" => check = true,
            "--json" => json = true,
            "--speed" => {
                i += 1;
                speed = rest
                    .get(i)
                    .ok_or("missing value for --speed")?
                    .parse()
                    .map_err(|_| "--speed takes a number (0 = flat out)".to_string())?;
            }
            other => return Err(format!("unknown replay option `{other}`")),
        }
        i += 1;
    }
    let bytes =
        std::fs::read(trace).map_err(|e| format!("cannot read `{}`: {e}", trace.display()))?;
    let replayer = TraceReplayer::from_bytes(&bytes).map_err(|e| e.to_string())?;
    let report = replayer.replay(target, &ReplayOptions { speed });
    if json {
        out!(
            "{{\"ops\":{},\"mismatches\":{},\"digest\":\"{:016x}\",\"recorded_nanos\":{},\"elapsed_nanos\":{},\"speedup\":{:.2}}}",
            report.ops,
            report.mismatches.len(),
            report.digest,
            report.recorded_nanos,
            report.elapsed_nanos,
            report.speedup()
        );
    } else {
        out!("ops          : {}", report.ops);
        out!("mismatches   : {}", report.mismatches.len());
        out!("digest       : {:016x}", report.digest);
        if timing {
            out!(
                "recorded     : {:.3} ms (virtual)",
                report.recorded_nanos as f64 / 1e6
            );
            out!(
                "elapsed      : {:.3} ms ({:.1}x recorded speed)",
                report.elapsed_nanos as f64 / 1e6,
                report.speedup()
            );
        }
        for m in report.mismatches.iter().take(10) {
            out!(
                "  op {} (clock {}, {}): expected {:016x}, got {:016x}",
                m.index,
                m.clock,
                m.op,
                m.expected,
                m.got
            );
        }
    }
    if check && !report.is_clean() {
        return Err(format!(
            "replay diverged: {} digest mismatches",
            report.mismatches.len()
        ));
    }
    Ok(())
}

/// Deterministically records the golden demo trace: the phylogenomic
/// workflow loaded batch-wise and streamed event-by-event with provenance
/// queries interleaved mid-stream. No wall-clock input — two invocations
/// produce byte-identical artifacts.
fn record_demo(trace: &Path) -> Result<(), String> {
    use zoom_gen::library::{figure2_run, phylogenomic};
    let spec = phylogenomic();
    let run = figure2_run(&spec);
    let log = zoom::model::EventLog::from_run(&run, &spec);
    let finals = run.final_outputs();

    let mut zoom = Zoom::new();
    let mut rec = TraceRecorder::default();
    rec.record(&mut zoom, Op::RegisterSpec(spec.clone()));
    rec.record(
        &mut zoom,
        Op::RegisterView(SpecId(0), UserView::admin(&spec)),
    );
    rec.record(
        &mut zoom,
        Op::RegisterView(SpecId(0), UserView::black_box(&spec)),
    );
    // Run 0: batch load. Run 1: the same log streamed, with deep-provenance
    // probes interleaved. Each probes the datum of the event just pushed,
    // which has not reached the committed prefix yet, so every one rejects;
    // rejections are recorded digests too.
    rec.record(&mut zoom, Op::LoadLog(SpecId(0), log.clone()));
    rec.record(&mut zoom, Op::BeginStream(SpecId(0)));
    for (i, ev) in log.events.iter().enumerate() {
        rec.record(&mut zoom, Op::PushEvent(RunId(1), ev.clone()));
        if i % 7 == 0 {
            if let LogEvent::Read { data, .. } | LogEvent::Wrote { data, .. } = ev {
                rec.record(&mut zoom, Op::DeepProvenance(RunId(1), ViewId(0), *data));
            }
        }
    }
    rec.record(&mut zoom, Op::SealStream(RunId(1)));
    for rid in [RunId(0), RunId(1)] {
        for vid in [ViewId(0), ViewId(1)] {
            for &d in finals.iter().take(2) {
                rec.record(&mut zoom, Op::DeepProvenance(rid, vid, d));
                rec.record(&mut zoom, Op::ImmediateProvenance(rid, vid, d));
            }
            rec.record(&mut zoom, Op::DependentsOf(rid, vid, DataId(1)));
        }
    }
    let bytes = rec
        .to_bytes()
        .map_err(|e| format!("cannot encode trace: {e}"))?;
    std::fs::write(trace, &bytes)
        .map_err(|e| format!("cannot write `{}`: {e}", trace.display()))?;
    out!(
        "recorded {} ops ({} bytes) to {}",
        rec.len(),
        bytes.len(),
        trace.display()
    );
    Ok(())
}

/// Forces a compaction of a durable warehouse directory and reports the
/// resulting generation.
fn compact(dir: &Path) -> Result<(), String> {
    if !dir.join(zoom::warehouse::durable::MANIFEST).exists() {
        return Err(format!(
            "`{}` is not a durable warehouse directory (no MANIFEST)",
            dir.display()
        ));
    }
    let mut zoom = Zoom::open_durable(dir).map_err(|e| e.to_string())?;
    zoom.checkpoint().map_err(|e| e.to_string())?;
    let s = zoom.stats();
    out!("compacted {} to epoch {}", dir.display(), s.epoch);
    out!("workflows    : {}", s.specs);
    out!("views        : {}", s.views);
    out!("runs         : {}", s.runs);
    out!(
        "journal tail : {} records, {} bytes",
        s.journal_records,
        s.journal_bytes
    );
    Ok(())
}

/// Reports write-availability and breaker state. Accepts either a durable
/// directory (opened read-through, breaker state live) or a snapshot file
/// (in-memory: always healthy).
fn health(target: &Path, json: bool) -> Result<(), String> {
    let zoom = if target.join(zoom::warehouse::durable::MANIFEST).exists() {
        Zoom::open_durable(target).map_err(|e| e.to_string())?
    } else {
        load(target)?
    };
    let h = zoom.health();
    if json {
        out!("{}", h.to_json());
        return Ok(());
    }
    let status = if h.writable { "ok" } else { "degraded" };
    out!("status            : {status}");
    out!("state             : {}", h.state);
    out!("writable          : {}", h.writable);
    out!("durable           : {}", h.durable);
    out!("epoch             : {}", h.epoch);
    out!("breaker           : {}", h.breaker);
    out!("consec. failures  : {}", h.consecutive_failures);
    out!("breaker trips     : {}", h.breaker_trips);
    out!("breaker recoveries: {}", h.breaker_recoveries);
    out!("io retries        : {}", h.io_retries);
    out!("writes rejected   : {}", h.degraded_writes_rejected);
    out!("quarantines       : {}", h.quarantines);
    out!("repairs           : {}", h.repairs);
    Ok(())
}

/// Verifies a durable warehouse directory without modifying it.
fn fsck(dir: &Path) -> Result<(), String> {
    let report = zoom::warehouse::fsck(dir).map_err(|e| e.to_string())?;
    out!("{report}");
    Ok(())
}

fn render(
    path: &Path,
    name: &str,
    run_index: &str,
    view_name: &str,
    data: &str,
) -> Result<(), String> {
    let zoom = load(path)?;
    let sid = resolve_spec(&zoom, name)?;
    let rid = resolve_run(&zoom, sid, run_index)?;
    let vid = resolve_view(&zoom, sid, view_name)?;
    let d: DataId = data
        .strip_prefix('d')
        .unwrap_or(data)
        .parse::<u64>()
        .map(DataId)
        .map_err(|_| format!("`{data}` is not a data id"))?;
    let res = zoom
        .deep_provenance(rid, vid, d)
        .map_err(|e| e.to_string())?;
    let vr = zoom
        .warehouse()
        .view_run(rid, vid)
        .map_err(|e| e.to_string())?;
    let view = zoom.warehouse().view(vid).map_err(|e| e.to_string())?;
    let run = zoom.warehouse().run(rid).map_err(|e| e.to_string())?;
    out_raw!("{}", zoom::core::provenance_to_dot(run, &vr, view, &res));
    Ok(())
}

// ---------------------------------------------------------------------------
// Daemon mode (`--connect`)
// ---------------------------------------------------------------------------

fn rerr(e: zoom::core::RemoteError) -> String {
    e.to_string()
}

fn dispatch_remote(addr: &str, tenant: &str, args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    if matches!(cmd, "help" | "--help" | "-h") {
        out_raw!("{HELP}");
        return Ok(());
    }
    let mut rz = zoom::core::RemoteZoom::connect(addr, tenant)
        .map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    match cmd {
        "ping" => {
            rz.ping().map_err(rerr)?;
            out!("pong from {addr}");
            Ok(())
        }
        "demo" => remote_demo(&mut rz, addr),
        "stats" => remote_stats(&mut rz, addr, tenant, &args[1..]),
        "slowlog" => remote_slowlog(&mut rz, &args[1..]),
        "policy" => remote_policy(&mut rz, &args[1..]),
        "health" => remote_health(&mut rz, args.iter().any(|a| a == "--json")),
        "build-view" => remote_build_view(&mut rz, str_arg(args, 1, "workflow name")?, &args[2..]),
        "query" => remote_query(
            &mut rz,
            str_arg(args, 1, "workflow name")?,
            str_arg(args, 2, "run index")?,
            str_arg(args, 3, "view name")?,
            str_arg(args, 4, "query text")?,
        ),
        "ingest" => remote_ingest(&mut rz, str_arg(args, 1, "workflow name")?, &args[2..]),
        "replay" => replay(&mut rz, path_arg(args, 1)?, &args[2..], false),
        "compact" => {
            rz.checkpoint().map_err(rerr)?;
            out!("checkpointed every durable shard on {addr}");
            Ok(())
        }
        "shutdown" => {
            let token = args
                .iter()
                .position(|a| a == "--admin-token")
                .map(|i| str_arg(args, i + 1, "admin token"))
                .transpose()?;
            rz.shutdown(token).map_err(rerr)?;
            out!("daemon at {addr} stopped");
            Ok(())
        }
        other => Err(format!(
            "command `{other}` is not supported over --connect (see `zoomctl help`)"
        )),
    }
}

/// Loads the same demo workload `zoomctl demo` builds locally: the
/// phylogenomic workflow, three views, and the Figure 2 run.
fn remote_demo(rz: &mut zoom::core::RemoteZoom, addr: &str) -> Result<(), String> {
    use zoom_gen::library::{figure2_run, phylogenomic};
    let spec = phylogenomic();
    let sid = rz.register_workflow(spec.clone()).map_err(rerr)?;
    rz.admin_view(sid).map_err(rerr)?;
    rz.register_view(sid, UserView::black_box(&spec))
        .map_err(rerr)?;
    rz.build_view(sid, &["M2", "M3", "M7"]).map_err(rerr)?;
    let run = figure2_run(&spec);
    let log = zoom::model::EventLog::from_run(&run, &spec);
    let rid = rz.load_log(sid, &log).map_err(rerr)?;
    out!("demo loaded on {addr} (workflow `phylogenomic`, {rid}, 3 views)");
    Ok(())
}

/// Extracts `--admin-token TOK` from `rest`, returning the remaining
/// arguments and the token (if given).
fn split_admin_token(rest: &[String]) -> Result<(Vec<String>, Option<String>), String> {
    let mut out = Vec::with_capacity(rest.len());
    let mut token = None;
    let mut i = 0;
    while i < rest.len() {
        if rest[i] == "--admin-token" {
            i += 1;
            token = Some(
                rest.get(i)
                    .ok_or("missing value for --admin-token")?
                    .clone(),
            );
        } else {
            out.push(rest[i].clone());
        }
        i += 1;
    }
    Ok((out, token))
}

fn remote_stats(
    rz: &mut zoom::core::RemoteZoom,
    addr: &str,
    tenant: &str,
    rest: &[String],
) -> Result<(), String> {
    let (rest, token) = split_admin_token(rest)?;
    let json = rest.iter().any(|a| a == "--json");
    let shards = rz.stats_per_shard().map_err(rerr)?;
    let agg = zoom::warehouse::ShardRouter::aggregate_stats(&shards);
    if json {
        let per_shard = rz.metrics_per_shard_admin(token.as_deref()).map_err(rerr)?;
        let mut aggregate = String::new();
        JsonObject::new(&mut aggregate)
            .field("specs", agg.specs)
            .field("views", agg.views)
            .field("runs", agg.runs)
            .field("steps", agg.steps)
            .field("data_objects", agg.data_objects)
            .field("journal_records", agg.journal_records)
            .field("journal_bytes", agg.journal_bytes)
            .field("compactions", agg.compactions)
            .field("epoch", agg.epoch)
            .field("degraded", agg.degraded)
            .finish();
        let mut doc = String::new();
        JsonObject::new(&mut doc)
            .field("addr", addr)
            .field("tenant", tenant)
            .field("shards", shards.len())
            .field("aggregate", json::Raw(&aggregate))
            .field("per_shard", &per_shard)
            .finish();
        out!("{doc}");
        return Ok(());
    }
    out!("shards       : {}", shards.len());
    out!("workflows    : {}", agg.specs);
    out!("views        : {}", agg.views);
    out!("runs         : {}", agg.runs);
    out!("steps        : {}", agg.steps);
    out!("data objects : {}", agg.data_objects);
    if agg.degraded {
        out!("degraded     : true (at least one shard is read-only)");
    }
    Ok(())
}

fn remote_slowlog(rz: &mut zoom::core::RemoteZoom, rest: &[String]) -> Result<(), String> {
    let (rest, token) = split_admin_token(rest)?;
    let mut threshold: Option<u64> = None;
    let mut json = false;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--json" => json = true,
            "--threshold-nanos" => {
                i += 1;
                threshold = Some(
                    rest.get(i)
                        .ok_or("missing value for --threshold-nanos")?
                        .parse()
                        .map_err(|_| "--threshold-nanos takes a nanosecond count".to_string())?,
                );
            }
            other => return Err(format!("unknown slowlog option `{other}`")),
        }
        i += 1;
    }
    let slow = rz
        .slow_queries_admin(threshold, token.as_deref())
        .map_err(rerr)?;
    if json {
        out!("{}", json::to_string(&slow));
        return Ok(());
    }
    if slow.is_empty() {
        out!("no captured slow queries");
        return Ok(());
    }
    for q in &slow {
        out!(
            "{:>5} {:>10} {:<24} {:>6} {:>8} {:>12}",
            q.seq,
            q.kind.name(),
            q.view_name,
            q.run.0,
            q.data.map_or("-".to_string(), |d| format!("d{d}")),
            q.nanos
        );
    }
    Ok(())
}

/// `policy set|show|clear <tenant>` against a live daemon. Installation
/// and clearing are admin-gated (same rule as `shutdown`); a tenant may
/// read its own policy without a token.
fn remote_policy(rz: &mut zoom::core::RemoteZoom, rest: &[String]) -> Result<(), String> {
    let (rest, token) = split_admin_token(rest)?;
    let sub = rest.first().map(String::as_str).unwrap_or("");
    let subject = str_arg(&rest, 1, "tenant name")?.to_string();
    match sub {
        "set" => {
            let mut policy = VisibilityPolicy::default();
            let mut i = 2;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--hide-module" => {
                        i += 1;
                        policy.hidden_modules.push(
                            rest.get(i)
                                .ok_or("missing value for --hide-module")?
                                .clone(),
                        );
                    }
                    "--hide-workflow" => {
                        i += 1;
                        policy.hidden_workflows.push(
                            rest.get(i)
                                .ok_or("missing value for --hide-workflow")?
                                .clone(),
                        );
                    }
                    other => return Err(format!("unknown policy set option `{other}`")),
                }
                i += 1;
            }
            if policy.is_empty() {
                return Err("give at least one --hide-module or --hide-workflow \
                     (use `policy clear` to remove a policy)"
                    .to_string());
            }
            let modules = policy.hidden_modules.len();
            let workflows = policy.hidden_workflows.len();
            rz.set_policy(&subject, Some(policy), token.as_deref())
                .map_err(rerr)?;
            out!(
                "policy installed for `{subject}`: {modules} hidden module(s), \
                 {workflows} hidden workflow(s)"
            );
            Ok(())
        }
        "show" => {
            let json = rest.iter().any(|a| a == "--json");
            let policy = rz.policy(&subject, token.as_deref()).map_err(rerr)?;
            if json {
                let mut doc = String::new();
                JsonObject::new(&mut doc)
                    .field("tenant", &subject)
                    .field("policy", &policy)
                    .finish();
                out!("{doc}");
                return Ok(());
            }
            match policy {
                None => out!("no policy installed for `{subject}` (full visibility)"),
                Some(p) => {
                    out!("tenant           : {subject}");
                    out!("hidden modules   : {}", join_or_none(&p.hidden_modules));
                    out!("hidden workflows : {}", join_or_none(&p.hidden_workflows));
                }
            }
            Ok(())
        }
        "clear" => {
            rz.set_policy(&subject, None, token.as_deref())
                .map_err(rerr)?;
            out!("policy cleared for `{subject}` (full visibility restored)");
            Ok(())
        }
        other => Err(format!(
            "unknown policy subcommand `{other}` (set | show | clear)"
        )),
    }
}

fn join_or_none(items: &[String]) -> String {
    if items.is_empty() {
        "(none)".to_string()
    } else {
        items.join(", ")
    }
}

fn remote_health(rz: &mut zoom::core::RemoteZoom, json: bool) -> Result<(), String> {
    let shards = rz.health_per_shard().map_err(rerr)?;
    if json {
        // Per-shard breakdown: each report tagged with its shard index so
        // dashboards can address rows without relying on array order.
        let rows: Vec<String> = shards
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let body = h.to_json();
                format!("{{\"shard\":{i},{}", &body[1..])
            })
            .collect();
        out!("[{}]", rows.join(","));
        return Ok(());
    }
    for (i, h) in shards.iter().enumerate() {
        out!(
            "shard {i:<3} {:<12} durable={} breaker={} epoch={} trips={} retries={} \
             quarantines={} repairs={} last_repair_ms={:.1}",
            h.state,
            h.durable,
            h.breaker,
            h.epoch,
            h.breaker_trips,
            h.io_retries,
            h.quarantines,
            h.repairs,
            h.last_repair_nanos as f64 / 1e6
        );
    }
    Ok(())
}

fn remote_build_view(
    rz: &mut zoom::core::RemoteZoom,
    workflow: &str,
    labels: &[String],
) -> Result<(), String> {
    if labels.is_empty() {
        return Err("give at least one relevant module label".to_string());
    }
    let (sid, _, _) = rz.resolve(workflow, None).map_err(rerr)?;
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let vid = rz.build_view(sid, &refs).map_err(rerr)?;
    out!("registered {vid} on the daemon");
    Ok(())
}

fn remote_query(
    rz: &mut zoom::core::RemoteZoom,
    workflow: &str,
    run_index: &str,
    view_name: &str,
    text: &str,
) -> Result<(), String> {
    let (_, vid, runs) = rz.resolve(workflow, Some(view_name)).map_err(rerr)?;
    let vid = vid.ok_or("view did not resolve")?;
    let i: usize = run_index
        .parse()
        .map_err(|_| format!("`{run_index}` is not a run index"))?;
    let rid = *runs
        .get(i)
        .ok_or_else(|| format!("run index {i} out of range"))?;
    let q = CannedQuery::parse(text).map_err(|e| e.to_string())?;
    let answer = rz.apply(&q.op(rid, vid)).map_err(rerr)?;
    out!("{answer}");
    Ok(())
}

/// Streams run events into the daemon one at a time — the daemon-side
/// analog of `ingest`: the run is queryable (by any client) mid-stream.
fn remote_ingest(
    rz: &mut zoom::core::RemoteZoom,
    workflow: &str,
    rest: &[String],
) -> Result<(), String> {
    let (sid, _, _) = rz.resolve(workflow, None).map_err(rerr)?;
    let rid = rz.begin_stream(sid).map_err(rerr)?;
    out!("streaming {rid} on `{workflow}`");
    let (events, committed, sealed) = stream_lines(rid, rest, |op| rz.apply(op))?;
    out!(
        "ingested {events} events, {committed} steps committed, {rid} {}",
        if sealed { "sealed" } else { "left open" }
    );
    Ok(())
}

//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! experiments [all|table1|table2|scalability|optimality|fig10|response_time|view_switch|fig11|
//!              index_scaling|open_problem] [--scale paper|quick] [--seed N]
//! ```
//!
//! `index_scaling` additionally writes the `BENCH_<date>.json` scorecard
//! in the current directory.

use zoom_bench::experiments::*;
use zoom_bench::{build_corpus, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut scale = Scale::Paper;
    let mut seed = 2008u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("--scale takes `paper` or `quick`"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed takes an integer"));
            }
            flag if flag.starts_with('-') => die(&format!("unknown flag {flag}")),
            name => which = name.to_string(),
        }
        i += 1;
    }

    let needs_corpus = matches!(
        which.as_str(),
        "all" | "table1" | "table2" | "fig10" | "response_time" | "view_switch" | "fig11"
    );
    let mut corpus = needs_corpus.then(|| {
        eprintln!("building corpus (scale {scale:?}, seed {seed})...");
        let t = std::time::Instant::now();
        let c = build_corpus(scale, seed);
        let stats = c.zoom.warehouse().stats();
        eprintln!(
            "corpus ready in {:.1?}: {} workflows, {} runs, {} steps, {} data objects",
            t.elapsed(),
            stats.specs,
            stats.runs,
            stats.steps,
            stats.data_objects
        );
        c
    });

    let section = |name: &str, body: String| {
        println!("{}", "=".repeat(78));
        println!("{body}");
        let _ = name;
    };

    let run_one = |which: &str, corpus: &mut Option<zoom_bench::Corpus>| match which {
        "table1" => section(
            "table1",
            table1::report(corpus.as_ref().expect("corpus built"), scale),
        ),
        "table2" => section(
            "table2",
            table2::report(corpus.as_ref().expect("corpus built"), scale),
        ),
        "scalability" => {
            let (count, max) = match scale {
                Scale::Paper => (scalability::SPEC_COUNT, scalability::MAX_MODULES),
                Scale::Quick => (100, 200),
            };
            section("scalability", scalability::report(count, max, seed));
        }
        "optimality" => section("optimality", optimality::report(scale, seed)),
        "open_problem" => {
            let (instances, cap) = match scale {
                Scale::Paper => (80000, 9),
                Scale::Quick => (50, 8),
            };
            section("open_problem", open_problem::report(instances, cap, seed));
        }
        "fig10" => section(
            "fig10",
            fig10::report(corpus.as_ref().expect("corpus built")),
        ),
        "response_time" => section(
            "response_time",
            response::report(corpus.as_ref().expect("corpus built")),
        ),
        "view_switch" => section(
            "view_switch",
            switching::report(corpus.as_mut().expect("corpus built"), scale, seed),
        ),
        "fig11" => section(
            "fig11",
            fig11::report(corpus.as_ref().expect("corpus built"), scale, seed),
        ),
        "index_scaling" => {
            let entries = index_scaling::scaling(scale);
            section("index_scaling", index_scaling::scaling_report(&entries));
            let date = index_scaling::today_stamp();
            let path = format!("BENCH_{date}.json");
            let json = index_scaling::scaling_json(&entries, scale, &date);
            match std::fs::write(&path, &json) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
        other => die(&format!("unknown experiment `{other}`")),
    };

    if which == "all" {
        for name in [
            "table1",
            "table2",
            "scalability",
            "optimality",
            "fig10",
            "response_time",
            "view_switch",
            "fig11",
            "index_scaling",
            "open_problem",
        ] {
            run_one(name, &mut corpus);
        }
    } else {
        run_one(&which, &mut corpus);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

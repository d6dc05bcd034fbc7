//! Concurrent querying: the paper's lab has many users ("Joe", "Mary", …)
//! exploring provenance over the same warehouse simultaneously. Reads are
//! lock-light (`parking_lot`-guarded materialization cache); this test
//! hammers one warehouse from many threads and checks that every answer
//! matches the single-threaded result.

use std::collections::BTreeMap;
use zoom::model::DataId;
use zoom_bench::{build_corpus, Scale};

#[test]
fn parallel_view_switching_matches_serial_answers() {
    let corpus = build_corpus(Scale::Quick, 2024);
    let zoom = &corpus.zoom;

    // Serial ground truth: tuples for every (workflow, kind, view family).
    let mut expected: BTreeMap<(usize, usize, u8), usize> = BTreeMap::new();
    for (wi, w) in corpus.workflows.iter().enumerate() {
        for (ki, (_, runs)) in w.runs.iter().enumerate() {
            let rid = runs[0];
            for (vi, view) in [w.admin, w.bio, w.black_box].into_iter().enumerate() {
                let t = zoom
                    .deep_provenance_of_final_output(rid, view)
                    .expect("visible")
                    .tuples();
                expected.insert((wi, ki, vi as u8), t);
            }
        }
    }
    zoom.warehouse().clear_cache();

    // Parallel: 8 threads, each walking the whole corpus in a different
    // order, racing on the materialization cache.
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let expected = &expected;
            let corpus = &corpus;
            scope.spawn(move || {
                let n = corpus.workflows.len();
                for step in 0..n {
                    let wi = (step * 7 + t) % n;
                    let w = &corpus.workflows[wi];
                    for (ki, (_, runs)) in w.runs.iter().enumerate() {
                        let rid = runs[0];
                        for (vi, view) in [w.admin, w.bio, w.black_box].into_iter().enumerate() {
                            let got = corpus
                                .zoom
                                .deep_provenance_of_final_output(rid, view)
                                .expect("visible")
                                .tuples();
                            assert_eq!(
                                got,
                                expected[&(wi, ki, vi as u8)],
                                "thread {t}: divergent answer at ({wi},{ki},{vi})"
                            );
                        }
                    }
                }
            });
        }
    });

    // The cache saw real contention but stayed consistent.
    let (hits, misses) = zoom.warehouse().cache_counters();
    assert!(hits > 0);
    assert!(misses > 0);
}

#[test]
fn concurrent_mixed_query_kinds() {
    let corpus = build_corpus(Scale::Quick, 4048);
    let w = &corpus.workflows[0];
    let rid = w.runs[2].1[0]; // a large run
    let zoom = &corpus.zoom;
    let finals = zoom.final_outputs(rid).expect("loaded");
    let target = finals[0];

    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(move || {
                for _ in 0..50 {
                    let deep = zoom.deep_provenance(rid, w.bio, target).expect("visible");
                    assert!(deep.tuples() >= 1);
                    let imm = zoom
                        .warehouse()
                        .immediate_provenance(rid, w.bio, target)
                        .expect("visible");
                    match imm {
                        zoom::core::ImmediateAnswer::Produced { inputs, .. } => {
                            assert!(!inputs.is_empty())
                        }
                        zoom::core::ImmediateAnswer::UserInput { .. } => {}
                    }
                    let deps = zoom
                        .warehouse()
                        .dependents_of(rid, w.admin, DataId(1))
                        .expect("d1 exists");
                    let _ = deps.len();
                }
            });
        }
    });
}

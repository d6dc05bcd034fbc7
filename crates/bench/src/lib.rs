#![warn(missing_docs)]

//! # zoom-bench
//!
//! The evaluation harness of the ZOOM*UserViews reproduction: regenerates
//! every table and figure of the paper's Section V.
//!
//! * [`workloads`] — the corpus builder (Table I classes × Table II runs ×
//!   the UAdmin/UBio/UBlackBox view families);
//! * [`experiments`] — one module per table/figure:
//!   [`experiments::table1`], [`experiments::table2`],
//!   [`experiments::scalability`], [`experiments::optimality`],
//!   [`experiments::fig10`], [`experiments::response`],
//!   [`experiments::switching`], [`experiments::fig11`], plus the
//!   beyond-the-paper [`experiments::index_scaling`] (BFS vs. bitset
//!   base-closure index vs. interval labels on adversarial shapes to 1M
//!   steps, the `BENCH_<date>.json` scorecard) and
//!   [`experiments::open_problem`] gap study.
//!
//! End-to-end latency and throughput of the query, wire, view-switch and
//! ingest/recovery paths are `perfbench`'s (see `BENCHMARK.json`); the
//! benches under `benches/` hold the paper's microbenchmarks and the paired
//! overhead gates.
//!
//! The `experiments` binary drives them:
//!
//! ```sh
//! cargo run --release -p zoom-bench --bin experiments -- all --scale quick
//! ```

pub mod experiments {
    //! One module per reproduced table/figure.
    pub mod fig10;
    pub mod fig11;
    pub mod index_scaling;
    pub mod open_problem;
    pub mod optimality;
    pub mod response;
    pub mod scalability;
    pub mod switching;
    pub mod table1;
    pub mod table2;
}
pub mod workloads;

pub use workloads::{build_corpus, Corpus, Scale};

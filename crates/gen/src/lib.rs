#![warn(missing_docs)]

//! # zoom-gen
//!
//! Workload generation for the ZOOM*UserViews evaluation (Section V):
//!
//! * [`classes`] — the five workflow patterns and the four workflow classes
//!   of Table I with their pattern frequencies;
//! * [`specgen`] — the synthetic workflow-specification generator ("we
//!   generated simulated workflows by combining patterns according to usage
//!   statistics");
//! * [`rungen`] — the run generator with Table II's small/medium/large
//!   parameter presets (user input, data per step, loop iterations, size
//!   caps), including faithful loop unrolling;
//! * [`library`] — the curated "Class 1" library of realistic workflows,
//!   headlined by the paper's Figure 1 phylogenomic workflow and its exact
//!   Figure 2 run (`S1..S10`, `d1..d447`);
//! * [`stats`] — pattern/size statistics extraction over specs and runs;
//! * [`adversarial`] — deterministic extreme shapes (deep chains, wide
//!   fan-outs, diamond lattices) for the reachability-index scaling sweep;
//! * [`streamlog`] — causally valid random interleavings of a run's event
//!   log, the arrival orders the streaming-ingestion tests replay.

pub mod adversarial;
pub mod classes;
pub mod library;
pub mod rungen;
pub mod specgen;
pub mod stats;
pub mod streamlog;

pub use adversarial::{deep_chain, diamond_lattice, wide_fanout};
pub use classes::{Pattern, ViewScenario, WorkflowClass};
pub use rungen::{generate_run, scatter_data_ids, RunGenConfig, RunKind};
pub use specgen::{generate_random_spec, generate_spec, SpecGenConfig};
pub use stats::{
    infer_loop_iterations, infer_patterns, run_stats, spec_stats, PatternCounts, RunStats,
    SpecStats, Summary,
};
pub use streamlog::interleaved_log;

use rand::Rng;
use zoom_model::WorkflowSpec;

/// Returns `count` workflows of the given class: Class 1 cycles through the
/// curated library; synthetic classes are generated at `target_modules`.
pub fn workflows_of_class<R: Rng>(
    class: WorkflowClass,
    count: usize,
    target_modules: usize,
    rng: &mut R,
) -> Vec<WorkflowSpec> {
    match class {
        WorkflowClass::Real => {
            let lib = library::real_workflows();
            (0..count).map(|i| lib[i % lib.len()].clone()).collect()
        }
        _ => (0..count)
            .map(|i| {
                generate_spec(
                    &format!("{}-{}", class.label(), i + 1),
                    &SpecGenConfig::new(class, target_modules),
                    rng,
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn workflows_of_class_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        for class in WorkflowClass::ALL {
            let ws = workflows_of_class(class, 12, 20, &mut rng);
            assert_eq!(ws.len(), 12);
        }
    }
}

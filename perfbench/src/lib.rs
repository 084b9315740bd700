//! End-to-end and per-layer benchmark of the stfsm stack.
//!
//! Three workloads, each timing only calls into the crates' public
//! functions: `synth` (state assignment, logic minimization and netlists
//! for the suite, Tables 2 and 3), `coverage` (drop-on-detect self-test
//! campaigns) and `diagnose` (dictionary artifacts, a coordinated campaign
//! and diagnosis over TCP).  See `README.md` in this directory.

pub mod calibration;
pub mod coverage;
pub mod diagnose;
pub mod host;
pub mod report;
pub mod stats;
pub mod synth;
pub mod tracer;

/// The per-layer metrics of a traced run, with their units, in report
/// order.  A metric ending in `_s` is the summed duration of the spans
/// named like it without the suffix; the others are counts.
pub const PER_LAYER: &[&str] = &[
    "fsm.generate_s",
    "fsm.kiss_parse_s",
    "encode.misr_assign_s",
    "encode.misr_assign_calls",
    "encode.dff_assign_s",
    "encode.pat_assign_s",
    "encode.random_assign_s",
    "logic.espresso_s",
    "logic.cubes_in",
    "logic.cubes_out",
    "bist.excitation_s",
    "bist.netlist_s",
    "bist.gates",
    "core.synthesize_s",
    "core.json_parse_s",
    "core.json_bytes",
    "faults.enumerate_s",
    "faults.count",
    "testsim.coverage_small_s",
    "testsim.coverage_large_s",
    "testsim.fault_cycles",
    "testsim.events_drained",
    "testsim.events_scheduled",
    "testsim.steps_skipped",
    "testsim.full_sweeps",
    "testsim.event_cycles",
    "testsim.widenings",
    "testsim.narrowings",
    "testsim.lane_retirements",
    "testsim.compaction_rebuilds",
    "testsim.cache_hits",
    "testsim.cache_misses",
    "testsim.stimulus_patterns",
    "testsim.incidents",
    "testsim.dictionary_campaign_s",
    "testsim.artifact_from_outcome_s",
    "testsim.artifact_encode_s",
    "testsim.artifact_bytes",
    "testsim.artifact_write_s",
    "testsim.diagnosis_candidates_s",
    "serve.catalog_load_s",
    "serve.service_query_s",
    "serve.round_trip_triage_s",
    "serve.round_trip_pass_s",
    "serve.answer_candidates",
    "serve.coordinator_run_s",
    "serve.query_errors",
    "serve.answer_mismatches",
];

/// The unit of a per-layer metric.
pub fn per_layer_unit(name: &str) -> &'static str {
    if name.ends_with("_s") {
        "s"
    } else {
        "count"
    }
}

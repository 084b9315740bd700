//! The `coverage` workload: stuck-at, drop-on-detect self-test campaigns
//! on the PST netlists of all 13 suite machines.

use stfsm::fsm::generate::SplitMix64;
use stfsm::testsim::telemetry::CampaignMetrics;
use stfsm::{Campaign, CampaignOutcome, CoverageObserver, SimEngine};

use crate::calibration::{median_over_rounds, Paced};
use crate::host::PhaseTime;
use crate::report::{Outcome, Stage};
use crate::synth::{decompose_pst, pst_setup, PstMachine};
use crate::tracer::{SpanId, Tracer};

/// Machines at or above this gate count form the `large` class.
pub const LARGE_GATES: usize = 200;
/// Pattern budget of every `small`-class campaign.
pub const SMALL_PATTERNS: usize = 32_768;
/// Pattern budget of every `large`-class campaign.
pub const LARGE_PATTERNS: usize = 1_024;
/// Rounds of every class's campaigns in an untraced run (a traced run
/// runs one).  Each campaign counts with its median time over the rounds.
pub const ROUNDS: usize = 3;
/// Faults per machine re-simulated on the scalar engine after the timed
/// phase.
pub const SCALAR_SAMPLE: usize = 16;

/// Fault-cycles of one section: each fault costs its first-detection
/// index + 1, or `patterns_applied` if it was never detected.  The count
/// depends only on the detections, so every engine reports the same one.
pub fn fault_cycles(detection_pattern: &[Option<usize>], patterns_applied: usize) -> u64 {
    detection_pattern
        .iter()
        .map(|d| d.map_or(patterns_applied, |p| p + 1) as u64)
        .sum()
}

/// The campaign stimulus seed of one run.
pub fn campaign_seed(seed: u64) -> u64 {
    SplitMix64::new(seed ^ 0x5EED_0003).next_u64()
}

/// Whether a machine belongs to the `large` class.
pub fn is_large(machine: &PstMachine) -> bool {
    machine.result.netlist.gates().len() >= LARGE_GATES
}

/// The pattern budget of a machine's class.
pub fn budget(machine: &PstMachine) -> usize {
    if is_large(machine) {
        LARGE_PATTERNS
    } else {
        SMALL_PATTERNS
    }
}

/// Adds a campaign's engine counters to the trace.
pub fn count_telemetry(tracer: &Tracer, outcome: &CampaignOutcome) {
    let m: &CampaignMetrics = &outcome.telemetry.totals;
    for (name, value) in [
        ("testsim.events_drained", m.events_drained),
        ("testsim.events_scheduled", m.events_scheduled),
        ("testsim.steps_skipped", m.steps_skipped),
        ("testsim.full_sweeps", m.full_sweeps),
        ("testsim.event_cycles", m.event_cycles),
        ("testsim.widenings", m.widenings),
        ("testsim.narrowings", m.narrowings),
        ("testsim.lane_retirements", m.lane_retirements),
        ("testsim.compaction_rebuilds", m.compaction_rebuilds),
        ("testsim.cache_hits", m.cache_hits),
        ("testsim.cache_misses", m.cache_misses),
        ("testsim.stimulus_patterns", m.stimulus_patterns),
    ] {
        tracer.count(name, value as f64);
    }
    tracer.count("testsim.incidents", outcome.incidents.len() as f64);
}

/// Whether two runs of one campaign detected the same faults at the same
/// patterns and, in signature mode, computed the same dictionaries.
pub fn same_results(a: &CampaignOutcome, b: &CampaignOutcome) -> bool {
    a.patterns_applied == b.patterns_applied
        && a.sections.len() == b.sections.len()
        && a.sections.iter().zip(&b.sections).all(|(x, y)| {
            x.detection_pattern == y.detection_pattern && x.dictionary == y.dictionary
        })
}

fn campaign(
    machine: &PstMachine,
    engine: SimEngine,
    faults: Vec<stfsm::testsim::Injection>,
    seed: u64,
) -> Result<CampaignOutcome, String> {
    let mut observer = CoverageObserver::new();
    Campaign::new(&machine.result.netlist)
        .faults("stuck_at", faults)
        .engine(engine)
        .patterns(budget(machine))
        .seed(seed)
        .observe(&mut observer)
        .try_run()
        .map_err(|e| format!("{}: {e}", machine.name))
}

/// The seeded fault sample of one machine for the scalar cross-check.
pub fn scalar_sample(seed: u64, machine: usize, faults: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0004 ^ ((machine as u64) << 32));
    let mut picked: Vec<usize> = (0..SCALAR_SAMPLE.min(faults))
        .map(|_| rng.below(faults))
        .collect();
    picked.sort_unstable();
    picked.dedup();
    picked
}

/// The `coverage` workload.
pub fn run(seed: u64, tracer: &Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (machines, setup) = pst_setup(tracer)?;
    outcome.setup = setup;
    let stimulus_seed = campaign_seed(seed);

    // ---- timed: small class, then large class, in rounds; one machine
    // per op -------------------------------------------------------------
    let rounds = if tracer.enabled() { 1 } else { ROUNDS };
    let mut results: Vec<Option<CampaignOutcome>> = vec![None; machines.len()];
    let mut repeats = 0u64;
    let mut disagreements = Vec::new();
    let mut errors = Vec::new();
    let ((), timed) = PhaseTime::measure("timed", || {
        tracer.span("timed", SpanId::ROOT, |root| {
            let mut paced = Paced::start(tracer, root);
            for (class, large) in [("small", false), ("large", true)] {
                let span_name = format!("testsim.coverage_{class}");
                let members: Vec<usize> = (0..machines.len())
                    .filter(|&i| is_large(&machines[i]) == large)
                    .collect();
                let mut round_times = Vec::new();
                for _ in 0..rounds {
                    for &i in &members {
                        let machine = &machines[i];
                        let run = paced.op(|| {
                            tracer.span(&span_name, root, |_| {
                                campaign(
                                    machine,
                                    SimEngine::Auto,
                                    machine.faults.clone(),
                                    stimulus_seed,
                                )
                            })
                        });
                        match (run, &results[i]) {
                            (Ok(run), Some(first)) => {
                                repeats += 1;
                                if !same_results(first, &run) {
                                    disagreements.push(i);
                                }
                            }
                            (Ok(run), None) => results[i] = Some(run),
                            (Err(e), _) => errors.push(e),
                        }
                    }
                    round_times.push(paced.take());
                }
                let cycles: u64 = members
                    .iter()
                    .filter_map(|&i| results[i].as_ref())
                    .map(|run| {
                        fault_cycles(&run.sections[0].detection_pattern, run.patterns_applied)
                    })
                    .sum();
                let timing = median_over_rounds(&round_times);
                tracer.count("testsim.fault_cycles", cycles as f64);
                let stage = Stage {
                    units: cycles as f64,
                    timing,
                };
                outcome.info(
                    &format!("{class}_fault_cycles_per_s"),
                    cycles as f64 / timing.wall_s,
                    "1/s",
                );
                outcome.info(&format!("{class}_slowdown"), timing.slowdown(), "ratio");
                if large {
                    outcome.stage_b = stage;
                } else {
                    outcome.stage_a = stage;
                }
            }
        })
    });
    outcome.phases.push(timed);
    for e in errors {
        outcome.attempted += 1;
        outcome.fail(e);
    }
    outcome.attempted += repeats;
    for i in disagreements {
        outcome.fail(format!("{}: campaign rounds disagree", machines[i].name));
    }

    // ---- checks: a seeded sample of faults agrees with the scalar engine -
    tracer.span("checks", SpanId::ROOT, |_| {
        for (i, (machine, run)) in machines.iter().zip(&results).enumerate() {
            let Some(run) = run else { continue };
            outcome.attempted += 1;
            count_telemetry(tracer, run);
            let section = &run.sections[0];
            if run.patterns_applied != budget(machine) || section.faults != machine.faults {
                outcome.fail(format!(
                    "{}: campaign did not run its full budget",
                    machine.name
                ));
                continue;
            }
            let sample = scalar_sample(seed, i, machine.faults.len());
            let faults = sample.iter().map(|&f| machine.faults[f].clone()).collect();
            outcome.attempted += 1;
            match campaign(machine, SimEngine::Scalar, faults, stimulus_seed) {
                Ok(scalar) => {
                    let expected: Vec<Option<usize>> = sample
                        .iter()
                        .map(|&f| section.detection_pattern[f])
                        .collect();
                    if scalar.sections[0].detection_pattern != expected {
                        outcome.fail(format!(
                            "{}: Auto detections differ from Scalar on the sample",
                            machine.name
                        ));
                    }
                }
                Err(e) => outcome.fail(e),
            }
        }
    });
    decompose_pst(tracer, &machines, &mut outcome);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_cycles_from_a_hand_built_detection_pattern() {
        // Detected at pattern 0 costs 1 cycle, at pattern 9 costs 10, an
        // undetected fault costs the whole applied budget.
        let detection = [Some(0), Some(9), None, Some(511), None];
        assert_eq!(fault_cycles(&detection, 512), 1 + 10 + 512 + 512 + 512);
        assert_eq!(fault_cycles(&[], 512), 0);
        assert_eq!(fault_cycles(&[None, None], 0), 0);
    }

    #[test]
    fn scalar_sample_is_seeded_and_bounded() {
        let a = scalar_sample(1, 3, 1000);
        assert_eq!(a, scalar_sample(1, 3, 1000));
        assert_ne!(a, scalar_sample(2, 3, 1000));
        assert!(a.iter().all(|&f| f < 1000) && a.len() <= SCALAR_SAMPLE);
        assert!(scalar_sample(1, 0, 3).iter().all(|&f| f < 3));
    }
}

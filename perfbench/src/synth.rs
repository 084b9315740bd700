//! Synthesis: the suite machines, the `synth` workload (Tables 2 and 3)
//! and the layer-by-layer replay of the synthesis flow for the traced run.

use std::collections::HashSet;

use stfsm::bist::excitation::{build_pla, layout, RegisterTransform};
use stfsm::bist::netlist::build_netlist;
use stfsm::encode::dff::{assign as dff_assign, DffAssignmentConfig};
use stfsm::encode::misr::{assign as misr_assign, MisrAssignmentConfig};
use stfsm::encode::pat::{assign as pat_assign, PatAssignmentConfig};
use stfsm::encode::random::random_encoding;
use stfsm::faults::{FaultModel, StuckAt};
use stfsm::fsm::generate::SplitMix64;
use stfsm::fsm::{kiss, Fsm};
use stfsm::lfsr::{primitive_polynomial, Lfsr, Misr};
use stfsm::logic::espresso::{minimize_with, verify, MinimizeConfig};
use stfsm::logic::Cover;
use stfsm::testsim::Injection;
use stfsm::{AssignmentMethod, BistStructure, SynthesisFlow, SynthesisResult};

use crate::calibration::{median_timing, Paced, Timing};
use crate::host::PhaseTime;
use crate::report::{Outcome, Stage};
use crate::tracer::{SpanId, Tracer};

/// Seeded random PST encodings synthesized per machine (the Table 2
/// baseline).  Fixed: the seed picks the encodings, never their number.
pub const RANDOM_ENCODINGS: usize = 8;
/// Set-up of the `synth` workload (generate the machines, write their
/// KISS2 texts) takes milliseconds: it runs in `GENERATE_SETUP_GROUPS`
/// groups of `GENERATE_SETUP_PER_GROUP` back-to-back repetitions.
pub const GENERATE_SETUP_GROUPS: usize = 30;
/// Repetitions per set-up group (see [`GENERATE_SETUP_GROUPS`]).
pub const GENERATE_SETUP_PER_GROUP: usize = 20;
/// Set-up repetitions of the campaign workloads, whose set-up synthesizes
/// the PST netlists (seconds of work; a traced run sets up once).
pub const PST_SETUP_REPS: usize = 3;

/// The heuristic structures of Table 3, in table order.
pub const STRUCTURES: [BistStructure; 4] = [
    BistStructure::Dff,
    BistStructure::Pat,
    BistStructure::Sig,
    BistStructure::Pst,
];

/// The 13 suite machines, generated, in suite order.
pub fn generate_suite(tracer: &Tracer, parent: SpanId) -> Result<Vec<Fsm>, String> {
    tracer.span("fsm.generate", parent, |_| {
        stfsm::fsm::suite::BENCHMARKS
            .iter()
            .map(|info| info.fsm().map_err(|e| format!("{}: {e}", info.name)))
            .collect()
    })
}

/// The random-encoding seeds of one run: `RANDOM_ENCODINGS` per machine.
pub fn random_seeds(seed: u64, machines: usize) -> Vec<Vec<u64>> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0002);
    (0..machines)
        .map(|_| (0..RANDOM_ENCODINGS).map(|_| rng.next_u64()).collect())
        .collect()
}

/// One machine's PST synthesis result and collapsed stuck-at faults.
pub struct PstMachine {
    /// Machine name.
    pub name: String,
    /// The generated machine.
    pub fsm: Fsm,
    /// The PST synthesis result.
    pub result: SynthesisResult,
    /// Collapsed stuck-at fault list of the netlist.
    pub faults: Vec<Injection>,
}

/// Set-up of the campaign workloads, repeated `PST_SETUP_REPS` times (once
/// when traced): generate the suite, synthesize every machine as PST and
/// enumerate its stuck-at faults, one paced operation per machine.
/// Returns the last repetition's machines and the median repetition.
pub fn pst_setup(tracer: &Tracer) -> Result<(Vec<PstMachine>, Timing), String> {
    let reps = if tracer.enabled() { 1 } else { PST_SETUP_REPS };
    let quiet = Tracer::new(false);
    let mut paced = Paced::start(&quiet, SpanId::ROOT);
    let mut machines = Vec::new();
    let mut totals = Vec::new();
    for rep in 0..reps {
        let tracer = if rep + 1 == reps { tracer } else { &quiet };
        machines = tracer.span("setup", SpanId::ROOT, |root| {
            paced
                .op(|| generate_suite(tracer, root))?
                .into_iter()
                .map(|fsm| paced.op(|| pst_machine(tracer, root, fsm)))
                .collect::<Result<Vec<_>, String>>()
        })?;
        totals.push(paced.take_total());
    }
    Ok((machines, median_timing(&totals)))
}

/// Runs `setup` in `groups` paced operations of `per_group` back-to-back
/// repetitions, each under a `setup` root span; `setup` gets the tracer to
/// use, which records only the last repetition.  Returns the last result
/// and the median over groups of the wall and reference seconds per
/// repetition.
fn repeat_setup<T>(
    tracer: &Tracer,
    groups: usize,
    per_group: usize,
    mut setup: impl FnMut(&Tracer, SpanId) -> Result<T, String>,
) -> Result<(T, Timing), String> {
    let quiet = Tracer::new(false);
    let mut paced = Paced::start(&quiet, SpanId::ROOT);
    let mut last = None;
    let reps = groups * per_group;
    for group in 0..groups {
        let result = paced.op(|| {
            (0..per_group)
                .map(|i| {
                    let last_rep = group * per_group + i + 1 == reps;
                    let tracer = if last_rep { tracer } else { &quiet };
                    tracer.span("setup", SpanId::ROOT, |root| setup(tracer, root))
                })
                .collect::<Result<Vec<T>, String>>()
        });
        last = result?.pop();
    }
    let last = last.ok_or("no set-up repetitions")?;
    let per_rep: Vec<Timing> = paced
        .take()
        .into_iter()
        .map(|t| Timing {
            wall_s: t.wall_s / per_group as f64,
            reference_s: t.reference_s / per_group as f64,
        })
        .collect();
    Ok((last, median_timing(&per_rep)))
}

/// Synthesizes one machine as PST and enumerates its stuck-at faults.
pub fn pst_machine(tracer: &Tracer, parent: SpanId, fsm: Fsm) -> Result<PstMachine, String> {
    let result = tracer.span("core.synthesize", parent, |_| {
        SynthesisFlow::new(BistStructure::Pst).synthesize(&fsm)
    });
    let result = result.map_err(|e| format!("{}: {e}", fsm.name()))?;
    let faults = tracer.span("faults.enumerate", parent, |_| {
        StuckAt.fault_list(&result.netlist, true)
    });
    tracer.count("faults.count", faults.len() as f64);
    Ok(PstMachine {
        name: fsm.name().to_string(),
        fsm,
        result,
        faults,
    })
}

/// One synthesis of the `synth` workload.
struct Job {
    machine: usize,
    structure: BistStructure,
    random_seed: Option<u64>,
}

impl Job {
    fn flow(&self) -> SynthesisFlow {
        let flow = SynthesisFlow::new(self.structure);
        match self.random_seed {
            Some(seed) => flow.with_assignment(AssignmentMethod::Random { seed }),
            None => flow,
        }
    }
}

/// The `synth` workload.
pub fn run(seed: u64, tracer: &Tracer) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();

    // ---- set-up: generate the machines and their KISS2 texts ----------
    let (texts, setup) = repeat_setup(
        tracer,
        GENERATE_SETUP_GROUPS,
        GENERATE_SETUP_PER_GROUP,
        |tracer, root| {
            let fsms = generate_suite(tracer, root)?;
            Ok(fsms.iter().map(kiss::write).collect::<Vec<_>>())
        },
    )?;
    outcome.setup = setup;
    let seeds = random_seeds(seed, texts.len());

    // ---- timed: per machine, parse + the four heuristic structures; then
    // the random encodings; one paced op per parse and per synthesis -------
    let mut fsms: Vec<Fsm> = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    let mut results: Vec<Result<SynthesisResult, String>> = Vec::new();
    let ((), timed) = PhaseTime::measure("timed", || {
        tracer.span("timed", SpanId::ROOT, |root| {
            let mut paced = Paced::start(tracer, root);
            for (machine, text) in texts.iter().enumerate() {
                let parsed =
                    paced.op(|| tracer.span("fsm.kiss_parse", root, |_| kiss::parse(text)));
                let fsm = match parsed {
                    Ok(fsm) => fsm,
                    Err(e) => {
                        results.push(Err(format!("kiss parse: {e}")));
                        jobs.push(Job {
                            machine,
                            structure: BistStructure::Dff,
                            random_seed: None,
                        });
                        continue;
                    }
                };
                for structure in STRUCTURES {
                    let job = Job {
                        machine,
                        structure,
                        random_seed: None,
                    };
                    results.push(paced.op(|| synthesize(tracer, root, &fsm, &job)));
                    jobs.push(job);
                }
                fsms.push(fsm);
            }
            let heuristic = paced.take_total();
            let heuristic_jobs = jobs.len();
            if fsms.len() == texts.len() {
                for (machine, machine_seeds) in seeds.iter().enumerate() {
                    for &s in machine_seeds {
                        let job = Job {
                            machine,
                            structure: BistStructure::Pst,
                            random_seed: Some(s),
                        };
                        results.push(paced.op(|| synthesize(tracer, root, &fsms[machine], &job)));
                        jobs.push(job);
                    }
                }
            }
            let random = paced.take_total();
            outcome.stage_a = Stage {
                units: heuristic_jobs as f64,
                timing: heuristic,
            };
            outcome.stage_b = Stage {
                units: (jobs.len() - heuristic_jobs) as f64,
                timing: random,
            };
            outcome.info("synth_s", heuristic.wall_s + random.wall_s, "s");
            outcome.info(
                "host_slowdown",
                (heuristic.wall_s + random.wall_s) / (heuristic.reference_s + random.reference_s),
                "ratio",
            );
        })
    });
    outcome.phases.push(timed);

    // ---- checks: every cover implements its specification --------------
    let expected_jobs = texts.len() * (STRUCTURES.len() + RANDOM_ENCODINGS);
    tracer.span("checks", SpanId::ROOT, |_| {
        let mut product_terms = 0usize;
        for (index, (result, job)) in results.iter().zip(&jobs).enumerate() {
            outcome.attempted += 1;
            match result {
                Ok(r) => {
                    if !verify(&r.pla, &r.cover) {
                        outcome.fail(format!("job {index}: cover does not implement its PLA"));
                    } else if job.random_seed.is_none() {
                        product_terms += r.product_terms();
                    }
                }
                Err(e) => outcome.fail(format!("job {index}: {e}")),
            }
        }
        if results.len() != expected_jobs || jobs.len() != expected_jobs {
            outcome.attempted += 1;
            outcome.fail(format!(
                "{} of {expected_jobs} syntheses ran",
                results.len()
            ));
        }
        outcome.info("product_terms", product_terms as f64, "count");
    });

    // ---- traced only: replay each synthesis layer by layer --------------
    if tracer.enabled() && results.len() == expected_jobs {
        tracer.span("decompose", SpanId::ROOT, |root| {
            for (job, result) in jobs.iter().zip(&results) {
                let Ok(result) = result else { continue };
                let random = job.random_seed;
                outcome.attempted += 1;
                match decompose(tracer, root, &fsms[job.machine], job.structure, random) {
                    Ok((cover, _)) if cover == result.cover => {}
                    Ok(_) => outcome.fail(format!(
                        "{} {}: layer replay cover differs from the flow's",
                        fsms[job.machine].name(),
                        job.structure
                    )),
                    Err(e) => outcome.fail(e),
                }
            }
        });
    }
    Ok(outcome)
}

fn synthesize(
    tracer: &Tracer,
    parent: SpanId,
    fsm: &Fsm,
    job: &Job,
) -> Result<SynthesisResult, String> {
    tracer
        .span("core.synthesize", parent, |_| job.flow().synthesize(fsm))
        .map_err(|e| format!("{} {}: {e}", fsm.name(), job.structure))
}

/// Replays `SynthesisFlow::synthesize` with the flow's default settings as
/// separate calls into `encode`, `bist` and `logic`, one span each.
/// Returns the minimized cover and the netlist's gate count.
pub fn decompose(
    tracer: &Tracer,
    parent: SpanId,
    fsm: &Fsm,
    structure: BistStructure,
    random_seed: Option<u64>,
) -> Result<(Cover, usize), String> {
    let err = |e: &dyn std::fmt::Display| format!("{} {structure}: {e}", fsm.name());
    let (encoding, feedback, covered) = match (random_seed, structure) {
        // The workload draws random encodings for PST only, whose
        // transform needs no covered-transition set.
        (Some(seed), _) => tracer.span("encode.random_assign", parent, |_| {
            let encoding = random_encoding(fsm, fsm.min_state_bits(), seed).map_err(|e| err(&e))?;
            let poly = primitive_polynomial(encoding.num_bits()).map_err(|e| err(&e))?;
            Ok::<_, String>((encoding, poly, Vec::new()))
        })?,
        (None, BistStructure::Pst | BistStructure::Sig) => {
            tracer.count("encode.misr_assign_calls", 1.0);
            tracer.span("encode.misr_assign", parent, |_| {
                let r = misr_assign(fsm, &MisrAssignmentConfig::default());
                (r.encoding, r.feedback, Vec::new())
            })
        }
        (None, BistStructure::Pat) => tracer.span("encode.pat_assign", parent, |_| {
            let r = pat_assign(fsm, &PatAssignmentConfig::default()).map_err(|e| err(&e))?;
            Ok::<_, String>((r.encoding, r.polynomial, r.covered_transitions))
        })?,
        (None, BistStructure::Dff) => tracer.span("encode.dff_assign", parent, |_| {
            let r = dff_assign(fsm, &DffAssignmentConfig::default()).map_err(|e| err(&e))?;
            let poly = primitive_polynomial(r.encoding.num_bits()).map_err(|e| err(&e))?;
            Ok::<_, String>((r.encoding, poly, Vec::new()))
        })?,
    };
    let (pla, lay) = tracer.span("bist.excitation", parent, |_| {
        let transform = match structure {
            BistStructure::Dff => RegisterTransform::Dff,
            BistStructure::Pat => RegisterTransform::SmartLfsr {
                lfsr: Lfsr::new(feedback).map_err(|e| err(&e))?,
                covered: covered.iter().copied().collect::<HashSet<usize>>(),
            },
            BistStructure::Sig | BistStructure::Pst => {
                RegisterTransform::Misr(Misr::new(feedback).map_err(|e| err(&e))?)
            }
        };
        let pla = build_pla(fsm, &encoding, &transform).map_err(|e| err(&e))?;
        Ok::<_, String>((pla, layout(fsm, &encoding, &transform)))
    })?;
    let minimized = tracer.span("logic.espresso", parent, |_| {
        minimize_with(&pla, &MinimizeConfig::default())
    });
    tracer.count("logic.cubes_in", minimized.stats.initial_cubes as f64);
    tracer.count("logic.cubes_out", minimized.cover.len() as f64);
    let netlist_feedback = (structure != BistStructure::Dff).then_some(feedback);
    let netlist = tracer.span("bist.netlist", parent, |_| {
        build_netlist(
            fsm.name(),
            &minimized.cover,
            &lay,
            structure,
            netlist_feedback,
        )
    });
    let gates = netlist.map_err(|e| err(&e))?.gates().len();
    tracer.count("bist.gates", gates as f64);
    Ok((minimized.cover, gates))
}

/// Traced runs of the campaign workloads: replay the PST syntheses of the
/// set-up layer by layer and check the replay against the flow.
pub fn decompose_pst(tracer: &Tracer, machines: &[PstMachine], outcome: &mut Outcome) {
    if !tracer.enabled() {
        return;
    }
    tracer.span("decompose", SpanId::ROOT, |root| {
        for machine in machines {
            outcome.attempted += 1;
            match decompose(tracer, root, &machine.fsm, BistStructure::Pst, None) {
                Ok((cover, _)) if cover == machine.result.cover => {}
                Ok(_) => outcome.fail(format!(
                    "{}: layer replay cover differs from the flow's",
                    machine.name
                )),
                Err(e) => outcome.fail(e),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_seeds_vary_with_the_seed_but_not_their_count() {
        let a = random_seeds(1, 13);
        let b = random_seeds(2, 13);
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().chain(&b).all(|s| s.len() == RANDOM_ENCODINGS));
        assert_eq!(a, random_seeds(1, 13));
    }
}

//! The `diagnose` workload: dictionary campaigns into on-disk artifacts
//! and a catalog, a two-worker coordinated campaign, and diagnosis queries
//! served over TCP to two closed-loop clients.

use std::path::Path;
use std::sync::Arc;

use stfsm::fsm::generate::SplitMix64;
use stfsm::json::JsonValue;
use stfsm::{
    Campaign, CampaignConfig, CampaignOutcome, Diagnosis, DictionaryArtifact, DictionaryObserver,
    SimEngine,
};
use stfsm_serve::{
    Catalog, Coordinator, DiagnosisClient, DiagnosisServer, DiagnosisService, Query, QueryResponse,
    Response, ServerConfig,
};

use crate::calibration::{median_over_rounds, total, Paced, Timing};
use crate::coverage::{count_telemetry, same_results};
use crate::host::PhaseTime;
use crate::report::{Outcome, Stage};
use crate::stats::percentile;
use crate::synth::{decompose_pst, pst_setup, PstMachine};
use crate::tracer::{SpanId, Tracer};

/// Pattern budget of every dictionary campaign and of the coordinator.
pub const DICTIONARY_PATTERNS: usize = 1024;
/// Rounds of the dictionary builds in an untraced run (a traced run runs
/// one).  Each machine's build counts with its median time over the
/// rounds.
pub const ROUNDS: usize = 3;
/// Stimulus seed of the dictionary campaigns.  Fixed, not drawn from the
/// workload seed: the pass answers list every fault whose signature equals
/// the reference, so the served catalog — and with it the answer sizes —
/// must not change from run to run.  The workload seed picks the queries.
pub const DICTIONARY_SEED: u64 = 0xD1C7_1991;
/// Triage queries per run.
pub const TRIAGE_QUERIES: usize = 120;
/// Every `ABSENT_EVERY`-th triage query sends a signature absent from the
/// machine's dictionary; the others send a detected fault's signature.
pub const ABSENT_EVERY: usize = 4;
/// Closed-loop client connections.
pub const CONNECTIONS: usize = 2;
/// The coordinated machine.
pub const COORDINATOR_MACHINE: &str = "scf";
/// Worker processes of the coordinated campaign.
pub const COORDINATOR_WORKERS: usize = 2;

/// The query-relevant view of one machine's dictionary.
#[derive(Debug, Clone)]
pub struct MachineSignatures {
    /// Machine name.
    pub name: String,
    /// The fault-free reference signature.
    pub reference: u64,
    /// Distinct signatures of detected faults, ascending.
    pub detected: Vec<u64>,
    /// Faults whose signature equals the reference (the pass answer size).
    pub reference_matches: usize,
}

impl MachineSignatures {
    /// Extracts the view from a dictionary campaign.
    pub fn from_outcome(name: &str, outcome: &CampaignOutcome) -> Option<Self> {
        let dictionary = outcome.sections.first()?.dictionary.as_ref()?;
        let reference = dictionary.reference_signature;
        let mut detected: Vec<u64> = dictionary
            .entries
            .iter()
            .map(|e| e.signature)
            .filter(|&s| s != reference)
            .collect();
        detected.sort_unstable();
        detected.dedup();
        let reference_matches = dictionary
            .entries
            .iter()
            .filter(|e| e.signature == reference)
            .count();
        Some(Self {
            name: name.to_string(),
            reference,
            detected,
            reference_matches,
        })
    }
}

/// The query script of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    /// Triage queries: detected-fault or absent signatures.
    pub triage: Vec<Query>,
    /// Pass queries: each machine's reference signature, smallest answer
    /// first.
    pub pass: Vec<Query>,
}

/// Builds the seeded query script.  The seed picks the signatures; the
/// counts and the machine of every query are fixed.
pub fn script(seed: u64, machines: &[MachineSignatures]) -> Script {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_0005);
    let triage = (0..TRIAGE_QUERIES)
        .map(|i| {
            let machine = &machines[i % machines.len()];
            let absent = i % ABSENT_EVERY == ABSENT_EVERY - 1 || machine.detected.is_empty();
            let signature = if absent {
                loop {
                    let candidate = rng.next_u64();
                    if candidate != machine.reference
                        && machine.detected.binary_search(&candidate).is_err()
                    {
                        break candidate;
                    }
                }
            } else {
                machine.detected[rng.below(machine.detected.len())]
            };
            Query::new(machine.name.clone(), signature)
        })
        .collect();
    let mut by_size: Vec<&MachineSignatures> = machines.iter().collect();
    by_size.sort_by_key(|m| (m.reference_matches, m.name.clone()));
    let pass = by_size
        .into_iter()
        .map(|m| Query::new(m.name.clone(), m.reference))
        .collect();
    Script { triage, pass }
}

/// Fault × pattern count of one dictionary campaign (no fault dropping:
/// every fault runs the whole budget).
pub fn fault_patterns(outcome: &CampaignOutcome) -> u64 {
    outcome
        .sections
        .iter()
        .map(|s| (s.faults.len() * outcome.patterns_applied) as u64)
        .sum()
}

/// The campaign configuration the dictionary artifacts are stamped with.
pub fn dictionary_config() -> CampaignConfig {
    CampaignConfig {
        max_patterns: DICTIONARY_PATTERNS,
        seed: DICTIONARY_SEED,
        engine: SimEngine::Auto,
        ..CampaignConfig::default()
    }
}

/// One machine's un-dropped stuck-at dictionary campaign.
pub fn dictionary_campaign(machine: &PstMachine) -> Result<CampaignOutcome, String> {
    let mut observer = DictionaryObserver::new();
    Campaign::new(&machine.result.netlist)
        .faults("stuck_at", machine.faults.clone())
        .config(dictionary_config())
        .observe(&mut observer)
        .try_run()
        .map_err(|e| format!("{}: {e}", machine.name))
}

/// One answered query.
struct Answer {
    class: &'static str,
    index: usize,
    latency: Timing,
    response: Result<QueryResponse, String>,
}

/// Sends `queries` over `CONNECTIONS` closed-loop clients, query `j` on
/// connection `j % CONNECTIONS`; each client sends its next query only
/// after the previous reply (and the reference chunk that follows it).
fn serve_class(
    tracer: &Tracer,
    parent: SpanId,
    addr: std::net::SocketAddr,
    class: &'static str,
    queries: &[Query],
) -> Vec<Answer> {
    let span_name = format!("serve.round_trip_{class}");
    let mut answers: Vec<Answer> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|connection| {
                let span_name = &span_name;
                scope.spawn(move || {
                    let mut client = DiagnosisClient::connect(addr).map_err(|e| e.to_string());
                    let mut paced = Paced::start(tracer, parent);
                    let mut out = Vec::new();
                    for (index, query) in queries.iter().enumerate() {
                        if index % CONNECTIONS != connection {
                            continue;
                        }
                        let response = paced.op(|| {
                            tracer.span(span_name, parent, |_| match &mut client {
                                Ok(client) => client.query(query).map_err(|e| e.to_string()),
                                Err(e) => Err(format!("connect: {e}")),
                            })
                        });
                        out.push(Answer {
                            class,
                            index,
                            latency: paced.take_total(),
                            response,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_default())
            .collect()
    });
    answers.sort_by_key(|a| a.index);
    answers
}

/// The `diagnose` workload.
pub fn run(seed: u64, tracer: &Tracer, work_dir: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (machines, setup) = pst_setup(tracer)?;
    outcome.setup = setup;
    let artifact_dir = work_dir.join("artifacts");
    let shard_dir = work_dir.join("shards");
    for dir in [&artifact_dir, &shard_dir] {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let worker_binary = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name(format!("campaign_worker{}", std::env::consts::EXE_SUFFIX));

    // ---- timed, stage A: per machine, dictionary campaign → artifact →
    // file → catalog, in rounds; each machine counts with its median time
    // over the rounds, and the last round's catalog is served.  Then the
    // coordinated campaign, reported beside the stages but not part of
    // them: it runs on both cores at once, while the reference chunks
    // measure one (see README.md) ----------------------------------------
    let rounds = if tracer.enabled() { 1 } else { ROUNDS };
    let mut campaigns: Vec<CampaignOutcome> = Vec::new();
    let mut disagreements = Vec::new();
    let mut catalog = Catalog::new();
    let mut coordinated = None;
    let (serving, timed) = PhaseTime::measure("timed", || {
        tracer.span("timed", SpanId::ROOT, |root| {
            let mut paced = Paced::start(tracer, root);
            let mut round_times = Vec::new();
            for round in 0..rounds {
                catalog = Catalog::new();
                for (i, machine) in machines.iter().enumerate() {
                    outcome.attempted += 1;
                    let built = paced
                        .op(|| build_artifact(tracer, root, machine, &artifact_dir, &mut catalog));
                    match built {
                        Ok(run) if round == 0 => campaigns.push(run),
                        Ok(run) => {
                            if !same_results(&campaigns[i], &run) {
                                disagreements.push(i);
                            }
                        }
                        Err(e) => {
                            outcome.fail(e);
                            return None;
                        }
                    }
                }
                round_times.push(paced.take());
            }
            let build = median_over_rounds(&round_times);
            let fault_pattern_units: u64 = campaigns.iter().map(fault_patterns).sum();
            outcome.attempted += 1;
            let run = paced.op(|| {
                tracer.span("serve.coordinator_run", root, |_| {
                    Coordinator::new(COORDINATOR_MACHINE)
                        .engine(SimEngine::Auto)
                        .patterns(DICTIONARY_PATTERNS)
                        .seed(DICTIONARY_SEED)
                        .workers(COORDINATOR_WORKERS)
                        .dictionary(true)
                        .artifact_dir(&shard_dir)
                        .worker_binary(&worker_binary)
                        .run()
                })
            });
            let coordinator = paced.take_total();
            match run {
                Ok(run) => coordinated = Some(run),
                Err(e) => outcome.fail(format!("coordinator: {e}")),
            }
            outcome.stage_a = Stage {
                units: fault_pattern_units as f64,
                timing: build,
            };
            outcome.info("dictionary_s", build.wall_s, "s");
            outcome.info("coordinator_s", coordinator.wall_s, "s");
            outcome.info("coordinator_reference_s", coordinator.reference_s, "s");

            // ---- timed, stage B: triage, then pass queries over TCP -----
            let signatures: Vec<MachineSignatures> = machines
                .iter()
                .zip(&campaigns)
                .filter_map(|(m, c)| MachineSignatures::from_outcome(&m.name, c))
                .collect();
            if signatures.len() != machines.len() {
                return None;
            }
            let script = script(seed, &signatures);
            let service = DiagnosisService::new(std::mem::take(&mut catalog));
            let server =
                DiagnosisServer::start("127.0.0.1:0", service.handle(), ServerConfig::default());
            let server = match server {
                Ok(server) => server,
                Err(e) => {
                    outcome.fail(format!("server start: {e}"));
                    return None;
                }
            };
            let (triage, triage_time) = PhaseTime::measure("triage", || {
                serve_class(tracer, root, server.local_addr(), "triage", &script.triage)
            });
            let (pass, pass_time) = PhaseTime::measure("pass", || {
                serve_class(tracer, root, server.local_addr(), "pass", &script.pass)
            });
            server.shutdown();
            Some((script, service, triage, triage_time, pass, pass_time))
        })
    });
    outcome.phases.push(timed);
    let Some((script, service, triage, triage_time, pass, pass_time)) = serving else {
        if outcome.failures.is_empty() {
            outcome.fail("dictionary campaigns failed; nothing served");
        }
        return Ok(outcome);
    };

    // Stage B is the triage phase: its wall time scaled by the slowdown its
    // connections measured.  The pass phase is reported beside it, not
    // gated: nearly all of it is one 30-second call, whose correction rests
    // on the chunks at its two ends (see README.md).
    let latencies =
        |answers: &[Answer]| total(&answers.iter().map(|a| a.latency).collect::<Vec<_>>());
    let completed = triage.iter().filter(|a| a.response.is_ok()).count();
    outcome.stage_b = Stage {
        units: completed as f64,
        timing: Timing {
            wall_s: triage_time.wall_s,
            reference_s: triage_time.wall_s / latencies(&triage).slowdown(),
        },
    };
    let triage_ms: Vec<f64> = triage.iter().map(|a| a.latency.wall_s * 1e3).collect();
    outcome.info(
        "query_p50_ms",
        percentile(&triage_ms, 50.0).unwrap_or(f64::NAN),
        "ms",
    );
    outcome.info(
        "query_p90_ms",
        percentile(&triage_ms, 90.0).unwrap_or(f64::NAN),
        "ms",
    );
    outcome.info("query_qps", completed as f64 / triage_time.wall_s, "1/s");
    let pass_total = latencies(&pass);
    outcome.info("pass_query_s", pass_total.wall_s, "s");
    outcome.info("pass_query_reference_s", pass_total.reference_s, "s");
    outcome.info("build_slowdown", outcome.stage_a.timing.slowdown(), "ratio");
    outcome.phases.push(triage_time);
    outcome.phases.push(pass_time);

    // ---- checks ----------------------------------------------------------
    let handle = service.handle();
    tracer.span("checks", SpanId::ROOT, |root| {
        // Every TCP answer equals the in-process answer.
        let mut errors = 0usize;
        let mut mismatches = 0usize;
        for answer in triage.iter().chain(&pass) {
            let queries = if answer.class == "triage" {
                &script.triage
            } else {
                &script.pass
            };
            let query = &queries[answer.index];
            outcome.attempted += 1;
            let local = tracer.span("serve.service_query", root, |_| handle.query(query));
            match &answer.response {
                Ok(wire) if *wire == local => {
                    tracer.count("serve.answer_candidates", wire.candidates.len() as f64);
                }
                Ok(_) => {
                    mismatches += 1;
                    outcome.fail(format!(
                        "{} {}: TCP answer differs",
                        answer.class, answer.index
                    ));
                }
                Err(e) => {
                    errors += 1;
                    outcome.fail(format!("{} {}: {e}", answer.class, answer.index));
                }
            }
        }
        if triage.len() != script.triage.len() || pass.len() != script.pass.len() {
            outcome.fail("not every scripted query was answered");
        }
        tracer.count("serve.query_errors", errors as f64);
        tracer.count("serve.answer_mismatches", mismatches as f64);
        if handle.machines().len() != machines.len() {
            outcome.fail("catalog does not hold every machine");
        }

        // The coordinator's merge equals the single-process campaign.
        let single = machines
            .iter()
            .position(|m| m.name == COORDINATOR_MACHINE)
            .map(|i| &campaigns[i]);
        outcome.attempted += 1;
        match (coordinated.as_ref(), single) {
            (Some(merged), Some(single)) => {
                let same = merged.patterns_applied == single.patterns_applied
                    && merged.sections.len() == single.sections.len()
                    && merged.sections.iter().zip(&single.sections).all(|(m, s)| {
                        m.detection_pattern == s.detection_pattern
                            && m.dictionary.as_ref() == s.dictionary.as_deref()
                    });
                if !same {
                    outcome.fail("coordinator merge differs from the single-process campaign");
                }
            }
            _ => outcome.fail("coordinator comparison unavailable"),
        }

        // Every round built the same dictionaries.
        for &i in &disagreements {
            outcome.fail(format!("{}: dictionary rounds disagree", machines[i].name));
        }
    });
    for run in &campaigns {
        count_telemetry(tracer, run);
    }

    // ---- traced only: in-process diagnosis and client-side JSON parse ---
    if tracer.enabled() {
        tracer.span("attribution", SpanId::ROOT, |root| {
            let diagnoses: Vec<(String, Diagnosis)> = machines
                .iter()
                .zip(&campaigns)
                .filter_map(|(m, c)| {
                    let sections = c
                        .sections
                        .iter()
                        .map(|s| Some((s.label.clone(), Arc::clone(s.dictionary.as_ref()?))))
                        .collect::<Option<Vec<_>>>()?;
                    Some((m.name.clone(), Diagnosis::from_shared(sections)))
                })
                .collect();
            for query in script.triage.iter().chain(&script.pass) {
                if let Some((_, diagnosis)) = diagnoses.iter().find(|(n, _)| *n == query.machine) {
                    tracer.span("testsim.diagnosis_candidates", root, |_| {
                        std::hint::black_box(diagnosis.candidates(query.signature));
                    });
                }
                let bytes = Response::Result(handle.query(query)).encode();
                tracer.count("core.json_bytes", bytes.len() as f64);
                let parsed = tracer.span("core.json_parse", root, |_| JsonValue::parse(&bytes));
                outcome.attempted += 1;
                if let Err(e) = parsed {
                    outcome.fail(format!("answer JSON does not parse: {e}"));
                }
            }
        });
    }
    decompose_pst(tracer, &machines, &mut outcome);
    Ok(outcome)
}

/// Dictionary campaign → artifact → file → catalog, one span per step.
fn build_artifact(
    tracer: &Tracer,
    parent: SpanId,
    machine: &PstMachine,
    dir: &Path,
    catalog: &mut Catalog,
) -> Result<CampaignOutcome, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", machine.name);
    let run = tracer.span("testsim.dictionary_campaign", parent, |_| {
        dictionary_campaign(machine)
    })?;
    let artifact = tracer.span("testsim.artifact_from_outcome", parent, |_| {
        DictionaryArtifact::from_outcome(&machine.result.netlist, &dictionary_config(), &run)
    });
    let artifact = artifact.map_err(|e| err(&e))?;
    if tracer.enabled() {
        let bytes = tracer.span("testsim.artifact_encode", parent, |_| artifact.encode());
        tracer.count("testsim.artifact_bytes", bytes.len() as f64);
    }
    let path = dir.join(format!("{}.dict", machine.name));
    tracer
        .span("testsim.artifact_write", parent, |_| {
            artifact.write_to(&path)
        })
        .map_err(|e| err(&e))?;
    let loaded = tracer
        .span("serve.catalog_load", parent, |_| catalog.load(&path))
        .map_err(|e| err(&e))?;
    if loaded != machine.name {
        return Err(err(&format!("artifact loaded as '{loaded}'")));
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signatures(name: &str, base: u64, matches: usize) -> MachineSignatures {
        MachineSignatures {
            name: name.to_string(),
            reference: base,
            detected: (1..=50).map(|k| base + k).collect(),
            reference_matches: matches,
        }
    }

    #[test]
    fn seeds_change_signatures_but_not_the_shape_of_the_script() {
        let machines = vec![
            signatures("big", 1000, 900),
            signatures("small", 2000, 3),
            signatures("mid", 3000, 40),
        ];
        let a = script(1, &machines);
        let b = script(2, &machines);
        assert_ne!(a, b, "the seed picks the signatures");
        assert_eq!(a.triage.len(), TRIAGE_QUERIES);
        assert_eq!(b.triage.len(), TRIAGE_QUERIES);
        let machines_of = |s: &Script| -> Vec<String> {
            s.triage
                .iter()
                .chain(&s.pass)
                .map(|q| q.machine.clone())
                .collect()
        };
        assert_eq!(machines_of(&a), machines_of(&b));
        assert_eq!(
            a.pass, b.pass,
            "pass queries are the references, smallest answer first"
        );
        assert_eq!(
            a.pass
                .iter()
                .map(|q| q.machine.as_str())
                .collect::<Vec<_>>(),
            ["small", "mid", "big"]
        );
        for (i, q) in a.triage.iter().enumerate() {
            let m = machines
                .iter()
                .find(|m| m.name == q.machine)
                .expect("machine");
            let known = m.detected.contains(&q.signature);
            assert_eq!(known, i % ABSENT_EVERY != ABSENT_EVERY - 1, "query {i}");
            assert_ne!(q.signature, m.reference);
        }
    }

    #[test]
    fn seeds_do_not_change_the_dictionary_work() {
        // Two suite machines small enough for a unit test; the workload
        // seed never reaches the dictionary campaigns, so the fault ×
        // pattern counts and budgets match across seeds by construction.
        let fsm = stfsm::fsm::suite::benchmark("modulo12")
            .expect("suite machine")
            .fsm()
            .expect("fsm");
        let result = stfsm::SynthesisFlow::new(stfsm::BistStructure::Pst)
            .synthesize(&fsm)
            .expect("synthesis");
        use stfsm::faults::FaultModel;
        let faults = stfsm::faults::StuckAt.fault_list(&result.netlist, true);
        let machine = PstMachine {
            name: "modulo12".to_string(),
            fsm,
            result,
            faults,
        };
        let first = dictionary_campaign(&machine).expect("campaign");
        let second = dictionary_campaign(&machine).expect("campaign");
        assert_eq!(first.patterns_applied, DICTIONARY_PATTERNS);
        assert_eq!(fault_patterns(&first), fault_patterns(&second));
        assert_eq!(
            fault_patterns(&first),
            (machine.faults.len() * DICTIONARY_PATTERNS) as u64
        );
        let view = MachineSignatures::from_outcome("modulo12", &first).expect("dictionary");
        assert_eq!(
            script(1, std::slice::from_ref(&view)).triage.len(),
            script(2, std::slice::from_ref(&view)).triage.len()
        );
    }
}

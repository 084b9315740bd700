//! End-to-end acceptance for the diagnosis service stack: an
//! artifact-loaded catalog answers every query identically to the
//! in-memory [`Diagnosis`], whether asked in-process through a
//! [`ServiceHandle`] or across TCP through the [`DiagnosisClient`].

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stfsm::bist::netlist::Netlist;
use stfsm::testsim::artifact::DictionaryArtifact;
use stfsm::{
    BistStructure, Campaign, CampaignConfig, CampaignOutcome, Diagnosis, DictionaryObserver,
    SimEngine, SynthesisFlow,
};
use stfsm_serve::{
    Catalog, ClientError, DiagnosisClient, DiagnosisServer, DiagnosisService, Query,
    RankedCandidate, Request, Response, ServerConfig,
};

const PATTERNS: usize = 128;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stfsm-serve-it-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One dictionary campaign on a suite machine, plus the config it ran
/// with (what [`DictionaryArtifact::from_outcome`] digests).
fn dictionary_campaign(machine: &str) -> (Netlist, CampaignConfig, CampaignOutcome) {
    let info = stfsm::fsm::suite::benchmark(machine).expect("suite machine");
    let fsm = info.fsm().expect("suite fsm");
    let synthesis = SynthesisFlow::new(BistStructure::Pst)
        .synthesize(&fsm)
        .expect("synthesis");
    let netlist = synthesis.netlist;
    let config = CampaignConfig {
        max_patterns: PATTERNS,
        ..CampaignConfig::default()
    };
    let model = stfsm::faults::all_models()
        .into_iter()
        .next()
        .expect("stuck-at model");
    let mut observer = DictionaryObserver::new();
    let outcome = Campaign::new(&netlist)
        .model(model.as_ref())
        .engine(SimEngine::Packed)
        .patterns(PATTERNS)
        .observe(&mut observer)
        .run();
    (netlist, config, outcome)
}

/// The in-memory reference answer for one machine.
fn reference_diagnosis(outcome: &CampaignOutcome) -> Diagnosis {
    Diagnosis::from_shared(
        outcome
            .sections
            .iter()
            .map(|s| {
                (
                    s.label.clone(),
                    Arc::clone(s.dictionary.as_ref().expect("dictionary")),
                )
            })
            .collect(),
    )
}

/// Every distinct signature in the dictionary, plus the reference and a
/// signature no fault produced.
fn probe_signatures(outcome: &CampaignOutcome) -> Vec<u64> {
    let mut signatures: Vec<u64> = outcome
        .sections
        .iter()
        .flat_map(|s| {
            let dictionary = s.dictionary.as_ref().expect("dictionary");
            let mut all: Vec<u64> = dictionary.entries.iter().map(|e| e.signature).collect();
            all.push(dictionary.reference_signature);
            all
        })
        .collect();
    signatures.sort_unstable();
    signatures.dedup();
    // A signature nothing in the dictionary can produce.
    let mut absent = 0xDEAD_BEEF_0BAD_F00Du64;
    while signatures.binary_search(&absent).is_ok() {
        absent = absent.wrapping_add(1);
    }
    signatures.push(absent);
    signatures
}

fn assert_candidates_match(
    machine: &str,
    signature: u64,
    expected: &[stfsm::DiagnosisCandidate],
    got: &[RankedCandidate],
) {
    assert_eq!(
        expected.len(),
        got.len(),
        "{machine} signature 0x{signature:016x}: candidate count"
    );
    for (reference, candidate) in expected.iter().zip(got) {
        assert_eq!(reference.model, candidate.model);
        assert_eq!(reference.fault.to_string(), candidate.fault);
        assert_eq!(reference.first_detect, candidate.first_detect);
        assert_eq!(reference.matching_segments, candidate.matching_segments);
    }
}

/// A catalog served from a fresh `dk16` artifact, plus that campaign.
fn served_dk16(tag: &str) -> (DiagnosisService, CampaignOutcome, PathBuf) {
    let (netlist, config, outcome) = dictionary_campaign("dk16");
    let artifact = DictionaryArtifact::from_outcome(&netlist, &config, &outcome).expect("artifact");
    let dir = scratch_dir(tag);
    let path = dir.join("dk16.dict");
    artifact.write_to(&path).expect("write artifact");
    let mut catalog = Catalog::new();
    assert_eq!(catalog.load(&path).expect("catalog load"), "dk16");
    (DiagnosisService::new(catalog), outcome, dir)
}

#[test]
fn artifact_loaded_service_answers_identically_to_in_memory() {
    let machines = ["dk16", "mark1"];
    let dir = scratch_dir("catalog");
    let mut catalog = Catalog::new();
    let mut references = Vec::new();
    for machine in machines {
        let (netlist, config, outcome) = dictionary_campaign(machine);
        let artifact =
            DictionaryArtifact::from_outcome(&netlist, &config, &outcome).expect("artifact");
        let path = dir.join(format!("{machine}.dict"));
        artifact.write_to(&path).expect("write artifact");
        // Load from disk — the catalog must be built from the on-disk
        // bytes, not the in-memory object.
        assert_eq!(catalog.load(&path).expect("catalog load"), machine);
        references.push((machine, reference_diagnosis(&outcome), outcome));
    }
    let service = DiagnosisService::new(catalog);
    let handle = service.handle();

    // The catalog lists both machines.
    let mut listed: Vec<String> = handle.machines().into_iter().map(|m| m.machine).collect();
    listed.sort();
    assert_eq!(listed, vec!["dk16".to_string(), "mark1".to_string()]);

    // Every signature answers identically to the in-memory Diagnosis.
    for (machine, reference, outcome) in &references {
        for signature in probe_signatures(outcome) {
            let response = handle.query(&Query::new(*machine, signature));
            assert!(response.known_machine);
            assert_eq!(response.reference, reference.is_reference(signature));
            let expected = reference.candidates(signature);
            assert_eq!(response.total_matches, expected.len());
            assert_candidates_match(machine, signature, &expected, &response.candidates);
        }
    }

    // Unknown machines are flagged, not errors.
    let response = handle.query(&Query::new("no-such-machine", 0));
    assert!(!response.known_machine);
    assert!(response.candidates.is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_round_trip_matches_in_process_answers() {
    let (service, outcome, dir) = served_dk16("tcp");
    let reference = reference_diagnosis(&outcome);

    let server = DiagnosisServer::start("127.0.0.1:0", service.handle(), ServerConfig::default())
        .expect("server start");
    let mut client = DiagnosisClient::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");

    let machines = client.machines().expect("machines");
    assert_eq!(machines.len(), 1);
    assert_eq!(machines[0].machine, "dk16");
    assert_eq!(
        machines[0].total_faults,
        outcome
            .sections
            .iter()
            .map(|s| s.faults.len())
            .sum::<usize>()
    );

    let signatures = probe_signatures(&outcome);
    // Single queries over the wire.
    for &signature in signatures.iter().take(16) {
        let response = client.query(&Query::new("dk16", signature)).expect("query");
        let expected = reference.candidates(signature);
        assert_eq!(response.total_matches, expected.len());
        assert_candidates_match("dk16", signature, &expected, &response.candidates);
    }
    // The whole probe set as one batch: same answers, one frame each way.
    let batch: Vec<Query> = signatures
        .iter()
        .map(|&signature| Query::new("dk16", signature))
        .collect();
    let responses = client.query_batch(&batch).expect("batch");
    assert_eq!(responses.len(), signatures.len());
    for (&signature, response) in signatures.iter().zip(&responses) {
        let expected = reference.candidates(signature);
        assert_candidates_match("dk16", signature, &expected, &response.candidates);
    }

    // Segment-aware disambiguation over the wire matches in-process.
    let dictionary = outcome.sections[0].dictionary.as_ref().expect("dictionary");
    if let Some(entry) = dictionary.entries.iter().find(|e| !e.segments.is_empty()) {
        let query = Query {
            segments: Some(entry.segments.clone()),
            ..Query::new("dk16", entry.signature)
        };
        let response = client.query(&query).expect("segment query");
        let expected = reference.disambiguate(entry.signature, &entry.segments);
        assert_candidates_match("dk16", entry.signature, &expected, &response.candidates);
    }

    // Limits truncate after ranking.
    if let Some(&signature) = signatures.first() {
        let query = Query {
            limit: Some(1),
            ..Query::new("dk16", signature)
        };
        let response = client.query(&query).expect("limited query");
        assert!(response.candidates.len() <= 1);
        assert_eq!(
            response.total_matches,
            reference.candidates(signature).len()
        );
    }

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sequential_queries_cost_no_transport_stall() {
    let (service, outcome, dir) = served_dk16("latency");
    let handle = service.handle();
    let server = DiagnosisServer::start("127.0.0.1:0", handle.clone(), ServerConfig::default())
        .expect("server start");
    let mut client = DiagnosisClient::connect(server.local_addr()).expect("connect");

    // 200 closed-loop round trips.  A frame held back by Nagle's algorithm
    // until the peer's delayed ACK costs tens of milliseconds per query
    // (at least 17 s here); an unstalled loopback round trip costs well
    // under a millisecond.
    let signatures = probe_signatures(&outcome);
    let queries: Vec<Query> = signatures
        .iter()
        .cycle()
        .take(200)
        .map(|&signature| Query::new("dk16", signature))
        .collect();
    let started = Instant::now();
    let answers: Vec<_> = queries
        .iter()
        .map(|query| client.query(query).expect("query"))
        .collect();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "200 sequential queries took {elapsed:?}"
    );
    for (query, answer) in queries.iter().zip(&answers) {
        assert_eq!(*answer, handle.query(query));
    }

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_answer_gets_an_error_and_the_connection_survives() {
    let (service, outcome, dir) = served_dk16("oversize");
    let handle = service.handle();
    let config = ServerConfig {
        max_frame_bytes: 4096,
        ..ServerConfig::default()
    };
    let cap = config.max_frame_bytes;
    let server =
        DiagnosisServer::start("127.0.0.1:0", handle.clone(), config).expect("server start");
    let mut client = DiagnosisClient::connect(server.local_addr()).expect("connect");

    // A batch whose request fits the cap and whose answer does not.
    let batch: Vec<Query> = probe_signatures(&outcome)
        .into_iter()
        .take(32)
        .map(|signature| Query::new("dk16", signature))
        .collect();
    assert!(Request::Batch(batch.clone()).encode().len() <= cap);
    let answer_bytes = Response::Batch(handle.query_batch(&batch)).encode().len();
    assert!(answer_bytes > cap, "answer of {answer_bytes} bytes fits");

    match client.query_batch(&batch) {
        Err(ClientError::Remote(message)) => {
            assert!(message.contains(&answer_bytes.to_string()), "{message}");
            assert!(message.contains(&cap.to_string()), "{message}");
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    // Same connection, still served.
    client.ping().expect("ping after the error");
    let query = Query::new("dk16", batch[0].signature);
    assert_eq!(client.query(&query).expect("query"), handle.query(&query));

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

//! Diagnosis as a service: dictionary artifacts served over TCP, and a
//! campaign coordinator that shards fault universes across OS processes.
//!
//! The paper's end product is a fault dictionary that turns an observed
//! MISR signature back into a ranked fault diagnosis.  `stfsm-testsim`
//! builds that dictionary in-process; this crate is the operational layer
//! around it (see the repository's top-level `README.md`, section
//! *Diagnosis as a service*, for the artifact format sketch and a wire
//! protocol example):
//!
//! * [`service`] — the read-only [`Catalog`] of loaded
//!   [`DictionaryArtifact`](stfsm::DictionaryArtifact)s for a fleet of
//!   machines, and the [`DiagnosisService`] /
//!   [`ServiceHandle`] pair answering
//!   `(machine, signature) → ranked candidates` queries in-process —
//!   batched queries take the catalog lock once;
//! * [`protocol`] — the length-prefixed JSON wire protocol (`u32`
//!   big-endian frame length, then one JSON document), with typed
//!   [`Request`] / [`Response`] encode/decode on both sides;
//! * [`server`] — a std-only TCP server: thread-per-connection behind a
//!   bounded accept pool, graceful shutdown, per-connection read
//!   timeouts, an error response (not a hang-up) for an answer over the
//!   frame cap;
//! * [`client`] — the matching blocking [`DiagnosisClient`];
//! * [`coordinator`] — a [`Coordinator`] that shards one campaign's fault
//!   universe across worker *processes* (`examples/campaign_worker.rs`),
//!   drives them in lockstep over the pinned segment schedule by reading
//!   their `stfsm-trace` JSONL streams and writing per-segment
//!   continue/stop verdicts, and merges shard results bit-for-bit equal
//!   to a single-process run;
//! * [`worker`] — the worker-process body behind the example binary:
//!   synthesize, take the shard's contiguous fault range, run the
//!   campaign with a pipe-driven observer, report the shard result.
//!
//! Determinism is the load-bearing property end to end: stimulus is a
//! pure function of the campaign seed and netlist (never of the fault
//! list), every engine walks the same segment schedule, and the
//! coordinator's merge order is fixed by shard id — so sharded detections,
//! dictionary signatures and early-stop boundaries are bit-for-bit
//! identical to the single-process campaign, and an artifact loaded from
//! disk answers every query identically to the freshly built dictionary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod protocol;
pub mod server;
pub mod service;
pub mod worker;

pub use client::{ClientError, DiagnosisClient};
pub use coordinator::{
    default_worker_binary, CoordinatedOutcome, CoordinatedSection, Coordinator, CoordinatorError,
};
pub use protocol::{MachineInfo, Query, QueryResponse, RankedCandidate, Request, Response};
pub use server::{DiagnosisServer, ServerConfig};
pub use service::{Catalog, DiagnosisService, ServiceHandle};

//! The diagnosis wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one frame: a `u32`
//! **big-endian** byte length followed by exactly that many bytes of
//! UTF-8 JSON.  Frames never embed newlines semantically, so the payload
//! is free-form JSON; the length prefix (not a delimiter) bounds it, the
//! same discipline as the FSM-validated session protocol the exemplar
//! client/server split uses.  Each frame leaves in a single write and both
//! ends set `TCP_NODELAY`, so a small request or answer is never held
//! back waiting for an ACK.
//!
//! Digests travel as `"0x%016x"` hex strings (a JSON number would round
//! through `f64` in sloppy readers); signatures are at most
//! 2⁵³-safe MISR words and travel as numbers.
//!
//! ```text
//! → {"op":"query","machine":"dk16","signature":1234,"segments":[1,2,3],"limit":5}
//! ← {"ok":true,"op":"result","result":{"machine":"dk16","known_machine":true,
//!      "reference":false,"total_matches":2,"candidates":[
//!        {"model":"stuck_at","fault":"net 7 stuck-at-1","first_detect":12,
//!         "matching_segments":3}, ...]}}
//! ```

use std::io::{Read, Write};

use stfsm::json::{JsonObject, JsonValue, RawJson};

/// Hard cap on a frame's payload length; a peer announcing more is
/// malformed (or hostile) and the connection is dropped.
pub const MAX_FRAME_BYTES: usize = 4 * 1024 * 1024;

/// A protocol violation while reading or writing frames.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The peer sent something that is not a protocol message.
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(error) => write!(f, "transport error: {error}"),
            ProtocolError::Malformed(message) => write!(f, "malformed message: {message}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(error: std::io::Error) -> Self {
        ProtocolError::Io(error)
    }
}

fn malformed(message: impl Into<String>) -> ProtocolError {
    ProtocolError::Malformed(message.into())
}

/// Writes one frame: `u32` big-endian length, then the JSON bytes.
///
/// Prefix and payload go out in a single `write_all`: split into two
/// small writes on a TCP stream, the second would wait behind Nagle's
/// algorithm for the peer's delayed ACK.
pub fn write_frame<W: Write>(writer: &mut W, json: &str) -> Result<(), ProtocolError> {
    let bytes = json.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(malformed(format!(
            "frame of {} bytes exceeds cap",
            bytes.len()
        )));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame and parses its JSON.  Returns `Ok(None)` on a clean
/// EOF at a frame boundary (the peer hung up between messages).
pub fn read_frame<R: Read>(
    reader: &mut R,
    max_frame_bytes: usize,
) -> Result<Option<JsonValue>, ProtocolError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let n = reader.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(malformed("EOF inside frame length"));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > max_frame_bytes {
        return Err(malformed(format!(
            "announced frame of {len} bytes exceeds cap of {max_frame_bytes}"
        )));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload).map_err(|error| {
        if error.kind() == std::io::ErrorKind::UnexpectedEof {
            malformed("EOF inside frame payload")
        } else {
            ProtocolError::Io(error)
        }
    })?;
    let text = std::str::from_utf8(&payload).map_err(|_| malformed("frame is not UTF-8"))?;
    let value = JsonValue::parse(text).map_err(|error| malformed(error.to_string()))?;
    Ok(Some(value))
}

fn str_field(value: &JsonValue, key: &str) -> Result<String, ProtocolError> {
    Ok(value
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| malformed(format!("missing string field '{key}'")))?
        .to_string())
}

fn u64_field(value: &JsonValue, key: &str) -> Result<u64, ProtocolError> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| malformed(format!("missing u64 field '{key}'")))
}

fn usize_field(value: &JsonValue, key: &str) -> Result<usize, ProtocolError> {
    value
        .get(key)
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| malformed(format!("missing integer field '{key}'")))
}

fn bool_field(value: &JsonValue, key: &str) -> Result<bool, ProtocolError> {
    value
        .get(key)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| malformed(format!("missing boolean field '{key}'")))
}

fn digest_field(value: &JsonValue, key: &str) -> Result<u64, ProtocolError> {
    let text = str_field(value, key)?;
    let hex = text
        .strip_prefix("0x")
        .ok_or_else(|| malformed(format!("digest '{text}' lacks 0x prefix")))?;
    u64::from_str_radix(hex, 16).map_err(|_| malformed(format!("digest '{text}' is not hex")))
}

fn digest_string(digest: u64) -> String {
    format!("0x{digest:016x}")
}

/// One diagnosis lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The machine (netlist) name to diagnose against.
    pub machine: String,
    /// The observed full-campaign MISR signature.
    pub signature: u64,
    /// Observed intermediate signatures, if the tester sampled them —
    /// switches the lookup from `candidates` to `disambiguate`.
    pub segments: Option<Vec<u64>>,
    /// Maximum candidates to return (`None` = all).
    pub limit: Option<usize>,
}

impl Query {
    /// A plain final-signature lookup.
    pub fn new(machine: impl Into<String>, signature: u64) -> Self {
        Self {
            machine: machine.into(),
            signature,
            segments: None,
            limit: None,
        }
    }

    fn to_json_value(&self) -> RawJson {
        let mut obj = JsonObject::new();
        obj.field("machine", &self.machine)
            .field("signature", self.signature)
            .field("segments", &self.segments)
            .field("limit", self.limit);
        RawJson(obj.finish())
    }

    fn from_value(value: &JsonValue) -> Result<Self, ProtocolError> {
        let segments = match value.get("segments") {
            None | Some(JsonValue::Null) => None,
            Some(words) => Some(
                words
                    .as_array()
                    .ok_or_else(|| malformed("'segments' is not an array"))?
                    .iter()
                    .map(|word| {
                        word.as_u64()
                            .ok_or_else(|| malformed("segment word is not a u64"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        let limit = match value.get("limit") {
            None | Some(JsonValue::Null) => None,
            Some(limit) => Some(
                limit
                    .as_usize()
                    .ok_or_else(|| malformed("'limit' is not an integer"))?,
            ),
        };
        Ok(Self {
            machine: str_field(value, "machine")?,
            signature: u64_field(value, "signature")?,
            segments,
            limit,
        })
    }
}

/// One ranked candidate of a query answer.  The fault travels as its
/// human-readable rendering — the service diagnoses, the caller reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedCandidate {
    /// The fault-model label of the candidate's section.
    pub model: String,
    /// The fault, rendered (`"net 7 stuck-at-1"`, …).
    pub fault: String,
    /// First pattern that detected the fault during dictionary
    /// construction (`None` = never detected).
    pub first_detect: Option<usize>,
    /// Intermediate signatures matching the observed ones (zero for a
    /// plain final-signature lookup).
    pub matching_segments: usize,
}

impl RankedCandidate {
    fn to_json_value(&self) -> RawJson {
        let mut obj = JsonObject::new();
        obj.field("model", &self.model)
            .field("fault", &self.fault)
            .field("first_detect", self.first_detect)
            .field("matching_segments", self.matching_segments);
        RawJson(obj.finish())
    }

    fn from_value(value: &JsonValue) -> Result<Self, ProtocolError> {
        let first_detect = match value.get("first_detect") {
            None | Some(JsonValue::Null) => None,
            Some(cycle) => Some(
                cycle
                    .as_usize()
                    .ok_or_else(|| malformed("'first_detect' is not an integer"))?,
            ),
        };
        Ok(Self {
            model: str_field(value, "model")?,
            fault: str_field(value, "fault")?,
            first_detect,
            matching_segments: usize_field(value, "matching_segments")?,
        })
    }
}

/// The answer to one [`Query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResponse {
    /// The queried machine name, echoed back.
    pub machine: String,
    /// Whether the catalog holds that machine at all.
    pub known_machine: bool,
    /// Whether the signature is the fault-free reference (a passing
    /// chip).
    pub reference: bool,
    /// Matching candidates before the limit was applied.
    pub total_matches: usize,
    /// The ranked candidates (limited).
    pub candidates: Vec<RankedCandidate>,
}

impl QueryResponse {
    fn to_json_value(&self) -> RawJson {
        let candidates: Vec<RawJson> = self
            .candidates
            .iter()
            .map(RankedCandidate::to_json_value)
            .collect();
        let mut obj = JsonObject::new();
        obj.field("machine", &self.machine)
            .field("known_machine", self.known_machine)
            .field("reference", self.reference)
            .field("total_matches", self.total_matches)
            .field("candidates", candidates);
        RawJson(obj.finish())
    }

    fn from_value(value: &JsonValue) -> Result<Self, ProtocolError> {
        let candidates = value
            .get("candidates")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| malformed("missing array field 'candidates'"))?
            .iter()
            .map(RankedCandidate::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            machine: str_field(value, "machine")?,
            known_machine: bool_field(value, "known_machine")?,
            reference: bool_field(value, "reference")?,
            total_matches: usize_field(value, "total_matches")?,
            candidates,
        })
    }
}

/// One catalog entry as listed by the `machines` op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInfo {
    /// The machine (netlist) name.
    pub machine: String,
    /// The artifact's campaign identity digest.
    pub digest: u64,
    /// Total fault entries across sections.
    pub total_faults: usize,
    /// Per-section `(label, fault count)`.
    pub sections: Vec<(String, usize)>,
}

impl MachineInfo {
    fn to_json_value(&self) -> RawJson {
        let sections: Vec<RawJson> = self
            .sections
            .iter()
            .map(|(label, faults)| {
                let mut obj = JsonObject::new();
                obj.field("label", label).field("faults", *faults);
                RawJson(obj.finish())
            })
            .collect();
        let mut obj = JsonObject::new();
        obj.field("machine", &self.machine)
            .field("digest", digest_string(self.digest))
            .field("total_faults", self.total_faults)
            .field("sections", sections);
        RawJson(obj.finish())
    }

    fn from_value(value: &JsonValue) -> Result<Self, ProtocolError> {
        let sections = value
            .get("sections")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| malformed("missing array field 'sections'"))?
            .iter()
            .map(|section| {
                Ok((
                    str_field(section, "label")?,
                    usize_field(section, "faults")?,
                ))
            })
            .collect::<Result<Vec<_>, ProtocolError>>()?;
        Ok(Self {
            machine: str_field(value, "machine")?,
            digest: digest_field(value, "digest")?,
            total_faults: usize_field(value, "total_faults")?,
            sections,
        })
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// List the catalog.
    Machines,
    /// One lookup.
    Query(Query),
    /// Batched lookups, answered under one catalog lock.
    Batch(Vec<Query>),
}

impl Request {
    /// Renders the request as its JSON document.
    pub fn encode(&self) -> String {
        let mut obj = JsonObject::new();
        match self {
            Request::Ping => {
                obj.field("op", "ping");
            }
            Request::Machines => {
                obj.field("op", "machines");
            }
            Request::Query(query) => {
                obj.field("op", "query")
                    .field("machine", &query.machine)
                    .field("signature", query.signature)
                    .field("segments", &query.segments)
                    .field("limit", query.limit);
            }
            Request::Batch(queries) => {
                let queries: Vec<RawJson> = queries.iter().map(Query::to_json_value).collect();
                obj.field("op", "batch").field("queries", queries);
            }
        }
        obj.finish()
    }

    /// Parses a request from a received frame.
    pub fn decode(value: &JsonValue) -> Result<Self, ProtocolError> {
        match str_field(value, "op")?.as_str() {
            "ping" => Ok(Request::Ping),
            "machines" => Ok(Request::Machines),
            "query" => Ok(Request::Query(Query::from_value(value)?)),
            "batch" => {
                let queries = value
                    .get("queries")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| malformed("missing array field 'queries'"))?
                    .iter()
                    .map(Query::from_value)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Batch(queries))
            }
            other => Err(malformed(format!("unknown op '{other}'"))),
        }
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Machines`].
    Machines(Vec<MachineInfo>),
    /// Answer to [`Request::Query`].
    Result(QueryResponse),
    /// Answer to [`Request::Batch`], one response per query, in order.
    Batch(Vec<QueryResponse>),
    /// The request could not be served.
    Error(String),
}

impl Response {
    /// Renders the response as its JSON document.
    pub fn encode(&self) -> String {
        let mut obj = JsonObject::new();
        match self {
            Response::Pong => {
                obj.field("ok", true).field("op", "pong");
            }
            Response::Machines(machines) => {
                let machines: Vec<RawJson> =
                    machines.iter().map(MachineInfo::to_json_value).collect();
                obj.field("ok", true)
                    .field("op", "machines")
                    .field("machines", machines);
            }
            Response::Result(result) => {
                obj.field("ok", true)
                    .field("op", "result")
                    .field("result", result.to_json_value());
            }
            Response::Batch(results) => {
                let results: Vec<RawJson> =
                    results.iter().map(QueryResponse::to_json_value).collect();
                obj.field("ok", true)
                    .field("op", "batch")
                    .field("results", results);
            }
            Response::Error(message) => {
                obj.field("ok", false).field("error", message);
            }
        }
        obj.finish()
    }

    /// Parses a response from a received frame.
    pub fn decode(value: &JsonValue) -> Result<Self, ProtocolError> {
        if !bool_field(value, "ok")? {
            return Ok(Response::Error(str_field(value, "error")?));
        }
        match str_field(value, "op")?.as_str() {
            "pong" => Ok(Response::Pong),
            "machines" => {
                let machines = value
                    .get("machines")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| malformed("missing array field 'machines'"))?
                    .iter()
                    .map(MachineInfo::from_value)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::Machines(machines))
            }
            "result" => {
                let result = value
                    .get("result")
                    .ok_or_else(|| malformed("missing field 'result'"))?;
                Ok(Response::Result(QueryResponse::from_value(result)?))
            }
            "batch" => {
                let results = value
                    .get("results")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| malformed("missing array field 'results'"))?
                    .iter()
                    .map(QueryResponse::from_value)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::Batch(results))
            }
            other => Err(malformed(format!("unknown op '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request) {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &request.encode()).expect("write");
        let mut cursor = &buffer[..];
        let value = read_frame(&mut cursor, MAX_FRAME_BYTES)
            .expect("read")
            .expect("frame");
        assert_eq!(Request::decode(&value).expect("decode"), request);
        assert!(cursor.is_empty(), "trailing bytes");
    }

    fn round_trip_response(response: Response) {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, &response.encode()).expect("write");
        let mut cursor = &buffer[..];
        let value = read_frame(&mut cursor, MAX_FRAME_BYTES)
            .expect("read")
            .expect("frame");
        assert_eq!(Response::decode(&value).expect("decode"), response);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Machines);
        round_trip_request(Request::Query(Query::new("dk16", 0x3FF)));
        round_trip_request(Request::Query(Query {
            machine: "scf".to_string(),
            signature: u64::MAX,
            segments: Some(vec![1, u64::MAX, 3]),
            limit: Some(5),
        }));
        round_trip_request(Request::Batch(vec![
            Query::new("dk16", 1),
            Query::new("bbsse", 2),
        ]));
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Pong);
        round_trip_response(Response::Error("no such machine".to_string()));
        round_trip_response(Response::Machines(vec![MachineInfo {
            machine: "dk16".to_string(),
            digest: u64::MAX - 1,
            total_faults: 42,
            sections: vec![("stuck_at".to_string(), 42)],
        }]));
        round_trip_response(Response::Result(QueryResponse {
            machine: "dk16".to_string(),
            known_machine: true,
            reference: false,
            total_matches: 2,
            candidates: vec![RankedCandidate {
                model: "stuck_at".to_string(),
                fault: "net 7 stuck-at-1".to_string(),
                first_detect: Some(12),
                matching_segments: 3,
            }],
        }));
        round_trip_response(Response::Batch(vec![QueryResponse {
            machine: "ghost".to_string(),
            known_machine: false,
            reference: false,
            total_matches: 0,
            candidates: Vec::new(),
        }]));
    }

    #[test]
    fn eof_between_frames_is_clean_inside_is_not() {
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty, MAX_FRAME_BYTES), Ok(None)));
        let mut partial_len: &[u8] = &[0, 0];
        assert!(read_frame(&mut partial_len, MAX_FRAME_BYTES).is_err());
        let mut partial_payload: &[u8] = &[0, 0, 0, 10, b'{'];
        assert!(read_frame(&mut partial_payload, MAX_FRAME_BYTES).is_err());
    }

    /// A sink that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_of_prefix_and_payload() {
        let request = Request::Query(Query::new("dk16", 0x3FF));
        let json = request.encode();
        let mut sink = CountingWriter::default();
        write_frame(&mut sink, &json).expect("write");
        assert_eq!(sink.writes, 1);
        assert_eq!(sink.bytes[..4], (json.len() as u32).to_be_bytes());
        assert_eq!(&sink.bytes[4..], json.as_bytes());
        let mut cursor = &sink.bytes[..];
        let value = read_frame(&mut cursor, MAX_FRAME_BYTES)
            .expect("read")
            .expect("frame");
        assert_eq!(Request::decode(&value).expect("decode"), request);
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocation() {
        let mut huge: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        assert!(matches!(
            read_frame(&mut huge, MAX_FRAME_BYTES),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn digests_survive_the_hex_detour() {
        for digest in [0, 1, u64::MAX, 0x9007_1992_5474_0993] {
            let info = MachineInfo {
                machine: "m".to_string(),
                digest,
                total_faults: 0,
                sections: Vec::new(),
            };
            let value = JsonValue::parse(&info.to_json_value().0).expect("parse");
            assert_eq!(MachineInfo::from_value(&value).expect("decode"), info);
        }
    }
}

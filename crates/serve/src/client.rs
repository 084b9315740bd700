//! The blocking diagnosis client: one TCP connection, one frame out, one
//! frame back per call.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    read_frame, write_frame, MachineInfo, ProtocolError, Query, QueryResponse, Request, Response,
};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed or the server's reply was not protocol JSON.
    Protocol(ProtocolError),
    /// The server answered with an error response.
    Remote(String),
    /// The server answered with the wrong response kind for the request.
    UnexpectedResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(error) => write!(f, "{error}"),
            ClientError::Remote(message) => write!(f, "server error: {message}"),
            ClientError::UnexpectedResponse(got) => {
                write!(f, "unexpected response kind: {got}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(error: ProtocolError) -> Self {
        ClientError::Protocol(error)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(error: std::io::Error) -> Self {
        ClientError::Protocol(ProtocolError::Io(error))
    }
}

/// A blocking connection to a diagnosis server.
#[derive(Debug)]
pub struct DiagnosisClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl DiagnosisClient {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, &request.encode())?;
        let value = read_frame(&mut self.reader, crate::protocol::MAX_FRAME_BYTES)?
            .ok_or_else(|| ProtocolError::Malformed("server hung up".to_string()))?;
        match Response::decode(&value)? {
            Response::Error(message) => Err(ClientError::Remote(message)),
            response => Ok(response),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Lists the server's catalog.
    pub fn machines(&mut self) -> Result<Vec<MachineInfo>, ClientError> {
        match self.call(&Request::Machines)? {
            Response::Machines(machines) => Ok(machines),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// One diagnosis lookup.
    pub fn query(&mut self, query: &Query) -> Result<QueryResponse, ClientError> {
        match self.call(&Request::Query(query.clone()))? {
            Response::Result(result) => Ok(result),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Batched lookups (one frame each way, one catalog lock server-side).
    pub fn query_batch(&mut self, queries: &[Query]) -> Result<Vec<QueryResponse>, ClientError> {
        match self.call(&Request::Batch(queries.to_vec()))? {
            Response::Batch(results) => Ok(results),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }
}

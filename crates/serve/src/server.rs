//! The TCP diagnosis server: std-only, thread-per-connection behind a
//! bounded accept pool.
//!
//! Each accepted connection gets its own thread and a clone of the
//! [`ServiceHandle`]; the pool gate caps how many run at once — further
//! accepts *wait* (backpressure) rather than spawning unboundedly.
//! Shutdown is cooperative: [`DiagnosisServer::shutdown`] raises a flag,
//! unblocks the acceptor with a loopback connection, then joins the
//! acceptor and waits for in-flight connections to drain.

use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::protocol::{read_frame, write_frame, ProtocolError, Request, Response, MAX_FRAME_BYTES};
use crate::service::ServiceHandle;

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; the acceptor blocks (TCP
    /// backlog holds the rest) once the pool is full.
    pub max_connections: usize,
    /// Per-frame payload cap for this server, on requests and answers
    /// alike (answers are also held to [`MAX_FRAME_BYTES`]).
    pub max_frame_bytes: usize,
    /// Per-connection read timeout: an idle peer is disconnected rather
    /// than pinning a pool slot forever.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 8,
            max_frame_bytes: MAX_FRAME_BYTES,
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// The bounded connection-pool gate: a counter under a mutex plus a
/// condvar to wait on.
#[derive(Debug, Default)]
struct Pool {
    active: Mutex<usize>,
    changed: Condvar,
}

impl Pool {
    fn acquire(&self, cap: usize) {
        let mut active = match self.active.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        while *active >= cap {
            active = match self.changed.wait(active) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        *active += 1;
    }

    fn release(&self) {
        let mut active = match self.active.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        *active = active.saturating_sub(1);
        self.changed.notify_all();
    }

    fn wait_idle(&self) {
        let mut active = match self.active.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        while *active > 0 {
            active = match self.changed.wait(active) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// A running diagnosis server.  Dropping it without calling
/// [`DiagnosisServer::shutdown`] leaves the acceptor thread running for
/// the life of the process — call `shutdown` for a clean stop.
#[derive(Debug)]
pub struct DiagnosisServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    pool: Arc<Pool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl DiagnosisServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// accepting.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        handle: ServiceHandle,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(Pool::default());
        let acceptor = {
            let stop = Arc::clone(&stop);
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                accept_loop(listener, handle, config, stop, pool);
            })
        };
        Ok(Self {
            local_addr,
            stop,
            pool,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Stops accepting, waits for in-flight connections to finish, joins
    /// the acceptor thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway loopback connection; it
        // re-checks the flag per accept.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.pool.wait_idle();
    }
}

fn accept_loop(
    listener: TcpListener,
    handle: ServiceHandle,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    pool: Arc<Pool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        pool.acquire(config.max_connections);
        let handle = handle.clone();
        let pool_for_conn = Arc::clone(&pool);
        let config = config.clone();
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &handle, &config);
            pool_for_conn.release();
        });
    }
}

/// Serves one connection until EOF, a protocol violation or the read
/// timeout.  Schema-level violations get an error response before the
/// disconnect; transport errors just drop the connection.  An answer
/// larger than the frame cap is replaced by an error response and the
/// connection keeps serving.
fn serve_connection(
    stream: TcpStream,
    handle: &ServiceHandle,
    config: &ServerConfig,
) -> Result<(), ProtocolError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    let frame_cap = config.max_frame_bytes.min(MAX_FRAME_BYTES);
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let value = match read_frame(&mut reader, config.max_frame_bytes) {
            Ok(Some(value)) => value,
            Ok(None) => return Ok(()),
            Err(ProtocolError::Malformed(message)) => {
                let _ = write_frame(&mut writer, &Response::Error(message.clone()).encode());
                let _ = reader.get_ref().shutdown(Shutdown::Both);
                return Err(ProtocolError::Malformed(message));
            }
            Err(error) => return Err(error),
        };
        let response = match Request::decode(&value) {
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Machines) => Response::Machines(handle.machines()),
            Ok(Request::Query(query)) => Response::Result(handle.query(&query)),
            Ok(Request::Batch(queries)) => Response::Batch(handle.query_batch(&queries)),
            Err(error) => Response::Error(error.to_string()),
        };
        let mut encoded = response.encode();
        if encoded.len() > frame_cap {
            encoded = Response::Error(format!(
                "response of {} bytes exceeds the frame cap of {frame_cap} bytes",
                encoded.len()
            ))
            .encode();
        }
        write_frame(&mut writer, &encoded)?;
    }
}

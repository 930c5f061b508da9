//! The TCP front end: a blocking accept loop handing each connection to its
//! own handler thread, all of them sharing one [`Engine`].
//!
//! The server owns two background threads:
//!
//! * the **scheduler thread**, which runs [`Engine::serve`] — the
//!   scheduler loop, then the shutdown drain — and
//! * the **accept thread**, which spawns a handler per connection and
//!   registers it (its join handle and a clone of its socket), pruning the
//!   handlers that have finished.
//!
//! Handler threads never block decode: submissions go through
//! [`Engine::submit`] (queue mutex only) and polls read the per-request
//! handle. Shutdown is cooperative — a flag plus a self-connect to unblock
//! `accept`, then a socket shutdown that ends every registered handler's
//! blocking read — so tests can start and stop servers on ephemeral ports
//! without leaking threads, and no idle client keeps the engine alive.

use std::io::{self};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::{Engine, Rejection};
use crate::proto::{format_poll, parse_command, read_frame, write_frame, Command};

/// The live connection handlers: each one's thread and a clone of its
/// socket, through which shutdown ends the handler's blocking read.
type Handlers = Arc<Mutex<Vec<(JoinHandle<()>, TcpStream)>>>;

/// A running server; dropping it (or calling [`Server::shutdown`]) stops
/// both background threads and every connection handler.
pub struct Server {
    addr: SocketAddr,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    sched_thread: Option<JoinHandle<()>>,
    handlers: Handlers,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `engine`.
    pub fn start<A: ToSocketAddrs>(engine: Arc<Engine>, addr: A) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let sched_engine = Arc::clone(&engine);
        let sched_stop = Arc::clone(&stop);
        let sched_thread = std::thread::Builder::new()
            .name("aasd-sched".into())
            .spawn(move || sched_engine.serve(&sched_stop))?;

        let accept_engine = Arc::clone(&engine);
        let accept_stop = Arc::clone(&stop);
        let handlers = Handlers::default();
        let accept_handlers = Arc::clone(&handlers);
        let accept_thread = std::thread::Builder::new()
            .name("aasd-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Without a clone shutdown could not reach the handler.
                    let Ok(control) = stream.try_clone() else {
                        continue;
                    };
                    let engine = Arc::clone(&accept_engine);
                    let stop = Arc::clone(&accept_stop);
                    let spawned = std::thread::Builder::new()
                        .name("aasd-conn".into())
                        .spawn(move || handle_connection(stream, &engine, &stop));
                    let Ok(handler) = spawned else { continue };
                    let mut live = accept_handlers
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    live.retain(|(h, _)| !h.is_finished());
                    live.push((handler, control));
                }
            })?;

        Ok(Self {
            addr,
            engine,
            stop,
            accept_thread: Some(accept_thread),
            sched_thread: Some(sched_thread),
            handlers,
        })
    }

    /// The bound address (the actual port when started with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Stop accepting, close every client connection, cancel in-flight
    /// work, and join every thread: the accept loop, each connection
    /// handler and the scheduler. Idempotent, and complete after a wire
    /// `SHUTDOWN` too (which only sets the flag).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            // Unblock the accept loop with a throwaway self-connection.
            let _ = TcpStream::connect(self.addr);
            let _ = t.join();
        }
        // The accept loop has stopped, so the list is complete: a closed
        // socket ends each handler's blocking read (or its next write).
        let handlers =
            std::mem::take(&mut *self.handlers.lock().unwrap_or_else(PoisonError::into_inner));
        for (handler, socket) in handlers {
            let _ = socket.shutdown(Shutdown::Both);
            let _ = handler.join();
        }
        if let Some(t) = self.sched_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve one client until EOF, error, or SHUTDOWN.
fn handle_connection(mut stream: TcpStream, engine: &Engine, stop: &AtomicBool) {
    while let Ok(Some(line)) = read_frame(&mut stream) {
        let reply = match parse_command(&line) {
            Err(msg) => format!("ERR {msg}"),
            Ok(Command::Submit(req)) => match engine.submit(req) {
                Ok(handle) => format!("OK {}", handle.id),
                Err(Rejection::Busy) => "BUSY".to_string(),
                Err(Rejection::Invalid(msg)) => format!("ERR {msg}"),
            },
            Ok(Command::Poll(id)) => match engine.poll(id) {
                Some((status, tokens)) => format_poll(status, &tokens),
                None => format!("ERR unknown request {id}"),
            },
            Ok(Command::Cancel(id)) => {
                if engine.cancel(id) {
                    format!("OK {id}")
                } else {
                    format!("ERR unknown or finished request {id}")
                }
            }
            Ok(Command::Metrics) => engine.metrics().render_text(),
            Ok(Command::MetricsJson) => engine.metrics().render_json(),
            Ok(Command::Shutdown) => {
                let _ = write_frame(&mut stream, "OK 0");
                stop.store(true, Ordering::Release);
                // Kick the accept loop awake so it observes the flag.
                if let Ok(addr) = stream.local_addr() {
                    let _ = TcpStream::connect(addr);
                }
                return;
            }
        };
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// Minimal blocking client for tests, benches, and the demo binary.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(Self {
            stream: TcpStream::connect(addr)?,
        })
    }

    /// Send one command frame, read one response frame.
    pub fn roundtrip(&mut self, cmd: &str) -> io::Result<String> {
        write_frame(&mut self.stream, cmd)?;
        read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }

    /// Submit, returning the assigned id, or the raw reply on rejection.
    pub fn submit(&mut self, cmd: &str) -> io::Result<Result<u64, String>> {
        let reply = self.roundtrip(cmd)?;
        Ok(match reply.strip_prefix("OK ") {
            Some(id) => id
                .parse::<u64>()
                .map_err(|e| format!("bad id in {reply:?}: {e}")),
            None => Err(reply),
        })
    }

    /// Poll `id` until it reaches a terminal status; returns (status line,
    /// tokens).
    pub fn wait_done(&mut self, id: u64) -> io::Result<(String, Vec<u32>)> {
        loop {
            let reply = self.roundtrip(&format!("POLL {id}"))?;
            let (status, tokens) = crate::proto::parse_poll(&reply)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            use crate::request::Status;
            if matches!(status, Status::Done | Status::Cancelled) {
                let s = if status == Status::Done {
                    "done"
                } else {
                    "cancelled"
                };
                return Ok((s.to_string(), tokens));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

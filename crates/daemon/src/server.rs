//! Listener/acceptor/reader/writer threads around the
//! [`Engine`](crate::engine): everything that touches a socket.
//!
//! One acceptor thread per listener blocks in `accept`. Whoever raises
//! the drain flag — [`DaemonHandle::drain`], or the engine on a wire
//! `DRAIN` — wakes it by dialing the listener's own address once (an
//! [`AcceptWake`]), so a drain costs no polling interval and an idle
//! daemon burns no wakeups. Each accepted connection gets
//! a reader thread (socket → decoder → bounded request channel) and a
//! writer thread (bounded reply channel → encoder → socket). Readers
//! *block* on the request channel when the engine is saturated — that
//! is the design: the unread bytes stay in the kernel socket buffer and
//! the peer's sends stall, which is exactly the backpressure the wire
//! protocol promises instead of unbounded buffering.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::addr::Addr;
use crate::engine::{DaemonConfig, DaemonStats, Engine, Out, Request};
use crate::wire::Decoder;

/// How long an acceptor backs off after a failed `accept` (EMFILE and
/// the like) before trying again.
pub const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(20);

/// How long a wake dial waits to connect, and pauses before retrying.
const WAKE_RETRY: Duration = Duration::from_millis(10);

/// One live transport stream: the TCP/UDS split stops here. Public so
/// other front ends (the HTTP gateway) can serve the same dual
/// transports without duplicating the socket plumbing.
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    /// Clones the handle so reads and writes can live on different
    /// threads.
    ///
    /// # Errors
    ///
    /// The underlying socket's `try_clone` failure.
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Sets the read deadline for subsequent reads.
    ///
    /// # Errors
    ///
    /// The underlying socket's setter failure.
    pub fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }

    /// Sets the write deadline for subsequent writes.
    ///
    /// # Errors
    ///
    /// The underlying socket's setter failure.
    pub fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(d),
            Stream::Unix(s) => s.set_write_timeout(d),
        }
    }

    /// Closes both directions; unblocks a reader stuck in `read`.
    pub fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound listening socket on either transport.
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener plus the socket path to unlink on close.
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds `addr`, returning the listener and the address actually
    /// bound — with an OS-assigned port resolved, so `tcp:127.0.0.1:0`
    /// comes back as the real endpoint to dial. For Unix addresses the
    /// parent directory is created and a *stale* socket file (one no
    /// daemon answers on) is removed; a live one is `AddrInUse`.
    ///
    /// # Errors
    ///
    /// Any bind failure.
    pub fn bind(addr: &Addr) -> io::Result<(Listener, Addr)> {
        match addr {
            Addr::Tcp(hostport) => {
                let listener = TcpListener::bind(hostport.as_str())?;
                let local = listener.local_addr()?;
                Ok((Listener::Tcp(listener), Addr::Tcp(local.to_string())))
            }
            Addr::Unix(path) => {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                // A stale socket file from a dead process blocks bind;
                // connecting distinguishes stale from live.
                if path.exists() {
                    match UnixStream::connect(path) {
                        Ok(_) => {
                            return Err(io::Error::new(
                                ErrorKind::AddrInUse,
                                format!("{} already has a live listener", path.display()),
                            ));
                        }
                        Err(_) => std::fs::remove_file(path)?,
                    }
                }
                let listener = UnixListener::bind(path)?;
                Ok((
                    Listener::Unix(listener, path.clone()),
                    Addr::Unix(path.clone()),
                ))
            }
        }
    }

    /// Blocks until one connection arrives and accepts it.
    ///
    /// # Errors
    ///
    /// Any accept failure (EMFILE, ENOBUFS, ...).
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }

    /// The socket file to unlink when a Unix listener shuts down.
    pub fn unix_path(&self) -> Option<&std::path::Path> {
        match self {
            Listener::Tcp(_) => None,
            Listener::Unix(_, path) => Some(path),
        }
    }
}

/// Wakes an acceptor blocked in [`Listener::accept`] once its stop flag
/// is up: the raiser dials the listener's own address, the accept
/// returns, and the acceptor sees the flag. Shared between the raisers
/// and the acceptor, which [`close`](AcceptWake::close)s it on exit.
#[derive(Debug)]
pub struct AcceptWake {
    dial: Dial,
    /// Cleared by the acceptor as it stops; a wake is then a no-op.
    open: AtomicBool,
}

/// Where a wake dials: the bound address, with a wildcard TCP host
/// replaced by loopback of the same family.
#[derive(Debug)]
enum Dial {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl AcceptWake {
    /// The wake for `listener`.
    ///
    /// # Errors
    ///
    /// The TCP listener's `local_addr` failure.
    pub fn new(listener: &Listener) -> io::Result<AcceptWake> {
        let dial = match listener {
            Listener::Tcp(l) => {
                let mut at = l.local_addr()?;
                if at.ip().is_unspecified() {
                    at.set_ip(match at.ip() {
                        IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                        IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                    });
                }
                Dial::Tcp(at)
            }
            Listener::Unix(_, path) => Dial::Unix(path.clone()),
        };
        Ok(AcceptWake {
            dial,
            open: AtomicBool::new(true),
        })
    }

    /// Dials until one connection lands or the acceptor has stopped.
    /// A failed dial is retried after a short pause, never dropped: a
    /// dropped wake would leave `join` waiting on an accept that no
    /// one completes.
    pub fn wake(&self) {
        while self.open.load(Ordering::SeqCst) {
            let dialed = match &self.dial {
                Dial::Tcp(at) => TcpStream::connect_timeout(at, WAKE_RETRY).map(drop),
                Dial::Unix(path) => UnixStream::connect(path).map(drop),
            };
            if dialed.is_ok() {
                return;
            }
            thread::sleep(WAKE_RETRY);
        }
    }

    /// Marks the acceptor stopped; called by the acceptor itself while
    /// it still holds the listener.
    pub fn close(&self) {
        self.open.store(false, Ordering::SeqCst);
    }
}

/// The daemon-wide drain flag together with the wakes for every
/// acceptor, so raising it takes effect at once.
#[derive(Debug)]
pub(crate) struct DrainSignal {
    raised: AtomicBool,
    wakes: Arc<Vec<AcceptWake>>,
    /// The thread dialing the wakes, joined by [`DaemonHandle::join`].
    waker: Mutex<Option<JoinHandle<()>>>,
}

impl DrainSignal {
    fn new(wakes: Vec<AcceptWake>) -> Self {
        DrainSignal {
            raised: AtomicBool::new(false),
            wakes: Arc::new(wakes),
            waker: Mutex::new(None),
        }
    }

    /// Whether a drain has been requested.
    pub(crate) fn is_raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    /// Requests the drain and wakes every acceptor (once, however
    /// often it is called). The dials run on their own thread: the
    /// engine raises this flag, and an acceptor may be blocked handing
    /// the engine a connection, so the engine must never wait on a
    /// dial.
    pub(crate) fn raise(&self) {
        if self.raised.swap(true, Ordering::SeqCst) {
            return;
        }
        if !self.wakes.iter().any(|w| w.open.load(Ordering::SeqCst)) {
            return;
        }
        // Held across the spawn, so `join` cannot look before the
        // handle is stored.
        let mut slot = self.waker.lock().expect("waker slot poisoned");
        let wakes = Arc::clone(&self.wakes);
        match thread::Builder::new()
            .name("slj-daemon-wake".to_owned())
            .spawn(move || wakes.iter().for_each(AcceptWake::wake))
        {
            Ok(waker) => *slot = Some(waker),
            // No thread to spare: wake inline rather than not at all.
            Err(_) => self.wakes.iter().for_each(AcceptWake::wake),
        }
    }
}

/// The daemon entry point: bind listeners, start the engine, accept.
pub struct Daemon;

/// A running daemon. Dropping the handle does **not** stop it — call
/// [`drain`](DaemonHandle::drain) then [`join`](DaemonHandle::join).
pub struct DaemonHandle {
    /// The addresses actually bound — with OS-assigned ports resolved,
    /// so `tcp:127.0.0.1:0` comes back as the real endpoint to dial.
    pub addrs: Vec<Addr>,
    drain: Arc<DrainSignal>,
    engine: JoinHandle<DaemonStats>,
    acceptors: Vec<JoinHandle<()>>,
    unix_paths: Vec<PathBuf>,
}

impl DaemonHandle {
    /// Begins a graceful drain: listeners stop accepting, in-flight
    /// sessions finish, then the engine exits. Idempotent.
    pub fn drain(&self) {
        self.drain.raise();
    }

    /// Whether a drain has been requested (by this handle or a wire
    /// `DRAIN`).
    pub fn is_draining(&self) -> bool {
        self.drain.is_raised()
    }

    /// Waits for the drain to complete and returns the engine's
    /// lifetime counters. Call [`drain`](DaemonHandle::drain) first or
    /// this blocks until a client sends `DRAIN`.
    pub fn join(self) -> DaemonStats {
        for acceptor in self.acceptors {
            let _ = acceptor.join();
        }
        // Every acceptor is gone, so the wake dials have ended too.
        let waker = self.drain.waker.lock().expect("waker slot poisoned").take();
        if let Some(waker) = waker {
            let _ = waker.join();
        }
        let stats = self.engine.join().unwrap_or_default();
        for path in &self.unix_paths {
            let _ = std::fs::remove_file(path);
        }
        stats
    }
}

impl Daemon {
    /// Binds every address and starts the engine + acceptor threads.
    ///
    /// # Errors
    ///
    /// Any bind failure (the socket path's parent directory is created
    /// for Unix addresses; a stale socket file is removed first).
    pub fn start(addrs: &[Addr], config: DaemonConfig) -> io::Result<DaemonHandle> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                ErrorKind::InvalidInput,
                "daemon needs at least one listen address",
            ));
        }
        let mut listeners = Vec::new();
        let mut bound = Vec::new();
        let mut unix_paths = Vec::new();
        for addr in addrs {
            let (listener, local) = Listener::bind(addr)?;
            if let Some(path) = listener.unix_path() {
                unix_paths.push(path.to_path_buf());
            }
            bound.push(local);
            listeners.push(listener);
        }

        let wakes = listeners
            .iter()
            .map(AcceptWake::new)
            .collect::<io::Result<_>>()?;
        let drain = Arc::new(DrainSignal::new(wakes));
        let (request_tx, request_rx) = sync_channel::<Request>(config.request_depth);
        let reply_depth = config.reply_depth;
        let read_timeout = Duration::from_millis(config.read_timeout_ms);
        let write_timeout = Duration::from_millis(config.write_timeout_ms);
        let idle_timeouts = config.idle_timeouts;
        let max_frame = config.max_frame;

        let engine = {
            let requests = request_rx;
            let drain = Arc::clone(&drain);
            thread::Builder::new()
                .name("slj-daemon-engine".to_owned())
                .spawn(move || Engine::new(config, requests, drain).run())
                .expect("spawn engine thread")
        };

        let conn_ids = Arc::new(AtomicU64::new(0));
        let mut acceptors = Vec::new();
        for (index, listener) in listeners.into_iter().enumerate() {
            let requests = request_tx.clone();
            let drain = Arc::clone(&drain);
            let conn_ids = Arc::clone(&conn_ids);
            let handle = thread::Builder::new()
                .name("slj-daemon-accept".to_owned())
                .spawn(move || {
                    accept_loop(
                        listener,
                        requests,
                        &drain,
                        index,
                        conn_ids,
                        reply_depth,
                        read_timeout,
                        write_timeout,
                        idle_timeouts,
                        max_frame,
                    )
                })
                .expect("spawn acceptor thread");
            acceptors.push(handle);
        }
        // The engine exits when every request sender hangs up *or* a
        // drain completes; acceptors hold clones until they stop.
        drop(request_tx);

        Ok(DaemonHandle {
            addrs: bound,
            drain,
            engine,
            acceptors,
            unix_paths,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: Listener,
    requests: SyncSender<Request>,
    drain: &DrainSignal,
    index: usize,
    conn_ids: Arc<AtomicU64>,
    reply_depth: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    idle_timeouts: u32,
    max_frame: usize,
) {
    loop {
        let accepted = listener.accept();
        if drain.is_raised() {
            break;
        }
        match accepted {
            Ok(stream) => {
                let conn = conn_ids.fetch_add(1, Ordering::SeqCst);
                if spawn_connection(
                    conn,
                    stream,
                    &requests,
                    reply_depth,
                    read_timeout,
                    write_timeout,
                    idle_timeouts,
                    max_frame,
                )
                .is_err()
                {
                    // The engine is gone; nothing left to accept for.
                    break;
                }
            }
            Err(_) => thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
    drain.wakes[index].close();
    if let Some(path) = listener.unix_path() {
        let _ = std::fs::remove_file(path);
    }
}

/// Registers the connection with the engine and starts its reader and
/// writer threads. Returns `Err` only when the engine has hung up.
#[allow(clippy::too_many_arguments)]
fn spawn_connection(
    conn: u64,
    stream: Stream,
    requests: &SyncSender<Request>,
    reply_depth: usize,
    read_timeout: Duration,
    write_timeout: Duration,
    idle_timeouts: u32,
    max_frame: usize,
) -> Result<(), ()> {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(write_timeout));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return Ok(()), // connection stillborn; accept the next
    };
    let (reply_tx, reply_rx) = sync_channel::<Out>(reply_depth);
    requests
        .send(Request::Connect {
            conn,
            writer: reply_tx,
        })
        .map_err(|_| ())?;
    let reader_requests = requests.clone();
    thread::Builder::new()
        .name(format!("slj-daemon-read-{conn}"))
        .spawn(move || reader_loop(conn, stream, &reader_requests, idle_timeouts, max_frame))
        .expect("spawn reader thread");
    thread::Builder::new()
        .name(format!("slj-daemon-write-{conn}"))
        .spawn(move || writer_loop(write_half, &reply_rx))
        .expect("spawn writer thread");
    Ok(())
}

/// Socket → decoder → request channel. A send into the bounded channel
/// blocks when the engine is saturated; the socket keeps its unread
/// bytes and the peer stalls — backpressure, not buffering.
fn reader_loop(
    conn: u64,
    mut stream: Stream,
    requests: &SyncSender<Request>,
    idle_timeouts: u32,
    max_frame: usize,
) {
    let mut decoder = Decoder::new(max_frame);
    let mut chunk = [0u8; 64 * 1024];
    let mut quiet_polls: u32 = 0;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                let _ = requests.send(Request::Gone { conn });
                return;
            }
            Ok(n) => {
                quiet_polls = 0;
                decoder.push(&chunk[..n]);
                loop {
                    match decoder.next_msg() {
                        Ok(Some(msg)) => {
                            if requests.send(Request::Msg { conn, msg }).is_err() {
                                return; // engine gone
                            }
                        }
                        Ok(None) => break,
                        Err(err) => {
                            // Framing is lost for good: report and stop
                            // reading. The engine replies with a typed
                            // ERROR and closes via the writer.
                            let _ = requests.send(Request::BadWire { conn, err });
                            return;
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                quiet_polls = quiet_polls.saturating_add(1);
                if idle_timeouts > 0 && quiet_polls >= idle_timeouts {
                    let _ = requests.send(Request::Idle { conn });
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                let _ = requests.send(Request::Gone { conn });
                return;
            }
        }
    }
}

/// Reply channel → encoder → socket. Exits on `Close`, channel
/// disconnect (engine dropped the connection) or write failure (the
/// write deadline turns a wedged peer into an error here).
fn writer_loop(mut stream: Stream, replies: &Receiver<Out>) {
    let mut buf = Vec::new();
    while let Ok(out) = replies.recv() {
        match out {
            Out::Msg(msg) => {
                buf.clear();
                crate::wire::encode(&msg, &mut buf);
                if stream.write_all(&buf).is_err() {
                    break;
                }
            }
            Out::Close => break,
        }
    }
    let _ = stream.flush();
    stream.shutdown();
}

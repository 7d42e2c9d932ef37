//! Non-blocking, length-prefixed TCP front over the in-process serving
//! engine.
//!
//! Wire format (all little-endian):
//!
//! ```text
//! request  := u32 len | u8 opcode(=1) | u8 mode(0 default,1 Full,2 Sparse)
//!             | u16 reserved(=0) | f64 fpr_budget | u32 deadline_ms(0=1s)
//!             | u32 n_terms | n_terms × u64
//! response := u32 len | u8 status | u32 tier | u32 n_docs | n_docs × u32
//! status   := 0 ok | 1 overloaded | 2 deadline exceeded | 3 bad request
//!
//! stats-request  := u32 len(=1) | u8 opcode(=2)
//! stats-response := u32 len | u8 status(=0) | utf8 text
//!
//! hello-request  := u32 len(=1) | u8 opcode(=3)
//! hello-response := u32 len | u8 status(=0) | manifest bytes
//!
//! mutate-request  := u32 len | u8 opcode(=4) | 3 × u8 reserved(=0)
//!                    | u32 name_len | name utf8 | u32 n_terms | n_terms × u64
//! mutate-response := u32 len | u8 status(=0) | u32 doc_id | u64 epoch
//!                  | u32 len | u8 status(=5) | utf8 reason   (rejected)
//! ```
//!
//! `len` counts the bytes after the length field. One connection carries any
//! number of request/response pairs in order; closing the write side (or the
//! whole socket) ends the session. The `STATS` opcode dumps the live
//! [`crate::ServerStats`] (tier counters, result-cache counters, slow-query
//! log) as plain text — `printf`-debuggable with `nc`. The `HELLO` opcode
//! returns the opaque node manifest registered via [`ServeOptions`] (a
//! cluster shard announces its shard id, replica id, doc-id range and
//! catalog fingerprint this way); a server with no manifest answers `HELLO`
//! with the bad-request status but keeps the connection open.
//!
//! [`serve_tcp`] is a single-threaded **readiness reactor**, not a
//! thread-per-connection accept loop: every socket is non-blocking, and one
//! thread multiplexes accepts, frame decode, admission (through the same
//! [`ServerHandle`] the in-process API uses — quiet lanes answer inline
//! during the dispatch call itself), collection of worker-queued replies
//! ([`crate::PendingReply::try_wait`]) and writes across all connections.
//! Thousands of idle clients cost a few hundred bytes of buffer each, not a
//! pinned thread. Replies on one connection always flow in request order.
//! When `stop` is raised the reactor returns promptly, dropping every
//! connection — including ones stalled mid-frame, which therefore cannot
//! block shutdown.
//!
//! The same loop (`run_reactor`) drives all three fronts — this catalog
//! front, the live front ([`crate::serve_live_tcp`]) and the multi-tenant
//! front ([`crate::serve_tenant_tcp`]); they differ only in their listeners,
//! their per-connection pump and an optional idle hook. A pass accepts,
//! pumps every connection and, when nothing moved, blocks in `ppoll(2)` on
//! the listeners plus each connection's *interest*: readable while the pump
//! would read (not half-closed, closing or over the pipeline and frame
//! caps), writable while encoded bytes are unsent, and no descriptor at all
//! when it wants neither — so a half-closed or closing peer can never wake
//! the loop. The wait's timeout is 50 µs while a worker-queued reply is in
//! flight (the one event that is not a socket) and 1 ms otherwise, the
//! cadence for the stop flag and the idle hook. Off Linux the wait sleeps
//! its timeout.

use crate::server::{PendingReply, QueryOptions, QueryReply, ServerError, ServerHandle};
use rambo_core::QueryMode;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Upper bound on a frame payload (16 MiB ≈ two million query terms): a
/// corrupt or hostile length prefix must not become an allocation.
pub(crate) const MAX_FRAME_BYTES: usize = 16 << 20;

pub(crate) const OPCODE_QUERY: u8 = 1;
pub(crate) const OPCODE_STATS: u8 = 2;
pub(crate) const OPCODE_HELLO: u8 = 3;
/// Live-insert opcode, served only by the mutable-index front
/// ([`crate::serve_live_tcp`]); the read-only catalog front answers it with
/// the bad-request status.
pub(crate) const OPCODE_MUTATE: u8 = 4;

pub(crate) const STATUS_OK: u8 = 0;
pub(crate) const STATUS_OVERLOADED: u8 = 1;
pub(crate) const STATUS_DEADLINE: u8 = 2;
pub(crate) const STATUS_BAD_REQUEST: u8 = 3;
/// A well-formed mutate the index refused (duplicate name, id space
/// exhausted). Unlike `STATUS_BAD_REQUEST` the stream is not
/// desynchronized, so the connection stays open.
pub(crate) const STATUS_MUTATE_REJECTED: u8 = 5;

/// Readiness-wait timeout with a worker-queued reply in flight: short, so a
/// worker's answer is picked up within ~a batch collection window.
const REACTOR_BUSY_WAIT: Duration = Duration::from_micros(50);
/// Readiness-wait timeout with nothing in flight: the cadence at which the
/// stop flag and the idle hook are checked.
const REACTOR_IDLE_WAIT: Duration = Duration::from_millis(1);
/// Per-read chunk size.
const READ_CHUNK: usize = 16 << 10;
/// Per-connection cap on decoded-but-unanswered frames: a client that
/// pipelines faster than the server drains stops being read (TCP
/// backpressure) instead of growing an unbounded reply queue.
pub(crate) const MAX_PIPELINED: usize = 1024;

/// A reply owed to the client, in request order.
pub(crate) enum PendingFrame {
    /// Already encoded (errors, stats dumps, inline/cached completions).
    Ready(Vec<u8>),
    /// Waiting on an evaluator worker.
    Query(PendingReply),
}

/// One multiplexed connection's state. Shared with the mutable-index front
/// (`crate::live`), whose reactor reuses the same read/decode/write
/// plumbing with an always-immediate dispatch.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Raw bytes read but not yet parsed into frames.
    pub(crate) inbuf: Vec<u8>,
    /// Replies owed, in request order.
    pub(crate) pending: VecDeque<PendingFrame>,
    /// Encoded bytes not yet accepted by the socket.
    pub(crate) outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written.
    pub(crate) sent: usize,
    /// Close after flushing what is owed (protocol error path).
    pub(crate) closing: bool,
    /// Peer closed its write side.
    pub(crate) read_closed: bool,
    /// Ready to be dropped.
    pub(crate) dead: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            outbuf: Vec::new(),
            sent: 0,
            closing: false,
            read_closed: false,
            dead: false,
        })
    }

    /// The pump would read from the socket: not half-closed, closing or
    /// dead, and under the pipeline and frame-size caps.
    fn wants_read(&self) -> bool {
        !self.read_closed
            && !self.closing
            && !self.dead
            && self.pending.len() < MAX_PIPELINED
            && self.inbuf.len() < MAX_FRAME_BYTES + 4
    }

    /// Encoded reply bytes are waiting for the socket to take them.
    fn wants_write(&self) -> bool {
        self.sent < self.outbuf.len()
    }
}

/// Shared read phase of every reactor pump (catalog, live and tenant
/// fronts): pull what the socket has into `inbuf`, bounded by the pipeline
/// cap and the frame-size ceiling (backpressure by unread socket). Marks
/// the connection dead on hard I/O errors. Returns whether bytes moved.
pub(crate) fn conn_read(conn: &mut Conn) -> bool {
    let mut progress = false;
    // One zeroed stack chunk per call, copied out by the bytes read. Growing
    // `inbuf` by a zeroed chunk per attempt is an element-wise fill in
    // unoptimized builds, which dominated an idle pass there.
    let mut chunk = [0u8; READ_CHUNK];
    while conn.wants_read() {
        match conn.stream.read(&mut chunk) {
            Ok(0) => conn.read_closed = true,
            Ok(n) => {
                conn.inbuf.extend_from_slice(&chunk[..n]);
                progress = true;
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return progress;
            }
        }
        break;
    }
    progress
}

/// Shared write/teardown phase of every reactor pump: push `outbuf` until
/// the socket stops taking bytes, then retire the connection once
/// everything owed is flushed after a protocol error (`closing`) or a
/// half-closed peer. Returns whether bytes moved.
pub(crate) fn conn_flush(conn: &mut Conn) -> bool {
    let mut progress = false;
    while conn.wants_write() {
        match conn.stream.write(&conn.outbuf[conn.sent..]) {
            Ok(0) => {
                conn.dead = true;
                return progress;
            }
            Ok(n) => {
                conn.sent += n;
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return progress;
            }
        }
    }
    if conn.sent == conn.outbuf.len() && conn.sent > 0 {
        conn.outbuf.clear();
        conn.sent = 0;
    }
    let flushed = conn.pending.is_empty() && conn.sent == conn.outbuf.len();
    if flushed && (conn.closing || conn.read_closed) {
        conn.dead = true;
    }
    progress
}

/// Optional behaviors of the TCP front ([`serve_tcp_with`]).
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Opaque manifest bytes returned to `HELLO` requests. A cluster shard
    /// node announces its identity (shard id, replica id, doc-id range,
    /// catalog fingerprint — see the `rambo-cluster` crate's
    /// `NodeManifest`) this way; `None` answers `HELLO` with the
    /// bad-request status.
    pub manifest: Option<Vec<u8>>,
}

/// Serve the handle over TCP until `stop` is set, multiplexing every
/// connection on the calling thread (see the module docs for the reactor
/// design). Returns after the stop flag is observed; all connections —
/// idle, mid-frame, or stalled — are dropped at that point, so a dead
/// client can never block shutdown.
///
/// # Errors
/// Propagates listener configuration errors and fatal accept failures (the
/// latter also raise `stop`, so a co-running in-process workload winds down
/// instead of serving a listener-less process forever); per-connection I/O
/// errors only end that connection.
pub fn serve_tcp(
    handle: &ServerHandle<'_>,
    listener: TcpListener,
    stop: &AtomicBool,
) -> io::Result<()> {
    serve_tcp_with(handle, listener, stop, &ServeOptions::default())
}

/// [`serve_tcp`] with front options — currently the `HELLO` manifest a
/// cluster shard node registers so a coordinator can discover its identity.
///
/// # Errors
/// See [`serve_tcp`].
pub fn serve_tcp_with(
    handle: &ServerHandle<'_>,
    listener: TcpListener,
    stop: &AtomicBool,
    options: &ServeOptions,
) -> io::Result<()> {
    run_reactor(
        &[&listener],
        stop,
        |_, conn| pump(conn, handle, options),
        || false,
    )
}

/// The one reactor loop behind every TCP front. Each pass accepts on every
/// listener, runs `pump` over every connection (with the index of the
/// listener it arrived on) and drops the dead ones. A pass that moved
/// nothing runs `idle` — upkeep that reports whether it did any work — and,
/// if that did nothing either, blocks until a socket is ready or the
/// timeout passes (see the module docs). Returns once `stop` is observed.
///
/// # Errors
/// Listener configuration errors, and fatal accept failures, which also
/// raise `stop`.
pub(crate) fn run_reactor(
    listeners: &[&TcpListener],
    stop: &AtomicBool,
    mut pump: impl FnMut(usize, &mut Conn) -> bool,
    mut idle: impl FnMut() -> bool,
) -> io::Result<()> {
    for listener in listeners {
        listener.set_nonblocking(true)?;
    }
    let mut conns: Vec<(usize, Conn)> = Vec::new();
    let mut fds = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let mut progress = false;
        for (origin, listener) in listeners.iter().enumerate() {
            match accept_all(listener, origin, &mut conns) {
                Ok(accepted) => progress |= accepted,
                Err(e) => {
                    stop.store(true, Ordering::Relaxed);
                    return Err(e);
                }
            }
        }
        for (origin, conn) in &mut conns {
            progress |= pump(*origin, conn);
        }
        conns.retain(|(_, c)| !c.dead);
        if progress || idle() {
            continue;
        }
        let inflight = conns.iter().any(|(_, c)| !c.pending.is_empty());
        let timeout = if inflight {
            REACTOR_BUSY_WAIT
        } else {
            REACTOR_IDLE_WAIT
        };
        wait_ready(listeners, conns.iter().map(|(_, c)| c), timeout, &mut fds);
    }
    Ok(())
}

/// Drain one listener's accept backlog into the connection list, tagging
/// each connection with the listener's index. Returns whether any arrived.
fn accept_all(
    listener: &TcpListener,
    origin: usize,
    conns: &mut Vec<(usize, Conn)>,
) -> io::Result<bool> {
    let mut accepted = false;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if let Ok(conn) = Conn::new(stream) {
                    conns.push((origin, conn));
                    accepted = true;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(accepted),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Block until a listener has a connection to accept, a connection's
/// interest is ready, or `timeout` passes. `fds` is scratch reused across
/// passes.
fn wait_ready<'a>(
    listeners: &[&TcpListener],
    conns: impl Iterator<Item = &'a Conn>,
    timeout: Duration,
    fds: &mut Vec<sys::PollFd>,
) {
    fds.clear();
    fds.extend(listeners.iter().map(|l| sys::PollFd::new(*l, true, false)));
    fds.extend(conns.map(|c| sys::PollFd::new(&c.stream, c.wants_read(), c.wants_write())));
    sys::wait(fds, timeout);
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    //! The readiness wait: `ppoll(2)` through the C library std already
    //! links.
    //!
    //! Unsafe policy: this module holds the crate's only unsafe code, one
    //! foreign call. [`PollFd`] mirrors C's `struct pollfd` and its fields
    //! stay private, so safe code can only build entries the kernel
    //! accepts; the call's safety argument sits inline.

    use std::io;
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::time::Duration;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;

    /// One `struct pollfd`: a descriptor and the events waited for.
    #[repr(C)]
    pub(crate) struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    /// `struct timespec` as glibc's `ppoll` symbol takes it (`time_t` and
    /// the nanosecond field are both `long` there).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    impl PollFd {
        /// Wait on `socket` for the given directions. With neither the
        /// entry holds descriptor -1, which the kernel skips — not even
        /// hang-up or error is reported for it.
        pub(crate) fn new(socket: &impl AsRawFd, read: bool, write: bool) -> Self {
            let events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
            Self {
                fd: if events == 0 { -1 } else { socket.as_raw_fd() },
                events,
                revents: 0,
            }
        }
    }

    /// Block until an entry is ready or `timeout` passes. A signal ends
    /// the wait early; any other failure sleeps the timeout instead, so
    /// the caller's loop degrades to a nap rather than a spin.
    pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) {
        let ts = Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            // Below 10^9, so it fits a 32-bit `long` too.
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `fds.len()`
        // initialized `repr(C)` entries laid out as `struct pollfd`, and
        // the kernel writes only their `revents` fields; `usize` and
        // `unsigned long` have the same width on Linux, so `nfds` is
        // exact. `ts` is a valid timespec (`tv_nsec` < 10^9) that lives
        // across the call and is only read. A null `sigmask` leaves the
        // signal mask unchanged. Descriptors need no liveness argument:
        // a closed one is reported as POLLNVAL, never dereferenced.
        let rc = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if rc < 0 && io::Error::last_os_error().kind() != io::ErrorKind::Interrupted {
            std::thread::sleep(timeout);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! The readiness wait off Linux: sleep the timeout (the loop's only
    //! readiness signal there is its next pass).

    use std::time::Duration;

    pub(crate) struct PollFd;

    impl PollFd {
        pub(crate) fn new<S>(_socket: &S, _read: bool, _write: bool) -> Self {
            Self
        }
    }

    pub(crate) fn wait(_fds: &mut [PollFd], timeout: Duration) {
        std::thread::sleep(timeout);
    }
}

/// One reactor pass over a connection: read what is available, decode and
/// dispatch complete frames, poll owed replies in order, write what is
/// flushed. Returns true when any byte or frame moved.
fn pump(conn: &mut Conn, handle: &ServerHandle<'_>, options: &ServeOptions) -> bool {
    // Read until the socket runs dry — but stop decoding ahead of a client
    // that has MAX_PIPELINED answers outstanding (backpressure by unread
    // socket, mirroring the admission queue's own bound).
    let mut progress = conn_read(conn);
    if conn.dead {
        return progress;
    }

    // Decode complete frames and dispatch them.
    let mut consumed = 0;
    while !conn.closing && conn.pending.len() < MAX_PIPELINED {
        let avail = &conn.inbuf[consumed..];
        if avail.len() < 4 {
            break;
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            conn.pending.push_back(PendingFrame::Ready(encode_response(
                STATUS_BAD_REQUEST,
                0,
                &[],
            )));
            conn.closing = true;
            break;
        }
        if avail.len() < 4 + len {
            break;
        }
        dispatch(conn, handle, options, consumed + 4, len);
        consumed += 4 + len;
        progress = true;
    }
    if consumed > 0 {
        conn.inbuf.drain(..consumed);
    }

    // Poll owed replies strictly in request order.
    while let Some(front) = conn.pending.front_mut() {
        let frame = match front {
            PendingFrame::Ready(bytes) => std::mem::take(bytes),
            PendingFrame::Query(reply) => match reply.try_wait() {
                None => break,
                Some(Ok(QueryReply { docs, tier })) => {
                    encode_response(STATUS_OK, tier as u32, &docs)
                }
                Some(Err(ServerError::Overloaded { tier })) => {
                    encode_response(STATUS_OVERLOADED, tier as u32, &[])
                }
                Some(Err(ServerError::DeadlineExceeded { tier })) => {
                    encode_response(STATUS_DEADLINE, tier as u32, &[])
                }
                Some(Err(ServerError::UnknownTier(_) | ServerError::Disconnected)) => {
                    conn.closing = true;
                    encode_response(STATUS_BAD_REQUEST, 0, &[])
                }
            },
        };
        conn.outbuf.extend_from_slice(&frame);
        conn.pending.pop_front();
        progress = true;
    }

    // Write what the socket will take, then close once everything owed is
    // flushed after a protocol error or a half-closed peer.
    progress | conn_flush(conn)
}

/// Dispatch one complete frame (`len` bytes at `offset` in the inbuf).
fn dispatch(
    conn: &mut Conn,
    handle: &ServerHandle<'_>,
    options: &ServeOptions,
    offset: usize,
    len: usize,
) {
    let payload = &conn.inbuf[offset..offset + len];
    if len == 1 && payload[0] == OPCODE_STATS {
        let text = handle.stats().to_string();
        let mut frame = Vec::with_capacity(4 + 1 + text.len());
        frame.extend_from_slice(&(1 + text.len() as u32).to_le_bytes());
        frame.push(STATUS_OK);
        frame.extend_from_slice(text.as_bytes());
        conn.pending.push_back(PendingFrame::Ready(frame));
        return;
    }
    if len == 1 && payload[0] == OPCODE_HELLO {
        // A well-formed HELLO on a manifest-less server is answered with
        // the bad-request status but does NOT desynchronize the stream, so
        // the connection stays open (unlike the parse-failure path below).
        let frame = match &options.manifest {
            Some(manifest) => {
                let mut frame = Vec::with_capacity(4 + 1 + manifest.len());
                frame.extend_from_slice(&(1 + manifest.len() as u32).to_le_bytes());
                frame.push(STATUS_OK);
                frame.extend_from_slice(manifest);
                frame
            }
            None => {
                let mut frame = Vec::with_capacity(5);
                frame.extend_from_slice(&1u32.to_le_bytes());
                frame.push(STATUS_BAD_REQUEST);
                frame
            }
        };
        conn.pending.push_back(PendingFrame::Ready(frame));
        return;
    }
    match parse_request(payload) {
        None => {
            // A frame that fails to parse may have desynchronized the
            // stream; answer and close rather than guess at recovery.
            conn.pending.push_back(PendingFrame::Ready(encode_response(
                STATUS_BAD_REQUEST,
                0,
                &[],
            )));
            conn.closing = true;
        }
        Some((terms, opts)) => match handle.submit(&terms, &opts) {
            Ok(reply) => conn.pending.push_back(PendingFrame::Query(reply)),
            Err(ServerError::Overloaded { tier }) => {
                conn.pending.push_back(PendingFrame::Ready(encode_response(
                    STATUS_OVERLOADED,
                    tier as u32,
                    &[],
                )));
            }
            Err(ServerError::DeadlineExceeded { tier }) => {
                conn.pending.push_back(PendingFrame::Ready(encode_response(
                    STATUS_DEADLINE,
                    tier as u32,
                    &[],
                )));
            }
            Err(ServerError::UnknownTier(_) | ServerError::Disconnected) => {
                conn.pending.push_back(PendingFrame::Ready(encode_response(
                    STATUS_BAD_REQUEST,
                    0,
                    &[],
                )));
                conn.closing = true;
            }
        },
    }
}

/// Decode a request payload into terms and options.
pub(crate) fn parse_request(payload: &[u8]) -> Option<(Vec<u64>, QueryOptions)> {
    if payload.len() < 20 {
        return None;
    }
    let opcode = payload[0];
    let mode = match payload[1] {
        0 => None,
        1 => Some(QueryMode::Full),
        2 => Some(QueryMode::Sparse),
        _ => return None,
    };
    if opcode != OPCODE_QUERY || payload[2] != 0 || payload[3] != 0 {
        return None;
    }
    let fpr_budget = f64::from_le_bytes(payload[4..12].try_into().ok()?);
    if !(0.0..=1.0).contains(&fpr_budget) {
        return None;
    }
    let deadline_ms = u32::from_le_bytes(payload[12..16].try_into().ok()?);
    let n_terms = u32::from_le_bytes(payload[16..20].try_into().ok()?) as usize;
    let body = &payload[20..];
    if body.len() != n_terms * 8 {
        return None;
    }
    let terms = body
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect();
    let opts = QueryOptions {
        fpr_budget,
        deadline: if deadline_ms == 0 {
            Duration::from_secs(1)
        } else {
            Duration::from_millis(u64::from(deadline_ms))
        },
        mode,
        tier: None,
    };
    Some((terms, opts))
}

/// Decode a mutate payload into a document name and its terms.
pub(crate) fn parse_mutate(payload: &[u8]) -> Option<(String, Vec<u64>)> {
    if payload.len() < 12 || payload[0] != OPCODE_MUTATE {
        return None;
    }
    if payload[1] != 0 || payload[2] != 0 || payload[3] != 0 {
        return None;
    }
    let name_len = u32::from_le_bytes(payload[4..8].try_into().ok()?) as usize;
    let rest = &payload[8..];
    if rest.len() < name_len + 4 {
        return None;
    }
    let name = std::str::from_utf8(&rest[..name_len]).ok()?.to_owned();
    if name.is_empty() {
        return None;
    }
    let n_terms = u32::from_le_bytes(rest[name_len..name_len + 4].try_into().ok()?) as usize;
    let body = &rest[name_len + 4..];
    if body.len() != n_terms * 8 {
        return None;
    }
    let terms = body
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect();
    Some((name, terms))
}

/// Encode a successful mutate response (document id + structural epoch).
pub(crate) fn encode_mutate_ok(doc_id: u32, epoch: u64) -> Vec<u8> {
    let len = 1 + 4 + 8;
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.push(STATUS_OK);
    frame.extend_from_slice(&doc_id.to_le_bytes());
    frame.extend_from_slice(&epoch.to_le_bytes());
    frame
}

/// Encode a mutate rejection (the index refused; connection stays open).
pub(crate) fn encode_mutate_rejected(reason: &str) -> Vec<u8> {
    let len = 1 + reason.len();
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.push(STATUS_MUTATE_REJECTED);
    frame.extend_from_slice(reason.as_bytes());
    frame
}

/// Encode one response frame.
pub(crate) fn encode_response(status: u8, tier: u32, docs: &[u32]) -> Vec<u8> {
    let len = 1 + 4 + 4 + docs.len() * 4;
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.push(status);
    frame.extend_from_slice(&tier.to_le_bytes());
    frame.extend_from_slice(&(docs.len() as u32).to_le_bytes());
    for &d in docs {
        frame.extend_from_slice(&d.to_le_bytes());
    }
    frame
}

/// Client-side error for [`TcpClient`].
#[derive(Debug)]
pub enum TcpClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server answered with a non-OK status.
    Server(ServerError),
    /// A well-formed mutate the server's index refused (duplicate document
    /// name, exhausted id space). The connection remains usable.
    Rejected(String),
    /// The server sent a malformed or unknown frame.
    Protocol(String),
}

impl std::fmt::Display for TcpClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Server(e) => write!(f, "server rejected the query: {e}"),
            Self::Rejected(msg) => write!(f, "server rejected the mutation: {msg}"),
            Self::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for TcpClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Server(e) => Some(e),
            Self::Rejected(_) | Self::Protocol(_) => None,
        }
    }
}

impl From<io::Error> for TcpClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Minimal blocking client for the wire protocol (one in-flight query per
/// connection; open several clients for concurrency).
///
/// The client remembers its peer address and timeouts, so a dead peer can
/// neither block a caller indefinitely (connect/read/write timeouts, see
/// [`TcpClient::connect_with_timeout`] and [`TcpClient::set_io_timeout`])
/// nor strand the client permanently ([`TcpClient::reconnect`] opens a
/// fresh connection to the same peer with the same timeouts). This is what
/// a cluster coordinator's per-shard connection pools are built from.
#[derive(Debug)]
pub struct TcpClient {
    stream: TcpStream,
    /// Peer as resolved at connect time — the `reconnect` target.
    peer: SocketAddr,
    /// Connect timeout to reuse on `reconnect` (`None` = OS default).
    connect_timeout: Option<Duration>,
    /// Read+write timeout to reapply on `reconnect` (`None` = block).
    io_timeout: Option<Duration>,
}

impl TcpClient {
    /// Connect to a serving endpoint with the OS default connect timeout
    /// and blocking (unbounded) reads and writes.
    ///
    /// # Errors
    /// Propagates connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        Ok(Self {
            stream,
            peer,
            connect_timeout: None,
            io_timeout: None,
        })
    }

    /// Connect with an upper bound on connection establishment (tried
    /// against each resolved address in turn) — an unreachable or
    /// black-holed peer fails within `timeout` per address instead of
    /// hanging in the kernel's default SYN retry schedule.
    ///
    /// # Errors
    /// Propagates resolution failures and the last address's connect error.
    pub fn connect_with_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    let peer = stream.peer_addr()?;
                    return Ok(Self {
                        stream,
                        peer,
                        connect_timeout: Some(timeout),
                        io_timeout: None,
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// Bound every read and write on the connection: a peer that accepts a
    /// request but never answers (or stops draining its socket) turns into
    /// a timed-out [`TcpClientError::Io`] instead of blocking the caller
    /// forever. `None` restores unbounded blocking I/O. The setting is
    /// remembered and reapplied across [`TcpClient::reconnect`].
    ///
    /// # Errors
    /// Propagates the socket option errors (`Some(Duration::ZERO)` is
    /// rejected by the standard library).
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        self.io_timeout = timeout;
        Ok(())
    }

    /// The peer address this client connected (and reconnects) to.
    #[must_use]
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Drop the current connection and open a fresh one to the same peer,
    /// reusing the remembered connect and I/O timeouts. Any in-flight
    /// request on the old connection is abandoned — after a timed-out
    /// [`TcpClient::query`] the stream may hold a stale half-frame, so
    /// reconnecting is the only way to make the client usable again.
    ///
    /// # Errors
    /// Propagates connection errors; on error the client keeps the old
    /// (dead) stream and may be retried.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let stream = match self.connect_timeout {
            Some(t) => TcpStream::connect_timeout(&self.peer, t)?,
            None => TcpStream::connect(self.peer)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.io_timeout)?;
        stream.set_write_timeout(self.io_timeout)?;
        self.stream = stream;
        Ok(())
    }

    /// Fetch the server's `HELLO` manifest (the opaque bytes registered via
    /// [`ServeOptions::manifest`] — a cluster shard's identity announcement).
    ///
    /// # Errors
    /// [`TcpClientError::Protocol`] when the server has no manifest,
    /// [`TcpClientError::Io`] on transport failures.
    pub fn hello(&mut self) -> Result<Vec<u8>, TcpClientError> {
        let mut frame = Vec::with_capacity(5);
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.push(OPCODE_HELLO);
        self.stream.write_all(&frame)?;
        let payload = self.read_frame()?;
        if payload.is_empty() || payload[0] != STATUS_OK {
            return Err(TcpClientError::Protocol(
                "server has no HELLO manifest".into(),
            ));
        }
        Ok(payload[1..].to_vec())
    }

    /// Query with an FPR budget and a deadline.
    ///
    /// # Errors
    /// [`TcpClientError::Server`] for overload/deadline rejections,
    /// [`TcpClientError::Io`]/[`TcpClientError::Protocol`] on transport or
    /// framing failures.
    pub fn query(
        &mut self,
        terms: &[u64],
        fpr_budget: f64,
        deadline: Duration,
    ) -> Result<QueryReply, TcpClientError> {
        self.query_mode(terms, fpr_budget, deadline, None)
    }

    /// [`TcpClient::query`] with an explicit evaluation mode.
    ///
    /// # Errors
    /// See [`TcpClient::query`].
    pub fn query_mode(
        &mut self,
        terms: &[u64],
        fpr_budget: f64,
        deadline: Duration,
        mode: Option<QueryMode>,
    ) -> Result<QueryReply, TcpClientError> {
        let deadline_ms = u32::try_from(deadline.as_millis().max(1)).unwrap_or(u32::MAX);
        let len = 20 + terms.len() * 8;
        let mut frame = Vec::with_capacity(4 + len);
        frame.extend_from_slice(&(len as u32).to_le_bytes());
        frame.push(OPCODE_QUERY);
        frame.push(match mode {
            None => 0,
            Some(QueryMode::Full) => 1,
            Some(QueryMode::Sparse) => 2,
        });
        frame.extend_from_slice(&[0, 0]); // reserved
        frame.extend_from_slice(&fpr_budget.to_le_bytes());
        frame.extend_from_slice(&deadline_ms.to_le_bytes());
        frame.extend_from_slice(&(terms.len() as u32).to_le_bytes());
        for &t in terms {
            frame.extend_from_slice(&t.to_le_bytes());
        }
        self.stream.write_all(&frame)?;

        let payload = self.read_frame()?;
        if payload.len() < 9 {
            return Err(TcpClientError::Protocol(format!(
                "response frame length {} out of range",
                payload.len()
            )));
        }
        let status = payload[0];
        let tier = u32::from_le_bytes(payload[1..5].try_into().expect("4 bytes")) as usize;
        let n_docs = u32::from_le_bytes(payload[5..9].try_into().expect("4 bytes")) as usize;
        match status {
            STATUS_OK => {}
            STATUS_OVERLOADED => {
                return Err(TcpClientError::Server(ServerError::Overloaded { tier }))
            }
            STATUS_DEADLINE => {
                return Err(TcpClientError::Server(ServerError::DeadlineExceeded {
                    tier,
                }))
            }
            STATUS_BAD_REQUEST => {
                return Err(TcpClientError::Protocol(
                    "server reported a bad request".into(),
                ))
            }
            other => {
                return Err(TcpClientError::Protocol(format!(
                    "unknown response status {other}"
                )))
            }
        }
        if payload.len() != 9 + n_docs * 4 {
            return Err(TcpClientError::Protocol(
                "response length disagrees with document count".into(),
            ));
        }
        let docs = payload[9..]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
            .collect();
        Ok(QueryReply { docs, tier })
    }

    /// Insert a document with its term set into a **mutable-index** server
    /// ([`crate::serve_live_tcp`]); the read-only catalog front answers the
    /// mutate opcode with the bad-request status. Returns the issued global
    /// document id and the index's structural epoch after the insert (which
    /// advances when the insert triggered a memtable seal).
    ///
    /// # Errors
    /// [`TcpClientError::Rejected`] when the index refuses (duplicate name —
    /// the connection stays open), [`TcpClientError::Io`] /
    /// [`TcpClientError::Protocol`] on transport or framing failures.
    pub fn insert_document(
        &mut self,
        name: &str,
        terms: &[u64],
    ) -> Result<(u32, u64), TcpClientError> {
        let len = 4 + 4 + name.len() + 4 + terms.len() * 8;
        let mut frame = Vec::with_capacity(4 + len);
        frame.extend_from_slice(&(len as u32).to_le_bytes());
        frame.push(OPCODE_MUTATE);
        frame.extend_from_slice(&[0, 0, 0]); // reserved
        frame.extend_from_slice(&(name.len() as u32).to_le_bytes());
        frame.extend_from_slice(name.as_bytes());
        frame.extend_from_slice(&(terms.len() as u32).to_le_bytes());
        for &t in terms {
            frame.extend_from_slice(&t.to_le_bytes());
        }
        self.stream.write_all(&frame)?;
        let payload = self.read_frame()?;
        match payload[0] {
            STATUS_OK if payload.len() == 13 => {
                let doc_id = u32::from_le_bytes(payload[1..5].try_into().expect("4 bytes"));
                let epoch = u64::from_le_bytes(payload[5..13].try_into().expect("8 bytes"));
                Ok((doc_id, epoch))
            }
            STATUS_OK => Err(TcpClientError::Protocol(
                "mutate response length disagrees with layout".into(),
            )),
            STATUS_MUTATE_REJECTED => Err(TcpClientError::Rejected(
                String::from_utf8_lossy(&payload[1..]).into_owned(),
            )),
            STATUS_BAD_REQUEST => Err(TcpClientError::Protocol(
                "server does not accept mutations".into(),
            )),
            other => Err(TcpClientError::Protocol(format!(
                "unknown response status {other}"
            ))),
        }
    }

    /// Send one raw, pre-framed request (length prefix included) and read
    /// back one response frame's payload. This is the extension point for
    /// protocol-extending wrappers — the cluster client uses it to speak
    /// the degraded-response extension over a plain [`TcpClient`].
    ///
    /// # Errors
    /// [`TcpClientError::Io`] on transport failures,
    /// [`TcpClientError::Protocol`] on a malformed response length.
    pub fn exchange(&mut self, frame: &[u8]) -> Result<Vec<u8>, TcpClientError> {
        self.stream.write_all(frame)?;
        self.read_frame()
    }

    /// Fetch the server's plain-text stats dump (the `STATS` opcode): tier
    /// counters, result-cache counters and the slow-query log.
    ///
    /// # Errors
    /// [`TcpClientError::Io`]/[`TcpClientError::Protocol`] on transport or
    /// framing failures.
    pub fn stats(&mut self) -> Result<String, TcpClientError> {
        let mut frame = Vec::with_capacity(5);
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.push(OPCODE_STATS);
        self.stream.write_all(&frame)?;
        let payload = self.read_frame()?;
        if payload.is_empty() || payload[0] != STATUS_OK {
            return Err(TcpClientError::Protocol(
                "server rejected the stats request".into(),
            ));
        }
        String::from_utf8(payload[1..].to_vec())
            .map_err(|_| TcpClientError::Protocol("stats dump is not UTF-8".into()))
    }

    /// Read one length-prefixed frame payload.
    fn read_frame(&mut self) -> Result<Vec<u8>, TcpClientError> {
        let mut len_buf = [0u8; 4];
        self.stream.read_exact(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf) as usize;
        if !(1..=MAX_FRAME_BYTES).contains(&len) {
            return Err(TcpClientError::Protocol(format!(
                "response frame length {len} out of range"
            )));
        }
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload)?;
        Ok(payload)
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A server-side connection and the client end of the same socket.
    fn pair() -> (TcpListener, Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (listener, Conn::new(server).unwrap(), client)
    }

    /// Time one readiness wait over `listeners` and `conns`.
    fn timed_wait(listeners: &[&TcpListener], conns: &[&Conn], timeout: Duration) -> Duration {
        let start = Instant::now();
        wait_ready(listeners, conns.iter().copied(), timeout, &mut Vec::new());
        start.elapsed()
    }

    #[test]
    fn a_readable_byte_wakes_the_wait() {
        let (_listener, conn, mut client) = pair();
        client.write_all(b"x").unwrap();
        let waited = timed_wait(&[], &[&conn], Duration::from_secs(10));
        assert!(waited < Duration::from_secs(1), "woke after {waited:?}");
    }

    #[test]
    fn unsent_output_wakes_the_wait() {
        let (_listener, mut conn, _client) = pair();
        conn.outbuf.extend_from_slice(b"reply");
        let waited = timed_wait(&[], &[&conn], Duration::from_secs(10));
        assert!(waited < Duration::from_secs(1), "woke after {waited:?}");
    }

    #[test]
    fn a_closed_peer_with_read_closed_set_does_not_wake_the_wait() {
        let (_listener, mut conn, client) = pair();
        drop(client);
        // The socket reads EOF at once, so polling it for input would
        // return immediately: the connection must not be polled at all.
        conn.read_closed = true;
        let timeout = Duration::from_millis(200);
        let waited = timed_wait(&[], &[&conn], timeout);
        assert!(waited >= timeout, "woke early after {waited:?}");
    }

    #[test]
    fn a_closing_connection_does_not_wake_the_wait() {
        let (_listener, mut conn, mut client) = pair();
        client.write_all(b"unread").unwrap();
        conn.closing = true;
        let timeout = Duration::from_millis(200);
        let waited = timed_wait(&[], &[&conn], timeout);
        assert!(waited >= timeout, "woke early after {waited:?}");
    }

    #[test]
    fn an_incoming_connect_wakes_the_wait() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|s| {
            let client = s.spawn(move || TcpStream::connect(addr).unwrap());
            let waited = timed_wait(&[&listener], &[], Duration::from_secs(10));
            assert!(waited < Duration::from_secs(1), "woke after {waited:?}");
            client.join().unwrap();
        });
    }
}

//! Single-threaded event-driven reactor: raw epoll syscalls (std-only,
//! mio-style), edge-triggered readiness, per-connection state machines
//! and one ordered set of connection deadlines.
//!
//! The previous server ran a nonblocking accept loop that slept a fixed
//! 2 ms per `WouldBlock` and spawned a blocking thread per connection;
//! every response left in two `write` syscalls on a socket without
//! `TCP_NODELAY`, so Nagle + delayed ACK put a ~40 ms floor under every
//! exchange, and the stall-grace sleeps gated shutdown responsiveness.
//! The reactor replaces all of it with one thread that owns the
//! listener, every client socket and a wakeup eventfd:
//!
//! - **Readiness**: one `epoll` instance, all fds registered
//!   edge-triggered (`EPOLLET`). Readability/writability are latched
//!   per connection and re-armed only by actual `WouldBlock`, the mio
//!   discipline.
//! - **Connection state machine**: `reading → queued → writing`.
//!   Accumulated bytes run through [`crate::http::parse_request`];
//!   each complete request claims an ordered response slot (bounded
//!   pipeline depth) and is handed to the [`Handler`]; responses are
//!   rendered into one contiguous write buffer and flushed until
//!   `WouldBlock`, preserving request order under pipelining.
//! - **Compute handoff**: the handler either fills the slot inline
//!   (cache hits, admin endpoints) or moves it into a worker job; the
//!   worker completes through [`CompletionSender`], which enqueues the
//!   response and pokes the eventfd so a parked reactor wakes. Fills
//!   from the reactor thread itself skip the eventfd write.
//! - **Deadlines**: each open connection has exactly one deadline —
//!   the idle timeout, or the stall budget while a request is in
//!   progress, responses are unflushed or the server drains — kept as a
//!   `(deadline, token)` entry in one ordered set. Re-arming replaces
//!   the entry and closing removes it, so the set never holds a stale
//!   entry. `epoll_wait` parks until the earliest deadline (or the
//!   accept retry), and each loop iteration closes every connection
//!   whose deadline has passed.
//! - **Accept hygiene**: accept errors are classified
//!   ([`classify_accept_error`]) instead of being uniformly slept on —
//!   transient ones retry immediately, resource exhaustion (EMFILE,
//!   ENFILE, ENOMEM) and unexpected errors arm an exponentially
//!   backed-off retry timer, and every class is counted in `obs`.
//! - **Drain**: on shutdown the listener closes immediately, idle
//!   keep-alive connections are released, and connections with
//!   buffered requests or in-flight work finish everything already
//!   accepted before closing — a pipelined burst in flight at drain
//!   time loses nothing.
//!
//! Completion identity is double-checked at response-write time: a
//! completion names `(token, connection-generation, sequence)`, so a
//! worker result for a connection that died (and whose token was reused
//! by a new accept) can never be written onto the wrong socket.

use crate::http::{self, Parse, Request, Response};
use crate::obs_names;
use actfort_core::obs;
use std::collections::{BTreeSet, VecDeque};
use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Raw epoll / eventfd bindings. The workspace vendors no `libc` crate,
/// but `std` already links the platform libc, so the four symbols the
/// reactor needs are declared directly.
mod sys {
    use std::io;
    use std::os::raw::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    /// `struct epoll_event`; packed on x86-64 exactly as in the kernel
    /// ABI, naturally aligned elsewhere.
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    pub struct EpollEvent {
        /// `EPOLL*` readiness bits.
        pub events: u32,
        /// Caller-owned token.
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        fn eventfd(initval: u32, flags: c_int) -> c_int;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn create() -> io::Result<c_int> {
        cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
    }

    /// Registers `fd` with interest `events` under `token`.
    pub fn add(epfd: c_int, fd: c_int, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        cvt(unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
    }

    /// Deregisters `fd`.
    pub fn del(epfd: c_int, fd: c_int) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        cvt(unsafe { epoll_ctl(epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
    }

    /// Waits up to `timeout_ms` for events; `Interrupted` is surfaced
    /// as zero events.
    pub fn wait(epfd: c_int, events: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
        let maxevents = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
        match cvt(unsafe { epoll_wait(epfd, events.as_mut_ptr(), maxevents, timeout_ms) }) {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// A nonblocking close-on-exec eventfd.
    pub fn new_eventfd() -> io::Result<c_int> {
        cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })
    }
}

/// Epoll token claimed by the listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll token claimed by the wakeup eventfd.
const TOKEN_WAKEUP: u64 = u64::MAX - 1;
/// Events fetched per `epoll_wait`.
const EVENT_BATCH: usize = 256;
/// Accepts processed per readiness burst before re-checking the rest of
/// the loop (the latch keeps the remainder pending).
const ACCEPTS_PER_BURST: usize = 256;
/// Read chunk size.
const READ_CHUNK: usize = 16 * 1024;
/// Hard cap on a connection's accumulated unparsed bytes; reads pause
/// (TCP backpressure) above it until the pipeline drains.
const READ_BUF_CAP: usize = 2 * 1024 * 1024;
/// How long a keep-alive connection may sit with no request in progress
/// before it is closed.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);
/// Maximum pipelined requests in flight per connection; parsing (and
/// eventually reading) pauses above this depth.
const MAX_PIPELINE: usize = 32;
/// Longest single park in `epoll_wait`, whatever the next deadline.
const MAX_PARK_MS: u128 = 500;

/// Identity of one accepted connection: a slab token plus a generation
/// bumped on every reuse of that token, so a stale completion can never
/// touch a successor connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnId {
    token: u32,
    generation: u32,
}

/// What to do about a failed `accept`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptDisposition {
    /// The pending-connection queue is drained; wait for the next edge.
    Drained,
    /// Transient, connection-scoped (aborted handshake, EINTR): retry
    /// the accept immediately.
    Retry,
    /// Resource exhaustion (EMFILE, ENFILE, ENOMEM, ENOBUFS): back off
    /// exponentially and retry on a timer — retrying in a tight loop
    /// can never succeed until fds are released.
    Backoff,
    /// Unexpected: counted separately, but also backed off rather than
    /// spun on (the old loop slept a blind 2 ms on *every* error, so a
    /// persistent failure spun silently forever).
    Fatal,
}

/// Classifies an `accept(2)` error. Pure, so the policy is unit-testable
/// without inducing real fd exhaustion.
pub fn classify_accept_error(err: &io::Error) -> AcceptDisposition {
    const EMFILE: i32 = 24;
    const ENFILE: i32 = 23;
    const ENOMEM: i32 = 12;
    const ENOBUFS: i32 = 105;
    const EPROTO: i32 = 71;
    if err.kind() == io::ErrorKind::WouldBlock {
        return AcceptDisposition::Drained;
    }
    match err.raw_os_error() {
        Some(EMFILE | ENFILE | ENOMEM | ENOBUFS) => AcceptDisposition::Backoff,
        Some(EPROTO) => AcceptDisposition::Retry,
        _ => match err.kind() {
            io::ErrorKind::Interrupted
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset => AcceptDisposition::Retry,
            _ => AcceptDisposition::Fatal,
        },
    }
}

/// Exponential accept backoff: 10 ms doubling to a 1.28 s cap, reset by
/// any successful accept.
#[derive(Debug, Default)]
pub struct AcceptBackoff {
    consecutive: u32,
}

impl AcceptBackoff {
    /// The delay to wait before retrying, *then* escalates the internal
    /// counter for the next failure.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.consecutive.min(7);
        self.consecutive = self.consecutive.saturating_add(1);
        Duration::from_millis(10u64 << exp)
    }

    /// An accept succeeded; the next failure starts the schedule over.
    pub fn reset(&mut self) {
        self.consecutive = 0;
    }
}

/// One in-flight request's ordered response slot.
struct Slot {
    seq: u64,
    started: Instant,
    response: Option<Response>,
    /// The request asked for `Connection: close`.
    close: bool,
}

/// Connection protocol phase, for the state machine's close logic.
struct Conn {
    stream: TcpStream,
    id: ConnId,
    read_buf: Vec<u8>,
    pending: VecDeque<Slot>,
    next_seq: u64,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Stop parsing new requests; close once pending work flushes.
    close_after: bool,
    /// Peer half-closed its sending side; serve what was received,
    /// then close.
    peer_closed: bool,
    /// Edge-triggered readiness latches.
    readable: bool,
    writable: bool,
    /// This connection's entry in [`Reactor::deadlines`].
    deadline: Instant,
    opened: Instant,
}

struct Completion {
    conn: ConnId,
    seq: u64,
    response: Response,
}

struct CompletionState {
    queue: Vec<Completion>,
    /// The reactor thread, once `run` starts — fills from that thread
    /// skip the eventfd poke because the queue drains later in the same
    /// loop iteration.
    reactor_thread: Option<ThreadId>,
}

struct CompletionQueue {
    state: Mutex<CompletionState>,
    wakeup: File,
}

/// Cloneable handle workers use to complete responses back to the
/// reactor, and the server uses to wake it for shutdown.
#[derive(Clone)]
pub struct CompletionSender {
    inner: Arc<CompletionQueue>,
}

impl CompletionSender {
    fn complete(&self, conn: ConnId, seq: u64, response: Response) {
        let mut state = self.inner.state.lock().expect("completion lock poisoned");
        state.queue.push(Completion { conn, seq, response });
        let from_reactor = state.reactor_thread == Some(std::thread::current().id());
        drop(state);
        if !from_reactor {
            self.wake();
        }
    }

    /// Pokes the reactor out of `epoll_wait` (idempotent, lock-free).
    pub fn wake(&self) {
        let _ = (&self.inner.wakeup).write(&1u64.to_ne_bytes());
    }
}

/// An ordered response slot handed to the [`Handler`]. Fill it inline
/// or move it into a worker job; a slot dropped unfilled (worker panic,
/// shed job) completes with a 500 so the connection never wedges.
pub struct ResponseSlot {
    conn: ConnId,
    seq: u64,
    sender: Option<CompletionSender>,
}

impl ResponseSlot {
    /// Completes this request with `response`. May be called from any
    /// thread.
    pub fn fill(mut self, response: Response) {
        if let Some(sender) = self.sender.take() {
            sender.complete(self.conn, self.seq, response);
        }
    }
}

impl Drop for ResponseSlot {
    fn drop(&mut self) {
        if let Some(sender) = self.sender.take() {
            sender.complete(
                self.conn,
                self.seq,
                Response::json(
                    500,
                    br#"{"error":{"code":2400,"kind":"upstream","message":"request was dropped by its worker"}}"#
                        .to_vec(),
                ),
            );
        }
    }
}

/// Protocol-to-application boundary: the reactor parses requests and
/// owns all sockets; the handler decides what each request means.
pub trait Handler: Send + 'static {
    /// Called on the reactor thread for every parsed request. Fill
    /// `slot` inline for cheap work, or move it into a worker job and
    /// fill it there.
    fn handle(&self, request: Request, slot: ResponseSlot);

    /// Renders the 400 body for a protocol-malformed request.
    fn malformed(&self, message: &str) -> Response;
}

/// The reactor. Owns the listener, the epoll instance, the wakeup
/// eventfd and every accepted socket; [`Reactor::run`] serves until
/// shutdown + drain complete.
pub struct Reactor {
    epoll: OwnedFd,
    listener: Option<TcpListener>,
    completions: CompletionSender,
    conns: Vec<Option<Conn>>,
    generations: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    /// Every open connection's deadline, earliest first, as
    /// `(deadline, token)`: exactly one entry per open connection.
    deadlines: BTreeSet<(Instant, u32)>,
    /// How long a peer may stall *inside* a request (or with responses
    /// pending/unflushed) before the connection is closed.
    stall_timeout: Duration,
    shutdown: Arc<AtomicBool>,
    draining: bool,
    accept_ready: bool,
    /// When a backed-off accept retries; accepting is paused until then.
    accept_retry: Option<Instant>,
    backoff: AcceptBackoff,
}

impl Reactor {
    /// Builds a reactor around an already-bound listener. The listener
    /// is switched to nonblocking and registered edge-triggered.
    /// `stall_timeout` bounds how long a peer may stall inside a request
    /// (or with responses pending) before its connection is closed.
    pub fn new(
        listener: TcpListener,
        stall_timeout: Duration,
        shutdown: Arc<AtomicBool>,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let epoll = unsafe { OwnedFd::from_raw_fd(sys::create()?) };
        let wakeup = unsafe { File::from_raw_fd(sys::new_eventfd()?) };
        sys::add(epoll.as_raw_fd(), listener.as_raw_fd(), sys::EPOLLIN | sys::EPOLLET, TOKEN_LISTENER)?;
        sys::add(epoll.as_raw_fd(), wakeup.as_raw_fd(), sys::EPOLLIN | sys::EPOLLET, TOKEN_WAKEUP)?;
        let completions = CompletionSender {
            inner: Arc::new(CompletionQueue {
                state: Mutex::new(CompletionState { queue: Vec::new(), reactor_thread: None }),
                wakeup,
            }),
        };
        Ok(Self {
            epoll,
            listener: Some(listener),
            completions,
            conns: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            live: 0,
            deadlines: BTreeSet::new(),
            stall_timeout,
            shutdown,
            draining: false,
            accept_ready: true,
            accept_retry: None,
            backoff: AcceptBackoff::default(),
        })
    }

    /// A handle for completing responses and waking the reactor.
    pub fn waker(&self) -> CompletionSender {
        self.completions.clone()
    }

    /// Serves until the shutdown flag is raised *and* every connection
    /// has drained. Consumes the reactor; sockets close on return.
    pub fn run<H: Handler>(mut self, handler: H) {
        self.completions.inner.state.lock().expect("completion lock poisoned").reactor_thread =
            Some(std::thread::current().id());
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        loop {
            let timeout = self.park_ms(Instant::now());
            let n = sys::wait(self.epoll.as_raw_fd(), &mut events, timeout).unwrap_or_default();
            obs::add(obs_names::REACTOR_POLLS, 1);
            let now = Instant::now();

            let mut touched: Vec<u32> = Vec::new();
            for ev in &events[..n] {
                let (bits, token) = (ev.events, ev.data);
                match token {
                    TOKEN_LISTENER => self.accept_ready = true,
                    TOKEN_WAKEUP => {
                        obs::add(obs_names::REACTOR_WAKEUPS, 1);
                        self.drain_wakeup();
                    }
                    token => {
                        let token = token as u32;
                        if let Some(conn) = self.conns.get_mut(token as usize).and_then(Option::as_mut) {
                            if bits & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                                conn.readable = true;
                            }
                            if bits & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                                conn.writable = true;
                            }
                            if bits & sys::EPOLLRDHUP != 0 {
                                conn.readable = true;
                            }
                            touched.push(token);
                        }
                    }
                }
            }

            if self.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain(&handler, now);
            }
            if self.accepting() {
                self.accept_burst(now);
            }
            for token in touched {
                self.service(token, &handler, now);
            }
            self.apply_completions(&handler, now);
            if self.shutdown.load(Ordering::SeqCst) && !self.draining {
                // An inline admin/shutdown raised the flag this round.
                self.begin_drain(&handler, now);
                self.apply_completions(&handler, now);
            }
            self.expire(Instant::now());
            if self.draining && self.live == 0 {
                break;
            }
        }
    }

    fn drain_wakeup(&self) {
        let mut buf = [0u8; 8];
        while (&self.completions.inner.wakeup).read(&mut buf).is_ok() {}
    }

    // ---- accept path ----------------------------------------------

    /// The listener has pending connections and accepting is neither
    /// stopped by drain nor backed off.
    fn accepting(&self) -> bool {
        self.accept_ready && !self.draining && self.accept_retry.is_none()
    }

    fn accept_burst(&mut self, now: Instant) {
        for _ in 0..ACCEPTS_PER_BURST {
            let Some(listener) = self.listener.as_ref() else {
                self.accept_ready = false;
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.backoff.reset();
                    obs::add(obs_names::CONN_ACCEPTED, 1);
                    self.register(stream, now);
                }
                Err(e) => match classify_accept_error(&e) {
                    AcceptDisposition::Drained => {
                        self.accept_ready = false;
                        return;
                    }
                    AcceptDisposition::Retry => {
                        obs::add(obs_names::ACCEPT_TRANSIENT, 1);
                    }
                    disposition => {
                        if disposition == AcceptDisposition::Fatal {
                            obs::add(obs_names::ACCEPT_FATAL, 1);
                        } else {
                            obs::add(obs_names::ACCEPT_RESOURCE, 1);
                        }
                        self.accept_retry = Some(now + self.backoff.next_delay());
                        return;
                    }
                },
            }
        }
        // Burst cap reached with the latch still set; the next loop
        // iteration (timeout 0) continues accepting.
    }

    fn register(&mut self, stream: TcpStream, now: Instant) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return;
        }
        let token = self.free.pop().unwrap_or_else(|| {
            let token = u32::try_from(self.conns.len()).expect("fewer than 2^32 connections");
            self.conns.push(None);
            self.generations.push(0);
            token
        });
        let id = ConnId { token, generation: self.generations[token as usize] };
        let interest = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
        if sys::add(self.epoll.as_raw_fd(), stream.as_raw_fd(), interest, u64::from(token)).is_err()
        {
            return;
        }
        self.conns[token as usize] = Some(Conn {
            stream,
            id,
            read_buf: Vec::new(),
            pending: VecDeque::new(),
            next_seq: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            close_after: false,
            peer_closed: false,
            readable: true,
            writable: true,
            deadline: now + IDLE_TIMEOUT,
            opened: now,
        });
        self.live += 1;
        self.arm_timer(token, now);
    }

    // ---- connection state machine ---------------------------------

    /// Runs one connection's state machine as far as it will go:
    /// flush → read → parse/dispatch → flush → rearm/close.
    fn service<H: Handler>(&mut self, token: u32, handler: &H, now: Instant) {
        let mut dispatch: Vec<(Request, ConnId, u64)> = Vec::new();
        {
            let Some(conn) = self.conns.get_mut(token as usize).and_then(Option::as_mut) else {
                return;
            };
            if !flush_writes(conn) {
                self.close(token, now);
                return;
            }
            // Read until WouldBlock, EOF, or backpressure pause.
            let mut buf = [0u8; READ_CHUNK];
            while conn.readable
                && !conn.peer_closed
                && !conn.close_after
                && conn.pending.len() < MAX_PIPELINE
                && conn.read_buf.len() < READ_BUF_CAP
            {
                match conn.stream.read(&mut buf) {
                    Ok(0) => conn.peer_closed = true,
                    Ok(n) => conn.read_buf.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => conn.readable = false,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.close(token, now);
                        return;
                    }
                }
            }
            // Parse as many buffered requests as pipeline depth allows.
            while !conn.close_after && conn.pending.len() < MAX_PIPELINE {
                match http::parse_request(&conn.read_buf) {
                    Parse::Partial => break,
                    Parse::Complete { request, consumed } => {
                        conn.read_buf.drain(..consumed);
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        let close = request.wants_close();
                        conn.pending.push_back(Slot {
                            seq,
                            started: now,
                            response: None,
                            close,
                        });
                        obs::observe(obs_names::PIPELINE_DEPTH, conn.pending.len() as u64);
                        if close {
                            conn.close_after = true;
                        }
                        dispatch.push((request, conn.id, seq));
                        if close {
                            break;
                        }
                    }
                    Parse::Malformed(msg) => {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.pending.push_back(Slot {
                            seq,
                            started: now,
                            response: Some(handler.malformed(&msg)),
                        close: true,
                        });
                        conn.close_after = true;
                        break;
                    }
                }
            }
            if conn.peer_closed && conn.read_buf.is_empty() {
                // Nothing further can arrive; finish pending work then
                // close.
                conn.close_after = true;
            }
        }
        for (request, conn_id, seq) in dispatch {
            handler.handle(
                request,
                ResponseSlot { conn: conn_id, seq, sender: Some(self.completions.clone()) },
            );
        }
        self.advance_writes(token, now);
    }

    /// Renders every response that is ready *in request order* into the
    /// write buffer, flushes, then closes or re-arms the timer.
    fn advance_writes(&mut self, token: u32, now: Instant) {
        let draining = self.draining;
        let close_now = {
            let Some(conn) = self.conns.get_mut(token as usize).and_then(Option::as_mut) else {
                return;
            };
            while conn.pending.front().is_some_and(|slot| slot.response.is_some()) {
                let slot = conn.pending.pop_front().expect("front exists");
                let response = slot.response.expect("checked above");
                let last_queued = conn.pending.is_empty() && conn.read_buf.is_empty();
                let close = slot.close || ((conn.close_after || draining) && last_queued);
                if close {
                    conn.close_after = true;
                }
                http::render_response(&response, close, &mut conn.write_buf);
                obs::record_ns(
                    obs_names::REQUEST_WALL_NS,
                    u64::try_from(now.saturating_duration_since(slot.started).as_nanos())
                        .unwrap_or(u64::MAX),
                );
            }
            if !flush_writes(conn) {
                true
            } else {
                let flushed = conn.write_pos == conn.write_buf.len();
                let idle = conn.pending.is_empty() && conn.read_buf.is_empty();
                (conn.close_after || (draining && idle)) && flushed && conn.pending.is_empty()
            }
        };
        if close_now {
            self.close(token, now);
        } else {
            self.arm_timer(token, now);
        }
    }

    fn apply_completions<H: Handler>(&mut self, handler: &H, now: Instant) {
        let ready = {
            let mut state =
                self.completions.inner.state.lock().expect("completion lock poisoned");
            std::mem::take(&mut state.queue)
        };
        for completion in ready {
            let token = completion.conn.token;
            let matches = self
                .conns
                .get_mut(token as usize)
                .and_then(Option::as_mut)
                // The generation check: a completion for a dead
                // connection whose token was reused must never be
                // written onto the successor socket.
                .filter(|conn| conn.id == completion.conn)
                .and_then(|conn| {
                    conn.pending
                        .iter_mut()
                        .find(|slot| slot.seq == completion.seq && slot.response.is_none())
                })
                .map(|slot| slot.response = Some(completion.response))
                .is_some();
            if matches {
                self.advance_writes(token, now);
                // Filling a slot may have freed pipeline depth; resume
                // parsing buffered requests.
                self.service(token, handler, now);
            } else {
                obs::add(obs_names::STALE_COMPLETIONS, 1);
            }
        }
    }

    // ---- timers ----------------------------------------------------

    /// Sets the connection's deadline from its state (stall while work
    /// is in progress, idle otherwise) and replaces its entry in the
    /// deadline set.
    fn arm_timer(&mut self, token: u32, now: Instant) {
        let Some(conn) = self.conns.get_mut(token as usize).and_then(Option::as_mut) else {
            return;
        };
        let busy = !conn.pending.is_empty()
            || !conn.read_buf.is_empty()
            || conn.write_pos < conn.write_buf.len();
        // During drain, idle keep-alive connections get the (shorter)
        // stall budget instead of the full idle timeout, bounding drain
        // time even if a peer never closes.
        let timeout = if busy || self.draining { self.stall_timeout } else { IDLE_TIMEOUT };
        self.deadlines.remove(&(conn.deadline, token));
        conn.deadline = now + timeout;
        self.deadlines.insert((conn.deadline, token));
    }

    /// Closes every connection whose deadline has passed, and ends an
    /// accept back-off whose retry time has come.
    fn expire(&mut self, now: Instant) {
        while let Some(&(deadline, token)) = self.deadlines.first() {
            if deadline > now {
                break;
            }
            self.deadlines.remove(&(deadline, token));
            obs::add(obs_names::CONN_TIMEOUTS, 1);
            self.close(token, now);
        }
        if self.accept_retry.is_some_and(|retry| retry <= now) {
            self.accept_retry = None;
            self.accept_ready = true;
        }
    }

    /// How long `epoll_wait` may park: not at all while accepts are
    /// pending, otherwise until the earliest deadline or accept retry,
    /// rounded up to whole milliseconds (so the reactor never wakes
    /// just before it), at least 1 ms and at most [`MAX_PARK_MS`].
    fn park_ms(&self, now: Instant) -> i32 {
        if self.accepting() {
            return 0;
        }
        let next = self.deadlines.first().map(|&(deadline, _)| deadline);
        let wait_ms = next.into_iter().chain(self.accept_retry).min().map_or(MAX_PARK_MS, |at| {
            at.saturating_duration_since(now).as_nanos().div_ceil(1_000_000)
        });
        wait_ms.clamp(1, MAX_PARK_MS) as i32
    }

    // ---- lifecycle -------------------------------------------------

    fn begin_drain<H: Handler>(&mut self, handler: &H, now: Instant) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = sys::del(self.epoll.as_raw_fd(), listener.as_raw_fd());
            drop(listener); // Stop accepting; pending handshakes are refused.
        }
        // Give every connection one final service pass: anything the
        // kernel has already buffered counts as accepted and will be
        // answered; truly idle connections close immediately.
        let tokens: Vec<u32> = (0..self.conns.len() as u32)
            .filter(|&t| self.conns[t as usize].is_some())
            .collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(token as usize).and_then(Option::as_mut) {
                conn.readable = true;
            }
            self.service(token, handler, now);
            // service() may have closed it already.
            if self.conns.get(token as usize).is_some_and(Option::is_some) {
                self.advance_writes(token, now);
            }
        }
    }

    fn close(&mut self, token: u32, now: Instant) {
        let Some(conn) = self.conns.get_mut(token as usize).and_then(Option::take) else {
            return;
        };
        self.deadlines.remove(&(conn.deadline, token));
        let _ = sys::del(self.epoll.as_raw_fd(), conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        self.generations[token as usize] = self.generations[token as usize].wrapping_add(1);
        self.free.push(token);
        self.live -= 1;
        obs::add(obs_names::CONN_CLOSED, 1);
        obs::record_ns(
            obs_names::CONN_LIFETIME_NS,
            u64::try_from(now.saturating_duration_since(conn.opened).as_nanos())
                .unwrap_or(u64::MAX),
        );
    }
}

/// Writes as much buffered output as the socket accepts. Returns
/// `false` when the connection is broken and must close.
fn flush_writes(conn: &mut Conn) -> bool {
    if !conn.writable {
        return true;
    }
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conn.writable = false;
                return true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    conn.write_buf.clear();
    conn.write_pos = 0;
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_errors_classify_by_cause() {
        let make = io::Error::from_raw_os_error;
        assert_eq!(
            classify_accept_error(&io::Error::new(io::ErrorKind::WouldBlock, "eagain")),
            AcceptDisposition::Drained
        );
        for code in [24, 23, 12, 105] {
            assert_eq!(
                classify_accept_error(&make(code)),
                AcceptDisposition::Backoff,
                "errno {code} is resource exhaustion"
            );
        }
        assert_eq!(classify_accept_error(&make(71)), AcceptDisposition::Retry); // EPROTO
        assert_eq!(
            classify_accept_error(&io::Error::new(io::ErrorKind::ConnectionAborted, "aborted")),
            AcceptDisposition::Retry
        );
        assert_eq!(
            classify_accept_error(&io::Error::new(io::ErrorKind::Interrupted, "eintr")),
            AcceptDisposition::Retry
        );
        assert_eq!(
            classify_accept_error(&io::Error::new(io::ErrorKind::InvalidInput, "ebadf-ish")),
            AcceptDisposition::Fatal
        );
    }

    #[test]
    fn accept_backoff_doubles_to_a_cap_and_resets() {
        let mut backoff = AcceptBackoff::default();
        let mut delays = Vec::new();
        for _ in 0..10 {
            delays.push(backoff.next_delay().as_millis());
        }
        assert_eq!(&delays[..8], &[10, 20, 40, 80, 160, 320, 640, 1280]);
        assert_eq!(delays[8], 1280, "capped");
        assert_eq!(delays[9], 1280, "stays capped");
        backoff.reset();
        assert_eq!(backoff.next_delay().as_millis(), 10, "reset restarts the schedule");
    }
}

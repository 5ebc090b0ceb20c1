//! The load generator: one thread multiplexing at most `nproc`
//! keep-alive HTTP/1.1 connections with `ppoll(2)`.
//!
//! An open loop sends each request at its scheduled time whether or not
//! earlier ones have answered, and every latency is timed from that
//! scheduled time, so a stall is charged to every request it delays.
//! How late the generator itself ran is kept per request (`sent - due`)
//! so a run can show that its own lag is small next to what it reports.
//! A closed loop keeps a fixed number of requests outstanding per
//! connection.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

mod sys {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }
}

/// Decides, per reply, whether to keep its body: `(wire, generation,
/// body hash)`.
pub type Keep<'a> = dyn FnMut(usize, Option<u64>, u64) -> bool + 'a;

/// No connection may go this long without progress while requests are
/// outstanding; a server that stops answering fails the run.
const STALL_LIMIT: Duration = Duration::from_secs(20);

/// One request of a plan: when it is due (offset from the phase start),
/// which request bytes to send, and on which connection (`None` picks
/// the connection with the fewest requests in flight).
#[derive(Debug, Clone, Copy)]
pub struct Send {
    pub due: Duration,
    pub wire: usize,
    pub conn: Option<usize>,
}

/// How a response was served, from its `x-actfort-cache` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    Hit,
    Miss,
    Absent,
}

/// One completed exchange. Times are nanoseconds since the generator's
/// epoch.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Position of the request in its phase (plan index, or send order
    /// in a closed loop).
    pub seq: usize,
    pub wire: usize,
    pub conn: usize,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub status: u16,
    pub cache: Cache,
    /// The body, kept only when the phase's `keep` predicate asked.
    pub body: Option<Vec<u8>>,
    /// `"generation":N` from the front of the body, when present.
    pub generation: Option<u64>,
}

impl Reply {
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    pub fn lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

struct InFlight {
    seq: usize,
    wire: usize,
    due_ns: u64,
    sent_ns: u64,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    inflight: VecDeque<InFlight>,
}

/// The generator's connections and clock.
pub struct Generator {
    conns: Vec<Conn>,
    epoch: Instant,
}

impl Generator {
    /// Opens `n` keep-alive connections to `addr`.
    pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Self> {
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n.max(1) {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                rbuf: Vec::with_capacity(64 * 1024),
                wbuf: Vec::new(),
                inflight: VecDeque::new(),
            });
        }
        Ok(Self {
            conns,
            epoch: Instant::now(),
        })
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `plan` open-loop: each request leaves at `start + due`.
    pub fn open_loop(
        &mut self,
        wires: &[Vec<u8>],
        plan: &[Send],
        keep: &mut Keep<'_>,
    ) -> io::Result<Vec<Reply>> {
        let start = self.now_ns() + 1_000_000;
        let mut replies = Vec::with_capacity(plan.len());
        let mut progress = Progress::new();
        let mut next = 0;
        while replies.len() < plan.len() {
            let now = self.now_ns();
            while next < plan.len() && start + duration_ns(plan[next].due) <= now {
                let send = plan[next];
                let conn = send.conn.unwrap_or_else(|| self.least_loaded());
                self.submit(
                    conn,
                    next,
                    send.wire,
                    &wires[send.wire],
                    start + duration_ns(send.due),
                )?;
                next += 1;
            }
            let timeout = match plan.get(next) {
                Some(send) => Duration::from_nanos(
                    (start + duration_ns(send.due)).saturating_sub(self.now_ns()),
                ),
                None => STALL_LIMIT,
            };
            let before = replies.len();
            self.pump(timeout, &mut replies, keep)?;
            progress.check(replies.len() > before)?;
        }
        Ok(replies)
    }

    /// Runs a closed loop for `length`: every connection keeps `depth`
    /// pipelined requests outstanding, each drawn from `next` as its wire
    /// index and bytes.
    /// Returns every reply and the loop's start time; replies done after
    /// `start + length` were already in flight when it ended.
    pub fn closed_loop(
        &mut self,
        next: &mut (dyn FnMut() -> (usize, Vec<u8>) + '_),
        length: Duration,
        depth: usize,
        keep: &mut Keep<'_>,
    ) -> io::Result<(Vec<Reply>, u64)> {
        let start = self.now_ns();
        let end = start + duration_ns(length);
        let mut replies: Vec<Reply> = Vec::new();
        let mut seq = 0;
        for conn in 0..self.conns.len() {
            for _ in 0..depth.max(1) {
                let (wire, bytes) = next();
                let now = self.now_ns();
                self.submit(conn, seq, wire, &bytes, now)?;
                seq += 1;
            }
        }
        let mut progress = Progress::new();
        while self.conns.iter().any(|c| !c.inflight.is_empty()) {
            let before = replies.len();
            self.pump(STALL_LIMIT, &mut replies, keep)?;
            progress.check(replies.len() > before)?;
            let refill: Vec<usize> = replies[before..]
                .iter()
                .filter(|r| r.done_ns <= end)
                .map(|r| r.conn)
                .collect();
            for conn in refill {
                let (wire, bytes) = next();
                let now = self.now_ns();
                self.submit(conn, seq, wire, &bytes, now)?;
                seq += 1;
            }
        }
        Ok((replies, start))
    }

    fn least_loaded(&self) -> usize {
        (0..self.conns.len())
            .min_by_key(|&i| self.conns[i].inflight.len())
            .unwrap_or(0)
    }

    fn submit(
        &mut self,
        conn: usize,
        seq: usize,
        wire: usize,
        bytes: &[u8],
        due_ns: u64,
    ) -> io::Result<()> {
        let sent_ns = self.now_ns();
        let c = &mut self.conns[conn];
        c.wbuf.extend_from_slice(bytes);
        c.inflight.push_back(InFlight {
            seq,
            wire,
            due_ns,
            sent_ns,
        });
        flush(c)
    }

    /// Waits up to `timeout` for socket readiness, then moves every
    /// complete response into `out`.
    fn pump(
        &mut self,
        timeout: Duration,
        out: &mut Vec<Reply>,
        keep: &mut Keep<'_>,
    ) -> io::Result<()> {
        let mut fds: Vec<sys::PollFd> = self
            .conns
            .iter()
            .map(|c| sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events: sys::POLLIN | if c.wbuf.is_empty() { 0 } else { sys::POLLOUT },
                revents: 0,
            })
            .collect();
        let ts = sys::Timespec {
            tv_sec: timeout.as_secs() as _,
            tv_nsec: timeout.subsec_nanos() as _,
        };
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` pollfd structs for the whole call, `ts` outlives
        // it, and a null signal mask leaves the mask unchanged.
        let rc = unsafe { sys::ppoll(fds.as_mut_ptr(), fds.len() as _, &ts, std::ptr::null()) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            return if err.kind() == io::ErrorKind::Interrupted {
                Ok(())
            } else {
                Err(err)
            };
        }
        let mut chunk = [0u8; 64 * 1024];
        for (i, fd) in fds.iter().enumerate() {
            if fd.revents == 0 {
                continue;
            }
            let c = &mut self.conns[i];
            flush(c)?;
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed a connection",
                        ))
                    }
                    Ok(n) => c.rbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let done_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mut consumed = 0;
            while let Some((head, len)) = parse_response(&c.rbuf[consumed..])? {
                let sent = c.inflight.pop_front().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "response without a request")
                })?;
                let body = &c.rbuf[consumed + head.body_start..consumed + len];
                let generation = generation_of(body);
                let hash = fnv1a(body);
                out.push(Reply {
                    seq: sent.seq,
                    wire: sent.wire,
                    conn: i,
                    due_ns: sent.due_ns,
                    sent_ns: sent.sent_ns,
                    done_ns,
                    status: head.status,
                    cache: head.cache,
                    body: (head.status != 200 || keep(sent.wire, generation, hash))
                        .then(|| body.to_vec()),
                    generation,
                });
                consumed += len;
            }
            c.rbuf.drain(..consumed);
        }
        Ok(())
    }
}

/// Fails a loop that has seen no reply for [`STALL_LIMIT`].
struct Progress(Instant);

impl Progress {
    fn new() -> Self {
        Progress(Instant::now())
    }

    fn check(&mut self, advanced: bool) -> io::Result<()> {
        if advanced {
            self.0 = Instant::now();
        } else if self.0.elapsed() > STALL_LIMIT {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "server stopped answering",
            ));
        }
        Ok(())
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn flush(c: &mut Conn) -> io::Result<()> {
    while !c.wbuf.is_empty() {
        match c.stream.write(&c.wbuf) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "socket closed")),
            Ok(n) => {
                c.wbuf.drain(..n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

struct Head {
    status: u16,
    cache: Cache,
    body_start: usize,
}

/// Parses the response at the front of `buf`: its head and total length,
/// or `None` until all of it has arrived.
fn parse_response(buf: &[u8]) -> io::Result<Option<(Head, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_ascii_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    let mut cache = Cache::Absent;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("x-actfort-cache") {
            cache = if value == "hit" {
                Cache::Hit
            } else {
                Cache::Miss
            };
        }
    }
    let length = length.ok_or_else(|| bad("response lacks Content-Length"))?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some((
        Head {
            status,
            cache,
            body_start,
        },
        body_start + length,
    )))
}

/// The generation a body names in its leading `{"generation":N` field.
fn generation_of(body: &[u8]) -> Option<u64> {
    let rest = body.strip_prefix(b"{\"generation\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

//! The benchmark's own load generator: keep-alive HTTP/1.1 connections,
//! all driven from one thread, in a closed loop that keeps a fixed
//! number of pipelined requests in flight per connection. Answers are reduced to
//! one digest per request on the spot, so client memory does not grow
//! with the rows served; the caller checks the digests against expected
//! values outside the timed window.

use crate::inputs::Generator;
use crate::report::Digest;
use lam_serve::proto::{ResponseParser, ResponseStep};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Largest response body accepted.
const MAX_BODY: usize = 64 << 20;

/// One keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    parser: ResponseParser,
    buf: Vec<u8>,
}

/// One parsed answer.
pub struct Answer {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

impl Conn {
    /// Connect with Nagle off.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            parser: ResponseParser::new(MAX_BODY),
            buf: Vec::with_capacity(64 << 10),
        })
    }

    /// Next complete answer already buffered, if any.
    fn buffered(&mut self) -> io::Result<Option<Answer>> {
        match self.parser.poll(&mut self.buf) {
            ResponseStep::Incomplete => Ok(None),
            ResponseStep::Response(r) => Ok(Some(Answer {
                status: r.status,
                body: r.body,
            })),
            ResponseStep::Invalid(m) => Err(io::Error::new(io::ErrorKind::InvalidData, m)),
        }
    }

    /// One `read` call's worth of bytes into the buffer.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 << 10];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Block until the next answer arrives.
    pub fn receive(&mut self) -> io::Result<Answer> {
        loop {
            if let Some(a) = self.buffered()? {
                return Ok(a);
            }
            self.fill()?;
        }
    }

    /// Send one request and wait for its answer.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Answer> {
        self.stream.write_all(request)?;
        self.receive()
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<Answer> {
        let req = format!("GET {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: 0\r\n\r\n");
        self.call(req.as_bytes())
    }
}

/// The `predictions` of a `/predict` answer, bit exact, plus its
/// `cache_hits`. `None` when the body is not a prediction answer.
pub fn parse_predictions(body: &[u8]) -> Option<(Vec<f64>, u64)> {
    let text = std::str::from_utf8(body).ok()?;
    let start = text.find("\"predictions\":[")? + "\"predictions\":[".len();
    let end = start + text[start..].find(']')?;
    let predictions = if start == end {
        Vec::new()
    } else {
        text[start..end]
            .split(',')
            .map(|v| v.trim().parse::<f64>().ok())
            .collect::<Option<Vec<f64>>>()?
    };
    let hits_at = text.find("\"cache_hits\":")? + "\"cache_hits\":".len();
    let hits = text[hits_at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()?;
    Some((predictions, hits))
}

/// Digest of one request's predictions, in row order.
pub fn digest(predictions: &[f64]) -> u64 {
    let mut d = Digest::default();
    d.add(predictions.len() as u64);
    for p in predictions {
        d.add(p.to_bits());
    }
    d.0
}

/// What one connection saw. Request `k` of the connection is entry `k`
/// of `latency_ns`, `at_ns` and `digests`.
#[derive(Default)]
pub struct ConnLog {
    /// Latency of each request, nanoseconds.
    pub latency_ns: Vec<u64>,
    /// When each request was sent, nanoseconds into the window.
    pub at_ns: Vec<u64>,
    /// Digest of each answer's predictions; 0 for a failed request.
    pub digests: Vec<u64>,
    /// Requests that failed on the wire or answered non-200.
    pub failed: u64,
    /// Rows answered.
    pub rows: u64,
    /// Rows the server answered from its cache.
    pub cache_hits: u64,
    /// Generator delay per request: the gap between the answer that
    /// freed a pipeline slot and the send that refilled it.
    pub late_ns: Vec<u64>,
}

impl ConnLog {
    /// A log with room for `n` requests.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            latency_ns: Vec::with_capacity(n),
            at_ns: Vec::with_capacity(n),
            digests: Vec::with_capacity(n),
            late_ns: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    fn record(&mut self, answer: io::Result<Answer>, latency_ns: u64, at_ns: u64) {
        self.at_ns.push(at_ns);
        let parsed = answer
            .ok()
            .filter(|a| a.status == 200)
            .and_then(|a| parse_predictions(&a.body));
        self.latency_ns.push(latency_ns);
        match parsed {
            Some((predictions, hits)) => {
                self.rows += predictions.len() as u64;
                self.cache_hits += hits;
                self.digests.push(digest(&predictions));
            }
            None => {
                self.failed += 1;
                self.digests.push(0);
            }
        }
    }
}

/// Tracing hook: the traced run asks for a forced `x-lam-trace` header
/// on some requests.
pub type TraceFn<'a> = &'a (dyn Fn(u64, u64) -> Option<String> + Sync);

/// One connection of [`closed_loop`].
struct Stream {
    conn: Option<Conn>,
    /// Request bytes not yet written.
    out: Vec<u8>,
    /// Request `k`, built while earlier answers were awaited, so that a
    /// freed slot is refilled without building a request first.
    next: Option<Vec<u8>>,
    /// When each request in flight was sent, oldest first.
    in_flight: VecDeque<Instant>,
    /// When the last answer arrived.
    last_answer: Instant,
    /// Index of the next request.
    k: u64,
    log: ConnLog,
}

impl Stream {
    /// Write what the socket takes. `Ok(true)` when bytes remain.
    fn flush(&mut self) -> io::Result<bool> {
        let Some(cn) = self.conn.as_mut() else {
            return Err(io::ErrorKind::NotConnected.into());
        };
        let mut done = 0;
        while done < self.out.len() {
            match cn.stream.write(&self.out[done..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.drain(..done);
        Ok(!self.out.is_empty())
    }

    /// Read what the socket holds and record every complete answer.
    fn drain_answers(&mut self, start: Instant) -> io::Result<()> {
        let Some(cn) = self.conn.as_mut() else {
            return Err(io::ErrorKind::NotConnected.into());
        };
        // Answers that arrived before a read error still count.
        let read = loop {
            match cn.fill() {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        while let Some(answer) = cn.buffered()? {
            let Some(sent) = self.in_flight.pop_front() else {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "unasked answer"));
            };
            self.last_answer = Instant::now();
            self.log.record(
                Ok(answer),
                (self.last_answer - sent).as_nanos() as u64,
                (sent - start).as_nanos() as u64,
            );
        }
        read
    }

    /// Count every request in flight as failed and reconnect.
    fn fail(&mut self, addr: SocketAddr, start: Instant) {
        let now = Instant::now();
        for sent in self.in_flight.drain(..) {
            self.log.record(
                Err(io::ErrorKind::ConnectionAborted.into()),
                (now - sent).as_nanos() as u64,
                (sent - start).as_nanos() as u64,
            );
        }
        self.out.clear();
        self.last_answer = now;
        self.conn = connect_nonblocking(addr);
    }
}

fn connect_nonblocking(addr: SocketAddr) -> Option<Conn> {
    let conn = Conn::connect(addr).ok()?;
    conn.stream.set_nonblocking(true).ok()?;
    Some(conn)
}

/// Closed loop on one thread: every connection keeps `depth` pipelined
/// requests in flight and sends request `k + depth` once answer `k`
/// arrived, until `window` has passed; then the answers in flight are
/// awaited. One thread waits on all connections through one epoll set,
/// so the client adds a single runnable thread to the machine. Latency
/// counts from each request's send. Connection `c` appends to
/// `logs[c]`, which the caller sizes up front so the window allocates no
/// log storage.
pub fn closed_loop(
    addr: SocketAddr,
    gen: &Generator,
    logs: Vec<ConnLog>,
    depth: usize,
    window: Duration,
    trace: TraceFn,
) -> Vec<ConnLog> {
    let host = addr.to_string();
    let poll = epoll::Epoll::new().expect("epoll instance");
    let start = Instant::now();
    let mut streams: Vec<Stream> = logs
        .into_iter()
        .map(|log| Stream {
            conn: connect_nonblocking(addr),
            out: Vec::with_capacity(64 << 10),
            next: None,
            in_flight: VecDeque::with_capacity(depth),
            last_answer: start,
            k: 0,
            log,
        })
        .collect();
    // Interest registered per connection: (fd, events), so a reconnect
    // or a change of interest is re-registered.
    let mut registered: Vec<Option<(i32, u32)>> = vec![None; streams.len()];
    let mut events = vec![epoll::EpollEvent::zeroed(); streams.len().max(1)];
    loop {
        let open = start.elapsed() < window;
        for (c, s) in streams.iter_mut().enumerate() {
            if s.conn.is_none() {
                s.fail(addr, start);
            }
            let mut queued = false;
            let build = |k: u64| gen.request(c as u64, k, &host, trace(c as u64, k).as_deref());
            while open && s.conn.is_some() && s.in_flight.len() < depth.max(1) {
                let request = s.next.take().unwrap_or_else(|| build(s.k));
                let sent = Instant::now();
                s.log.late_ns.push((sent - s.last_answer).as_nanos() as u64);
                s.out.extend_from_slice(&request);
                s.in_flight.push_back(sent);
                s.k += 1;
                queued = true;
            }
            let pending = if queued || !s.out.is_empty() {
                s.flush()
            } else {
                Ok(false)
            };
            if open && s.next.is_none() {
                s.next = Some(build(s.k));
            }
            let interest = match pending {
                Ok(true) => epoll::EPOLLIN | epoll::EPOLLOUT,
                Ok(false) => epoll::EPOLLIN,
                Err(_) => {
                    // Dropping the socket takes it out of the epoll set.
                    registered[c] = None;
                    s.fail(addr, start);
                    continue;
                }
            };
            let Some(fd) = s.conn.as_ref().map(|cn| cn.stream.as_raw_fd()) else {
                continue;
            };
            let want = Some((fd, interest));
            if registered[c] != want {
                let ok = match registered[c] {
                    Some((old, _)) if old == fd => poll.modify(fd, interest, c as u64),
                    _ => poll.add(fd, interest, c as u64),
                };
                registered[c] = ok.is_ok().then_some((fd, interest));
            }
        }
        if streams.iter().all(|s| s.in_flight.is_empty()) {
            break;
        }
        let n = poll.wait(&mut events, Some(Duration::from_millis(100)));
        for ev in &events[..n] {
            let c = ev.token() as usize;
            let s = &mut streams[c];
            let broken = ev.events() & (epoll::EPOLLERR | epoll::EPOLLHUP) != 0;
            if s.drain_answers(start).is_err() || broken {
                registered[c] = None;
                s.fail(addr, start);
            }
        }
    }
    streams.into_iter().map(|s| s.log).collect()
}

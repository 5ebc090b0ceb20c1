//! A small blocking HTTP/1.1 client for the serve wire protocol.
//!
//! Used by the integration tests, the `serve_smoke` CI bin and the
//! `perfbench` serve benchmark; it speaks exactly the subset the server does
//! (fixed-length bodies, keep-alive reuse, pipelining) so one
//! connection can carry a whole load-generation session. Received
//! bytes accumulate in a carry buffer that survives across responses,
//! so bytes of a pipelined successor read together with one response
//! are never lost.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response as the client sees it.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (panics on invalid UTF-8 — server bodies are
    /// always JSON text).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("server bodies are UTF-8 JSON")
    }
}

/// One keep-alive connection to a server.
pub struct Client {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Client {
    /// Connects to `addr` with a generous I/O timeout.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, carry: Vec::new() })
    }

    /// Issues a `GET`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, b"")
    }

    /// Issues a `POST` with a JSON body.
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        self.request("POST", path, body)
    }

    /// Issues `requests.len()` pipelined `POST`s — every request is
    /// written before any response is read — and returns the responses
    /// in request order (the order the server must answer in).
    ///
    /// # Errors
    ///
    /// Propagates I/O and framing failures.
    pub fn pipeline_post(&mut self, requests: &[(&str, &[u8])]) -> io::Result<Vec<ClientResponse>> {
        let mut wire = Vec::new();
        for (path, body) in requests {
            render_request(&mut wire, "POST", path, body);
        }
        self.stream.write_all(&wire)?;
        self.stream.flush()?;
        let mut responses = Vec::with_capacity(requests.len());
        for _ in 0..requests.len() {
            responses.push(self.read_response()?);
        }
        Ok(responses)
    }

    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        let mut wire = Vec::new();
        render_request(&mut wire, method, path, body);
        self.stream.write_all(&wire)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some((response, consumed)) = parse_response(&self.carry)? {
                self.carry.drain(..consumed);
                return Ok(response);
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a full response",
                ));
            }
            self.carry.extend_from_slice(&buf[..n]);
        }
    }
}

/// Appends one request's wire form (head + body, one contiguous run).
fn render_request(wire: &mut Vec<u8>, method: &str, path: &str, body: &[u8]) {
    let _ = write!(
        wire,
        "{method} {path} HTTP/1.1\r\nhost: actfort\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    wire.extend_from_slice(body);
}

/// Parses one complete response from the front of `buf`, returning it
/// with the byte count it occupied, or `None` when more bytes are
/// needed.
fn parse_response(buf: &[u8]) -> io::Result<Option<(ClientResponse, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad status line {status_line:?}"))
        })?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response lacks Content-Length"))?;
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None);
    }
    Ok(Some((
        ClientResponse { status, headers, body: buf[body_start..body_start + content_length].to_vec() },
        body_start + content_length,
    )))
}

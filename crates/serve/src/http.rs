//! Minimal HTTP/1.1 framing over `std::net` streams.
//!
//! Hand-rolled on purpose: the workspace's no-external-deps discipline
//! extends to the serving layer, and the service's needs are narrow — small
//! JSON requests, one request per connection (`Connection: close`), strict
//! size limits. This module is deliberately free of workspace dependencies
//! (no obs, no serde) so it can be reasoned about — and reused by the load
//! generator's client side — as plain socket plumbing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Largest accepted request head (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Largest accepted request body, bytes. Raw graph JSON for the deepest zoo
/// models is ~100 KiB; 1 MiB leaves headroom without inviting abuse.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Per-connection I/O deadline: a peer that stalls mid-request is cut off.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed HTTP request: what the router needs, nothing more.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query strings are kept verbatim).
    pub path: String,
    /// Decoded request body (empty when absent).
    pub body: String,
}

/// An HTTP response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Optional `Retry-After` header value, seconds. Set on shed (`503`)
    /// responses so well-behaved clients back off instead of hammering.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body,
            retry_after: None,
        }
    }

    /// Attach a `Retry-After` hint (seconds).
    pub fn with_retry_after(mut self, seconds: u64) -> Response {
        self.retry_after = Some(seconds);
        self
    }
}

/// Framing and transport errors.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (includes read timeouts).
    Io(std::io::Error),
    /// The peer's bytes did not form an acceptable HTTP/1.1 message.
    Malformed(String),
    /// The request head or body exceeded its size limit.
    TooLarge(&'static str),
    /// The connection deadline elapsed before the message completed.
    Deadline,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge(what) => write!(f, "{what} exceeds size limit"),
            HttpError::Deadline => write!(f, "connection deadline elapsed"),
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reason phrases for the status codes this service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Map a framing/transport error to the status code the server answers
/// with. Read timeouts surface either as [`HttpError::Deadline`] (the
/// whole-message budget elapsed) or as a `WouldBlock`/`TimedOut` I/O error
/// (a single read stalled); both mean the peer was too slow and both map
/// to `408` so slow-loris connections are evicted with an honest code.
pub fn status_for_error(error: &HttpError) -> u16 {
    match error {
        HttpError::TooLarge(_) => 413,
        HttpError::Deadline => 408,
        HttpError::Io(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            408
        }
        HttpError::Io(_) | HttpError::Malformed(_) => 400,
    }
}

/// A deadline over raw socket reads.
///
/// `set_read_timeout` bounds each *individual* `read`, but a drip-feeding
/// peer can stretch a message across many short reads forever; the deadline
/// bounds the whole message. This is transport plumbing below the obs
/// layer — the module is intentionally dependency-free — so it reads the
/// monotonic clock directly rather than through the obs shim.
struct Deadline {
    end: Instant,
}

impl Deadline {
    fn start(budget: Duration) -> Deadline {
        // analyzer:allow(CA0002, reason = "socket read deadline in the dependency-free HTTP layer; obs::clock is above this module and the value never reaches telemetry or artefacts")
        let end = Instant::now() + budget;
        Deadline { end }
    }

    fn remaining(&self) -> Result<Duration, HttpError> {
        // analyzer:allow(CA0002, reason = "monotonic now() compared against the connection deadline; timeout control flow only, never recorded")
        let now = Instant::now();
        if now >= self.end {
            return Err(HttpError::Deadline);
        }
        Ok(self.end - now)
    }
}

/// Read until `buf` contains `needle` or `max` bytes arrive. Returns the
/// index just past the needle.
fn read_until(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    needle: &[u8],
    max: usize,
    limit_name: &'static str,
    deadline: &Deadline,
) -> Result<usize, HttpError> {
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = find_subslice(buf, needle) {
            return Ok(pos + needle.len());
        }
        if buf.len() >= max {
            return Err(HttpError::TooLarge(limit_name));
        }
        stream.set_read_timeout(Some(deadline.remaining()?))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-message".into()));
        }
        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// A parsed request head: everything before the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// Request method.
    pub method: String,
    /// Request target path.
    pub path: String,
    /// Declared `Content-Length` (0 when absent).
    pub content_length: usize,
}

/// Parse the raw head bytes (request line + headers, up to and including
/// the blank line) into a [`Head`].
///
/// Pure — no sockets, no clocks — so the adversarial proptest corpus can
/// hammer it directly with arbitrary byte soup: whatever the bytes, this
/// either returns a `Head` or a typed [`HttpError`], never panics.
pub fn parse_head(raw: &[u8]) -> Result<Head, HttpError> {
    let head =
        std::str::from_utf8(raw).map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line '{request_line}'"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version '{version}'")));
    }
    let mut content_length: Option<usize> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                // RFC 9110 §8.6: `1*DIGIT`. `str::parse` would also take a
                // leading `+`, and a lenient length is a smuggling vector.
                let value = value.trim();
                let parsed = Some(value)
                    .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| HttpError::Malformed(format!("bad content-length '{value}'")))?;
                // Duplicate Content-Length headers are a request-smuggling
                // vector; reject rather than pick one.
                if content_length.is_some() {
                    return Err(HttpError::Malformed(
                        "duplicate content-length header".into(),
                    ));
                }
                content_length = Some(parsed);
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("request body"));
    }
    Ok(Head {
        method: method.to_string(),
        path: path.to_string(),
        content_length,
    })
}

/// Read and parse one request from `stream`, enforcing size limits and the
/// default connection deadline.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    read_request_within(stream, IO_TIMEOUT)
}

/// Read and parse one request from `stream` under an explicit whole-message
/// `budget`. The server threads each connection's remaining deadline budget
/// (admission → queue wait → read) through this, so time spent queued
/// shrinks the time the peer gets to finish its message.
pub fn read_request_within(stream: &mut TcpStream, budget: Duration) -> Result<Request, HttpError> {
    if budget.is_zero() {
        return Err(HttpError::Deadline);
    }
    let deadline = Deadline::start(budget);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = read_until(
        stream,
        &mut buf,
        b"\r\n\r\n",
        MAX_HEAD_BYTES,
        "request head",
        &deadline,
    )?;
    let head = parse_head(buf.get(..head_end).unwrap_or_default())?;
    let Head {
        method,
        path,
        content_length,
    } = head;
    // Whatever followed the head in the buffer is the start of the body.
    let mut body: Vec<u8> = buf.get(head_end..).unwrap_or_default().to_vec();
    let mut chunk = [0u8; 4096];
    while body.len() < content_length {
        stream.set_read_timeout(Some(deadline.remaining()?))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(chunk.get(..n).unwrap_or_default());
    }
    body.truncate(content_length);
    let body =
        String::from_utf8(body).map_err(|_| HttpError::Malformed("body is not UTF-8".into()))?;
    Ok(Request { method, path, body })
}

/// Serialise `response` onto `stream` with `Connection: close` semantics.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> Result<(), HttpError> {
    let retry_after = match response.retry_after {
        Some(seconds) => format!("Retry-After: {seconds}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{retry_after}Connection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()?;
    Ok(())
}

/// Issue one request as a client and return `(status, body)`.
///
/// The server side of this module closes the connection after each
/// response, so the client reads to EOF and parses the single message. Used
/// by the load generator's remote mode, the CLI smoke paths, and the tests.
pub fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), HttpError> {
    let deadline = Deadline::start(IO_TIMEOUT);
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_nodelay(true)?;
    let body = body.unwrap_or_default();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        stream.set_read_timeout(Some(deadline.remaining()?))?;
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(chunk.get(..n).unwrap_or_default()),
            Err(e) => return Err(HttpError::Io(e)),
        }
        if raw.len() > MAX_BODY_BYTES + MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge("response"));
        }
    }
    let text =
        String::from_utf8(raw).map_err(|_| HttpError::Malformed("response is not UTF-8".into()))?;
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| HttpError::Malformed("response head never ended".into()))?;
    let status_line = head.lines().next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line '{status_line}'")))?;
    Ok((status, payload.to_string()))
}

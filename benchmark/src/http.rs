//! A minimal HTTP/1.1 client over `std::net`, one request per connection.
//!
//! The server answers with `Connection: close`, so a response is read to
//! end of stream and then split into status line, headers and body.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Bound on connecting, writing and each read. A request slower than this
/// is an error, far past the 50 ms latency limit.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Largest response accepted, head included.
const MAX_RESPONSE_BYTES: usize = 4 << 20;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Send one request and read the whole response.
pub fn call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // One write keeps head and body in as few segments as the kernel allows.
    let mut request = Vec::with_capacity(head.len() + body.len());
    request.extend_from_slice(head.as_bytes());
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    let mut raw = Vec::with_capacity(4096);
    stream
        .take(MAX_RESPONSE_BYTES as u64 + 1)
        .read_to_end(&mut raw)?;
    if raw.len() > MAX_RESPONSE_BYTES {
        return Err(invalid("response exceeds the size limit"));
    }
    parse_response(&raw)
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Split a complete `Connection: close` response into status and body,
/// checking the body against `Content-Length` when the header is present.
pub fn parse_response(raw: &[u8]) -> io::Result<Response> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| invalid("response head never ended"))?;
    let head =
        std::str::from_utf8(&raw[..head_end]).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| invalid("bad status code"))?,
        _ => return Err(invalid("bad status line")),
    };
    let body = raw[head_end + 4..].to_vec();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let declared: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad content-length"))?;
                if declared != body.len() {
                    return Err(invalid("body length differs from content-length"));
                }
            }
        }
    }
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_complete_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"{}");
    }

    #[test]
    fn rejects_truncated_and_malformed_responses() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 2").is_err());
        assert!(parse_response(b"SMTP 200 OK\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 two OK\r\n\r\n").is_err());
    }

    #[test]
    fn round_trips_against_a_local_listener() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = vec![0u8; 1024];
            let mut got = Vec::new();
            while !got.ends_with(b"ping") {
                let n = s.read(&mut buf).unwrap();
                got.extend_from_slice(&buf[..n]);
            }
            s.write_all(b"HTTP/1.1 201 Created\r\nContent-Length: 4\r\n\r\npong")
                .unwrap();
            String::from_utf8(got).unwrap()
        });
        let r = call(addr, "POST", "/x", b"ping").unwrap();
        assert_eq!((r.status, r.body.as_slice()), (201, &b"pong"[..]));
        let request = server.join().unwrap();
        assert!(request.starts_with("POST /x HTTP/1.1\r\n"));
        assert!(request.contains("Content-Length: 4\r\n"));
    }
}

//! A deliberately small HTTP/1.1 implementation over `std::net`.
//!
//! The daemon serves exactly one well-known client population — loopback
//! tools (`crellvm top`, CI smoke jobs, `curl`) — so the surface is the
//! minimum that population needs: one request per connection
//! (`Connection: close`), `Content-Length` framing (no chunked transfer),
//! a case-insensitive header map, and nothing else. Keeping the parser
//! this small keeps it auditable: the serving plane sits *outside* the
//! validated core, and the less code between the socket and the checker,
//! the less there is to trust.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers) in bytes.
const MAX_HEAD: usize = 64 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Decoded query parameters (`?a=1&b=2`), last key wins.
    pub query: BTreeMap<String, String>,
    /// Headers with lower-cased names.
    pub headers: BTreeMap<String, String>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// A header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(|s| s.as_str())
    }
}

/// Read head bytes until the `\r\n\r\n` separator (inclusive), returning
/// `(head, leftover-body-bytes)`.
fn read_head(stream: &mut TcpStream) -> io::Result<(Vec<u8>, Vec<u8>)> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = find_head_end(&buf) {
            let rest = buf.split_off(pos + 4);
            return Ok((buf, rest));
        }
        if buf.len() > MAX_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Minimal percent-decoding for query strings (`%41` and `+`).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(q: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for pair in q.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        out.insert(percent_decode(k), percent_decode(v));
    }
    out
}

/// Read and parse one request from the stream. `max_body` bounds the
/// declared `Content-Length`; a larger body is rejected before any body
/// byte is read so a misbehaving client cannot balloon the daemon.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> io::Result<Request> {
    let (head, mut body) = read_head(stream)?;
    let head = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), BTreeMap::new()),
    };
    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    let content_length: usize = headers
        .get("content-length")
        .map(|v| {
            v.parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    if body.len() > content_length {
        body.truncate(content_length);
    }
    while body.len() < content_length {
        let mut chunk = vec![0u8; (content_length - body.len()).min(64 * 1024)];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// One response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

impl Response {
    pub fn new(status: u16, content_type: &str, body: Vec<u8>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".to_string(), content_type.to_string())],
            body,
        }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::new(
            status,
            "text/plain; charset=utf-8",
            body.into().into_bytes(),
        )
    }

    pub fn json(status: u16, body: &crellvm_telemetry::json::Value) -> Response {
        Response::new(status, "application/json", body.to_json().into_bytes())
    }

    #[must_use]
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serialize onto the wire (`Connection: close` framing).
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str("Connection: close\r\n\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// A blocking single-shot HTTP client call (the `top` view, the load
/// generator, and the tests all speak through this).
///
/// Returns `(status, headers, body)`; headers come back lower-cased.
pub fn call(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<(u16, BTreeMap<String, String>, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    head.push_str("Connection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let head_end = find_head_end(&raw)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response without head"))?;
    let resp_body = raw[head_end + 4..].to_vec();
    let head_text = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let mut lines = head_text.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut resp_headers = BTreeMap::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            resp_headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    Ok((status, resp_headers, resp_body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_query_strings() {
        let q = parse_query("a=1&b=hello%20world&c&d=x+y");
        assert_eq!(q.get("a").map(String::as_str), Some("1"));
        assert_eq!(q.get("b").map(String::as_str), Some("hello world"));
        assert_eq!(q.get("c").map(String::as_str), Some(""));
        assert_eq!(q.get("d").map(String::as_str), Some("x y"));
    }

    #[test]
    fn roundtrips_over_a_real_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream, 1024).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/v1/validate");
            assert_eq!(req.query.get("x").map(String::as_str), Some("1"));
            assert_eq!(req.header("X-Crellvm-Tenant"), Some("acme"));
            assert_eq!(req.body, b"hello body");
            Response::text(200, "fine")
                .header("X-Test", "yes")
                .write_to(&mut stream)
                .unwrap();
        });
        let (status, headers, body) = call(
            &addr,
            "POST",
            "/v1/validate?x=1",
            &[("X-Crellvm-Tenant", "acme")],
            b"hello body",
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(headers.get("x-test").map(String::as_str), Some("yes"));
        assert_eq!(body, b"fine");
        server.join().unwrap();
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream, 16).unwrap_err()
        });
        let _ = call(&addr, "POST", "/", &[], &[0u8; 64]);
        let err = server.join().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}

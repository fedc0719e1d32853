//! A minimal HTTP/1.1 layer over `std::net` streams.
//!
//! The workspace has no async runtime (vendored-stub policy: no registry
//! access), so `fairschedd` serves blocking HTTP/1.1 from a thread per
//! connection. This module owns the wire mechanics: parsing a request line plus
//! headers plus a `Content-Length` body, and writing fixed (keep-alive by
//! default) or close-delimited streaming responses. The daemon layers
//! routing on top; the client layers request/response typing on top of
//! the same primitives.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Longest request body the daemon will buffer (1 MiB — submissions are
/// a few hundred bytes; this is purely an abuse guard).
const MAX_BODY: usize = 1 << 20;

/// Longest request line or header line, terminator included (8 KiB), and
/// most headers one request may carry: the same abuse guard for the head
/// of a request, so a peer that never sends `\n` cannot make its
/// connection thread buffer without bound.
const MAX_LINE: u64 = 8 << 10;
const MAX_HEADERS: usize = 64;

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// `read_line` capped at [`MAX_LINE`] bytes: a longer line is an
/// `InvalidData` error once the cap is read, without waiting for its end.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
) -> std::io::Result<usize> {
    let n = reader.take(MAX_LINE).read_line(line)?;
    if n as u64 == MAX_LINE && !line.ends_with('\n') {
        return Err(invalid("request line or header too long"));
    }
    Ok(n)
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The path, e.g. `/v1/jobs` (query strings are kept verbatim).
    pub path: String,
    /// The body, when `Content-Length` was present.
    pub body: String,
    /// Whether the client asked for the connection to close after this
    /// exchange (`Connection: close`). HTTP/1.1 default is keep-alive.
    pub close: bool,
}

/// Reads one request from a buffered stream. Returns `Ok(None)` on a
/// clean EOF before any bytes (client closed a keep-alive connection).
pub fn read_request(reader: &mut BufReader<TcpStream>) -> std::io::Result<Option<Request>> {
    let mut line = String::new();
    if read_bounded_line(reader, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return Err(invalid("malformed request line")),
    };
    let mut content_length = 0usize;
    let mut close = false;
    let mut headers = 0;
    loop {
        let mut header = String::new();
        if read_bounded_line(reader, &mut header)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof in headers",
            ));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(invalid("too many headers"));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(invalid("body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| invalid("non-utf8 body"))?;
    Ok(Some(Request {
        method,
        path,
        body,
        close,
    }))
}

/// Writes a complete response with a JSON (or plain-text) body. The
/// connection stays open for the next request unless `close` is set —
/// keep-alive is what spares a thousand submitters a handshake per
/// request.
///
/// The whole message goes out in one `write_all`: several small writes on
/// a socket meet Nagle's algorithm and the peer's delayed ACK, and each
/// exchange stalls for tens of milliseconds.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let reason = reason_phrase(status);
    let connection = if close { "close" } else { "keep-alive" };
    let message = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

/// Starts a streaming response: headers only, no `Content-Length` — the
/// caller writes lines until it drops the stream (HTTP/1.0-style
/// close-delimited body, which every line-oriented consumer accepts).
/// One `write_all`, like [`write_response`].
pub fn write_stream_header(stream: &mut impl Write, content_type: &str) -> std::io::Result<()> {
    let header =
        format!("HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n");
    stream.write_all(header.as_bytes())?;
    stream.flush()
}

/// Writes one client request with a `Content-Length`-framed body (empty
/// for a bodiless request), asking the server to close the connection
/// afterwards when `close` is set. One `write_all`, like
/// [`write_response`].
pub fn write_request(
    stream: &mut impl Write,
    method: &str,
    path: &str,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: fairschedd\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_a_request_with_a_body_and_writes_a_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(
                stream,
                "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{{\"id\": 1}}"
            )
            .unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let req = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, "{\"id\": 1}");
        assert!(!req.close, "HTTP/1.1 without Connection: close keeps alive");
        let mut stream = stream;
        write_response(&mut stream, 200, "application/json", "{\"ok\":true}", true).unwrap();
        // Both fds (the stream and the reader's clone) must close for the
        // client to see EOF.
        drop(stream);
        drop(reader);
        let response = client.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(response.ends_with("{\"ok\":true}"));
    }

    /// A `Write` double that counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_message_is_exactly_one_write() {
        let mut w = CountingWriter::default();
        write_response(&mut w, 200, "application/json", "{\"ok\":true}", false).unwrap();
        assert_eq!(w.writes, 1);
        let text = String::from_utf8(w.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"), "{text}");

        let mut w = CountingWriter::default();
        write_stream_header(&mut w, "application/jsonl").unwrap();
        assert_eq!(w.writes, 1);
        assert!(String::from_utf8(w.bytes)
            .unwrap()
            .ends_with("Connection: close\r\n\r\n"));

        for (body, close) in [("{\"id\":1}", false), ("", true)] {
            let mut w = CountingWriter::default();
            write_request(&mut w, "POST", "/v1/jobs", body, close).unwrap();
            assert_eq!(w.writes, 1);
            let text = String::from_utf8(w.bytes).unwrap();
            assert!(text.starts_with("POST /v1/jobs HTTP/1.1\r\n"), "{text}");
            assert!(text.ends_with(&format!("\r\n\r\n{body}")), "{text}");
            assert_eq!(text.contains("Connection: close\r\n"), close, "{text}");
        }
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_stream() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for i in 0..3 {
                let close = if i == 2 { "Connection: close\r\n" } else { "" };
                write!(stream, "GET /v1/status HTTP/1.1\r\nHost: x\r\n{close}\r\n").unwrap();
            }
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response.matches("HTTP/1.1 200 OK").count()
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        let mut served = 0;
        while let Ok(Some(req)) = read_request(&mut reader) {
            write_response(&mut stream, 200, "application/json", "{}", req.close).unwrap();
            served += 1;
            if req.close {
                break;
            }
        }
        drop((stream, reader));
        assert_eq!(served, 3);
        assert_eq!(client.join().unwrap(), 3);
    }

    /// Serves `head` to `read_request` from a peer that then keeps the
    /// connection open, with a read deadline so an unbounded read fails
    /// the test instead of hanging it.
    fn read_from_open_peer(head: Vec<u8>) -> std::io::Result<Option<Request>> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&head).unwrap();
            let _ = done_rx.recv();
        });
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let result = read_request(&mut BufReader::new(stream));
        drop(done_tx);
        client.join().unwrap();
        result
    }

    #[test]
    fn an_unterminated_request_line_is_rejected_at_the_cap() {
        let err = read_from_open_peer(vec![b'G'; 16 << 10]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn too_many_headers_are_rejected() {
        let mut head = b"GET /v1/status HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            head.extend_from_slice(format!("X-H{i}: 1\r\n").as_bytes());
        }
        let err = read_from_open_peer(head).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        // The cap itself is accepted.
        let mut head = b"GET /v1/status HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS {
            head.extend_from_slice(format!("X-H{i}: 1\r\n").as_bytes());
        }
        head.extend_from_slice(b"\r\n");
        assert!(read_from_open_peer(head).unwrap().is_some());
    }

    #[test]
    fn clean_eof_reads_as_none() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let _ = TcpStream::connect(addr).unwrap();
            // Drop immediately: clean close, no request.
        });
        let (stream, _) = listener.accept().unwrap();
        client.join().unwrap();
        let mut reader = BufReader::new(stream);
        assert!(read_request(&mut reader).unwrap().is_none());
    }
}

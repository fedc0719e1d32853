//! A blocking client for `fairschedd`, used by the `fairsched submit` /
//! `status` subcommands, the load test, and the replay-equivalence
//! suite.
//!
//! Each client holds **one reused keep-alive connection**: sequential
//! requests share the socket, so a submitter pays the TCP handshake once
//! rather than per request. A stale connection (daemon restarted, idle
//! drop) is detected on failure and retried once on a fresh socket.
//! Cloning a client clones the address, not the connection — clones are
//! how the load test gives every submitter thread its own socket.
//!
//! Errors come back typed: a daemon-side rejection decodes into the same
//! [`ServeError`] variant the daemon constructed (so callers can match on
//! [`ServeError::NonMonotonicSubmit`] across the wire), and transport
//! failures are [`ServeError::Io`].

use crate::api::{
    AdvanceResponse, SealResponse, ServeError, SessionSpec, StatusResponse, SubmitRequest,
    SubmitResponse,
};
use crate::http::write_request;
use fairsched_core::json::{parse, Json};
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// The reused connection: write half plus its buffered reader (same
/// socket, two fds).
struct ClientConn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A client bound to one daemon address (and optionally one named
/// session — see [`Client::for_session`]).
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    /// Session path prefix: empty for the default session, otherwise
    /// `/v1/sessions/{name}` — `/v1/<rest>` requests are rewritten to
    /// `{prefix}/<rest>`.
    prefix: String,
    conn: Mutex<Option<ClientConn>>,
}

impl Clone for Client {
    /// Clones the address and session binding, **not** the connection:
    /// each clone opens its own socket on first use.
    fn clone(&self) -> Client {
        Client {
            addr: self.addr,
            timeout: self.timeout,
            prefix: self.prefix.clone(),
            conn: Mutex::new(None),
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.addr)
            .field("timeout", &self.timeout)
            .field("prefix", &self.prefix)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// A client for the daemon at `addr`, addressing the default session.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            timeout: Duration::from_secs(30),
            prefix: String::new(),
            conn: Mutex::new(None),
        }
    }

    /// Overrides the per-request socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// A client addressing the named session: every `/v1/*` request is
    /// routed to `/v1/sessions/{name}/*` (except the session-management
    /// and `/metrics` endpoints, which are daemon-wide).
    pub fn for_session(&self, name: &str) -> Client {
        Client {
            addr: self.addr,
            timeout: self.timeout,
            prefix: format!("/v1/sessions/{name}"),
            conn: Mutex::new(None),
        }
    }

    /// Submits one job.
    pub fn submit(&self, req: &SubmitRequest) -> Result<SubmitResponse, ServeError> {
        let body = self.request("POST", "/v1/jobs", Some(&req.to_json().render()))?;
        SubmitResponse::from_json(&body)
    }

    /// The live status view.
    pub fn status(&self) -> Result<StatusResponse, ServeError> {
        let body = self.request("GET", "/v1/status", None)?;
        StatusResponse::from_json(&body)
    }

    /// Grants simulated time up to `to` (manual-clock daemons).
    pub fn advance(&self, to: u64) -> Result<AdvanceResponse, ServeError> {
        let payload = Json::obj([("to", Json::UInt(to))]).render();
        let body = self.request("POST", "/v1/advance", Some(&payload))?;
        AdvanceResponse::from_json(&body)
    }

    /// Nudges a realtime-clock daemon to its current clock target.
    pub fn tick(&self) -> Result<AdvanceResponse, ServeError> {
        let body = self.request("POST", "/v1/tick", None)?;
        AdvanceResponse::from_json(&body)
    }

    /// The live wait decomposition for one job, as raw JSON.
    pub fn explain(&self, id: u32) -> Result<Json, ServeError> {
        self.request("GET", &format!("/v1/explain/{id}"), None)
    }

    /// The live profile report, as raw JSON.
    pub fn profile(&self) -> Result<Json, ServeError> {
        self.request("GET", "/v1/profile", None)
    }

    /// Seals the session: plays out all remaining events.
    pub fn seal(&self) -> Result<SealResponse, ServeError> {
        let body = self.request("POST", "/v1/seal", None)?;
        SealResponse::from_json(&body)
    }

    /// Seals every session and stops the daemon's accept loop.
    pub fn shutdown(&self) -> Result<(), ServeError> {
        self.request("POST", "/v1/shutdown", None).map(|_| ())
    }

    /// Creates a named session on the daemon; unset spec fields inherit
    /// the daemon's template configuration.
    pub fn create_session(&self, spec: &SessionSpec) -> Result<(), ServeError> {
        self.request_unscoped("POST", "/v1/sessions", Some(&spec.to_json().render()))
            .map(|_| ())
    }

    /// Session names live on the daemon, sorted.
    pub fn list_sessions(&self) -> Result<Vec<String>, ServeError> {
        let body = self.request_unscoped("GET", "/v1/sessions", None)?;
        let Some(Json::Arr(rows)) = body.get("sessions") else {
            return Err(ServeError::Io("malformed session list".into()));
        };
        Ok(rows
            .iter()
            .filter_map(|row| row.get("name").and_then(Json::as_str))
            .map(str::to_string)
            .collect())
    }

    /// Deletes a named session (and its journal) on the daemon.
    pub fn delete_session(&self, name: &str) -> Result<(), ServeError> {
        self.request_unscoped("DELETE", &format!("/v1/sessions/{name}"), None)
            .map(|_| ())
    }

    /// The raw Prometheus exposition text from `GET /metrics`.
    pub fn metrics_text(&self) -> Result<String, ServeError> {
        let (status, payload) = self.request_raw("GET", "/metrics", None)?;
        if status >= 400 {
            return Err(ServeError::Io(format!("/metrics returned {status}")));
        }
        Ok(payload)
    }

    /// The live fairness snapshot from `GET /v1/fairness`, as raw JSON.
    pub fn fairness(&self) -> Result<Json, ServeError> {
        self.request("GET", "/v1/fairness", None)
    }

    /// Opens the trace stream and collects every JSONL record until the
    /// daemon seals. Blocks; run it from its own thread to stream live.
    /// The trailing `trace_end` line the daemon appends is stripped; use
    /// [`Client::trace_capture`] to also learn how many lines the daemon
    /// dropped on this subscription.
    pub fn trace_lines(&self) -> Result<Vec<String>, ServeError> {
        self.trace_capture().map(|(lines, _)| lines)
    }

    /// Like [`Client::trace_lines`], but also returns the drop count
    /// from the stream's closing `trace_end` line: the number of trace
    /// records the daemon discarded because this subscriber fell behind
    /// (0 for a complete stream). Trace streams always use their own
    /// dedicated connection — they outlive any request/response cycle.
    pub fn trace_capture(&self) -> Result<(Vec<String>, u64), ServeError> {
        let mut stream = self.connect()?;
        // Streams have no bounded duration; disable the read timeout so
        // a quiet session does not sever the subscription.
        stream.set_read_timeout(None)?;
        write_request(&mut stream, "GET", &self.scoped("/v1/trace"), "", true)?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        // Skip the response headers.
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(ServeError::Io("trace stream closed in headers".into()));
            }
            if line.trim_end().is_empty() {
                break;
            }
        }
        let mut lines = Vec::new();
        let mut dropped = 0u64;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Ok((lines, dropped));
            }
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                continue;
            }
            if let Ok(json) = parse(trimmed) {
                if json.get("trace_end").is_some() {
                    dropped = json.get("dropped").and_then(Json::as_u64).unwrap_or(0);
                    continue;
                }
            }
            lines.push(trimmed.to_string());
        }
    }

    /// Rewrites a default-session route onto this client's session.
    fn scoped(&self, path: &str) -> String {
        match path.strip_prefix("/v1/") {
            Some(rest) if !self.prefix.is_empty() => format!("{}/{rest}", self.prefix),
            _ => path.to_string(),
        }
    }

    fn connect(&self) -> Result<TcpStream, ServeError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        Ok(stream)
    }

    fn request(&self, method: &str, path: &str, body: Option<&str>) -> Result<Json, ServeError> {
        let (status, payload) = self.request_raw(method, &self.scoped(path), body)?;
        Self::decode_body(status, &payload)
    }

    /// A request that ignores the session binding (session management and
    /// daemon-wide endpoints).
    fn request_unscoped(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Json, ServeError> {
        let (status, payload) = self.request_raw(method, path, body)?;
        Self::decode_body(status, &payload)
    }

    fn decode_body(status: u16, payload: &str) -> Result<Json, ServeError> {
        let json = parse(payload)?;
        if status >= 400 {
            return Err(ServeError::decode(&json));
        }
        Ok(json)
    }

    /// One request/response exchange over the reused connection. On a
    /// transport failure with a cached (possibly stale) connection, the
    /// request is retried exactly once on a fresh socket; failures on a
    /// fresh socket surface immediately.
    fn request_raw(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), ServeError> {
        let mut guard = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        let mut reused = guard.is_some();
        loop {
            if guard.is_none() {
                let stream = self.connect()?;
                let reader_stream = stream.try_clone().map_err(ServeError::from)?;
                *guard = Some(ClientConn {
                    stream,
                    reader: BufReader::new(reader_stream),
                });
            }
            let conn = guard.as_mut().expect("just ensured");
            match Self::exchange(conn, method, path, body.unwrap_or("")) {
                Ok((status, payload, close)) => {
                    if close {
                        *guard = None;
                    }
                    return Ok((status, payload));
                }
                Err(e) => {
                    *guard = None;
                    if reused {
                        // The cached connection may simply have gone
                        // stale (daemon restart, idle drop); one retry
                        // on a fresh socket.
                        reused = false;
                        continue;
                    }
                    return Err(e.into());
                }
            }
        }
    }

    /// Writes one request (a single write, see [`write_request`]) and
    /// reads its `Content-Length`-framed response. Returns the status,
    /// body, and whether the daemon asked to close the connection.
    fn exchange(
        conn: &mut ClientConn,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String, bool)> {
        write_request(&mut conn.stream, method, path, body, false)?;
        let mut line = String::new();
        if conn.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before status line",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
            })?;
        let mut content_length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if conn.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof in response headers",
                ));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                } else if name.eq_ignore_ascii_case("connection")
                    && value.trim().eq_ignore_ascii_case("close")
                {
                    close = true;
                }
            }
        }
        let mut payload = vec![0u8; content_length];
        conn.reader.read_exact(&mut payload)?;
        let payload = String::from_utf8(payload).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 response body")
        })?;
        Ok((status, payload, close))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_request, write_response};
    use std::net::TcpListener;

    /// The keep-alive contract: N sequential requests from one client
    /// travel over ONE socket. The test server accepts exactly one
    /// connection and serves every request on it — if the client opened
    /// a second socket, its request would hang on the never-accepting
    /// listener and the test would time out.
    #[test]
    fn sequential_requests_reuse_one_socket() {
        const N: usize = 16;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut stream = stream;
            let mut served = 0usize;
            while let Ok(Some(req)) = read_request(&mut reader) {
                assert_eq!(req.path, "/v1/status");
                let body = format!(
                    "{{\"policy\":\"easy.nomax\",\"nodes\":32,\"now\":{served},\
                     \"granted\":0,\"queued\":0,\"running\":0,\"free\":32,\"down\":0,\
                     \"accepted\":0,\"completed\":0,\"sealed\":false}}"
                );
                write_response(&mut stream, 200, "application/json", &body, req.close).unwrap();
                served += 1;
                if req.close || served == N {
                    break;
                }
            }
            served
        });
        let client = Client::new(addr).with_timeout(Duration::from_secs(5));
        for i in 0..N {
            let status = client.status().unwrap();
            assert_eq!(status.now, i as u64, "responses must arrive in order");
        }
        drop(client);
        assert_eq!(server.join().unwrap(), N);
    }

    /// A clone shares nothing with its parent: it opens its own socket.
    #[test]
    fn clones_do_not_share_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut conns = 0;
            for stream in listener.incoming().take(2) {
                let stream = stream.unwrap();
                conns += 1;
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                if let Ok(Some(req)) = read_request(&mut reader) {
                    write_response(&mut stream, 200, "application/json", "{}", req.close).unwrap();
                }
            }
            conns
        });
        let a = Client::new(addr).with_timeout(Duration::from_secs(5));
        let b = a.clone();
        a.profile().unwrap();
        b.profile().unwrap();
        drop((a, b));
        assert_eq!(server.join().unwrap(), 2);
    }

    #[test]
    fn session_scoping_rewrites_paths() {
        let base = Client::new("127.0.0.1:1".parse().unwrap());
        assert_eq!(base.scoped("/v1/jobs"), "/v1/jobs");
        let scoped = base.for_session("team-a");
        assert_eq!(scoped.scoped("/v1/jobs"), "/v1/sessions/team-a/jobs");
        assert_eq!(scoped.scoped("/v1/trace"), "/v1/sessions/team-a/trace");
        assert_eq!(scoped.scoped("/metrics"), "/metrics");
    }
}

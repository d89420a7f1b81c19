//! A minimal blocking HTTP/1.1 client for the service.
//!
//! Shared by the integration tests, the `loadgen` bench binary, and the
//! CI smoke script — all of which need exactly one thing: fire a request
//! at a `subrank serve` instance over a keep-alive connection and read
//! the JSON (or text) back. Not a general HTTP client: fixed-length
//! bodies only, no redirects, no TLS.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use approxrank_store::json::{parse, Json};

/// One status + body exchange.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// The HTTP status code.
    pub status: u16,
    /// The raw body.
    pub body: Vec<u8>,
    /// Whether the server announced `Connection: close`.
    pub closed: bool,
    /// The `X-Request-Id` the server echoed, if any — the trace id to
    /// quote when digging into this exchange server-side.
    pub request_id: Option<String>,
    /// The `Retry-After` seconds on a 429 load-shed answer, if any.
    pub retry_after: Option<u64>,
}

impl ClientResponse {
    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Result<Json, String> {
        parse(&self.text())
    }
}

/// A keep-alive connection to one server.
pub struct Client {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
    timeout: Duration,
    tenant: Option<String>,
}

impl Client {
    /// A client for `addr` (e.g. `127.0.0.1:7878`). Connects lazily on
    /// the first request and reconnects transparently after the server
    /// closes the connection.
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            stream: None,
            timeout: Duration::from_secs(10),
            tenant: None,
        }
    }

    /// Overrides the per-exchange I/O timeout (default 10 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// Sends an `X-Tenant` header on every request, so the server's
    /// admission control attributes this client's traffic.
    pub fn with_tenant(mut self, tenant: &str) -> Client {
        self.tenant = Some(tenant.to_string());
        self
    }

    fn connection(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.stream = Some(BufReader::new(stream));
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    /// `POST path` with a JSON body and a caller-chosen `X-Request-Id`,
    /// for propagating a trace id into the server.
    pub fn post_with_id(
        &mut self,
        path: &str,
        body: &str,
        request_id: &str,
    ) -> std::io::Result<ClientResponse> {
        self.request_with_id("POST", path, Some(body), Some(request_id))
    }

    /// `DELETE path`.
    pub fn delete(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("DELETE", path, None)
    }

    /// One request/response exchange, reconnecting once if the pooled
    /// connection turned out to be dead.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        self.request_with_id(method, path, body, None)
    }

    /// Like [`Client::request`], optionally sending an `X-Request-Id`
    /// header so the server adopts the caller's trace id.
    pub fn request_with_id(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        request_id: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        let had_connection = self.stream.is_some();
        match self.try_request(method, path, body, request_id) {
            Ok(response) => Ok(response),
            Err(e) if had_connection => {
                // A stale keep-alive connection (server restarted or timed
                // us out); retry exactly once on a fresh one.
                let _ = e;
                self.stream = None;
                self.try_request(method, path, body, request_id)
            }
            Err(e) => Err(e),
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        request_id: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        let payload = body.unwrap_or("");
        let id_header = match request_id {
            Some(id) => format!("X-Request-Id: {id}\r\n"),
            None => String::new(),
        };
        let tenant_header = match &self.tenant {
            Some(tenant) => format!("X-Tenant: {tenant}\r\n"),
            None => String::new(),
        };
        let reader = self.connection()?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: approxrank\r\n{id_header}{tenant_header}\
             Content-Length: {}\r\n\r\n",
            payload.len()
        );
        {
            let stream = reader.get_mut();
            stream.write_all(head.as_bytes())?;
            stream.write_all(payload.as_bytes())?;
            stream.flush()?;
        }
        let response = read_response(reader)?;
        if response.closed {
            self.stream = None;
        }
        Ok(response)
    }
}

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

fn read_line<R: BufRead>(reader: &mut R) -> std::io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<ClientResponse> {
    let status_line = read_line(reader)?;
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(bad_data(format!("bad status line {status_line:?}")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_data(format!("bad status in {status_line:?}")))?;

    let mut content_length = 0usize;
    let mut closed = false;
    let mut request_id = None;
    let mut retry_after = None;
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad_data(format!("bad header {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| bad_data(format!("bad content-length {value:?}")))?;
        } else if name == "connection" && value.eq_ignore_ascii_case("close") {
            closed = true;
        } else if name == "x-request-id" {
            request_id = Some(value.to_string());
        } else if name == "retry-after" {
            retry_after = value.parse().ok();
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(ClientResponse {
        status,
        body,
        closed,
        request_id,
        retry_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_response() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}";
        let r = read_response(&mut BufReader::new(Cursor::new(raw))).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.text(), "{}");
        assert!(!r.closed);
        assert_eq!(r.request_id, None);
    }

    #[test]
    fn captures_request_id_header() {
        let raw = "HTTP/1.1 200 OK\r\nX-Request-Id: cafef00d\r\nContent-Length: 2\r\n\r\n{}";
        let r = read_response(&mut BufReader::new(Cursor::new(raw))).unwrap();
        assert_eq!(r.request_id.as_deref(), Some("cafef00d"));
    }

    #[test]
    fn captures_retry_after_header() {
        let raw = "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 3\r\nContent-Length: 0\r\n\r\n";
        let r = read_response(&mut BufReader::new(Cursor::new(raw))).unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.retry_after, Some(3));
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
        let r = read_response(&mut BufReader::new(Cursor::new(raw))).unwrap();
        assert_eq!(r.retry_after, None);
    }

    #[test]
    fn detects_close() {
        let raw =
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        let r = read_response(&mut BufReader::new(Cursor::new(raw))).unwrap();
        assert_eq!(r.status, 503);
        assert!(r.closed);
    }

    #[test]
    fn rejects_garbage() {
        let raw = "SPDY nonsense\r\n\r\n";
        assert!(read_response(&mut BufReader::new(Cursor::new(raw))).is_err());
    }

    #[test]
    fn truncated_body_is_an_error() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_response(&mut BufReader::new(Cursor::new(raw))).is_err());
    }
}

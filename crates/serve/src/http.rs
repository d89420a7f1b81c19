//! A deliberately small HTTP/1.1 implementation.
//!
//! Just enough of the protocol for a JSON service on a trusted network:
//! request-line + headers + `Content-Length` bodies in, fixed-length
//! responses out, keep-alive by default. Chunked transfer encoding,
//! multipart, and everything else are rejected with clear status codes.
//! All limits (head size, body size) are enforced *before* the bytes are
//! buffered, so a misbehaving client cannot balloon server memory.

use std::io::{BufRead, Write};

use approxrank_store::json::{obj, Json};

/// Maximum bytes for the request line plus headers.
pub const MAX_HEAD: usize = 16 * 1024;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// The path component, query string stripped.
    pub path: String,
    /// Header pairs with lowercased names.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == &name.to_ascii_lowercase())
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

/// Why reading a request failed, and what (if anything) to tell the
/// client about it.
#[derive(Debug)]
pub enum ReadError {
    /// The connection closed cleanly before a request started — the
    /// normal end of a keep-alive exchange, not an error to report.
    Closed,
    /// Transport failure or timeout mid-request.
    Io(std::io::Error),
    /// Unparseable request head → respond 400.
    Malformed(String),
    /// Body larger than the configured cap → respond 413.
    BodyTooLarge,
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one request from the stream.
///
/// `max_body` caps `Content-Length`; the head is capped at [`MAX_HEAD`].
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, ReadError> {
    let request_line = match read_line(reader, true)? {
        None => return Err(ReadError::Closed),
        Some(l) => l,
    };
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("bad version {version:?}")));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    let mut head_bytes = request_line.len();
    loop {
        let line = read_line(reader, false)?
            .ok_or_else(|| ReadError::Malformed("eof inside headers".into()))?;
        if line.is_empty() {
            break;
        }
        head_bytes += line.len();
        if head_bytes > MAX_HEAD {
            return Err(ReadError::Malformed("request head too large".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ReadError::Malformed("chunked bodies not supported".into()));
    }

    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|e| ReadError::Malformed(format!("bad content-length {v:?}: {e}")))?,
    };
    if content_length > max_body {
        return Err(ReadError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Reads a CRLF- (or bare-LF-) terminated line, without the terminator.
/// `None` means the stream ended before any byte arrived; reaching EOF
/// mid-line is an error when `at_start`, reported by the caller.
fn read_line<R: BufRead>(reader: &mut R, at_start: bool) -> Result<Option<String>, ReadError> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if buf.is_empty() && at_start {
                    return Ok(None);
                }
                return Err(ReadError::Malformed("unexpected eof".into()));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return String::from_utf8(buf)
                        .map(Some)
                        .map_err(|_| ReadError::Malformed("non-utf8 header bytes".into()));
                }
                if buf.len() > MAX_HEAD {
                    return Err(ReadError::Malformed("line too long".into()));
                }
                buf.push(byte[0]);
            }
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
}

/// A response about to be written.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// When true, advertise and perform `Connection: close`.
    pub close: bool,
    /// The request's trace id, echoed as an `X-Request-Id` response
    /// header when set (the dispatcher fills this in; handlers leave it
    /// `None` so success bodies stay byte-identical).
    pub request_id: Option<String>,
    /// Seconds to advertise in a `Retry-After` header — set on 429
    /// load-shed answers so a well-behaved client backs off instead of
    /// hammering an exhausted tenant quota.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
            request_id: None,
            retry_after: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            close: false,
            request_id: None,
            retry_after: None,
        }
    }

    /// A JSON error envelope `{"error": message}`, stamped with the
    /// active trace id (when one is in scope) so a client can quote the
    /// exact failing request back to an operator.
    pub fn error(status: u16, message: &str) -> Response {
        let mut pairs = vec![("error", Json::Str(message.into()))];
        if let Some(id) = approxrank_trace::logging::current_trace_id() {
            pairs.push(("trace_id", Json::Str(id)));
        }
        Response::json(status, obj(pairs).emit())
    }
}

/// The reason phrase for the status codes this service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes the response (status line, headers, body) and flushes.
pub fn write_response<W: Write>(writer: &mut W, response: &Response) -> std::io::Result<()> {
    let request_id = match &response.request_id {
        Some(id) => format!("X-Request-Id: {id}\r\n"),
        None => String::new(),
    };
    let retry_after = match response.retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}{}Connection: {}\r\n\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        request_id,
        retry_after,
        if response.close {
            "close"
        } else {
            "keep-alive"
        },
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(&response.body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(Cursor::new(raw.as_bytes())), 1024)
    }

    #[test]
    fn parses_get() {
        let r = parse("GET /healthz?x=1 HTTP/1.1\r\nHost: a\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert_eq!(r.header("host"), Some("a"));
        assert!(r.body.is_empty());
        assert!(!r.wants_close());
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse("POST /rank HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd")
            .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"abcd");
        assert!(r.wants_close());
    }

    #[test]
    fn bare_lf_lines_accepted() {
        let r = parse("GET / HTTP/1.1\nHost: a\n\n").unwrap();
        assert_eq!(r.path, "/");
    }

    #[test]
    fn clean_close_is_distinguished() {
        assert!(matches!(parse(""), Err(ReadError::Closed)));
        assert!(matches!(parse("GET / HT"), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn rejects_oversized_body() {
        let r = parse("POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n");
        assert!(matches!(r, Err(ReadError::BodyTooLarge)));
    }

    #[test]
    fn rejects_chunked() {
        let r = parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(matches!(r, Err(ReadError::Malformed(_))));
    }

    #[test]
    fn rejects_bad_request_line() {
        assert!(matches!(
            parse("GARBAGE\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}".into())).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn error_envelope() {
        let r = Response::error(400, "bad \"thing\"");
        let v = approxrank_store::json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("bad \"thing\""));
    }

    #[test]
    fn request_id_header_written_when_set() {
        let mut r = Response::json(200, "{}".into());
        r.request_id = Some("deadbeef01234567".into());
        let mut out = Vec::new();
        write_response(&mut out, &r).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("X-Request-Id: deadbeef01234567\r\n"),
            "{text}"
        );

        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}".into())).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("X-Request-Id"), "{text}");
    }

    #[test]
    fn retry_after_header_written_when_set() {
        let mut r = Response::error(429, "tenant over quota");
        r.retry_after = Some(1);
        let mut out = Vec::new();
        write_response(&mut out, &r).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");

        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}".into())).unwrap();
        assert!(!String::from_utf8(out).unwrap().contains("Retry-After"));
    }

    #[test]
    fn error_envelope_carries_scoped_trace_id() {
        let _scope = approxrank_trace::logging::trace_scope("tid42");
        let r = Response::error(404, "nope");
        let v = approxrank_store::json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert_eq!(v.get("trace_id").unwrap().as_str(), Some("tid42"));
    }
}

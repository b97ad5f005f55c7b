//! A minimal HTTP/1.1 codec — just enough protocol for a loopback JSON
//! service: incremental request parsing with a bounded header/body
//! size, `Content-Length` bodies, keep-alive, and response rendering.
//! The reactor ([`crate::net`]) owns the sockets; this module only
//! turns bytes into requests and responses into bytes. No TLS, no
//! chunked encoding, no multipart — requests that need them are
//! rejected rather than misparsed.

/// Largest accepted header block, bytes.
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Request target, e.g. `/v1/schedule` (query strings are kept
    /// verbatim; the service does not use them).
    pub path: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `name` (lower-case), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// `true` unless the client asked to close the connection.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// One response to write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (name, value), e.g. `X-Cache` / `Retry-After`.
    pub extra_headers: Vec<(String, String)>,
    /// The body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// Adds an extra header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.extra_headers.push((name.to_owned(), value.to_owned()));
        self
    }
}

/// Why parsing a request failed.
#[derive(Debug)]
pub enum ReadError {
    /// The bytes were not a parseable HTTP/1.1 request.
    Malformed(String),
    /// The declared body exceeds the server's limit.
    BodyTooLarge(usize),
}

/// Attempts to parse one complete request from the front of `buf`
/// without consuming it. Returns `Ok(None)` when more bytes are
/// needed, or `Ok(Some((request, consumed)))` where `consumed` is how
/// many leading bytes of `buf` the request (head + body) occupied.
/// Bytes past `consumed` are the start of a pipelined next request.
///
/// # Errors
///
/// [`ReadError::Malformed`] on protocol violations,
/// [`ReadError::BodyTooLarge`] when the declared body exceeds
/// `max_body` (checked as soon as the header block is complete, before
/// any body bytes arrive).
pub fn parse_request(buf: &[u8], max_body: usize) -> Result<Option<(Request, usize)>, ReadError> {
    let Some(header_end) = find_header_end(buf) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ReadError::Malformed("header block too large".into()));
        }
        return Ok(None);
    };

    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| ReadError::Malformed("header block is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_owned();
    let path = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("request line has no target".into()))?
        .to_owned();
    let version = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("request line has no version".into()))?;
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ReadError::Malformed(format!(
            "unsupported version `{version}`"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("malformed header `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    let mut request = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };

    if request.header("transfer-encoding").is_some() {
        return Err(ReadError::Malformed(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    let content_length = match request.header("content-length") {
        None => 0usize,
        Some(v) => v
            .parse()
            .map_err(|_| ReadError::Malformed(format!("bad content-length `{v}`")))?,
    };
    if content_length > max_body {
        return Err(ReadError::BodyTooLarge(content_length));
    }

    let body_start = header_end + 4;
    let consumed = body_start + content_length;
    if buf.len() < consumed {
        return Ok(None);
    }
    request.body = buf[body_start..consumed].to_vec();
    Ok(Some((request, consumed)))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Serializes `response` to its exact wire bytes, with an exact
/// `Content-Length`.
#[must_use]
pub fn render_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(response.body.as_bytes());
    bytes
}

/// Canonical reason phrase for the status codes this service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` as one complete request that spans every byte.
    fn feed(raw: &[u8]) -> Result<Request, ReadError> {
        parse_request(raw, 1024 * 1024).map(|parsed| {
            let (request, consumed) = parsed.expect("a complete request");
            assert_eq!(consumed, raw.len());
            request
        })
    }

    #[test]
    fn parses_post_with_body() {
        let req = feed(b"POST /v1/schedule HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody")
            .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/schedule");
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_get_without_body_and_connection_close() {
        let req = feed(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").expect("parses");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(!req.keep_alive());
    }

    #[test]
    fn rejects_garbage_and_bad_lengths() {
        assert!(matches!(
            feed(b"NONSENSE\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            feed(b"GET / HTTP/9.9\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            feed(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn incremental_parse_needs_bytes_then_completes() {
        let wire =
            b"POST /v1/schedule HTTP/1.1\r\nContent-Length: 5\r\n\r\nfirstGET /x HTTP/1.1\r\n\r\n";
        // Every strict prefix that ends before the body completes must
        // ask for more bytes, never error.
        let full = "POST /v1/schedule HTTP/1.1\r\nContent-Length: 5\r\n\r\nfirst".len();
        for cut in 0..full {
            assert!(
                matches!(parse_request(&wire[..cut], 1024), Ok(None)),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let (req, consumed) = parse_request(wire, 1024)
            .expect("parses")
            .expect("complete");
        assert_eq!(req.body, b"first");
        assert_eq!(consumed, full);
        // The pipelined remainder parses as its own request.
        let (second, rest) = parse_request(&wire[consumed..], 1024)
            .expect("parses")
            .expect("complete");
        assert_eq!(second.method, "GET");
        assert_eq!(consumed + rest, wire.len());
    }

    #[test]
    fn incremental_parse_rejects_oversized_body_before_it_arrives() {
        let head = b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n";
        assert!(matches!(
            parse_request(head, 10),
            Err(ReadError::BodyTooLarge(99))
        ));
    }

    #[test]
    fn response_writes_exact_content_length() {
        let resp =
            Response::json(429, "{\"error\":\"busy\"}".to_owned()).with_header("Retry-After", "1");
        let text = String::from_utf8(render_response(&resp, false)).expect("UTF-8");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 16\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"busy\"}"));
    }
}

//! Minimal HTTP/1.1 request parsing and response building for the control
//! plane (`GET /metrics`, `GET /healthz`, `GET /stats`).
//!
//! Hand-rolled and dependency-free like everything else in the workspace;
//! the parser is incremental (`parse` returns `Ok(None)` until the full
//! head — and body, if `Content-Length` says so — has arrived) and total:
//! any byte sequence either parses, asks for more, or fails with a typed
//! `HttpError`. Never panics (property-tested over truncations and
//! corruptions alongside the binary codec).
//!
//! A body is framed by `Content-Length` alone, and only an unambiguous one
//! is accepted: digits only, and every copy of the header agreeing. A
//! request carrying `Transfer-Encoding` is refused, so a pipelined request
//! can never be read as a body or a body as a request.

use std::fmt;

/// Cap on the request head (request line + headers) — a hostile client
/// cannot balloon per-connection memory by never sending `\r\n\r\n`.
pub(crate) const MAX_HEAD: usize = 8 * 1024;

/// Cap on a request body.
pub(crate) const MAX_BODY: usize = 64 * 1024;

/// A parsed HTTP/1.1 request: what the control-plane router reads. Headers
/// are validated and a body is framed (and skipped), but neither is kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// Request method, as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target (`/metrics`).
    pub target: String,
}

/// Typed HTTP parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum HttpError {
    /// The request line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// A header line has no `:` separator or a non-ASCII name, or the
    /// request carries `Transfer-Encoding`.
    BadHeader,
    /// The head grew past [`MAX_HEAD`] without terminating.
    HeadTooLarge,
    /// `Content-Length` is not `1*DIGIT`, disagrees with another
    /// `Content-Length`, or exceeds [`MAX_BODY`].
    BadContentLength,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::BadHeader => write!(f, "malformed header"),
            HttpError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD} bytes"),
            HttpError::BadContentLength => write!(f, "bad content-length"),
        }
    }
}

impl std::error::Error for HttpError {}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Incrementally parse one request from the front of `buf`.
///
/// `Ok(None)` means the head (or declared body) is still incomplete;
/// `Ok(Some((request, consumed)))` yields the request and how many bytes it
/// used (pipelining-safe); `Err` means the bytes can never become a valid
/// request.
pub(crate) fn parse(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
    let head_end = match find_head_end(buf) {
        Some(e) => e,
        None => {
            if buf.len() > MAX_HEAD {
                return Err(HttpError::HeadTooLarge);
            }
            return Ok(None);
        }
    };
    if head_end > MAX_HEAD {
        return Err(HttpError::HeadTooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end - 4]).map_err(|_| HttpError::BadHeader)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
    let mut parts = request_line.split(' ');
    let method = parts.next().filter(|m| !m.is_empty());
    let target = parts.next().filter(|t| !t.is_empty());
    let version = parts.next();
    let (method, target) = match (method, target, version, parts.next()) {
        (Some(m), Some(t), Some(v), None) if v.starts_with("HTTP/1.") => (m, t),
        _ => return Err(HttpError::BadRequestLine),
    };
    if !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(HttpError::BadRequestLine);
    }
    // Every header line is well-formed and none is `Transfer-Encoding`
    // before any `Content-Length` is read.
    for line in lines.clone() {
        let (name, _) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        if name.is_empty()
            || !name.bytes().all(|b| b.is_ascii_graphic())
            || name.eq_ignore_ascii_case("transfer-encoding")
        {
            return Err(HttpError::BadHeader);
        }
    }
    let mut content_length = None;
    for (name, value) in lines.filter_map(|line| line.split_once(':')) {
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let n = Some(value.trim())
            .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n <= MAX_BODY && content_length.is_none_or(|m| m == n))
            .ok_or(HttpError::BadContentLength)?;
        content_length = Some(n);
    }
    let consumed = head_end + content_length.unwrap_or(0);
    if buf.len() < consumed {
        return Ok(None);
    }
    let request = Request {
        method: method.to_string(),
        target: target.to_string(),
    };
    Ok(Some((request, consumed)))
}

/// Build a complete HTTP/1.1 response with `Content-Length` and
/// `Connection: keep-alive`.
pub(crate) fn response(status: u16, reason: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensact_math::rng::StdRng;

    #[test]
    fn parses_a_get_with_headers() {
        let raw = b"GET /metrics HTTP/1.1\r\nHost: edge\r\nAccept: */*\r\n\r\n";
        let (req, used) = parse(raw).unwrap().expect("complete");
        assert_eq!(used, raw.len());
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/metrics");
    }

    /// A body is consumed to its declared length, whatever the case of its
    /// header, and what follows it parses as the next request.
    #[test]
    fn parses_a_post_with_body_and_pipelined_tail() {
        let head = "POST /x HTTP/1.1\r\ncontent-LENGTH:  5 \r\n\r\n";
        let raw = format!("{head}helloGET / HTTP/1.1\r\n\r\n");
        let (req, used) = parse(raw.as_bytes()).unwrap().expect("complete");
        assert_eq!((req.method.as_str(), req.target.as_str()), ("POST", "/x"));
        assert_eq!(used, head.len() + 5);
        let (next, rest) = parse(&raw.as_bytes()[used..]).unwrap().expect("pipelined");
        assert_eq!((next.target.as_str(), used + rest), ("/", raw.len()));
    }

    #[test]
    fn incomplete_head_and_body_ask_for_more() {
        assert_eq!(parse(b"GET /metrics HTTP/1.1\r\nHo"), Ok(None));
        assert_eq!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhello"),
            Ok(None)
        );
    }

    #[test]
    fn malformed_inputs_fail_typed() {
        assert_eq!(parse(b"\r\n\r\n"), Err(HttpError::BadRequestLine));
        assert_eq!(parse(b"GET\r\n\r\n"), Err(HttpError::BadRequestLine));
        assert_eq!(
            parse(b"GET /a HTTP/1.1 extra\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        );
        assert_eq!(
            parse(b"G3T /a HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        );
        assert_eq!(
            parse(b"GET /a HTTP/1.1\r\nnocolon\r\n\r\n"),
            Err(HttpError::BadHeader)
        );
        assert_eq!(
            parse(b"GET /a HTTP/1.1\r\nContent-Length: many\r\n\r\n"),
            Err(HttpError::BadContentLength)
        );
        assert_eq!(
            parse(
                format!(
                    "GET /a HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY + 1
                )
                .as_bytes()
            ),
            Err(HttpError::BadContentLength)
        );
        // An ambiguous body length: a sign, two lengths that disagree, or a
        // transfer coding the parser does not frame.
        assert_eq!(
            parse(b"POST /a HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello"),
            Err(HttpError::BadContentLength)
        );
        assert_eq!(
            parse(b"POST /a HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\nhello"),
            Err(HttpError::BadContentLength)
        );
        assert_eq!(
            parse(b"POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"),
            Err(HttpError::BadHeader)
        );
        // Copies that agree are one length.
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok";
        assert_eq!(parse(raw).unwrap().expect("complete").1, raw.len());
    }

    #[test]
    fn unterminated_head_is_bounded() {
        let huge = vec![b'A'; MAX_HEAD + 1];
        assert_eq!(parse(&huge), Err(HttpError::HeadTooLarge));
    }

    /// Satellite: every truncation of a valid request is `Ok(None)` — never
    /// a panic, never a misparse.
    #[test]
    fn every_truncation_asks_for_more() {
        let raw = b"POST /obs HTTP/1.1\r\nHost: edge\r\nContent-Length: 4\r\n\r\nabcd";
        for cut in 0..raw.len() {
            match parse(&raw[..cut]) {
                Ok(None) => {}
                other => panic!("truncation at {cut}: {other:?}"),
            }
        }
    }

    /// Satellite: single-byte corruptions of a valid request never panic.
    #[test]
    fn every_single_byte_corruption_is_handled() {
        let raw: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\n\r\nok";
        for i in 0..raw.len() {
            for mask in [0x01u8, 0x20, 0xFF] {
                let mut evil = raw.to_vec();
                evil[i] ^= mask;
                let _ = parse(&evil); // must not panic
            }
        }
    }

    /// Satellite: random byte soup never panics the parser.
    #[test]
    fn random_garbage_never_panics() {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        for _ in 0..2000 {
            let len = (rng.next_u64() % 128) as usize;
            let buf: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            if let Ok(Some((_, used))) = parse(&buf) {
                assert!(used <= buf.len());
            }
        }
    }

    #[test]
    fn response_builder_emits_well_formed_http() {
        let resp = response(429, "Too Many Requests", "text/plain", b"busy");
        let text = String::from_utf8(resp).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.ends_with("\r\n\r\nbusy"));
    }
}

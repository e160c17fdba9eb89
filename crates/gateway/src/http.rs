//! A deliberately small HTTP/1.1 server side: request reading with hard
//! caps and deadlines, response writing with `Connection: close`.
//!
//! A request is read in two steps, [`read_head`] then [`read_body`], so
//! the caller can refuse it between them without reading a body byte.
//! That is what `Expect: 100-continue` (RFC 9110 §10.1.1) asks of a
//! server: a client that sends it (curl does for any body over 1 MiB)
//! holds its body back until `100 Continue` or a final status arrives.
//! [`read_body`] writes the `100 Continue`, once, and only to an
//! HTTP/1.1 client that asked for it and is still owed body bytes.
//!
//! The gateway serves one request per connection — no keep-alive, no
//! chunked transfer, no pipelining. That is not laziness but the
//! robustness posture: every connection's worst case is one bounded
//! read (header cap + declared body) under a socket deadline, so a
//! slowloris or a stalled upload costs one thread for at most the
//! configured timeout and is then reaped with a typed status.

use std::io::{self, ErrorKind, Read, Write};

use slj_daemon::Stream;

/// Caps applied while reading a request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_header: usize,
    /// Maximum declared `Content-Length`.
    pub max_body: usize,
}

/// A request's line and headers, read and validated; the body is still
/// on the socket, apart from any prefix the header read over-fetched.
#[derive(Debug)]
pub struct Head {
    /// Uppercase method token as received (`GET`, `POST`, ...).
    pub method: String,
    /// The request target, query string included.
    pub path: String,
    /// Header names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The declared `Content-Length` (0 when absent on a bodiless
    /// method), already checked against [`Limits::max_body`].
    declared: usize,
    /// An HTTP/1.1 request carrying `Expect: 100-continue` (ignored on
    /// HTTP/1.0, as RFC 9110 requires).
    expects_continue: bool,
    /// Body bytes that arrived with the header block.
    prefix: Vec<u8>,
}

impl Head {
    /// Whether the client is holding its body back for `100 Continue`:
    /// it asked, and body bytes are still outstanding. A refusal
    /// answered now reaches it without a body byte being read.
    pub fn awaits_continue(&self) -> bool {
        self.expects_continue && self.prefix.len() < self.declared
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as received (`GET`, `POST`, ...).
    pub method: String,
    /// The request target, query string included.
    pub path: String,
    /// Header names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Every variant maps to one response
/// status (or to silence, when the peer is already gone).
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed or the socket died before a full request; there
    /// is nobody to answer.
    Disconnected,
    /// The socket deadline expired mid-request (slowloris, stalled
    /// upload): `408 Request Timeout`.
    Timeout,
    /// Request line + headers exceeded the cap: `431`.
    HeadersTooLarge,
    /// The request does not parse as HTTP/1.x: `400`.
    Malformed(String),
    /// A body-bearing request without `Content-Length`: `411`.
    LengthRequired,
    /// A `Content-Length` that is not a plain decimal byte count —
    /// signs, spaces, other non-digits, a value past `usize` — or
    /// several headers that disagree: `400`.
    BadContentLength(String),
    /// Declared body over the cap: `413`.
    BodyTooLarge { declared: usize, max: usize },
    /// An `Expect` other than `100-continue`: `417`.
    ExpectationFailed(String),
}

impl HttpError {
    /// The status line this error answers with, or `None` when the
    /// connection is already dead.
    pub fn status(&self) -> Option<(u16, String)> {
        match self {
            HttpError::Disconnected => None,
            HttpError::Timeout => Some((408, "request timed out".to_owned())),
            HttpError::HeadersTooLarge => Some((431, "request headers too large".to_owned())),
            HttpError::Malformed(why) => Some((400, format!("malformed request: {why}"))),
            HttpError::LengthRequired => {
                Some((411, "POST requires a Content-Length header".to_owned()))
            }
            HttpError::BadContentLength(why) => Some((400, format!("bad Content-Length: {why}"))),
            HttpError::BodyTooLarge { declared, max } => Some((
                413,
                format!("body of {declared} bytes exceeds the {max}-byte limit"),
            )),
            HttpError::ExpectationFailed(what) => {
                Some((417, format!("cannot meet the expectation '{what}'")))
            }
        }
    }
}

fn io_kind(e: &io::Error) -> HttpError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Disconnected,
    }
}

/// Reads and validates the request line and headers. Every refusal
/// that depends only on them — `400`, `411`, `413`, `417`, `431` — is
/// returned here, before any body byte is asked of the client.
///
/// # Errors
///
/// A typed [`HttpError`]; see each variant for the status it maps to.
pub fn read_head(stream: &mut Stream, limits: &Limits) -> Result<Head, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 8 * 1024];
    // Accumulate until the blank line ends the header block.
    let header_end = loop {
        if let Some(at) = find_blank_line(&buf) {
            break at;
        }
        if buf.len() > limits.max_header {
            return Err(HttpError::HeadersTooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Disconnected),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io_kind(&e)),
        }
    };
    if header_end > limits.max_header {
        return Err(HttpError::HeadersTooLarge);
    }
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| HttpError::Malformed("headers are not UTF-8".to_owned()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_owned(), p.to_owned(), v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line '{request_line}'"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported {version}")));
    }
    let http10 = version == "HTTP/1.0";
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line '{line}'")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let declared = match content_length(&headers)? {
        Some(n) => n,
        None if method == "POST" || method == "PUT" => return Err(HttpError::LengthRequired),
        None => 0,
    };
    if declared > limits.max_body {
        return Err(HttpError::BodyTooLarge {
            declared,
            max: limits.max_body,
        });
    }
    let mut expects_continue = false;
    for (_, value) in headers.iter().filter(|(k, _)| k == "expect") {
        if value.eq_ignore_ascii_case("100-continue") {
            expects_continue = !http10;
        } else {
            return Err(HttpError::ExpectationFailed(value.clone()));
        }
    }
    // Anything the header read over-fetched is the body's prefix.
    let prefix = buf.split_off(header_end + 4);
    Ok(Head {
        method,
        path,
        headers,
        declared,
        expects_continue,
        prefix,
    })
}

/// The interim response [`read_body`] sends to a client that awaits it.
pub const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Reads the body `head` declares: exactly `Content-Length` bytes. If
/// the client [awaits `100 Continue`](Head::awaits_continue), that is
/// written first; it is the only place it is ever written.
///
/// # Errors
///
/// [`HttpError::Disconnected`] or [`HttpError::Timeout`] when the body
/// does not arrive in full (or the `100` cannot be written).
pub fn read_body(stream: &mut Stream, head: Head) -> Result<Request, HttpError> {
    if head.awaits_continue() {
        stream
            .write_all(CONTINUE)
            .and_then(|()| stream.flush())
            .map_err(|e| io_kind(&e))?;
    }
    let Head {
        method,
        path,
        headers,
        declared,
        prefix: mut body,
        ..
    } = head;
    let mut chunk = [0u8; 8 * 1024];
    body.reserve(declared.saturating_sub(body.len()));
    while body.len() < declared {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Disconnected),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io_kind(&e)),
        }
    }
    body.truncate(declared); // drop any pipelined surplus; we close anyway
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// The declared body length: every `Content-Length` header must be a
/// plain decimal count (`usize::from_str` alone would let `+5` through)
/// and, when the header repeats, all of them must agree — otherwise
/// the gateway and a proxy in front of it could frame the body
/// differently.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, HttpError> {
    let mut declared = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::BadContentLength(format!(
                "'{v}' is not a byte count"
            )));
        }
        let n = v
            .parse::<usize>()
            .map_err(|_| HttpError::BadContentLength(format!("'{v}' overflows")))?;
        match declared {
            Some(first) if first != n => {
                return Err(HttpError::BadContentLength(format!(
                    "conflicting values {first} and {n}"
                )));
            }
            _ => declared = Some(n),
        }
    }
    Ok(declared)
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The canonical reason phrase for the statuses the gateway emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        417 => "Expectation Failed",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete response and leaves the connection to be
/// closed by the caller (every response carries `Connection: close`).
///
/// # Errors
///
/// Any socket write failure, including an expired write deadline.
pub fn write_response(
    stream: &mut Stream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> io::Result<()> {
    let mut out = Vec::with_capacity(256 + body.len());
    out.extend_from_slice(format!("HTTP/1.1 {status} {}\r\n", reason(status)).as_bytes());
    out.extend_from_slice(format!("Content-Type: {content_type}\r\n").as_bytes());
    out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    out.extend_from_slice(b"Connection: close\r\n");
    for (name, value) in extra_headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    const LIMITS: Limits = Limits {
        max_header: 256,
        max_body: 64,
    };

    /// Feeds `pieces` into one end of a socket pair (pausing between
    /// them so each tends to arrive as its own read) and parses the
    /// other end. The writer keeps its end open until the parse
    /// returns, so a parser that waits for more bytes than were sent
    /// hits the read deadline instead of seeing EOF.
    fn parse(pieces: Vec<Vec<u8>>, limits: Limits) -> Result<Request, HttpError> {
        let (mut client, server) = UnixStream::pair().unwrap();
        server
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            for piece in pieces {
                client.write_all(&piece).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = done_rx.recv();
        });
        let mut stream = Stream::Unix(server);
        let result = read_head(&mut stream, &limits).and_then(|head| read_body(&mut stream, head));
        drop(done_tx);
        writer.join().unwrap();
        result
    }

    fn parse_whole(raw: &str) -> Result<Request, HttpError> {
        parse(vec![raw.as_bytes().to_vec()], LIMITS)
    }

    fn status(result: Result<Request, HttpError>) -> u16 {
        match result {
            Ok(r) => panic!("expected an error, parsed {r:?}"),
            Err(e) => e.status().expect("a status to answer with").0,
        }
    }

    const POST: &str = "POST /v1/jobs?wait_ms=10 HTTP/1.1\r\nHost: gw\r\n\
                        Content-Type: application/octet-stream\r\n\
                        Content-Length: 11\r\n\r\nhello world";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn request_split_at_any_bytes_parses_identically(
            cuts in proptest::collection::vec(0usize..POST.len(), 0..4),
        ) {
            let whole = parse_whole(POST).unwrap();
            let mut cuts = cuts;
            cuts.sort_unstable();
            let mut pieces = Vec::new();
            let mut start = 0;
            for cut in cuts.into_iter().chain([POST.len()]) {
                pieces.push(POST.as_bytes()[start..cut].to_vec());
                start = cut;
            }
            let split = parse(pieces, LIMITS).unwrap();
            prop_assert_eq!(&split.method, &whole.method);
            prop_assert_eq!(&split.path, &whole.path);
            prop_assert_eq!(&split.headers, &whole.headers);
            prop_assert_eq!(&split.body, &whole.body);
        }
    }

    #[test]
    fn well_formed_post_parses() {
        let r = parse_whole(POST).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/v1/jobs?wait_ms=10");
        assert_eq!(r.header("content-length"), Some("11"));
        assert_eq!(r.body, b"hello world");
    }

    #[test]
    fn header_cap_gives_431() {
        let long = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(300));
        assert_eq!(status(parse_whole(&long)), 431);
        // No blank line ever arrives: the cap trips on the bytes read.
        let endless = format!("GET / HTTP/1.1\r\nX-Pad: {}", "a".repeat(300));
        assert_eq!(status(parse_whole(&endless)), 431);
    }

    #[test]
    fn post_without_length_gives_411() {
        assert_eq!(status(parse_whole("POST /v1/jobs HTTP/1.1\r\n\r\n")), 411);
    }

    #[test]
    fn over_cap_length_gives_413_before_the_body_is_read() {
        // No body bytes are sent and the writer stays connected: a
        // parser that tried to read the body would time out (408).
        let r = parse_whole("POST /v1/jobs HTTP/1.1\r\nContent-Length: 65\r\n\r\n");
        assert!(matches!(
            r,
            Err(HttpError::BodyTooLarge {
                declared: 65,
                max: 64
            })
        ));
        assert_eq!(status(r), 413);
    }

    /// When the client of an [`exchange`] sends its body.
    #[derive(Clone, Copy)]
    enum Send {
        /// With the head, in one write.
        Together,
        /// Only once it has read a `100 Continue`; never on a final
        /// status.
        AfterContinue,
        /// After a pause, without waiting for anything.
        AfterPause,
    }

    /// What the server side of one exchange returned and wrote.
    struct Exchange {
        /// `read_head`'s result, or `read_body`'s when the head passed
        /// and no refusal was made between them.
        parsed: Result<Option<Request>, HttpError>,
        /// Every byte the server wrote, in order.
        written: Vec<u8>,
    }

    /// One request over a socket pair, served like the gateway serves
    /// it: `read_head`; then either `refuse` as a final status (only to
    /// a client awaiting `100 Continue`, which then never sends its
    /// body) or `read_body`; then a final status. The client sends
    /// `head`, then `body` as `send` says.
    fn exchange(head: &str, body: &[u8], send: Send, refuse: Option<u16>) -> Exchange {
        let (mut client, server) = UnixStream::pair().unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let server = std::thread::spawn(move || {
            let mut stream = Stream::Unix(server);
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let parsed = read_head(&mut stream, &LIMITS).and_then(|head| match refuse {
                Some(_) if head.awaits_continue() => Ok(None),
                _ => read_body(&mut stream, head).map(Some),
            });
            let status = match &parsed {
                Ok(Some(_)) => 200,
                Ok(None) => refuse.unwrap(),
                Err(e) => e.status().map_or(0, |(status, _)| status),
            };
            write_response(&mut stream, status, "text/plain", &[], b"done\n").unwrap();
            stream.shutdown();
            parsed
        });
        let mut written = Vec::new();
        match send {
            Send::AfterContinue => {
                client.write_all(head.as_bytes()).unwrap();
                while written.len() < CONTINUE.len() {
                    let mut chunk = [0u8; 256];
                    match client.read(&mut chunk).unwrap() {
                        0 => break,
                        n => written.extend_from_slice(&chunk[..n]),
                    }
                }
                if written.starts_with(CONTINUE) {
                    client.write_all(body).unwrap();
                }
            }
            Send::AfterPause => {
                client.write_all(head.as_bytes()).unwrap();
                std::thread::sleep(Duration::from_millis(50));
                client.write_all(body).unwrap();
            }
            Send::Together => {
                let mut whole = head.as_bytes().to_vec();
                whole.extend_from_slice(body);
                client.write_all(&whole).unwrap();
            }
        }
        client.read_to_end(&mut written).unwrap();
        Exchange {
            parsed: server.join().unwrap(),
            written,
        }
    }

    fn continues(written: &[u8]) -> usize {
        written
            .windows(CONTINUE.len())
            .filter(|w| *w == CONTINUE)
            .count()
    }

    fn final_status(written: &[u8]) -> u16 {
        let text = String::from_utf8_lossy(written);
        let after = text
            .strip_prefix("HTTP/1.1 100 Continue\r\n\r\n")
            .unwrap_or(&text);
        after[9..12].parse().unwrap()
    }

    const EXPECT_POST: &str = "POST /v1/jobs HTTP/1.1\r\nContent-Length: 11\r\n\
                               Expect: 100-continue\r\n\r\n";

    #[test]
    fn other_expectations_get_417() {
        for value in ["gzip", "100-continue, x-more", "200-ok"] {
            let head =
                format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: 11\r\nExpect: {value}\r\n\r\n");
            let x = exchange(&head, b"hello world", Send::AfterContinue, None);
            assert!(
                matches!(x.parsed, Err(HttpError::ExpectationFailed(ref v)) if v == value),
                "{value}"
            );
            assert_eq!(continues(&x.written), 0);
            assert_eq!(final_status(&x.written), 417);
        }
        // The token is case-insensitive.
        let head = EXPECT_POST.replace("100-continue", "100-Continue");
        let x = exchange(&head, b"hello world", Send::AfterContinue, None);
        assert_eq!(x.parsed.unwrap().unwrap().body, b"hello world");
        assert_eq!(continues(&x.written), 1);
    }

    #[test]
    fn http_1_0_never_gets_100() {
        let head = EXPECT_POST.replace("HTTP/1.1", "HTTP/1.0");
        let x = exchange(&head, b"hello world", Send::AfterPause, None);
        assert_eq!(x.parsed.unwrap().unwrap().body, b"hello world");
        assert_eq!(continues(&x.written), 0);
        assert_eq!(final_status(&x.written), 200);
    }

    #[test]
    fn a_client_that_already_sent_its_body_gets_no_100() {
        let x = exchange(EXPECT_POST, b"hello world", Send::Together, None);
        assert_eq!(x.parsed.unwrap().unwrap().body, b"hello world");
        assert_eq!(continues(&x.written), 0);
        assert!(x.written.starts_with(b"HTTP/1.1 200 OK\r\n"));
    }

    #[test]
    fn a_withheld_body_is_read_after_one_100() {
        // A deadlock check, not a timing bound: the client sends
        // nothing more until `100 Continue` arrives, and both sides
        // read under a 5 s deadline.
        let x = exchange(EXPECT_POST, b"hello world", Send::AfterContinue, None);
        assert_eq!(x.parsed.unwrap().unwrap().body, b"hello world");
        assert!(x.written.starts_with(CONTINUE));
        assert_eq!(continues(&x.written), 1);
        assert_eq!(final_status(&x.written), 200);
        // Nothing is owed without a body: no 100.
        let head = "GET /v1/jobs/1 HTTP/1.1\r\nExpect: 100-continue\r\n\r\n";
        let x = exchange(head, b"", Send::Together, None);
        assert!(x.parsed.unwrap().unwrap().body.is_empty());
        assert_eq!(continues(&x.written), 0);
    }

    #[test]
    fn refusals_reach_an_expect_client_first_with_no_body_read() {
        // The client never sends its body: had the server read any of
        // it, the read would have timed out (408) instead.
        for refusal in [503, 429] {
            let x = exchange(
                EXPECT_POST,
                b"hello world",
                Send::AfterContinue,
                Some(refusal),
            );
            assert!(matches!(x.parsed, Ok(None)), "{refusal}");
            assert_eq!(continues(&x.written), 0);
            assert_eq!(final_status(&x.written), refusal);
            assert_eq!(x.written.windows(5).filter(|w| *w == b"HTTP/").count(), 1);
        }
        let over = EXPECT_POST.replace("Content-Length: 11", "Content-Length: 65");
        let x = exchange(&over, &[b'x'; 65], Send::AfterContinue, None);
        assert!(matches!(x.parsed, Err(HttpError::BodyTooLarge { .. })));
        assert_eq!(continues(&x.written), 0);
        assert_eq!(final_status(&x.written), 413);
    }

    #[test]
    fn non_digit_overflowing_and_conflicting_lengths_give_400() {
        for value in [
            "+5",
            "-5",
            "5a",
            "0x5",
            "5 5",
            "5,5",
            "",
            "99999999999999999999999",
        ] {
            let raw = format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhello");
            let r = parse_whole(&raw);
            assert!(
                matches!(r, Err(HttpError::BadContentLength(_))),
                "Content-Length '{value}' must be refused: {r:?}"
            );
            assert_eq!(status(r), 400);
        }
        let twice =
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!";
        let r = parse_whole(twice);
        assert!(matches!(r, Err(HttpError::BadContentLength(_))), "{r:?}");
        assert_eq!(status(r), 400);
        // Repeating the same value frames the body the same way.
        let same = "POST /v1/jobs HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(parse_whole(same).unwrap().body, b"hello");
    }
}

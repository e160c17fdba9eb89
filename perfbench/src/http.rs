//! A minimal HTTP/1.1 client that behaves like curl against the
//! gateway, so the benchmark sees what curl users see:
//!
//! - bodies over [`EXPECT_THRESHOLD`] (1 MiB) are sent with
//!   `Expect: 100-continue`, and the client waits up to
//!   [`CONTINUE_TIMEOUT`] (1 s) for `100 Continue` before sending the
//!   body anyway, as curl does;
//! - one request per connection (`Connection: close`);
//! - job polls carry `?wait_ms=`, so a server-side long-poll changes
//!   the numbers without any change to the benchmark.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// curl's `Expect: 100-continue` threshold.
pub const EXPECT_THRESHOLD: usize = 1024 * 1024;

/// curl's default wait for `100 Continue`.
pub const CONTINUE_TIMEOUT: Duration = Duration::from_secs(1);

/// Deadline for any single response.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// A status code and the response's headers (names lower-cased).
type Head = (u16, Vec<(String, String)>);

/// A parsed final response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes (exactly `Content-Length`, or to EOF).
    pub body: Vec<u8>,
}

/// Timings of one request, for the span ledger.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Connection established.
    pub connected: Instant,
    /// Request headers written.
    pub headers_sent: Instant,
    /// `100 Continue` received, or the continue wait gave up; equals
    /// `headers_sent` when no `Expect` was sent.
    pub continued: Instant,
    /// Final response fully read.
    pub done: Instant,
}

/// Sends one request on a fresh connection and reads the response.
pub fn request(
    host: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> io::Result<(Response, Timing)> {
    let mut stream = TcpStream::connect(host)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(RESPONSE_TIMEOUT))?;
    let connected = Instant::now();
    let expect = body.is_some_and(|b| b.len() > EXPECT_THRESHOLD);
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: slj-perfbench\r\nAccept: */*\r\nConnection: close\r\n"
    );
    if let Some(body) = body {
        head.push_str(&format!(
            "Content-Type: application/octet-stream\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    if expect {
        head.push_str("Expect: 100-continue\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    let headers_sent = Instant::now();
    let mut reader = ResponseReader::default();
    let mut continued = headers_sent;
    if expect {
        // Wait for `100 Continue`, a final answer, or the timeout.
        stream.set_read_timeout(Some(CONTINUE_TIMEOUT))?;
        match reader.next_head(&mut stream)? {
            Some((100, _)) => {}
            Some((status, headers)) => {
                // A final status before the body: curl does not send
                // the body and reports this response.
                let body = reader.body(&mut stream, &headers)?;
                let done = Instant::now();
                return Ok((
                    Response { status, body },
                    Timing {
                        connected,
                        headers_sent,
                        continued: done,
                        done,
                    },
                ));
            }
            None => {} // timed out: send the body anyway
        }
        continued = Instant::now();
    }
    if let Some(body) = body {
        stream.write_all(body)?;
    }
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    let (status, headers) = loop {
        match reader.next_head(&mut stream)? {
            Some((code, _)) if (100..200).contains(&code) => continue,
            Some(head) => break head,
            None => {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    "no response from the gateway",
                ))
            }
        }
    };
    let body = reader.body(&mut stream, &headers)?;
    Ok((
        Response { status, body },
        Timing {
            connected,
            headers_sent,
            continued,
            done: Instant::now(),
        },
    ))
}

/// Incremental response parser over one connection.
#[derive(Default)]
struct ResponseReader {
    buf: Vec<u8>,
    eof: bool,
}

impl ResponseReader {
    /// Reads more bytes; `Ok(false)` on a read timeout.
    fn fill(&mut self, stream: &mut TcpStream) -> io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        match stream.read(&mut chunk) {
            Ok(0) => {
                self.eof = true;
                Ok(true)
            }
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(true),
            Err(e) => Err(e),
        }
    }

    /// The next status line and headers; `None` when the read timed out
    /// first.
    fn next_head(&mut self, stream: &mut TcpStream) -> io::Result<Option<Head>> {
        loop {
            if let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                self.buf.drain(..end + 4);
                let mut lines = head.split("\r\n");
                let status = lines
                    .next()
                    .and_then(|l| l.split(' ').nth(1))
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "bad status line"))?;
                let headers = lines
                    .filter_map(|l| l.split_once(':'))
                    .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
                    .collect();
                return Ok(Some((status, headers)));
            }
            if self.eof {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed before a response",
                ));
            }
            if !self.fill(stream)? {
                return Ok(None);
            }
        }
    }

    /// The body: `Content-Length` bytes, or everything to EOF.
    fn body(
        &mut self,
        stream: &mut TcpStream,
        headers: &[(String, String)],
    ) -> io::Result<Vec<u8>> {
        let length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok());
        loop {
            let complete = match length {
                Some(n) => self.buf.len() >= n,
                None => self.eof,
            };
            if complete {
                let n = length.unwrap_or(self.buf.len());
                return Ok(self.buf.drain(..n).collect());
            }
            if self.eof {
                return Err(io::Error::new(ErrorKind::UnexpectedEof, "truncated body"));
            }
            if !self.fill(stream)? {
                return Err(io::Error::new(ErrorKind::TimedOut, "body read timed out"));
            }
        }
    }
}

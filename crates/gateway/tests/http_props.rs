//! Property tests for the gateway's HTTP request reader.
//!
//! The contract under test: for any generated request — method,
//! version, header set with or without `Expect` and `Content-Length`,
//! body, and the points where the client's bytes are split — reading
//! it with [`read_head`] then [`read_body`] gives exactly what a plain
//! model of the request says: the same method, target, headers and
//! body, or the same typed refusal. And `100 Continue` is written at
//! most once, first, and exactly when the model says it is owed: an
//! HTTP/1.1 request that asked for it, whose body has not arrived.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

use proptest::prelude::*;
use slj_daemon::Stream;
use slj_gateway::http::{read_body, read_head, write_response, Limits, CONTINUE};

const LIMITS: Limits = Limits {
    max_header: 1024,
    max_body: 256,
};

/// When the client sends its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Send {
    /// Head and body in one write: the body arrives with the head.
    Together,
    /// The head, then the body, each cut into pieces at the split
    /// points; used only where no `100` can be owed.
    Split,
    /// The head, then the body only after a `100 Continue` (curl's
    /// `Expect` behaviour, but with no give-up timeout).
    AfterContinue,
    /// The head, then the body after a pause, without waiting for
    /// anything: an HTTP/1.0 client, which must never be sent a `100`,
    /// so the server has a window to send one wrongly.
    AfterPause,
}

/// One generated request.
#[derive(Debug, Clone)]
struct Case {
    method: &'static str,
    target: String,
    http10: bool,
    /// Headers as sent (name as cased on the wire, value untrimmed).
    headers: Vec<(String, String)>,
    /// The `Content-Length` sent, if any.
    length: Option<usize>,
    /// The `Expect` value sent, if any.
    expect: Option<&'static str>,
    body: Vec<u8>,
    send: Send,
    cuts: Vec<usize>,
}

impl Case {
    fn head(&self) -> String {
        let version = if self.http10 { "HTTP/1.0" } else { "HTTP/1.1" };
        let mut head = format!("{} {} {version}\r\n", self.method, self.target);
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}:{value}\r\n"));
        }
        head.push_str("\r\n");
        head
    }
}

/// What the model says the server does with a [`Case`].
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    /// Parsed: the body as read, and whether a `100` precedes it.
    Parsed { body: Vec<u8>, continued: bool },
    /// Refused with this status before the body.
    Refused(u16),
}

fn model(case: &Case) -> Verdict {
    let declared = match case.length {
        Some(n) => n,
        None if matches!(case.method, "POST" | "PUT") => return Verdict::Refused(411),
        None => 0,
    };
    if declared > LIMITS.max_body {
        return Verdict::Refused(413);
    }
    match case.expect {
        Some(value) if !value.eq_ignore_ascii_case("100-continue") => Verdict::Refused(417),
        expect => Verdict::Parsed {
            body: case.body[..declared].to_vec(),
            continued: expect.is_some()
                && !case.http10
                && declared > 0
                && case.send == Send::AfterContinue,
        },
    }
}

const METHODS: [&str; 4] = ["GET", "POST", "PUT", "DELETE"];
const EXPECTS: [Option<&str>; 5] = [
    None,
    None,
    Some("100-continue"),
    Some("100-Continue"),
    Some("gzip"),
];

/// A string of `bytes`, each mapped into `alphabet`.
fn spell(bytes: &[u8], alphabet: &[u8]) -> String {
    bytes
        .iter()
        .map(|&b| alphabet[b as usize % alphabet.len()] as char)
        .collect()
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let line = (
        0usize..METHODS.len(),
        proptest::collection::vec(any::<u8>(), 0..12),
        (any::<bool>(), 0u16..10000),
        any::<bool>(),
    );
    let fields = (
        proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 1..9),
                proptest::collection::vec(32u8..127, 0..25),
            ),
            0..4,
        ),
        0usize..EXPECTS.len(),
        proptest::collection::vec(any::<u8>(), 0..300),
    );
    let delivery = (
        0u8..3,
        any::<bool>(),
        proptest::collection::vec(0usize..1400, 0..4),
    );
    (line, fields, delivery).prop_map(
        |(
            (method, path, (waits, wait_ms), http10),
            (extra, expect, body),
            (length_kind, after_continue, cuts),
        )| {
            let method = METHODS[method];
            let mut target = format!("/{}", spell(&path, b"abcxyz0189/"));
            if waits {
                target.push_str(&format!("?wait_ms={wait_ms}"));
            }
            let expect = EXPECTS[expect];
            // 0: no Content-Length; 1: the body's length; 2: that
            // length, written as a repeated header.
            let length = (length_kind > 0).then_some(body.len());
            let body = if length.is_some() { body } else { Vec::new() };
            let mut headers = vec![("Host".to_owned(), " gw".to_owned())];
            for (name, value) in extra {
                let name = format!("X-{}", spell(&name, b"abcdefghijKLMNOP"));
                headers.push((name, String::from_utf8(value).unwrap()));
            }
            if let Some(n) = length {
                headers.push(("Content-Length".to_owned(), format!(" {n}")));
                if length_kind == 2 {
                    headers.push(("content-length".to_owned(), format!("{n} ")));
                }
            }
            if let Some(value) = expect {
                headers.push(("Expect".to_owned(), format!(" {value}")));
            }
            // A body sent eagerly alongside `Expect` must arrive in one
            // write for the model to know it came with the head;
            // without `Expect` any split is fair.
            let send = match (expect.is_some(), after_continue) {
                (true, true) if http10 => Send::AfterPause,
                (true, true) => Send::AfterContinue,
                (true, false) => Send::Together,
                (false, _) => Send::Split,
            };
            Case {
                method,
                target,
                http10,
                headers,
                length,
                expect,
                body,
                send,
                cuts,
            }
        },
    )
}

/// A parsed request's method, target, headers and body.
type Parsed = (String, String, Vec<(String, String)>, Vec<u8>);

/// What one served request produced.
struct Served {
    /// The request the server parsed, or the status it refused with.
    parsed: Result<Parsed, u16>,
    /// Every byte the server wrote.
    written: Vec<u8>,
}

/// Serves `case` over a socket pair: the server reads head then body
/// and answers one final status; the client sends as `case.send` says
/// and reads everything to EOF.
fn serve(case: &Case) -> Served {
    let (mut client, server) = UnixStream::pair().unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let server = std::thread::spawn(move || {
        let mut stream = Stream::Unix(server);
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let parsed = read_head(&mut stream, &LIMITS)
            .and_then(|head| read_body(&mut stream, head))
            .map(|r| (r.method, r.path, r.headers, r.body))
            .map_err(|e| e.status().map_or(0, |(status, _)| status));
        let status = *parsed.as_ref().err().unwrap_or(&200);
        let _ = write_response(&mut stream, status, "text/plain", &[], b"done\n");
        stream.shutdown();
        parsed
    });
    let head = case.head().into_bytes();
    let mut written = Vec::new();
    match case.send {
        Send::Together => {
            let mut whole = head;
            whole.extend_from_slice(&case.body);
            let _ = client.write_all(&whole);
        }
        Send::Split => {
            let mut whole = head;
            whole.extend_from_slice(&case.body);
            let mut cuts: Vec<usize> = case.cuts.iter().map(|&c| c.min(whole.len())).collect();
            cuts.sort_unstable();
            let mut start = 0;
            for cut in cuts.into_iter().chain([whole.len()]) {
                if client.write_all(&whole[start..cut]).is_err() {
                    break; // refused early and closed
                }
                start = cut;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Send::AfterPause => {
            client.write_all(&head).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            let _ = client.write_all(&case.body);
        }
        Send::AfterContinue => {
            client.write_all(&head).unwrap();
            while written.len() < CONTINUE.len() {
                let mut chunk = [0u8; 256];
                match client.read(&mut chunk).unwrap() {
                    0 => break,
                    n => written.extend_from_slice(&chunk[..n]),
                }
            }
            // Only a `100` releases the body; a final status ends it.
            if written.starts_with(CONTINUE) {
                client.write_all(&case.body).unwrap();
            }
        }
    }
    client.read_to_end(&mut written).unwrap();
    Served {
        parsed: server.join().unwrap(),
        written,
    }
}

fn count_continues(written: &[u8]) -> usize {
    written
        .windows(CONTINUE.len())
        .filter(|w| *w == CONTINUE)
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn generated_requests_parse_as_the_model_says(case in case_strategy()) {
        let served = serve(&case);
        let continues = count_continues(&served.written);
        prop_assert!(continues <= 1, "100 Continue written {continues} times");
        let after = if continues == 1 {
            prop_assert!(served.written.starts_with(CONTINUE), "100 is not first");
            &served.written[CONTINUE.len()..]
        } else {
            &served.written[..]
        };
        let status: u16 = String::from_utf8_lossy(&after[9..12]).parse().unwrap();
        prop_assert_eq!(
            after.windows(5).filter(|w| *w == b"HTTP/").count(),
            1,
            "one final response"
        );
        match model(&case) {
            Verdict::Refused(expected) => {
                prop_assert_eq!(served.parsed, Err(expected));
                prop_assert_eq!(status, expected);
                prop_assert_eq!(continues, 0, "no 100 before a refusal");
            }
            Verdict::Parsed { body, continued } => {
                let (method, target, headers, parsed_body) = served.parsed.unwrap();
                prop_assert_eq!(status, 200);
                prop_assert_eq!(method, case.method);
                prop_assert_eq!(target, case.target.clone());
                let sent: Vec<(String, String)> = case
                    .headers
                    .iter()
                    .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_owned()))
                    .collect();
                prop_assert_eq!(headers, sent);
                prop_assert_eq!(parsed_body, body);
                prop_assert_eq!(continues == 1, continued, "100 exactly when owed");
            }
        }
    }
}

//! Chaos suite for the HTTP gateway.
//!
//! The contract under test extends the daemon's: **HTTP adds a
//! protocol, not drift, and no client's misbehaviour may change
//! another job's bytes.** Every scenario runs a real daemon (UDS) and a
//! real gateway (loopback TCP), drives them with raw `TcpStream` HTTP
//! clients mixed with raw wire clients, and asserts that healthy
//! submissions get reports **byte-identical** to an in-process
//! [`StreamingAnalyzer`] run — while malformed bodies, mid-upload
//! disconnects, slowloris readers and overload-shed admissions are
//! answered (or reaped) with typed statuses.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Deserialize;
use slj::prelude::*;
use slj_daemon::wire::encode_to_vec;
use slj_daemon::{
    Addr, Client, ClientOptions, Daemon, DaemonConfig, Decoder, OpenRequest, WireMsg,
    DEFAULT_MAX_FRAME, WIRE_SCHEMA,
};
use slj_gateway::http::CONTINUE;
use slj_gateway::{Gateway, GatewayConfig, GatewayHandle};

fn scene() -> SceneConfig {
    SceneConfig {
        camera: Camera::compact(),
        ..SceneConfig::clean()
    }
}

fn open_request(jump: &SyntheticJump, scene: &SceneConfig, want_trace: bool) -> OpenRequest {
    OpenRequest {
        camera: scene.camera,
        dims: BodyDims::default(),
        first_pose: jump.poses.poses()[0],
        fps: jump.video.fps(),
        warmup: 14,
        fast: true,
        max_degraded: Some(10),
        want_trace,
    }
}

/// The in-process ground truth, rendered exactly as the daemon renders
/// it: pretty summary JSON (the gateway serves these bytes verbatim).
fn reference(jump: &SyntheticJump, request: &OpenRequest) -> String {
    let config = request.to_session_config();
    let mut stream = StreamingAnalyzer::new(
        config.analyzer,
        &config.camera,
        config.first_pose,
        config.fps,
    )
    .unwrap();
    for frame in jump.video.iter() {
        stream.push_frame(frame).unwrap();
    }
    let analysis = stream.finish().unwrap();
    serde_json::to_string_pretty(&analysis.summary()).unwrap()
}

fn daemon_config() -> DaemonConfig {
    let mut config = DaemonConfig::default();
    config.serve.escalate_after = 30;
    config.serve.trip_after = 40;
    config
}

fn uds_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("slj-gateway-{tag}-{}.sock", std::process::id()))
}

/// A POST /v1/jobs body: one open-request JSON line, then the clip.
fn job_body(request: &OpenRequest, video: &slj_video::Video) -> Vec<u8> {
    let mut body = serde_json::to_string(request).unwrap().into_bytes();
    body.push(b'\n');
    body.extend_from_slice(&slj_video::io::ppm_stream(video));
    body
}

/// One parsed HTTP response.
struct Response {
    status: u16,
    headers: HashMap<String, String>,
    body: Vec<u8>,
}

/// Sends one raw request and reads to EOF (the gateway always closes).
fn http(hostport: &str, request: &[u8]) -> Response {
    let mut sock = TcpStream::connect(hostport).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    sock.write_all(request).unwrap();
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw).unwrap();
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Response {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header block");
    let head = std::str::from_utf8(&raw[..split]).unwrap();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let mut headers = HashMap::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_owned());
        }
    }
    Response {
        status,
        headers,
        body: raw[split + 4..].to_vec(),
    }
}

fn get(hostport: &str, path: &str) -> Response {
    http(
        hostport,
        format!("GET {path} HTTP/1.1\r\nHost: gw\r\n\r\n").as_bytes(),
    )
}

fn post(hostport: &str, path: &str, body: &[u8]) -> Response {
    let mut request = format!(
        "POST {path} HTTP/1.1\r\nHost: gw\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    http(hostport, &request)
}

#[derive(Deserialize)]
struct JobReply {
    job: u64,
    state: String,
}

/// Submits a clip and returns the job id (asserting the 202 shape).
fn submit(hostport: &str, body: &[u8]) -> u64 {
    let response = post(hostport, "/v1/jobs", body);
    assert_eq!(
        response.status,
        202,
        "submit failed: {}",
        String::from_utf8_lossy(&response.body)
    );
    let reply: JobReply =
        serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
    assert_eq!(reply.state, "running");
    reply.job
}

/// Polls a job until its report is ready and returns the bytes.
fn fetch_report(hostport: &str, job: u64) -> Vec<u8> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let response = get(hostport, &format!("/v1/jobs/{job}"));
        match response.status {
            200 => return response.body,
            202 => {
                assert!(Instant::now() < deadline, "job {job} never finished");
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!(
                "job {job} failed with {other}: {}",
                String::from_utf8_lossy(&response.body)
            ),
        }
    }
}

/// Sends `POST {path}` the way curl sends a large upload: headers with
/// `Expect: 100-continue`, then the body only once `100 Continue`
/// arrives — never on a final status. Returns whether a `100` came
/// first, and the final response.
fn post_expecting(hostport: &str, path: &str, body: &[u8]) -> (bool, Response) {
    let mut sock = TcpStream::connect(hostport).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: gw\r\nContent-Length: {}\r\n\
         Expect: 100-continue\r\n\r\n",
        body.len()
    );
    sock.write_all(head.as_bytes()).unwrap();
    let mut raw = Vec::new();
    while raw.len() < CONTINUE.len() {
        let mut chunk = [0u8; 256];
        match sock.read(&mut chunk).unwrap() {
            0 => break,
            n => raw.extend_from_slice(&chunk[..n]),
        }
    }
    let continued = raw.starts_with(CONTINUE);
    if continued {
        raw.drain(..CONTINUE.len());
        sock.write_all(body).unwrap();
    }
    sock.read_to_end(&mut raw).unwrap();
    (continued, parse_response(&raw))
}

/// Requests the gateway has read in full so far, not counting the
/// `GET /metrics` that asks.
fn requests_read(hostport: &str) -> u64 {
    let metrics = get(hostport, "/metrics");
    let text = String::from_utf8_lossy(&metrics.body).into_owned();
    let count: u64 = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("gateway_reqs = "))
        .expect("a gateway_reqs counter")
        .parse()
        .unwrap();
    count - 1
}

/// A daemon stand-in on `path` that admits one clip and holds it
/// running until `release` fires, then answers an `ANALYSIS` whose
/// summary is `{}`: the job's run time is the test's to choose.
fn held_daemon(path: &PathBuf) -> (Sender<()>, JoinHandle<()>) {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).unwrap();
    let (release, released) = channel::<()>();
    let stub = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut decoder = Decoder::new(DEFAULT_MAX_FRAME);
        let mut next = |sock: &mut std::os::unix::net::UnixStream| loop {
            if let Some(msg) = decoder.next_msg().unwrap() {
                return msg;
            }
            let mut chunk = [0u8; 64 * 1024];
            let n = sock.read(&mut chunk).unwrap();
            assert!(n > 0, "the gateway hung up");
            decoder.push(&chunk[..n]);
        };
        assert!(matches!(next(&mut sock), WireMsg::Hello { .. }));
        let hello = WireMsg::HelloOk {
            proto: WIRE_SCHEMA.to_owned(),
        };
        sock.write_all(&encode_to_vec(&hello)).unwrap();
        assert!(matches!(next(&mut sock), WireMsg::OpenClip { .. }));
        sock.write_all(&encode_to_vec(&WireMsg::Opened { session: 1 }))
            .unwrap();
        released.recv().unwrap();
        let analysis = WireMsg::Analysis {
            session: 1,
            summary_json: "{}".to_owned(),
            trace_jsonl: String::new(),
        };
        sock.write_all(&encode_to_vec(&analysis)).unwrap();
    });
    (release, stub)
}

fn start_pair(
    tag: &str,
    gateway_config: GatewayConfig,
) -> (slj_daemon::DaemonHandle, GatewayHandle, String) {
    let handle = Daemon::start(&[Addr::Unix(uds_path(tag))], daemon_config()).unwrap();
    let gateway = Gateway::start(
        &Addr::Tcp("127.0.0.1:0".to_owned()),
        handle.addrs[0].clone(),
        gateway_config,
    )
    .unwrap();
    let Addr::Tcp(hostport) = gateway.addr.clone() else {
        unreachable!()
    };
    (handle, gateway, hostport)
}

#[test]
fn concurrent_http_and_wire_clients_get_identical_reports_through_chaos() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 71);
    let request = open_request(&jump, &scene, false);
    let ref_summary = reference(&jump, &request);
    let (handle, gateway, hostport) = start_pair("chaos", GatewayConfig::default());
    let daemon_addr = handle.addrs[0].clone();

    // Chaos crew, concurrent with everything below.
    let chaos: Vec<std::thread::JoinHandle<()>> = vec![
        // 1. Malformed body: no JSON line at all.
        {
            let hostport = hostport.clone();
            std::thread::spawn(move || {
                let response = post(&hostport, "/v1/jobs", b"not json, no newline");
                assert_eq!(response.status, 400);
            })
        },
        // 2. Unparseable open request with a well-shaped body.
        {
            let hostport = hostport.clone();
            std::thread::spawn(move || {
                let response = post(&hostport, "/v1/jobs", b"{\"nope\":1}\nP6...");
                assert_eq!(response.status, 400);
                assert!(String::from_utf8_lossy(&response.body).contains("does not parse"));
            })
        },
        // 3. A clip the daemon cannot decode: refused 400 *after* the
        //    wire round-trip, typed, with no session opened.
        {
            let hostport = hostport.clone();
            let request = request.clone();
            std::thread::spawn(move || {
                let mut body = serde_json::to_string(&request).unwrap().into_bytes();
                body.extend_from_slice(b"\nP6\n9999 9999\n255\nxy");
                let response = post(&hostport, "/v1/jobs", &body);
                assert_eq!(response.status, 400);
                assert!(String::from_utf8_lossy(&response.body).contains("does not decode"));
            })
        },
        // 4. Mid-upload disconnect: declares a body, sends half, dies.
        {
            let hostport = hostport.clone();
            let request = request.clone();
            let jump_body = job_body(&request, &jump.video);
            std::thread::spawn(move || {
                let mut sock = TcpStream::connect(hostport.as_str()).unwrap();
                let head = format!(
                    "POST /v1/jobs HTTP/1.1\r\nHost: gw\r\nContent-Length: {}\r\n\r\n",
                    jump_body.len()
                );
                sock.write_all(head.as_bytes()).unwrap();
                sock.write_all(&jump_body[..jump_body.len() / 2]).unwrap();
                // Dropping the socket tears the upload mid-body.
            })
        },
        // 5. Oversized declaration: refused at the header, body unsent.
        {
            let hostport = hostport.clone();
            std::thread::spawn(move || {
                let response = http(
                    &hostport,
                    format!(
                        "POST /v1/jobs HTTP/1.1\r\nHost: gw\r\nContent-Length: {}\r\n\r\n",
                        usize::MAX / 2
                    )
                    .as_bytes(),
                );
                assert_eq!(response.status, 413);
            })
        },
        // 6. POST without Content-Length.
        {
            let hostport = hostport.clone();
            std::thread::spawn(move || {
                let response = http(&hostport, b"POST /v1/jobs HTTP/1.1\r\nHost: gw\r\n\r\n");
                assert_eq!(response.status, 411);
            })
        },
    ];

    // Four healthy HTTP clients and two raw wire clients, all at once.
    let http_workers: Vec<_> = (0..4)
        .map(|_| {
            let hostport = hostport.clone();
            let body = job_body(&request, &jump.video);
            std::thread::spawn(move || {
                let job = submit(&hostport, &body);
                fetch_report(&hostport, job)
            })
        })
        .collect();
    let wire_workers: Vec<_> = (0..2)
        .map(|_| {
            let addr = daemon_addr.clone();
            let frames: Vec<_> = jump.video.iter().cloned().collect();
            let request = request.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr, ClientOptions::default()).unwrap();
                client.analyze_clip(&request, &frames).unwrap()
            })
        })
        .collect();

    for worker in chaos {
        worker.join().unwrap();
    }
    let mut jobs_checked = 0;
    for worker in http_workers {
        let report = worker.join().unwrap();
        assert_eq!(
            String::from_utf8_lossy(&report),
            ref_summary,
            "HTTP report drifted"
        );
        jobs_checked += 1;
    }
    for worker in wire_workers {
        let analysis = worker.join().unwrap();
        assert_eq!(analysis.summary_json, ref_summary, "wire report drifted");
    }
    assert_eq!(jobs_checked, 4);

    // The event stream surfaces the session's health timeline.
    let body = job_body(&request, &jump.video);
    let job = submit(&hostport, &body);
    fetch_report(&hostport, job);
    let events = get(&hostport, &format!("/v1/jobs/{job}/events"));
    assert_eq!(events.status, 200);
    assert!(String::from_utf8_lossy(&events.body).contains("\"event\":\"finished\""));

    // Resource-level errors are typed.
    assert_eq!(get(&hostport, "/v1/jobs/999999").status, 404);
    assert_eq!(get(&hostport, "/nope").status, 404);
    assert_eq!(get(&hostport, "/v1/jobs").status, 405);
    assert_eq!(
        http(&hostport, b"DELETE /healthz HTTP/1.1\r\nHost: gw\r\n\r\n").status,
        405
    );
    assert_eq!(get(&hostport, "/healthz").status, 200);

    // Metrics counted the traffic: 5 admitted jobs, typed refusals.
    let metrics = get(&hostport, "/metrics");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8_lossy(&metrics.body).into_owned();
    assert!(text.contains("gateway_jobs_admitted = 5"), "{text}");
    assert!(text.contains("gateway_jobs_done = 5"), "{text}");
    assert!(text.contains("gateway_jobs_malformed = 3"), "{text}");

    let metrics = gateway.shutdown();
    assert_eq!(metrics.counter("gateway_jobs_admitted"), 5);
    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.sessions_finished, 7, "5 HTTP + 2 wire sessions");
    assert_eq!(stats.clip_sessions, 5);
    assert_eq!(stats.sessions_failed, 0);
}

#[test]
fn daemon_capacity_shed_maps_to_429_with_retry_after() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 73);
    let request = open_request(&jump, &scene, false);
    let ref_summary = reference(&jump, &request);

    // One daemon slot, held by a raw wire client: the gateway's POST
    // must come back 429 + Retry-After, not hang and not 500.
    let mut config = daemon_config();
    config.serve.max_sessions = 1;
    let handle = Daemon::start(&[Addr::Unix(uds_path("shed"))], config).unwrap();
    let gateway = Gateway::start(
        &Addr::Tcp("127.0.0.1:0".to_owned()),
        handle.addrs[0].clone(),
        GatewayConfig::default(),
    )
    .unwrap();
    let Addr::Tcp(hostport) = gateway.addr.clone() else {
        unreachable!()
    };

    let mut holder = Client::connect(&handle.addrs[0], ClientOptions::default()).unwrap();
    let held = holder.open(&request).unwrap();

    let body = job_body(&request, &jump.video);
    let response = post(&hostport, "/v1/jobs", &body);
    assert_eq!(
        response.status,
        429,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    assert!(response.headers.contains_key("retry-after"));
    assert!(String::from_utf8_lossy(&response.body).contains("at capacity"));

    // Releasing the slot makes the retry land and finish identically —
    // the shed was an answer, not a wound.
    holder.retire(held).unwrap();
    let job = loop {
        let response = post(&hostport, "/v1/jobs", &body);
        match response.status {
            202 => {
                let reply: JobReply =
                    serde_json::from_str(std::str::from_utf8(&response.body).unwrap()).unwrap();
                break reply.job;
            }
            429 => std::thread::sleep(Duration::from_millis(10)), // RETIRE is async
            other => panic!("unexpected {other}"),
        }
    };
    let report = fetch_report(&hostport, job);
    assert_eq!(String::from_utf8_lossy(&report), ref_summary);

    gateway.shutdown();
    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.clip_sessions, 1);
    assert_eq!(stats.sessions_finished, 1);
}

#[test]
fn gateway_job_table_cap_sheds_locally_without_dialing_the_daemon() {
    // max_jobs 0: every submission is shed at the gateway; the daemon
    // never sees a connection for them.
    let (handle, gateway, hostport) = start_pair(
        "localshed",
        GatewayConfig {
            max_jobs: 0,
            ..GatewayConfig::default()
        },
    );
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 79);
    let request = open_request(&jump, &scene, false);
    let body = job_body(&request, &jump.video);
    let response = post(&hostport, "/v1/jobs", &body);
    assert_eq!(response.status, 429);
    assert!(response.headers.contains_key("retry-after"));

    gateway.shutdown();
    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.connections, 0, "local shed never dialed the daemon");
}

#[test]
fn slowloris_readers_are_reaped_typed_while_neighbours_finish() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 83);
    let request = open_request(&jump, &scene, false);
    let ref_summary = reference(&jump, &request);
    let (handle, gateway, hostport) = start_pair(
        "slowloris",
        GatewayConfig {
            read_timeout: Duration::from_millis(200),
            ..GatewayConfig::default()
        },
    );

    // Three slowloris connections: a half request line, half headers,
    // and a stalled body. Each must be answered 408 (or just closed)
    // within the deadline, not held forever.
    let slow: Vec<_> = [
        b"GET /hea".to_vec(),
        b"GET /healthz HTTP/1.1\r\nHost: gw\r\nX-Drip".to_vec(),
        b"POST /v1/jobs HTTP/1.1\r\nHost: gw\r\nContent-Length: 100\r\n\r\nshort".to_vec(),
    ]
    .into_iter()
    .map(|prefix| {
        let hostport = hostport.clone();
        std::thread::spawn(move || {
            let mut sock = TcpStream::connect(hostport.as_str()).unwrap();
            sock.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            sock.write_all(&prefix).unwrap();
            // ...and never send the rest.
            let mut raw = Vec::new();
            sock.read_to_end(&mut raw).unwrap();
            if raw.is_empty() {
                return; // reaped with a plain close: acceptable for a dead read
            }
            let response = parse_response(&raw);
            assert_eq!(response.status, 408, "slowloris gets a typed timeout");
        })
    })
    .collect();

    // A healthy job runs to its byte-identical end through the reaping.
    let body = job_body(&request, &jump.video);
    let job = submit(&hostport, &body);
    let report = fetch_report(&hostport, job);
    assert_eq!(String::from_utf8_lossy(&report), ref_summary);

    for worker in slow {
        worker.join().unwrap();
    }
    let metrics = gateway.shutdown();
    assert_eq!(metrics.counter("gateway_reqs_timeout"), 3);
    handle.drain();
    let stats = handle.join();
    assert_eq!(stats.sessions_finished, 1);
}

#[test]
fn drain_stops_admissions_but_reports_stay_fetchable() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 89);
    let request = open_request(&jump, &scene, false);
    let ref_summary = reference(&jump, &request);
    let (handle, gateway, hostport) = start_pair("drain", GatewayConfig::default());

    // A completed job from before the drain...
    let body = job_body(&request, &jump.video);
    let job = submit(&hostport, &body);
    let report = fetch_report(&hostport, job);
    assert_eq!(String::from_utf8_lossy(&report), ref_summary);

    // ...survives the drain: admissions 503, fetches still 200.
    let response = post(&hostport, "/v1/drain", b"");
    assert_eq!(
        response.status,
        200,
        "{}",
        String::from_utf8_lossy(&response.body)
    );
    assert!(String::from_utf8_lossy(&response.body).contains("\"daemon_in_flight\":0"));
    assert_eq!(get(&hostport, "/healthz").status, 503);
    assert_eq!(post(&hostport, "/v1/jobs", &body).status, 503);
    // The drain propagated: a late wire client is refused — or, with
    // nothing in flight, the daemon has already finished draining and
    // is gone altogether.
    match Client::connect(&handle.addrs[0], ClientOptions::default()) {
        Ok(mut late) => assert!(matches!(
            late.open(&request),
            Err(slj_daemon::ClientError::Rejected { .. })
        )),
        Err(slj_daemon::ClientError::Io(_)) => {}
        Err(other) => panic!("unexpected late-connect failure: {other}"),
    }
    let report = get(&hostport, &format!("/v1/jobs/{job}"));
    assert_eq!(report.status, 200);
    assert_eq!(String::from_utf8_lossy(&report.body), ref_summary);

    gateway.shutdown();
    let stats = handle.join();
    assert_eq!(stats.sessions_finished, 1);
}

#[test]
fn expect_clients_get_100_before_admission_and_refusals_instead_of_it() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 97);
    let request = open_request(&jump, &scene, false);
    let ref_summary = reference(&jump, &request);
    let (handle, gateway, hostport) = start_pair("expect", GatewayConfig::default());
    let body = job_body(&request, &jump.video);

    // Admitted: `100 Continue`, then the body, then `202`.
    let (continued, admitted) = post_expecting(&hostport, "/v1/jobs", &body);
    assert!(continued, "an admissible upload is told to continue");
    assert_eq!(admitted.status, 202);
    let reply: JobReply =
        serde_json::from_str(std::str::from_utf8(&admitted.body).unwrap()).unwrap();
    assert_eq!(fetch_report(&hostport, reply.job), ref_summary.as_bytes());

    // Refused from the headers alone: the final status arrives first
    // and alone, and the body is never sent.
    let (continued, wrong) = post_expecting(&hostport, "/v1/nope", &body);
    assert!(!continued);
    assert_eq!(wrong.status, 404);
    gateway.drain();
    let (continued, drained) = post_expecting(&hostport, "/v1/jobs", &body);
    assert!(!continued);
    assert_eq!(drained.status, 503);
    let metrics = gateway.shutdown();
    assert_eq!(metrics.counter("gateway_jobs_drained"), 1);

    let (full, full_gateway, full_hostport) = start_pair(
        "expect-full",
        GatewayConfig {
            max_jobs: 0,
            ..GatewayConfig::default()
        },
    );
    let (continued, shed) = post_expecting(&full_hostport, "/v1/jobs", &body);
    assert!(!continued);
    assert_eq!(shed.status, 429);
    assert!(shed.headers.contains_key("retry-after"));
    full_gateway.shutdown();
    full.drain();
    assert_eq!(full.join().connections, 0);

    handle.drain();
    assert_eq!(handle.join().sessions_finished, 1);
}

#[test]
fn one_long_poll_after_admission_returns_the_report() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 101);
    let request = open_request(&jump, &scene, false);
    let ref_summary = reference(&jump, &request);
    // The long-poll cap is the read timeout: make it outlast the
    // analysis on any host.
    let (handle, gateway, hostport) = start_pair(
        "longpoll",
        GatewayConfig {
            read_timeout: Duration::from_secs(120),
            ..GatewayConfig::default()
        },
    );
    let job = submit(&hostport, &job_body(&request, &jump.video));
    let report = get(&hostport, &format!("/v1/jobs/{job}?wait_ms=120000"));
    assert_eq!(report.status, 200, "no 202 before the report");
    assert_eq!(String::from_utf8_lossy(&report.body), ref_summary);
    // A malformed wait is a typed refusal, not a default.
    assert_eq!(
        get(&hostport, &format!("/v1/jobs/{job}?wait_ms=soon")).status,
        400
    );

    gateway.shutdown();
    handle.drain();
    assert_eq!(handle.join().sessions_finished, 1);
}

#[test]
fn shutdown_answers_an_outstanding_long_poll_at_once() {
    let scene = scene();
    let jump = SyntheticJump::generate(&scene, &JumpConfig::default(), 103);
    let request = open_request(&jump, &scene, false);
    let path = uds_path("held");
    let (release, stub) = held_daemon(&path);
    let gateway = Gateway::start(
        &Addr::Tcp("127.0.0.1:0".to_owned()),
        Addr::Unix(path.clone()),
        GatewayConfig {
            read_timeout: Duration::from_secs(600),
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let Addr::Tcp(hostport) = gateway.addr.clone() else {
        unreachable!()
    };
    let mut body = serde_json::to_string(&request).unwrap().into_bytes();
    body.extend_from_slice(b"\nP6 held by the stand-in");
    let job = submit(&hostport, &body);

    // A long-poll the job will not answer: the stand-in holds it.
    let (answered, answer) = channel();
    let poller = {
        let hostport = hostport.clone();
        std::thread::spawn(move || {
            let _ = answered.send(get(&hostport, &format!("/v1/jobs/{job}?wait_ms=600000")));
        })
    };
    while requests_read(&hostport) < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let shutdown = std::thread::spawn(move || gateway.shutdown());
    // Shutdown answers the poll with the job's state now, not when the
    // job ends or the 600 s cap runs out.
    let polled = answer
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown left the long-poll waiting");
    assert_eq!(polled.status, 202);
    let reply: JobReply = serde_json::from_str(std::str::from_utf8(&polled.body).unwrap()).unwrap();
    assert_eq!((reply.job, reply.state.as_str()), (job, "running"));
    poller.join().unwrap();

    release.send(()).unwrap();
    stub.join().unwrap();
    let metrics = shutdown.join().unwrap();
    assert_eq!(metrics.counter("gateway_jobs_done"), 1);
    let _ = std::fs::remove_file(&path);
}

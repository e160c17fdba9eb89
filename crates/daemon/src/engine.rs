//! The daemon engine: one thread owning the
//! [`SessionManager`](slj_serve::SessionManager), fed by per-connection
//! reader threads through a bounded request channel, replying through
//! per-connection writer channels.
//!
//! The engine never blocks on a client. Inbound, readers block on the
//! bounded request channel (which becomes TCP backpressure at the
//! socket); outbound, replies are `try_send`-only — must-deliver
//! messages (acks, terminal analyses, protocol errors) park in a
//! bounded per-connection queue when the writer is busy and the
//! connection is declared too slow (typed `ERROR`, torn down) when the
//! queue overflows, while best-effort EVENT messages are simply
//! dropped and counted. One slow, stuck or malicious connection
//! therefore costs every other session nothing.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use slj::{AnalyzerConfig, RobustnessPolicy};
use slj_motion::{BodyDims, Pose};
use slj_serve::{
    render_event, EventKind, HealthEvent, OfferReply, ServeConfig, ServeError, SessionConfig,
    SessionManager,
};
use slj_video::{Camera, Frame};

use crate::server::DrainSignal;
use crate::wire::{codes, AckStatus, WireError, WireMsg, DEFAULT_MAX_FRAME, WIRE_SCHEMA};

/// Everything a client must supply to open a session — the same
/// calibration the paper's manual step provides, as the JSON payload
/// of an `OPEN` message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenRequest {
    /// The clip's camera calibration.
    pub camera: Camera,
    /// The athlete's body dimensions.
    pub dims: BodyDims,
    /// The operator-provided first-frame pose.
    pub first_pose: Pose,
    /// The clip frame rate.
    pub fps: f64,
    /// Background warm-up window (frames).
    pub warmup: usize,
    /// Use the fast analyzer preset instead of the default.
    pub fast: bool,
    /// `Some(n)` selects `RobustnessPolicy::BestEffort` with that
    /// degraded-frame budget; `None` keeps `Strict`.
    pub max_degraded: Option<usize>,
    /// Stream the session's `slj-trace/1` JSONL back in the final
    /// `ANALYSIS` message.
    pub want_trace: bool,
}

impl OpenRequest {
    /// The manager-level session config this request describes. Each
    /// session's analyzer runs serial inside its step — concurrency
    /// lives at the manager, like `slj serve`.
    pub fn to_session_config(&self) -> SessionConfig {
        let mut config = if self.fast {
            AnalyzerConfig::fast()
        } else {
            AnalyzerConfig::default()
        };
        config.dims = self.dims.clone();
        config.parallelism = slj_runtime::Parallelism::Serial;
        if let Some(max_degraded_frames) = self.max_degraded {
            config.robustness = RobustnessPolicy::BestEffort {
                max_degraded_frames,
            };
        }
        SessionConfig {
            analyzer: config.into_streaming(self.warmup),
            camera: self.camera,
            first_pose: self.first_pose,
            fps: self.fps,
        }
    }
}

/// Daemon-level knobs. Every buffer in the transport has an explicit
/// bound here.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The service core's own knobs (queue depth, supervision budgets,
    /// manager parallelism, …).
    pub serve: ServeConfig,
    /// Wire-frame body bound enforced by every connection's decoder.
    pub max_frame: usize,
    /// Bound of the shared reader→engine request channel; full means
    /// readers block, which surfaces to clients as TCP backpressure.
    pub request_depth: usize,
    /// Bound of each connection's engine→writer reply channel.
    pub reply_depth: usize,
    /// Bound on a connection's parked must-deliver replies once the
    /// reply channel is full; overflow disconnects the client
    /// (`ERROR` code [`codes::TOO_SLOW`]).
    pub parked_cap: usize,
    /// Socket read deadline, ms (one reader poll interval).
    pub read_timeout_ms: u64,
    /// Socket write deadline, ms; a blocked write past it tears the
    /// connection down.
    pub write_timeout_ms: u64,
    /// Consecutive read timeouts before an idle connection is reaped
    /// (0 disables reaping). The idle window is therefore
    /// `idle_timeouts * read_timeout_ms`.
    pub idle_timeouts: u32,
    /// How long the engine waits for requests before ticking anyway,
    /// ms — the service heartbeat while producers are quiet.
    pub tick_wait_ms: u64,
    /// Most requests handled per engine pass before a tick is forced.
    /// Without this bound a pack of clients re-offering into a full
    /// queue every millisecond keeps the intake loop busy forever and
    /// starves the very ticks that would drain the queue — a livelock
    /// where backpressured clients stall every session.
    pub intake_budget: usize,
    /// When set, every finished session's `slj-trace/1` JSONL is also
    /// written to `<trace_dir>/session-<id>.trace.jsonl`.
    pub trace_dir: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            serve: ServeConfig {
                // The daemon heartbeat ticks far faster than real
                // producers send frames; the service-core default
                // stall window (tuned for lockstep scripted drivers)
                // would quarantine a merely unhurried client.
                stall_ticks: 4096,
                ..ServeConfig::default()
            },
            max_frame: DEFAULT_MAX_FRAME,
            request_depth: 1024,
            reply_depth: 64,
            parked_cap: 256,
            read_timeout_ms: 100,
            write_timeout_ms: 10_000,
            idle_timeouts: 3000,
            tick_wait_ms: 2,
            intake_budget: 256,
            trace_dir: None,
        }
    }
}

/// What one connection's reader tells the engine.
#[derive(Debug)]
pub(crate) enum Request {
    /// A connection came up; `writer` is its reply channel.
    Connect { conn: u64, writer: SyncSender<Out> },
    /// A decoded message from the client.
    Msg { conn: u64, msg: WireMsg },
    /// The client's byte stream broke framing (fatal for the conn).
    BadWire { conn: u64, err: WireError },
    /// The connection sat idle past the reaping deadline.
    Idle { conn: u64 },
    /// EOF or socket error: the client is gone.
    Gone { conn: u64 },
}

/// What the engine hands a connection's writer thread.
#[derive(Debug)]
pub(crate) enum Out {
    /// Encode and send.
    Msg(WireMsg),
    /// Flush and close the socket, then exit.
    Close,
}

/// Counters the engine reports when it exits (drain complete).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Sessions opened.
    pub sessions_opened: u64,
    /// Sessions that finished with an analysis delivered.
    pub sessions_finished: u64,
    /// Sessions that ended in a typed failure or quarantine.
    pub sessions_failed: u64,
    /// Sessions aborted because their client vanished or misbehaved.
    pub sessions_aborted: u64,
    /// Sessions opened through `OPEN_CLIP` (daemon-side ingestion).
    pub clip_sessions: u64,
    /// Best-effort EVENT messages dropped for slow readers.
    pub events_dropped: u64,
    /// Connections torn down for protocol violations, oversized or
    /// malformed frames, idleness, or unread must-deliver replies.
    pub conns_torn_down: u64,
    /// Manager ticks run.
    pub ticks: u64,
}

/// Per-session bookkeeping the manager does not know about.
struct SessionMeta {
    id: slj_serve::SessionId,
    conn: u64,
    want_trace: bool,
    /// The client abandoned the session (`RETIRE`); suppress the
    /// terminal reply.
    suppress_reply: bool,
    /// Decoded clip frames an `OPEN_CLIP` session still owes the
    /// manager. The engine feeds them itself, pacing around its own
    /// backpressure (an `Overloaded` offer leaves the frame queued for
    /// the next pass), so ingestion can never shed its own frames.
    pending: VecDeque<Frame>,
    /// Close (flush) the session once `pending` runs dry — set for
    /// `OPEN_CLIP` sessions, cleared after the close is issued.
    auto_close: bool,
}

/// Per-connection state inside the engine.
struct ConnState {
    id: u64,
    writer: SyncSender<Out>,
    /// Must-deliver replies waiting for writer-channel room.
    parked: VecDeque<WireMsg>,
    helloed: bool,
    /// Tear down once `parked` is flushed.
    doomed: bool,
    /// The writer channel broke (socket died): drop everything.
    dead: bool,
}

impl ConnState {
    fn new(id: u64, writer: SyncSender<Out>) -> Self {
        ConnState {
            id,
            writer,
            parked: VecDeque::new(),
            helloed: false,
            doomed: false,
            dead: false,
        }
    }
}

/// The engine: see the module docs for the threading model.
pub(crate) struct Engine {
    config: DaemonConfig,
    manager: SessionManager,
    requests: Receiver<Request>,
    /// Shared with the acceptors and [`DaemonHandle`]: once raised,
    /// stop accepting connections and drain.
    drain: Arc<DrainSignal>,
    conns: Vec<ConnState>,
    sessions: Vec<SessionMeta>,
    stats: DaemonStats,
    events_scratch: Vec<HealthEvent>,
}

impl Engine {
    pub(crate) fn new(
        config: DaemonConfig,
        requests: Receiver<Request>,
        drain: Arc<DrainSignal>,
    ) -> Self {
        let manager = SessionManager::new(config.serve);
        Engine {
            config,
            manager,
            requests,
            drain,
            conns: Vec::new(),
            sessions: Vec::new(),
            stats: DaemonStats::default(),
            events_scratch: Vec::new(),
        }
    }

    fn conn_mut(&mut self, id: u64) -> Option<&mut ConnState> {
        self.conns.iter_mut().find(|c| c.id == id)
    }

    /// Queues a reply that MUST reach the client (ack, terminal,
    /// error): the writer channel first, the parked queue when it is
    /// full, teardown when even the parked queue overflows.
    fn must_deliver(&mut self, conn: u64, msg: WireMsg) {
        let parked_cap = self.config.parked_cap;
        let Some(state) = self.conn_mut(conn) else {
            return;
        };
        if state.dead {
            return;
        }
        if state.parked.is_empty() {
            match state.writer.try_send(Out::Msg(msg)) {
                Ok(()) => return,
                Err(TrySendError::Full(Out::Msg(msg))) => state.parked.push_back(msg),
                Err(TrySendError::Full(Out::Close)) => unreachable!("we only queue Msg here"),
                Err(TrySendError::Disconnected(_)) => {
                    state.dead = true;
                    self.teardown(conn, None);
                    return;
                }
            }
        } else {
            state.parked.push_back(msg);
        }
        if state.parked.len() > parked_cap {
            // The client keeps sending work but stopped reading
            // replies. Dropping acks would wedge it; the only honest
            // move is a typed disconnect.
            self.teardown(
                conn,
                Some(WireMsg::Error {
                    code: codes::TOO_SLOW,
                    message: format!("{parked_cap} unread replies; closing"),
                }),
            );
        }
    }

    /// Queues a best-effort message (EVENT): dropped (and counted)
    /// when the writer is busy — never parked, never a reason to
    /// disconnect.
    fn best_effort(&mut self, conn: u64, msg: WireMsg) {
        let Some(state) = self.conn_mut(conn) else {
            return;
        };
        if state.dead || state.doomed || !state.parked.is_empty() {
            self.stats.events_dropped += 1;
            return;
        }
        match state.writer.try_send(Out::Msg(msg)) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => self.stats.events_dropped += 1,
            Err(TrySendError::Disconnected(_)) => {
                state.dead = true;
                self.teardown(conn, None);
            }
        }
    }

    /// Aborts every session the connection owns (their slots recycle
    /// into the pool), optionally queues a final message, and marks the
    /// connection for close-after-flush.
    fn teardown(&mut self, conn: u64, last_word: Option<WireMsg>) {
        let owned: Vec<usize> = self
            .sessions
            .iter()
            .filter(|m| m.conn == conn)
            .map(|m| m.id)
            .collect();
        for id in owned {
            match self.manager.abort(id, "client disconnected") {
                Ok(()) => self.stats.sessions_aborted += 1,
                // Already terminal (e.g. analysis finished, reply
                // still parked): retire below either way.
                Err(ServeError::SessionTerminal { .. }) => {}
                Err(_) => {}
            }
            let _ = self.manager.take_result(id);
            let _ = self.manager.retire(id);
        }
        self.sessions.retain(|m| m.conn != conn);
        let stats = &mut self.stats;
        let Some(state) = self.conns.iter_mut().find(|c| c.id == conn) else {
            return;
        };
        // A plain hang-up (no parting ERROR) is a client's right, not a
        // teardown worth counting.
        if !state.doomed && last_word.is_some() {
            stats.conns_torn_down += 1;
        }
        state.doomed = true;
        if state.dead {
            state.parked.clear();
        } else if let Some(msg) = last_word {
            state.parked.push_back(msg);
        }
    }

    fn handle_request(&mut self, request: Request) {
        match request {
            Request::Connect { conn, writer } => {
                self.stats.connections += 1;
                self.conns.push(ConnState::new(conn, writer));
            }
            Request::Msg { conn, msg } => self.handle_msg(conn, msg),
            Request::BadWire { conn, err } => {
                let code = match err {
                    WireError::Oversized { .. } => codes::OVERSIZED,
                    WireError::Malformed { .. } => codes::MALFORMED,
                };
                self.teardown(
                    conn,
                    Some(WireMsg::Error {
                        code,
                        message: err.to_string(),
                    }),
                );
            }
            Request::Idle { conn } => {
                self.teardown(
                    conn,
                    Some(WireMsg::Error {
                        code: codes::IDLE,
                        message: "idle connection reaped".to_owned(),
                    }),
                );
            }
            Request::Gone { conn } => {
                if let Some(state) = self.conn_mut(conn) {
                    state.dead = true;
                }
                self.teardown(conn, None);
            }
        }
    }

    fn handle_msg(&mut self, conn: u64, msg: WireMsg) {
        let helloed = match self.conn_mut(conn) {
            Some(state) if state.doomed => return,
            Some(state) => state.helloed,
            None => return,
        };
        match msg {
            WireMsg::Hello { proto } => {
                if proto == WIRE_SCHEMA {
                    if let Some(state) = self.conn_mut(conn) {
                        state.helloed = true;
                    }
                    self.must_deliver(
                        conn,
                        WireMsg::HelloOk {
                            proto: WIRE_SCHEMA.to_owned(),
                        },
                    );
                } else {
                    self.teardown(
                        conn,
                        Some(WireMsg::Error {
                            code: codes::VERSION_MISMATCH,
                            message: format!("server speaks {WIRE_SCHEMA}, client sent {proto}"),
                        }),
                    );
                }
            }
            _ if !helloed => {
                self.teardown(
                    conn,
                    Some(WireMsg::Error {
                        code: codes::BAD_STATE,
                        message: format!("{} before HELLO", msg.name()),
                    }),
                );
            }
            WireMsg::Open { config_json } => self.handle_open(conn, &config_json),
            WireMsg::OpenClip { config_json, ppm } => {
                self.handle_open_clip(conn, &config_json, &ppm)
            }
            WireMsg::Frame {
                session,
                width,
                height,
                rgb,
            } => self.handle_frame(conn, session, width as usize, height as usize, &rgb),
            WireMsg::Flush { session } => {
                let Some(id) = self.owned_session(conn, session) else {
                    return self.unknown_session(conn, session);
                };
                match self.manager.close(id) {
                    // Already terminal: the terminal reply is already
                    // queued or in flight — nothing more to say.
                    Ok(()) | Err(ServeError::SessionTerminal { .. }) => {}
                    Err(e) => self.must_deliver(
                        conn,
                        WireMsg::Failed {
                            session,
                            error: e.to_string(),
                        },
                    ),
                }
            }
            WireMsg::Retire { session } => {
                let Some(id) = self.owned_session(conn, session) else {
                    return self.unknown_session(conn, session);
                };
                if let Some(meta) = self.sessions.iter_mut().find(|m| m.id == id) {
                    meta.suppress_reply = true;
                }
                // Err means already terminal; reaped below either way.
                if self.manager.abort(id, "retired by client").is_ok() {
                    self.stats.sessions_aborted += 1;
                }
                let _ = self.manager.take_result(id);
                let _ = self.manager.retire(id);
                self.sessions.retain(|m| m.id != id);
            }
            WireMsg::Drain => {
                self.manager.drain();
                self.drain.raise();
                self.must_deliver(
                    conn,
                    WireMsg::Draining {
                        in_flight: self.sessions.len() as u64,
                    },
                );
            }
            // Server→client messages arriving from a client are a
            // protocol violation.
            other => {
                self.teardown(
                    conn,
                    Some(WireMsg::Error {
                        code: codes::BAD_STATE,
                        message: format!("unexpected {} from a client", other.name()),
                    }),
                );
            }
        }
    }

    fn owned_session(&self, conn: u64, session: u64) -> Option<slj_serve::SessionId> {
        self.sessions
            .iter()
            .find(|m| m.conn == conn && m.id as u64 == session)
            .map(|m| m.id)
    }

    fn unknown_session(&mut self, conn: u64, session: u64) {
        self.teardown(
            conn,
            Some(WireMsg::Error {
                code: codes::UNKNOWN_SESSION,
                message: format!("session {session} is not open on this connection"),
            }),
        );
    }

    fn handle_open(&mut self, conn: u64, config_json: &str) {
        let Some(request) = self.parse_open(conn, config_json) else {
            return;
        };
        self.admit(conn, request, VecDeque::new());
    }

    /// `OPEN_CLIP`: parse the request and decode the whole clip
    /// *before* admitting a session — a malformed clip is `Rejected`
    /// without ever costing a slot — then let [`Engine::feed_clips`]
    /// stream the decoded frames into the manager at the pace its
    /// backpressure allows.
    fn handle_open_clip(&mut self, conn: u64, config_json: &str, ppm: &[u8]) {
        let Some(request) = self.parse_open(conn, config_json) else {
            return;
        };
        let frames = match slj_video::io::frames_from_ppm_stream(ppm) {
            Ok(frames) => frames,
            Err(e) => {
                return self.must_deliver(
                    conn,
                    WireMsg::Rejected {
                        reason: format!("clip does not decode: {e}"),
                    },
                );
            }
        };
        if self.admit(conn, request, frames.into()) {
            self.stats.clip_sessions += 1;
        }
    }

    /// Parses an open request, replying `Rejected` (and returning
    /// `None`) when it does not parse.
    fn parse_open(&mut self, conn: u64, config_json: &str) -> Option<OpenRequest> {
        if self.drain.is_raised() {
            self.manager.drain();
        }
        match serde_json::from_str(config_json) {
            Ok(r) => Some(r),
            Err(e) => {
                self.must_deliver(
                    conn,
                    WireMsg::Rejected {
                        reason: format!("open request does not parse: {e}"),
                    },
                );
                None
            }
        }
    }

    /// Asks the manager for a session slot and records the metadata;
    /// `pending` non-empty makes it an engine-fed clip session. Returns
    /// whether the session was admitted.
    fn admit(&mut self, conn: u64, request: OpenRequest, pending: VecDeque<Frame>) -> bool {
        let auto_close = !pending.is_empty();
        match self.manager.open(request.to_session_config()) {
            Ok(id) => {
                self.stats.sessions_opened += 1;
                self.sessions.push(SessionMeta {
                    id,
                    conn,
                    want_trace: request.want_trace,
                    suppress_reply: false,
                    pending,
                    auto_close,
                });
                self.must_deliver(conn, WireMsg::Opened { session: id as u64 });
                true
            }
            Err(e) => {
                self.must_deliver(
                    conn,
                    WireMsg::Rejected {
                        reason: e.to_string(),
                    },
                );
                false
            }
        }
    }

    fn handle_frame(&mut self, conn: u64, session: u64, width: usize, height: usize, rgb: &[u8]) {
        let Some(id) = self.owned_session(conn, session) else {
            return self.unknown_session(conn, session);
        };
        // The decoder guaranteed rgb.len() == 3 * width * height.
        let pixels: Vec<slj_imgproc::Rgb> = rgb
            .chunks_exact(3)
            .map(|c| slj_imgproc::Rgb {
                r: c[0],
                g: c[1],
                b: c[2],
            })
            .collect();
        let frame = match Frame::from_vec(width, height, pixels) {
            Ok(f) => f,
            Err(e) => {
                return self.teardown(
                    conn,
                    Some(WireMsg::Error {
                        code: codes::MALFORMED,
                        message: format!("frame does not assemble: {e}"),
                    }),
                );
            }
        };
        match self.manager.offer(id, &frame) {
            Ok(OfferReply::Accepted { ordinal, depth }) => self.must_deliver(
                conn,
                WireMsg::FrameAck {
                    session,
                    ordinal,
                    status: AckStatus::Accepted,
                    depth: depth as u32,
                },
            ),
            Ok(OfferReply::Overloaded { ordinal, depth }) => self.must_deliver(
                conn,
                WireMsg::FrameAck {
                    session,
                    ordinal,
                    status: AckStatus::Overloaded,
                    depth: depth as u32,
                },
            ),
            // Terminal mid-stream (quarantine/failure): the terminal
            // reply is queued by the event router; the frame is moot.
            Err(ServeError::SessionTerminal { .. }) => {}
            Err(e) => self.must_deliver(
                conn,
                WireMsg::Failed {
                    session,
                    error: e.to_string(),
                },
            ),
        }
    }

    /// Feeds pending clip frames into the manager, one session at a
    /// time, stopping a session's feed the moment an offer comes back
    /// `Overloaded` (the frame goes back to the front of its queue and
    /// the next pass retries after a tick has drained the session's
    /// queue). When a clip session's frames are all accepted it is
    /// closed, which makes the terminal `ANALYSIS`/`FAILED` flow from
    /// the event router like any lockstep session's.
    fn feed_clips(&mut self) {
        let feeding: Vec<slj_serve::SessionId> = self
            .sessions
            .iter()
            .filter(|m| !m.pending.is_empty() || m.auto_close)
            .map(|m| m.id)
            .collect();
        for id in feeding {
            // Re-find each round: a must_deliver below can tear the
            // owning connection down and drop the meta entirely.
            while let Some(ix) = self.sessions.iter().position(|m| m.id == id) {
                let session = id as u64;
                let conn = self.sessions[ix].conn;
                let Some(frame) = self.sessions[ix].pending.pop_front() else {
                    if self.sessions[ix].auto_close {
                        self.sessions[ix].auto_close = false;
                        match self.manager.close(id) {
                            Ok(()) | Err(ServeError::SessionTerminal { .. }) => {}
                            Err(e) => self.must_deliver(
                                conn,
                                WireMsg::Failed {
                                    session,
                                    error: e.to_string(),
                                },
                            ),
                        }
                    }
                    break;
                };
                match self.manager.offer(id, &frame) {
                    Ok(OfferReply::Accepted { .. }) => {}
                    Ok(OfferReply::Overloaded { .. }) => {
                        // The session queue is full; retry after a tick.
                        self.sessions[ix].pending.push_front(frame);
                        break;
                    }
                    // Terminal mid-feed (quarantine/failure): the event
                    // router delivers the terminal reply; the rest of
                    // the clip is moot.
                    Err(ServeError::SessionTerminal { .. }) => {
                        self.sessions[ix].pending.clear();
                        self.sessions[ix].auto_close = false;
                        break;
                    }
                    Err(e) => {
                        self.sessions[ix].pending.clear();
                        self.sessions[ix].auto_close = false;
                        self.must_deliver(
                            conn,
                            WireMsg::Failed {
                                session,
                                error: e.to_string(),
                            },
                        );
                        break;
                    }
                }
            }
        }
    }

    /// Routes the tick's health events: non-frame events stream to the
    /// owning connection best-effort; terminal events trigger the
    /// must-deliver `ANALYSIS`/`FAILED` reply, the optional trace-dir
    /// export, and the session's retirement (recycling its slot).
    fn route_events(&mut self) {
        let mut events = std::mem::take(&mut self.events_scratch);
        events.clear();
        self.manager.drain_events_into(&mut events);
        for event in &events {
            let session = event.session;
            let Some(meta_index) = self.sessions.iter().position(|m| m.id == session) else {
                continue; // owner already gone (aborted/retired)
            };
            let conn = self.sessions[meta_index].conn;
            if !matches!(event.kind, EventKind::Frame { .. }) {
                self.best_effort(
                    conn,
                    WireMsg::Event {
                        session: session as u64,
                        line: render_event(event),
                    },
                );
            }
            if event.kind.is_terminal() {
                self.finish_session(meta_index, event);
            }
        }
        self.events_scratch = events;
    }

    /// Delivers a terminal session's result and retires it.
    fn finish_session(&mut self, meta_index: usize, event: &HealthEvent) {
        let meta = self.sessions.remove(meta_index);
        let session = meta.id as u64;
        let reply = match self.manager.take_result(meta.id) {
            Some(Ok(analysis)) => {
                self.stats.sessions_finished += 1;
                let summary_json =
                    serde_json::to_string_pretty(&analysis.summary()).expect("summary serialises");
                let trace_jsonl = if meta.want_trace || self.config.trace_dir.is_some() {
                    analysis.obs.render_trace()
                } else {
                    String::new()
                };
                if let Some(dir) = &self.config.trace_dir {
                    // Best-effort export: a full disk must not take the
                    // service down, but it should not be silent either.
                    let path = dir.join(format!("session-{session}.trace.jsonl"));
                    if let Err(e) = std::fs::create_dir_all(dir)
                        .and_then(|()| std::fs::write(&path, &trace_jsonl))
                    {
                        eprintln!("slj-daemon: cannot write {}: {e}", path.display());
                    }
                }
                WireMsg::Analysis {
                    session,
                    summary_json,
                    trace_jsonl: if meta.want_trace {
                        trace_jsonl
                    } else {
                        String::new()
                    },
                }
            }
            Some(Err(error)) => {
                self.stats.sessions_failed += 1;
                WireMsg::Failed {
                    session,
                    error: error.to_string(),
                }
            }
            // Quarantined sessions have no result; the terminal event
            // carries the reason.
            None => {
                self.stats.sessions_failed += 1;
                let reason = match &event.kind {
                    EventKind::Quarantined { reason } => reason.clone(),
                    other => other.name().to_owned(),
                };
                WireMsg::Failed {
                    session,
                    error: format!("quarantined: {reason}"),
                }
            }
        };
        let _ = self.manager.retire(meta.id);
        if !meta.suppress_reply {
            self.must_deliver(meta.conn, reply);
        }
    }

    /// Moves parked replies into writer channels as room appears, then
    /// closes connections that have said everything they need to.
    fn flush_and_reap(&mut self) {
        let mut dead = Vec::new();
        for state in &mut self.conns {
            while let Some(msg) = state.parked.pop_front() {
                match state.writer.try_send(Out::Msg(msg)) {
                    Ok(()) => {}
                    Err(TrySendError::Full(Out::Msg(msg))) => {
                        state.parked.push_front(msg);
                        break;
                    }
                    Err(TrySendError::Full(Out::Close)) => unreachable!("we only queue Msg"),
                    Err(TrySendError::Disconnected(_)) => {
                        state.dead = true;
                        state.parked.clear();
                        break;
                    }
                }
            }
            if state.dead || (state.doomed && state.parked.is_empty()) {
                // Close is best-effort: if the channel is full the
                // writer is still busy; try again next loop.
                if state.dead || state.writer.try_send(Out::Close).is_ok() {
                    dead.push(state.id);
                }
            }
        }
        for conn in dead {
            // A doomed conn's sessions were aborted at teardown; a dead
            // one may still own sessions (writer died before reader).
            self.teardown(conn, None);
            self.conns.retain(|c| c.id != conn);
        }
    }

    /// The engine thread's body. Returns when a drain completes: every
    /// in-flight session terminal and retired, every connection
    /// flushed and closed.
    pub(crate) fn run(mut self) -> DaemonStats {
        loop {
            // 1. Intake: wait briefly for the first request, then
            //    drain whatever else is queued without waiting.
            match self
                .requests
                .recv_timeout(Duration::from_millis(self.config.tick_wait_ms))
            {
                Ok(request) => {
                    self.handle_request(request);
                    // Bounded drain: past the budget, leave the rest
                    // queued and go tick — intake must never starve
                    // the queue-draining ticks (see `intake_budget`).
                    let mut budget = self.config.intake_budget;
                    while budget > 0 {
                        match self.requests.try_recv() {
                            Ok(request) => self.handle_request(request),
                            Err(_) => break,
                        }
                        budget -= 1;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // All acceptors and readers are gone; drain what's
                    // left and exit.
                    self.drain.raise();
                }
            }
            if self.drain.is_raised() {
                self.manager.drain();
            }
            // 2. Feed engine-owned clip sessions (OPEN_CLIP) as far as
            //    backpressure allows.
            self.feed_clips();
            // 3. One supervision tick (skipped when nothing is open).
            if self.manager.sessions_in_service() > 0 {
                self.manager.tick();
                self.stats.ticks += 1;
            }
            // 4. Route events, deliver terminals, retire.
            self.route_events();
            // 5. Outbound progress and connection reaping.
            self.flush_and_reap();
            // 6. Drain-complete check.
            if self.manager.is_draining()
                && self.manager.sessions_in_service() == 0
                && self.sessions.is_empty()
            {
                for state in &mut self.conns {
                    if !state.dead {
                        let _ = state.writer.try_send(Out::Msg(WireMsg::Bye));
                        let _ = state.writer.try_send(Out::Close);
                    }
                }
                self.conns.clear();
                return self.stats;
            }
        }
    }
}

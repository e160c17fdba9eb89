//! The session manager: the one front door to every supervised
//! session.
//!
//! Producers `open` sessions, `offer` frames (learning about
//! backpressure synchronously via [`OfferReply`]) and `close` clips;
//! the service `tick`s, which processes at most one frame per session
//! per tick — in session order serially, or fanned out over the
//! configured [`Parallelism`] with results merged back in session
//! order, so the event stream, metrics and analyses are byte-identical
//! at every thread count.

use std::fmt;
use std::sync::Mutex;

use slj::{AnalyzeError, JumpAnalysis};
use slj_obs::MetricsRegistry;
use slj_runtime::{BackoffConfig, Parallelism, WorkerPool};
use slj_video::Frame;

use crate::chaos::ServiceFaultPlan;
use crate::events::{EventKind, HealthEvent};
use crate::session::{Session, SessionConfig, SessionId, SessionSlot, SessionState};

/// How the per-frame deadline budget is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlineClock {
    /// Wall time, milliseconds — the production setting.
    #[default]
    Wall,
    /// Deterministic ticks: a frame costs 1 plus any scripted
    /// [`ServiceFaultPlan::overrun`] — the chaos-test setting (no
    /// wall-clock read at all).
    Scripted,
}

/// Service-level knobs. Every bound is explicit; nothing in the
/// service buffers without one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Concurrent session cap; `open` past it is refused.
    pub max_sessions: usize,
    /// Per-session frame-queue bound; offers past it shed (newest).
    pub queue_depth: usize,
    /// Per-frame budget (ms under `Wall`, ticks under `Scripted`);
    /// 0 disables deadline accounting.
    pub frame_deadline: u64,
    /// How the budget is measured.
    pub clock: DeadlineClock,
    /// Checkpoint every N successfully processed frames; also the
    /// bound on the replay buffer.
    pub checkpoint_interval: usize,
    /// Degraded frames before the robustness policy is relaxed.
    pub escalate_after: usize,
    /// Degraded frames before the circuit breaker trips (terminal).
    pub trip_after: usize,
    /// Consecutive idle ticks that count as one stall strike for an
    /// open session (0 disables stall detection).
    pub stall_ticks: usize,
    /// Stall strikes before the session is quarantined.
    pub stall_strikes: u32,
    /// Consecutive clean frames that reset the restart ladder.
    pub clean_frames_to_reset: usize,
    /// The supervisor restart ladder's pacing.
    pub restart: BackoffConfig,
    /// Manager-level fan-out: how many sessions step concurrently per
    /// tick. Throughput-only, like every `Parallelism` in the
    /// workspace.
    pub parallelism: Parallelism,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 8,
            queue_depth: 16,
            frame_deadline: 0,
            clock: DeadlineClock::Wall,
            checkpoint_interval: 4,
            escalate_after: 6,
            trip_after: 12,
            stall_ticks: 16,
            stall_strikes: 3,
            clean_frames_to_reset: 8,
            restart: BackoffConfig::default(),
            parallelism: Parallelism::Serial,
        }
    }
}

/// The synchronous reply to [`SessionManager::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferReply {
    /// The frame is queued.
    Accepted {
        /// The frame's offer ordinal (the chaos plan's key).
        ordinal: u64,
        /// Queue depth after the accept.
        depth: usize,
    },
    /// The queue is full: the frame was shed (reject-newest) without
    /// copying or allocating. The producer may retry after a tick.
    Overloaded {
        /// The ordinal the shed offer consumed.
        ordinal: u64,
        /// The (full) queue depth.
        depth: usize,
    },
}

/// Typed service errors (distinct from per-session health events:
/// these are caller mistakes or capacity refusals, not session
/// outcomes).
#[derive(Debug)]
pub enum ServeError {
    /// No session with this id was ever opened.
    UnknownSession {
        /// The offending id.
        id: SessionId,
    },
    /// `open` would exceed `max_sessions`.
    AtCapacity {
        /// The configured cap.
        max: usize,
    },
    /// The producer already closed this session's clip.
    SessionClosed {
        /// The session.
        id: SessionId,
    },
    /// The session has left service (finished, failed or quarantined).
    SessionTerminal {
        /// The session.
        id: SessionId,
    },
    /// `retire` was asked to remove a session that is still live.
    SessionActive {
        /// The session.
        id: SessionId,
    },
    /// The manager is draining: in-flight sessions finish, new ones
    /// are refused.
    Draining,
    /// The session config failed analyzer validation (e.g. not
    /// streamable).
    Analyzer(AnalyzeError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownSession { id } => write!(f, "unknown session {id}"),
            ServeError::AtCapacity { max } => {
                write!(f, "at capacity: {max} sessions already open")
            }
            ServeError::SessionClosed { id } => write!(f, "session {id} is closed"),
            ServeError::SessionTerminal { id } => {
                write!(f, "session {id} has left service")
            }
            ServeError::SessionActive { id } => {
                write!(
                    f,
                    "session {id} is still active (retire needs a terminal session)"
                )
            }
            ServeError::Draining => {
                write!(
                    f,
                    "draining: finishing in-flight sessions, not admitting new ones"
                )
            }
            ServeError::Analyzer(e) => write!(f, "session rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Analyzer(e) => Some(e),
            _ => None,
        }
    }
}

/// The supervised multi-session service core. See the crate docs for
/// the containment model.
#[derive(Debug)]
pub struct SessionManager {
    config: ServeConfig,
    chaos: ServiceFaultPlan,
    /// In service, ascending by id (ids are monotonic and never
    /// reused, so a push keeps the order and lookups binary-search).
    sessions: Vec<Session>,
    events: Vec<HealthEvent>,
    seq: u64,
    tick: u64,
    next_id: SessionId,
    slots: Vec<SessionSlot>,
    aggregate: MetricsRegistry,
    workers: Option<WorkerPool>,
    draining: bool,
}

impl SessionManager {
    /// An empty manager.
    pub fn new(config: ServeConfig) -> Self {
        SessionManager {
            config,
            chaos: ServiceFaultPlan::none(),
            sessions: Vec::new(),
            events: Vec::new(),
            seq: 0,
            tick: 0,
            next_id: 0,
            slots: Vec::new(),
            aggregate: MetricsRegistry::default(),
            workers: None,
            draining: false,
        }
    }

    /// Installs a chaos plan (testing only; the default plan is empty).
    pub fn with_chaos(mut self, plan: ServiceFaultPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Ticks elapsed.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Opens a session, validating the analyzer config up front.
    ///
    /// # Errors
    ///
    /// [`ServeError::Draining`] after [`SessionManager::drain`];
    /// [`ServeError::AtCapacity`] past `max_sessions`;
    /// [`ServeError::Analyzer`] when the config is not streamable.
    pub fn open(&mut self, config: SessionConfig) -> Result<SessionId, ServeError> {
        if self.draining {
            return Err(ServeError::Draining);
        }
        if self.sessions.len() >= self.config.max_sessions {
            return Err(ServeError::AtCapacity {
                max: self.config.max_sessions,
            });
        }
        let id = self.next_id;
        let slot = self.slots.pop().unwrap_or_default();
        let session = Session::new(id, config, &self.config, slot).map_err(ServeError::Analyzer)?;
        self.next_id += 1;
        self.sessions.push(session);
        Ok(id)
    }

    fn find(&self, id: SessionId) -> Option<&Session> {
        self.sessions
            .binary_search_by_key(&id, Session::id)
            .ok()
            .map(|i| &self.sessions[i])
    }

    fn find_mut(&mut self, id: SessionId) -> Option<&mut Session> {
        match self.sessions.binary_search_by_key(&id, Session::id) {
            Ok(i) => Some(&mut self.sessions[i]),
            Err(_) => None,
        }
    }

    /// Offers one frame to a session. Backpressure is synchronous:
    /// a full queue sheds the frame and says so in the reply; the
    /// reject path neither copies the frame nor allocates.
    ///
    /// # Errors
    ///
    /// Typed errors for caller mistakes — unknown, closed or terminal
    /// sessions. An over-full queue is *not* an error; it is the
    /// [`OfferReply::Overloaded`] reply.
    pub fn offer(&mut self, id: SessionId, frame: &Frame) -> Result<OfferReply, ServeError> {
        let queue_depth = self.config.queue_depth;
        let session = self.find_mut(id).ok_or(ServeError::UnknownSession { id })?;
        if session.state().is_terminal() {
            return Err(ServeError::SessionTerminal { id });
        }
        if session.is_closed() {
            return Err(ServeError::SessionClosed { id });
        }
        Ok(session.offer(frame, queue_depth))
    }

    /// Marks a session's clip complete: once its queue drains, the
    /// next tick runs `finish()` and emits the terminal event.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] / [`ServeError::SessionTerminal`].
    pub fn close(&mut self, id: SessionId) -> Result<(), ServeError> {
        let session = self.find_mut(id).ok_or(ServeError::UnknownSession { id })?;
        if session.state().is_terminal() {
            return Err(ServeError::SessionTerminal { id });
        }
        session.close();
        Ok(())
    }

    /// Retires a **terminal** session: removes it from service (freeing
    /// a `max_sessions` slot for a fresh `open`), folds its metrics
    /// into the service-lifetime aggregate
    /// ([`SessionManager::aggregate_metrics`]) and recycles its heavy
    /// state (frame arenas, queue storage, GA scratch) into the next
    /// `open`, so steady-state session churn does no large
    /// allocations. Any untaken analysis result
    /// is discarded, so call [`SessionManager::take_result`] first.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for an id never opened or
    /// already retired; [`ServeError::SessionActive`] while the
    /// session is still live.
    pub fn retire(&mut self, id: SessionId) -> Result<(), ServeError> {
        let index = self
            .sessions
            .binary_search_by_key(&id, Session::id)
            .map_err(|_| ServeError::UnknownSession { id })?;
        if !self.sessions[index].state().is_terminal() {
            return Err(ServeError::SessionActive { id });
        }
        let (slot, metrics) = self.sessions.remove(index).retire();
        self.aggregate.absorb(&metrics);
        if self.slots.len() < self.config.max_sessions {
            self.slots.push(slot);
        }
        Ok(())
    }

    /// Begins a graceful drain: every further `open` is refused with
    /// [`ServeError::Draining`], while sessions already in flight keep
    /// processing to their natural end. Non-blocking — the caller keeps
    /// ticking (or calls [`SessionManager::run_until_drained`]) and
    /// polls [`SessionManager::is_drained`]. Idempotent.
    pub fn drain(&mut self) {
        self.draining = true;
    }

    /// Whether [`SessionManager::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Whether the drain is complete: draining was requested and every
    /// session still in service has reached a terminal state (finished,
    /// failed or quarantined — retired sessions are gone already).
    pub fn is_drained(&self) -> bool {
        self.draining && self.sessions.iter().all(|s| s.state().is_terminal())
    }

    /// Drains and ticks until every in-flight session is terminal.
    /// Returns the ticks run.
    ///
    /// An open session whose producer never closes it only terminates
    /// through stall detection, so with `stall_ticks == 0` callers must
    /// [`SessionManager::close`] every session first or this loops
    /// forever.
    pub fn run_until_drained(&mut self) -> u64 {
        self.drain();
        let mut ticks = 0;
        while !self.is_drained() {
            self.tick();
            ticks += 1;
        }
        ticks
    }

    /// Force-terminates a **live** session — the ingress layer's hook
    /// for a producer that vanished (client disconnect) rather than
    /// closed. The session is quarantined with `reason`, emitting the
    /// usual terminal health event (stamped with the current tick), and
    /// becomes eligible for [`SessionManager::retire`] immediately. Any
    /// partial analysis is discarded; there is no result to take.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] /
    /// [`ServeError::SessionTerminal`] (aborting twice is the latter).
    pub fn abort(&mut self, id: SessionId, reason: &str) -> Result<(), ServeError> {
        let tick = self.tick;
        let session = self.find_mut(id).ok_or(ServeError::UnknownSession { id })?;
        if session.state().is_terminal() {
            return Err(ServeError::SessionTerminal { id });
        }
        let mut buffer = Vec::new();
        session.abort(reason, &mut buffer);
        for (session, kind) in buffer {
            self.events.push(HealthEvent {
                seq: self.seq,
                session,
                tick,
                kind,
            });
            self.seq += 1;
        }
        Ok(())
    }

    /// One service tick: each live session processes at most one
    /// queued frame (or finalizes, or accrues idleness), in session
    /// order — optionally fanned out over the configured parallelism
    /// with per-session event buffers merged back in session order.
    /// Returns how many sessions did work.
    pub fn tick(&mut self) -> usize {
        self.tick += 1;
        let tick = self.tick;
        let threads = self
            .config
            .parallelism
            .threads()
            .min(self.sessions.len().max(1));
        let mut progressed = 0usize;
        let mut merged: Vec<(SessionId, EventKind)> = Vec::new();
        if threads <= 1 {
            for session in &mut self.sessions {
                if session.step(&self.config, &self.chaos, &mut merged) {
                    progressed += 1;
                }
            }
        } else {
            // A persistent pool, spawned lazily on the first parallel
            // tick and parked between ticks: the per-tick cost is an
            // epoch wake-up, not thread create/join. Sessions shard into
            // contiguous chunks and the per-shard event buffers merge
            // back in session order — the same stream the serial loop
            // produces.
            struct Shard<'a> {
                sessions: &'a mut [Session],
                events: Vec<(SessionId, EventKind)>,
                progressed: usize,
            }
            let pool_threads = self.config.parallelism.threads();
            let workers = self
                .workers
                .get_or_insert_with(|| WorkerPool::new(pool_threads));
            let chunk_size = self.sessions.len().div_ceil(threads);
            let config = &self.config;
            let chaos = &self.chaos;
            let shards: Vec<Mutex<Shard<'_>>> = self
                .sessions
                .chunks_mut(chunk_size)
                .map(|sessions| {
                    Mutex::new(Shard {
                        sessions,
                        events: Vec::new(),
                        progressed: 0,
                    })
                })
                .collect();
            workers.run(shards.len(), &|i| {
                // Worker i is the only thread that touches shard i, so
                // the lock is uncontended — it exists to hand the
                // `&mut` through the shared borrow the pool requires.
                let mut shard = shards[i].lock().expect("shard lock");
                let shard = &mut *shard;
                for session in shard.sessions.iter_mut() {
                    if session.step(config, chaos, &mut shard.events) {
                        shard.progressed += 1;
                    }
                }
            });
            for shard in shards {
                let shard = shard.into_inner().expect("shard lock");
                merged.extend(shard.events);
                progressed += shard.progressed;
            }
        }
        for (session, kind) in merged {
            self.events.push(HealthEvent {
                seq: self.seq,
                session,
                tick,
                kind,
            });
            self.seq += 1;
        }
        progressed
    }

    /// Ticks until no session has queued frames, pending finalization
    /// or a restart cooldown (open-but-idle sessions do not keep the
    /// loop alive — their producers may come back). Returns the ticks
    /// run.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut ticks = 0;
        while self.sessions.iter().any(|s| {
            !s.state().is_terminal() && (s.queue_len() > 0 || s.is_closed() || s.cooldown() > 0)
        }) {
            self.tick();
            ticks += 1;
        }
        ticks
    }

    /// Takes the buffered health events (the client's incremental
    /// feed). Draining regularly is what keeps event memory bounded.
    pub fn drain_events(&mut self) -> Vec<HealthEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drains the buffered health events by appending them to `out`
    /// (in order), reusing the caller's storage — the churn-free twin
    /// of [`SessionManager::drain_events`].
    pub fn drain_events_into(&mut self, out: &mut Vec<HealthEvent>) {
        out.append(&mut self.events);
    }

    /// A session's lifecycle state.
    pub fn state(&self, id: SessionId) -> Option<&SessionState> {
        self.find(id).map(Session::state)
    }

    /// A session's supervisor metrics.
    pub fn metrics(&self, id: SessionId) -> Option<&MetricsRegistry> {
        self.find(id).map(Session::metrics)
    }

    /// A session's queued-frame count.
    pub fn queue_len(&self, id: SessionId) -> Option<usize> {
        self.find(id).map(Session::queue_len)
    }

    /// Degraded frames charged to a session so far.
    pub fn degraded(&self, id: SessionId) -> Option<usize> {
        self.find(id).map(Session::degraded)
    }

    /// Takes a finished/failed session's analysis result (once).
    pub fn take_result(&mut self, id: SessionId) -> Option<Result<JumpAnalysis, AnalyzeError>> {
        self.find_mut(id).and_then(Session::take_result)
    }

    /// Ids of every session still in service (live or
    /// terminal-but-unretired), ascending.
    pub fn session_ids(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.sessions.iter().map(Session::id)
    }

    /// Sessions currently in service.
    pub fn sessions_in_service(&self) -> usize {
        self.sessions.len()
    }

    /// Recycled slots waiting for the next `open`.
    pub fn pooled_slots(&self) -> usize {
        self.slots.len()
    }

    /// The service-lifetime metrics aggregate: every retired session's
    /// counters and histograms, folded in at `retire`. Live sessions
    /// are read individually via [`SessionManager::metrics`] until
    /// retirement.
    pub fn aggregate_metrics(&self) -> &MetricsRegistry {
        &self.aggregate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;
    use slj::AnalyzerConfig;
    use slj_motion::{BodyDims, Pose};
    use slj_video::Camera;

    fn session_config() -> SessionConfig {
        SessionConfig {
            analyzer: AnalyzerConfig::streaming(),
            camera: Camera::compact(),
            first_pose: Pose::standing(&BodyDims::default()),
            fps: 10.0,
        }
    }

    fn scripted(config: ServeConfig) -> ServeConfig {
        ServeConfig {
            clock: DeadlineClock::Scripted,
            ..config
        }
    }

    #[test]
    fn open_refuses_past_capacity_and_bad_configs() {
        let mut m = SessionManager::new(scripted(ServeConfig {
            max_sessions: 2,
            ..ServeConfig::default()
        }));
        assert_eq!(m.open(session_config()).unwrap(), 0);
        assert_eq!(m.open(session_config()).unwrap(), 1);
        assert!(matches!(
            m.open(session_config()),
            Err(ServeError::AtCapacity { max: 2 })
        ));
        // A non-streamable analyzer config is refused up front.
        let mut m = SessionManager::new(scripted(ServeConfig::default()));
        let bad = SessionConfig {
            analyzer: AnalyzerConfig::fast(),
            ..session_config()
        };
        let err = m.open(bad).unwrap_err();
        assert!(matches!(err, ServeError::Analyzer(_)), "{err}");
        assert!(err.to_string().contains("cannot stream"), "{err}");
    }

    #[test]
    fn offer_sheds_newest_past_queue_depth() {
        let mut m = SessionManager::new(scripted(ServeConfig {
            queue_depth: 2,
            ..ServeConfig::default()
        }));
        let id = m.open(session_config()).unwrap();
        let frame = Frame::filled(8, 6, slj_imgproc_rgb(40));
        assert_eq!(
            m.offer(id, &frame).unwrap(),
            OfferReply::Accepted {
                ordinal: 0,
                depth: 1
            }
        );
        assert_eq!(
            m.offer(id, &frame).unwrap(),
            OfferReply::Accepted {
                ordinal: 1,
                depth: 2
            }
        );
        // Burst past the bound: reject-newest, typed, ordinal still
        // consumed.
        assert_eq!(
            m.offer(id, &frame).unwrap(),
            OfferReply::Overloaded {
                ordinal: 2,
                depth: 2
            }
        );
        assert_eq!(m.queue_len(id), Some(2));
        assert_eq!(
            m.metrics(id).unwrap().counter(slj_obs::serve_keys::SHEDS),
            1
        );
        // Caller mistakes are typed errors, not replies.
        assert!(matches!(
            m.offer(99, &frame),
            Err(ServeError::UnknownSession { id: 99 })
        ));
        m.close(id).unwrap();
        assert!(matches!(
            m.offer(id, &frame),
            Err(ServeError::SessionClosed { .. })
        ));
    }

    #[test]
    fn closing_an_empty_clip_fails_typed_not_silent() {
        let mut m = SessionManager::new(scripted(ServeConfig::default()));
        let id = m.open(session_config()).unwrap();
        m.close(id).unwrap();
        let ticks = m.run_until_idle();
        assert_eq!(ticks, 1);
        assert_eq!(m.state(id), Some(&SessionState::Failed));
        let events = m.drain_events();
        assert_eq!(events.len(), 1);
        assert!(
            matches!(&events[0].kind, EventKind::Failed { error } if error.contains("at least 2")),
            "{:?}",
            events[0].kind
        );
        let result = m.take_result(id).unwrap();
        assert!(matches!(
            result,
            Err(slj::AnalyzeError::InsufficientWarmup { pushed: 0, .. })
        ));
        // The result is taken exactly once.
        assert!(m.take_result(id).is_none());
        // Closing again: typed terminal error.
        assert!(matches!(
            m.close(id),
            Err(ServeError::SessionTerminal { .. })
        ));
    }

    #[test]
    fn stalled_open_producer_strikes_out_to_quarantine() {
        let mut m = SessionManager::new(scripted(ServeConfig {
            stall_ticks: 2,
            stall_strikes: 2,
            ..ServeConfig::default()
        }));
        let id = m.open(session_config()).unwrap();
        for _ in 0..4 {
            m.tick();
        }
        let events = m.drain_events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["stalled", "stalled", "quarantined"]);
        assert!(matches!(
            m.state(id),
            Some(SessionState::Quarantined { reason }) if reason == "stalled producer"
        ));
        assert_eq!(
            m.metrics(id).unwrap().counter(slj_obs::serve_keys::STALLS),
            2
        );
        // Quarantine is terminal for every API.
        let frame = Frame::filled(8, 6, slj_imgproc_rgb(0));
        assert!(matches!(
            m.offer(id, &frame),
            Err(ServeError::SessionTerminal { .. })
        ));
    }

    #[test]
    fn drain_refuses_opens_and_completes_in_flight() {
        let mut m = SessionManager::new(scripted(ServeConfig::default()));
        let id = m.open(session_config()).unwrap();
        let frame = Frame::filled(8, 6, slj_imgproc_rgb(40));
        assert!(matches!(
            m.offer(id, &frame).unwrap(),
            OfferReply::Accepted { .. }
        ));
        m.drain();
        assert!(m.is_draining());
        assert!(!m.is_drained(), "in-flight session still live");
        assert!(matches!(
            m.open(session_config()),
            Err(ServeError::Draining)
        ));
        // The in-flight session still processes and terminates.
        m.close(id).unwrap();
        let ticks = m.run_until_drained();
        assert!(ticks > 0);
        assert!(m.is_drained());
        assert!(m.state(id).unwrap().is_terminal());
        // Draining an empty manager is immediately drained.
        let mut m = SessionManager::new(scripted(ServeConfig::default()));
        assert_eq!(m.run_until_drained(), 0);
    }

    #[test]
    fn abort_terminalizes_a_live_session_for_retire() {
        let mut m = SessionManager::new(scripted(ServeConfig::default()));
        let id = m.open(session_config()).unwrap();
        let frame = Frame::filled(8, 6, slj_imgproc_rgb(40));
        m.offer(id, &frame).unwrap();
        m.abort(id, "client disconnected").unwrap();
        assert!(matches!(
            m.state(id),
            Some(SessionState::Quarantined { reason }) if reason == "client disconnected"
        ));
        let events = m.drain_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            &events[0].kind,
            EventKind::Quarantined { reason } if reason == "client disconnected"
        ));
        // Aborted sessions retire (and free their slot) immediately.
        m.retire(id).unwrap();
        assert_eq!(m.sessions_in_service(), 0);
        // Aborting twice / unknown ids are typed errors.
        assert!(matches!(
            m.abort(id, "again"),
            Err(ServeError::UnknownSession { .. })
        ));
        let id2 = m.open(session_config()).unwrap();
        m.abort(id2, "gone").unwrap();
        assert!(matches!(
            m.abort(id2, "gone"),
            Err(ServeError::SessionTerminal { .. })
        ));
    }

    #[test]
    fn serve_config_defaults_are_bounded() {
        let c = ServeConfig::default();
        assert!(c.max_sessions > 0);
        assert!(c.queue_depth > 0);
        assert!(c.checkpoint_interval > 0);
        assert!(c.escalate_after < c.trip_after);
        assert_eq!(c.clock, DeadlineClock::Wall);
    }

    fn slj_imgproc_rgb(v: u8) -> slj_imgproc::pixel::Rgb {
        slj_imgproc::pixel::Rgb::splat(v)
    }
}

//! A blocking client for the pmc-serve wire protocol.
//!
//! With a [`RetryPolicy`] attached, transport-level failures — a
//! dropped socket, a short read that desynchronizes the
//! length-prefixed stream, a reaped idle connection — are retried
//! with jittered exponential backoff over a **fresh connection**
//! (reconnecting is the only reliable way to resynchronize a
//! length-prefixed stream after a short read). Typed
//! [`ServeError::Overloaded`] responses are retried on the **same**
//! connection (the stream is still in sync) after at least the
//! server's `retry_after_ms` hint. Server-reported errors
//! ([`ServeError::Server`]) and [`ServeError::Draining`] are never
//! retried: the request arrived and was refused. Note a reconnect
//! resets the server-side estimator window for this client; under
//! faults an occasional window restart is the intended degradation,
//! not data loss.
//!
//! With a [`BreakerPolicy`] attached, consecutive overload/timeout
//! failures trip a **circuit breaker**: further calls fail fast with
//! [`ServeError::CircuitOpen`] (no network touch) until a jittered
//! cooldown elapses, then a single half-open probe decides whether to
//! close the breaker or re-open it with a doubled cooldown. The
//! breaker composes with the retry layer: retries that keep hitting
//! overload count as consecutive failures, so a persistently
//! overloaded server stops being hammered.
//!
//! Every request gets its own response, and responses on one
//! connection arrive in request order.

use crate::engine::{CounterSample, Estimate};
use crate::error::ServeError;
use crate::protocol::{
    read_frame, unwrap_response, with_deadline_ms, write_frame_as, Encoding, Request,
};
use pmc_json::Json;
use pmc_model::model::PowerModel;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Jittered exponential backoff for transport-level retries.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_delay: Duration,
    /// Ceiling on any single backoff.
    pub max_delay: Duration,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 0x706d_6373_6572_7665, // arbitrary fixed default
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before retry number `attempt` (1-based):
    /// uniformly in `[d/2, d]` where `d = min(base·2^(attempt-1), max)`.
    fn delay(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = exp.min(self.max_delay);
        let jitter = splitmix_next(rng) as f64 / u64::MAX as f64; // [0, 1)
        capped.mul_f64(0.5 + 0.5 * jitter)
    }
}

/// Circuit-breaker tuning: when to trip, how long to stay open.
#[derive(Debug, Clone)]
pub struct BreakerPolicy {
    /// Consecutive overload/timeout failures that trip the breaker.
    pub failure_threshold: u32,
    /// Open duration after the first trip; doubles on each re-trip.
    pub cooldown: Duration,
    /// Ceiling on the doubling cooldown.
    pub max_cooldown: Duration,
    /// Seed of the deterministic cooldown-jitter stream.
    pub seed: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 3,
            cooldown: Duration::from_millis(100),
            max_cooldown: Duration::from_secs(5),
            seed: 0x6272_6561_6b65_7231, // arbitrary fixed default
        }
    }
}

/// Closed → (threshold consecutive failures) → Open → (cooldown) →
/// HalfOpen probe → Closed on success, Open with doubled cooldown on
/// failure.
#[derive(Debug)]
struct Breaker {
    policy: BreakerPolicy,
    rng: u64,
    consecutive: u32,
    /// `Some(t)` while open: fail fast until `t`.
    open_until: Option<Instant>,
    /// Cooldown the *next* trip will apply (doubles while tripping).
    next_cooldown: Duration,
    /// The next attempt is the single half-open probe.
    half_open: bool,
}

impl Breaker {
    fn new(policy: BreakerPolicy) -> Self {
        Breaker {
            rng: policy.seed,
            next_cooldown: policy.cooldown,
            policy,
            consecutive: 0,
            open_until: None,
            half_open: false,
        }
    }

    /// Gate before an attempt: `Err(retry_in_ms)` while the breaker
    /// is open; flips to half-open when the cooldown has elapsed.
    fn admit(&mut self) -> Result<(), u64> {
        if let Some(until) = self.open_until {
            let now = Instant::now();
            if now < until {
                return Err((until - now).as_millis().max(1) as u64);
            }
            self.open_until = None;
            self.half_open = true;
        }
        Ok(())
    }

    fn on_success(&mut self) {
        self.consecutive = 0;
        self.half_open = false;
        self.next_cooldown = self.policy.cooldown;
    }

    /// Records a failure; only overload/timeout failures count toward
    /// tripping. A failed half-open probe re-opens immediately.
    /// `floor_ms` is the server's `retry_after_ms` hint, if the
    /// failure carried one: a router refusing a token with no usable
    /// owner (mid-failover) answers with exactly that hint, and a
    /// jittered cooldown shorter than it would send the half-open
    /// probe back before the server said there was any point.
    fn on_failure(&mut self, counts: bool, floor_ms: Option<u64>) {
        if !counts {
            return;
        }
        self.consecutive += 1;
        if self.half_open || self.consecutive >= self.policy.failure_threshold {
            // Jittered open window in [0.5, 1.5)·cooldown so a fleet
            // of breakers doesn't probe in lockstep — but never
            // shorter than the server's own retry hint.
            let jitter = splitmix_next(&mut self.rng) as f64 / u64::MAX as f64;
            let mut window = self.next_cooldown.mul_f64(0.5 + jitter);
            if let Some(ms) = floor_ms {
                window = window.max(Duration::from_millis(ms));
            }
            self.open_until = Some(Instant::now() + window);
            self.next_cooldown = (self.next_cooldown * 2).min(self.policy.max_cooldown);
            self.half_open = false;
        }
    }
}

/// One step of the splitmix64 sequence — the same generator the
/// simulator uses, inlined so the client crate stays dependency-light.
pub(crate) fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What this client experienced across its calls — the client-side
/// view of shedding, retries and breaker behavior. Read it with
/// [`PowerClient::call_stats`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ClientStats {
    /// Calls that ended with a typed `deadline_exceeded` — answered by
    /// the server/router, or failed locally because the budget was
    /// already spent before an attempt could even be made.
    pub deadline_exceeded: u64,
    /// Typed overload answers received (each counted, retried or not).
    pub overloaded: u64,
    /// Transport-level retries that reconnected a fresh stream.
    pub reconnect_retries: u64,
    /// Calls failed fast by the open circuit breaker (no network).
    pub breaker_fast_fails: u64,
}

/// Hedged-read outcomes scraped from a `pmc-router` metrics scrape —
/// typed access to the router-side counters a client cannot observe on
/// its own connection (hedges are resolved inside the router; the
/// winning answer is relayed verbatim). All zeros when the endpoint is
/// a bare `pmc-serve` (no router, no hedging).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct HedgeStats {
    /// Hedges fired to a synced standby.
    pub fired: u64,
    /// Hedges whose standby answer won the race.
    pub won: u64,
    /// Hedges where both answers landed and disagreed bitwise.
    pub mismatches: u64,
    /// Hedges suppressed because the per-connection retry budget was
    /// exhausted.
    pub retry_budget_exhausted: u64,
}

/// One connection to a power server. Each client owns its own
/// estimator window on the server side; drop the client to release it.
#[derive(Debug)]
pub struct PowerClient {
    stream: TcpStream,
    /// Where the client reconnects to.
    endpoint: SocketAddr,
    retry: Option<RetryPolicy>,
    breaker: Option<Breaker>,
    rng: u64,
    /// The durable identity bound with `resume`, replayed on every
    /// reconnect so a fresh connection (including one re-routed by
    /// `pmc-router` after a backend eviction) lands back on the same
    /// engine window instead of a cold ephemeral one.
    resume_token: Option<String>,
    /// Per-call patience: every call stamps its frames with the budget
    /// remaining (`deadline_ms`), and retries re-stamp the shrunken
    /// remainder — a retried request can never outlive the original
    /// patience, no matter how many hops or backoffs it crosses.
    deadline_budget: Option<Duration>,
    /// The payload encoding negotiated with [`Self::negotiate_encoding`]
    /// (JSON until then), replayed on every reconnect before the
    /// resume token so a re-route keeps the agreed wire format.
    encoding: Encoding,
    /// What this client has experienced (see [`ClientStats`]).
    stats_local: ClientStats,
}

/// How a failed call should be retried, if at all.
enum RetryMode {
    /// Transport broke: resync on a fresh connection.
    Reconnect,
    /// Typed overload: the stream is in sync; retry in place after at
    /// least the server's hint (milliseconds).
    SameConn(u64),
    /// Not retryable.
    No,
}

impl PowerClient {
    /// Connects to a running server over TCP.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        let addr = stream.peer_addr()?;
        Ok(PowerClient {
            stream,
            endpoint: addr,
            retry: None,
            breaker: None,
            rng: 0,
            resume_token: None,
            deadline_budget: None,
            encoding: Encoding::Json,
            stats_local: ClientStats::default(),
        })
    }

    /// Enables transport-level retries with the given policy.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.rng = policy.seed;
        self.retry = Some(policy);
        self
    }

    /// Enables the circuit breaker with the given policy.
    pub fn with_breaker(mut self, policy: BreakerPolicy) -> Self {
        self.breaker = Some(Breaker::new(policy));
        self
    }

    /// Gives every call a propagated deadline budget: frames carry the
    /// remaining patience as `deadline_ms`, downstream hops shed work
    /// the budget can no longer cover, and retries re-stamp what is
    /// left rather than restarting the clock.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline_budget = Some(budget);
        self
    }

    /// Negotiates the connection's frame payload encoding via the
    /// `hello` op. Must run before any data frame (the server refuses
    /// a late hello with a typed error). Returns the encoding the
    /// server agreed to — a server that does not speak the requested
    /// name falls back to JSON with a typed notice, so the client
    /// simply keeps speaking what was agreed. The negotiation is
    /// sticky: every reconnect replays it before the resume token.
    pub fn negotiate_encoding(&mut self, encoding: Encoding) -> Result<Encoding, ServeError> {
        let payload = Request::Hello {
            encoding: encoding.as_str().to_string(),
        }
        .to_json_value();
        let r = self.call_once(&payload)?;
        let agreed = Encoding::from_name(r.str_field("encoding")?).unwrap_or(Encoding::Json);
        self.encoding = agreed;
        Ok(agreed)
    }

    /// The payload encoding this client currently speaks.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// The client-side counters: deadline exceedances, overloads,
    /// reconnect retries, breaker fast-fails.
    pub fn call_stats(&self) -> &ClientStats {
        &self.stats_local
    }

    /// True for failures worth retrying on a fresh connection: the
    /// transport broke before a response arrived. Server-reported
    /// errors and malformed payloads are not transport failures —
    /// except a reaped-idle-connection notice (the server's parting
    /// deadline frame), which just means "reconnect".
    fn is_transient(e: &ServeError) -> bool {
        match e {
            ServeError::Io(_) | ServeError::Protocol { .. } | ServeError::Deadline { .. } => true,
            ServeError::Server { message } => message.starts_with("deadline expired"),
            _ => false,
        }
    }

    /// True for the failures the circuit breaker counts: typed
    /// overload responses, deadline exceedances, and timeouts (socket
    /// deadlines included). A backend that keeps eating budgets is as
    /// unhealthy as one that keeps refusing admission — both deserve a
    /// tripped breaker, not a retry storm.
    fn counts_for_breaker(e: &ServeError) -> bool {
        match e {
            ServeError::Overloaded { .. }
            | ServeError::Deadline { .. }
            | ServeError::DeadlineExceeded { .. } => true,
            ServeError::Io(io) => matches!(
                io.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }

    fn reconnect(&mut self) {
        if let Ok(s) = TcpStream::connect(self.endpoint) {
            self.stream = s;
            // Replay the encoding negotiation first: hello must
            // precede every data frame on the fresh connection
            // (including the resume replay below). Best effort, like
            // resume — and harmless if it fails, since both peers
            // sniff payload encodings per frame.
            if self.encoding != Encoding::Json {
                let hello = Request::Hello {
                    encoding: self.encoding.as_str().to_string(),
                }
                .to_json_value();
                let _ = self.call_once(&hello);
            }
            // Re-bind the durable identity before the caller's request
            // is retried: resume is connection-scoped, so without the
            // replay a reconnect (or a router re-route to a different
            // backend) would silently ingest into a cold ephemeral
            // window. Best effort — a failure here surfaces as the
            // retried call's own transport error.
            if let Some(token) = self.resume_token.clone() {
                let payload = Request::Resume { token }.to_json_value();
                let _ = self.call_once(&payload);
            }
        }
    }

    /// Sends a request and returns the unwrapped `result` payload.
    /// With a [`RetryPolicy`], transient transport failures reconnect
    /// and retry with jittered backoff, and typed overloads retry in
    /// place after the server's `retry_after_ms` hint. With a
    /// [`BreakerPolicy`], consecutive overload/timeout failures make
    /// later calls fail fast with [`ServeError::CircuitOpen`].
    pub fn call(&mut self, req: &Request) -> Result<Json, ServeError> {
        let base = req.to_json_value();
        // The budget is per *call*, not per attempt: retries below
        // re-stamp whatever patience is left, never a fresh budget.
        let deadline = self.deadline_budget.map(|b| Instant::now() + b);
        let mut attempt = 0u32;
        loop {
            if let Some(b) = self.breaker.as_mut() {
                if let Err(retry_in_ms) = b.admit() {
                    self.stats_local.breaker_fast_fails += 1;
                    return Err(ServeError::CircuitOpen { retry_in_ms });
                }
            }
            let payload = match deadline {
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        // Spent before this attempt could even start:
                        // fail locally, no network touch, and no
                        // breaker bookkeeping — the endpoint did
                        // nothing wrong.
                        self.stats_local.deadline_exceeded += 1;
                        return Err(ServeError::DeadlineExceeded { remaining_ms: 0 });
                    }
                    with_deadline_ms(&base, remaining.as_millis().max(1) as u64)
                }
                None => base.clone(),
            };
            match self.call_once(&payload) {
                Ok(r) => {
                    if let Some(b) = self.breaker.as_mut() {
                        b.on_success();
                    }
                    return Ok(r);
                }
                Err(e) => {
                    match &e {
                        ServeError::DeadlineExceeded { .. } => {
                            self.stats_local.deadline_exceeded += 1
                        }
                        ServeError::Overloaded { .. } => self.stats_local.overloaded += 1,
                        _ => {}
                    }
                    let counts = Self::counts_for_breaker(&e);
                    if let Some(b) = self.breaker.as_mut() {
                        let hint = match &e {
                            ServeError::Overloaded { retry_after_ms } => Some(*retry_after_ms),
                            _ => None,
                        };
                        b.on_failure(counts, hint);
                    }
                    let mode = match &e {
                        ServeError::Overloaded { retry_after_ms } => {
                            RetryMode::SameConn(*retry_after_ms)
                        }
                        // A spent budget is never retried: the typed
                        // status means the client's patience is gone.
                        ServeError::DeadlineExceeded { .. } => RetryMode::No,
                        _ if Self::is_transient(&e) => RetryMode::Reconnect,
                        _ => RetryMode::No,
                    };
                    let retries = match (&self.retry, &mode) {
                        (Some(p), RetryMode::Reconnect | RetryMode::SameConn(_)) => p.max_retries,
                        _ => return Err(e),
                    };
                    attempt += 1;
                    if attempt > retries {
                        return Err(e);
                    }
                    let policy = self.retry.clone().expect("checked above");
                    let mut delay = policy.delay(attempt, &mut self.rng);
                    if let RetryMode::SameConn(hint_ms) = mode {
                        // Never retry sooner than the server asked.
                        delay = delay.max(Duration::from_millis(hint_ms));
                    }
                    std::thread::sleep(delay);
                    if matches!(mode, RetryMode::Reconnect) {
                        // Resync by reconnecting: after a short read
                        // the length-prefixed stream cannot be
                        // re-aligned.
                        self.stats_local.reconnect_retries += 1;
                        self.reconnect();
                    }
                }
            }
        }
    }

    fn call_once(&mut self, payload: &Json) -> Result<Json, ServeError> {
        write_frame_as(&mut self.stream, payload, self.encoding)?;
        let frame = read_frame(&mut self.stream)?.ok_or(ServeError::Protocol {
            reason: "server closed the connection".into(),
        })?;
        unwrap_response(frame)
    }

    /// Loads a model under `name`; optionally activates it. Returns
    /// the assigned version.
    pub fn load_model(
        &mut self,
        name: &str,
        model: &PowerModel,
        activate: bool,
    ) -> Result<u32, ServeError> {
        let r = self.call(&Request::LoadModel {
            name: name.to_string(),
            model: model.to_json_value(),
            activate,
        })?;
        Ok(r.u32_field("version")?)
    }

    /// Activates a loaded model.
    pub fn activate(&mut self, name: &str, version: u32) -> Result<(), ServeError> {
        self.call(&Request::Activate {
            name: name.to_string(),
            version,
        })?;
        Ok(())
    }

    /// Rolls back to the previously active model; returns its id.
    pub fn rollback(&mut self) -> Result<(String, u32), ServeError> {
        let r = self.call(&Request::Rollback)?;
        Ok((r.str_field("name")?.to_string(), r.u32_field("version")?))
    }

    /// Streams one counter sample; returns the updated estimate.
    pub fn ingest(&mut self, sample: &CounterSample) -> Result<Estimate, ServeError> {
        let r = self.call(&Request::Ingest(sample.clone()))?;
        Estimate::from_json_value(&r)
    }

    /// Fetches the latest estimate (staleness judged against `now_ns`);
    /// `None` until a sample has been ingested on this connection.
    pub fn estimate(&mut self, now_ns: u64) -> Result<Option<Estimate>, ServeError> {
        let r = self.call(&Request::Estimate { now_ns })?;
        match r {
            Json::Null => Ok(None),
            v => Ok(Some(Estimate::from_json_value(&v)?)),
        }
    }

    /// Server statistics snapshot.
    pub fn stats(&mut self) -> Result<Json, ServeError> {
        self.call(&Request::Stats)
    }

    /// Diagnostic round-trip holding a server worker for `delay_ms`
    /// (server-capped). Returns how long the server actually slept.
    pub fn ping(&mut self, delay_ms: u64) -> Result<u64, ServeError> {
        let r = self.call(&Request::Ping { delay_ms })?;
        Ok(r.u64_field("slept_ms")?)
    }

    /// Liveness probe, answered inline by the server's core thread
    /// (it works even when every worker is wedged).
    pub fn healthz(&mut self) -> Result<Json, ServeError> {
        self.call(&Request::Healthz)
    }

    /// Readiness probe: the full report, with `ready` plus every
    /// failing reason spelled out.
    pub fn readyz(&mut self) -> Result<Json, ServeError> {
        self.call(&Request::Readyz)
    }

    /// Prometheus text exposition of the server's operational stats.
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        let r = self.call(&Request::Metrics)?;
        Ok(r.str_field("body")?.to_string())
    }

    /// Typed hedged-read outcomes, scraped from the endpoint's metrics
    /// exposition. Meaningful when the endpoint is a `pmc-router`
    /// (hedges are a router-side mechanism); against a bare server the
    /// series are absent and everything reads zero.
    pub fn hedge_stats(&mut self) -> Result<HedgeStats, ServeError> {
        let body = self.metrics()?;
        let scrape = |name: &str| -> u64 {
            body.lines()
                .find_map(|line| line.strip_prefix(name))
                .and_then(|rest| rest.trim().parse().ok())
                .unwrap_or(0)
        };
        Ok(HedgeStats {
            fired: scrape("pmc_router_hedges_fired "),
            won: scrape("pmc_router_hedges_won "),
            mismatches: scrape("pmc_router_hedge_mismatches "),
            retry_budget_exhausted: scrape("pmc_router_retry_budget_exhausted "),
        })
    }

    /// Binds this connection to a durable client identity. Samples
    /// ingested afterwards accumulate under a token-derived key that
    /// survives disconnects and (with server-side checkpointing)
    /// restarts. Returns whether a warm window already existed.
    pub fn resume(&mut self, token: &str) -> Result<bool, ServeError> {
        let r = self.call(&Request::Resume {
            token: token.to_string(),
        })?;
        // Remember the identity so reconnects (including router
        // re-routes) replay it before retrying the interrupted call.
        self.resume_token = Some(token.to_string());
        Ok(r.field("restored")?.as_bool().unwrap_or(false))
    }

    /// Forces an immediate engine checkpoint; returns the number of
    /// durable client windows written. Errors if the server was
    /// started without a checkpoint path.
    pub fn checkpoint_now(&mut self) -> Result<u64, ServeError> {
        let r = self.call(&Request::Checkpoint)?;
        Ok(r.u64_field("clients")?)
    }

    /// Drains the durable window keyed by `token` into a
    /// self-contained checkpoint record (`None` if the server holds no
    /// such window). With `keep` false the server forgets the window —
    /// the export half of a live migration.
    pub fn migrate_export(&mut self, token: &str, keep: bool) -> Result<Option<Json>, ServeError> {
        let r = self.call(&Request::MigrateExport {
            token: token.to_string(),
            keep,
        })?;
        match r.field("record")? {
            Json::Null => Ok(None),
            record => Ok(Some(record.clone())),
        }
    }

    /// Replays an exported client-window record into this server —
    /// the import half of a live migration. Returns the engine key
    /// (hex) the window landed under.
    pub fn migrate_import(&mut self, record: &Json) -> Result<String, ServeError> {
        let r = self.call(&Request::MigrateImport {
            record: record.clone(),
        })?;
        Ok(r.str_field("key")?.to_string())
    }

    /// Streams one labeled sample (counters + measured watts) into the
    /// online-learning loop. Returns the server's full training report:
    /// `accepted`, typed quarantine `reasons`, rolling MAPEs, and any
    /// auto-activation or rollback this label triggered.
    pub fn train(&mut self, sample: &CounterSample, power_w: f64) -> Result<Json, ServeError> {
        self.call(&Request::Train {
            sample: sample.clone(),
            power_w,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use crate::server::{PowerServer, ServerConfig};
    use crate::test_fixtures::{tiny_dataset, tiny_model};
    use std::sync::Arc;

    #[test]
    fn full_client_session() {
        let mut server =
            PowerServer::start(ServerConfig::default(), Arc::new(ModelRegistry::default()))
                .unwrap();
        let mut c = PowerClient::connect(server.addr()).unwrap();

        let model = tiny_model();
        assert_eq!(c.load_model("hsw", &model, true).unwrap(), 1);
        assert_eq!(c.load_model("hsw", &model, false).unwrap(), 2);
        assert!(c.estimate(0).unwrap().is_none());
        assert_eq!(c.ping(0).unwrap(), 0);

        // Stream a sample built from a training row.
        let data = tiny_dataset(4);
        let row = &data.rows()[0];
        let avail = 24.0 * row.freq_mhz as f64 * 1e6 * row.duration_s;
        let sample = CounterSample {
            time_ns: 10,
            duration_s: row.duration_s,
            freq_mhz: row.freq_mhz,
            voltage: row.voltage,
            deltas: model.events.iter().map(|e| row.rate(*e) * avail).collect(),
            missing: vec![],
        };
        let est = c.ingest(&sample).unwrap();
        assert!((est.power_w - model.predict_row(row)).abs() < 1e-9);
        assert_eq!(est.version, 1);

        // v2 activate + rollback restores v1.
        c.activate("hsw", 2).unwrap();
        assert_eq!(c.rollback().unwrap(), ("hsw".to_string(), 1));

        let stats = c.stats().unwrap();
        assert_eq!(
            stats
                .field("server")
                .unwrap()
                .u64_field("samples_ingested")
                .unwrap(),
            1
        );
        server.shutdown();
    }

    #[test]
    fn retry_reconnects_after_idle_reap() {
        let cfg = ServerConfig {
            read_timeout: Some(std::time::Duration::from_millis(5)),
            idle_timeout: Some(std::time::Duration::from_millis(10)),
            ..ServerConfig::default()
        };
        let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
        let mut c = PowerClient::connect(server.addr())
            .unwrap()
            .with_retry(RetryPolicy::default());
        c.stats().unwrap();
        // Outlive the idle budget: the server reaps this connection.
        std::thread::sleep(std::time::Duration::from_millis(60));
        // The retry layer reconnects transparently.
        c.stats().unwrap();
        assert!(
            server
                .stats()
                .connections_reaped
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        );
        server.shutdown();
    }

    #[test]
    fn no_retry_means_reap_is_surfaced() {
        let cfg = ServerConfig {
            read_timeout: Some(std::time::Duration::from_millis(5)),
            idle_timeout: Some(std::time::Duration::from_millis(10)),
            ..ServerConfig::default()
        };
        let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
        let mut c = PowerClient::connect(server.addr()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert!(c.stats().is_err());
        server.shutdown();
    }

    #[test]
    fn backoff_delays_are_jittered_and_capped() {
        let p = RetryPolicy {
            max_retries: 8,
            base_delay: std::time::Duration::from_millis(10),
            max_delay: std::time::Duration::from_millis(100),
            seed: 42,
        };
        let mut rng = p.seed;
        let mut prev = None;
        for attempt in 1..=8 {
            let d = p.delay(attempt, &mut rng);
            let exp = std::time::Duration::from_millis(10 * (1 << (attempt - 1)))
                .min(std::time::Duration::from_millis(100));
            assert!(d >= exp / 2 && d <= exp, "attempt {attempt}: {d:?}");
            if prev == Some(d) {
                panic!("jitter produced identical consecutive delays");
            }
            prev = Some(d);
        }
        // Deterministic for a fixed seed.
        let mut r1 = 7u64;
        let mut r2 = 7u64;
        assert_eq!(p.delay(3, &mut r1), p.delay(3, &mut r2));
    }

    #[test]
    fn breaker_state_machine_trips_half_opens_and_recovers() {
        let mut b = Breaker::new(BreakerPolicy {
            failure_threshold: 2,
            cooldown: Duration::from_millis(20),
            max_cooldown: Duration::from_millis(100),
            seed: 7,
        });
        // Non-counting failures never trip.
        b.on_failure(false, None);
        b.on_failure(false, None);
        assert!(b.admit().is_ok());
        // Two counting failures trip it.
        b.on_failure(true, None);
        b.on_failure(true, None);
        let retry_in = b.admit().unwrap_err();
        assert!(retry_in >= 1);
        // After the cooldown it half-opens (admits one probe)…
        std::thread::sleep(Duration::from_millis(40));
        assert!(b.admit().is_ok());
        assert!(b.half_open);
        // …and a failed probe re-opens with a doubled cooldown.
        b.on_failure(true, None);
        assert!(b.admit().is_err());
        assert_eq!(b.next_cooldown, Duration::from_millis(80));
        // A successful probe closes and resets.
        std::thread::sleep(Duration::from_millis(70));
        assert!(b.admit().is_ok());
        b.on_success();
        assert!(b.admit().is_ok());
        assert_eq!(b.next_cooldown, Duration::from_millis(20));
        assert_eq!(b.consecutive, 0);
    }

    #[test]
    fn breaker_open_window_honors_the_overload_hint_floor() {
        // A 2ms cooldown with jitter in [0.5, 1.5) opens for at most
        // 3ms — but the overload frame said 60ms. The breaker must
        // stay open at least that long.
        let mut b = Breaker::new(BreakerPolicy {
            failure_threshold: 1,
            cooldown: Duration::from_millis(2),
            max_cooldown: Duration::from_millis(100),
            seed: 11,
        });
        b.on_failure(true, Some(60));
        let retry_in = b.admit().unwrap_err();
        assert!(
            retry_in >= 40,
            "open window {retry_in}ms ignored the 60ms hint"
        );
        std::thread::sleep(Duration::from_millis(10));
        assert!(
            b.admit().is_err(),
            "probed before the server's hint elapsed"
        );
        std::thread::sleep(Duration::from_millis(60));
        assert!(b.admit().is_ok());
        // Without a hint the short cooldown is honored as-is.
        let mut b2 = Breaker::new(BreakerPolicy {
            failure_threshold: 1,
            cooldown: Duration::from_millis(2),
            max_cooldown: Duration::from_millis(100),
            seed: 11,
        });
        b2.on_failure(true, None);
        std::thread::sleep(Duration::from_millis(5));
        assert!(b2.admit().is_ok());
    }

    #[test]
    fn deadline_exceedances_count_toward_the_breaker() {
        // The typed status is a countable failure…
        assert!(PowerClient::counts_for_breaker(
            &ServeError::DeadlineExceeded { remaining_ms: 0 }
        ));
        // …and consecutive ones trip the breaker like overloads do.
        let mut b = Breaker::new(BreakerPolicy {
            failure_threshold: 2,
            cooldown: Duration::from_millis(50),
            max_cooldown: Duration::from_millis(100),
            seed: 5,
        });
        for _ in 0..2 {
            b.on_failure(
                PowerClient::counts_for_breaker(&ServeError::DeadlineExceeded { remaining_ms: 0 }),
                None,
            );
        }
        assert!(b.admit().is_err(), "deadline exceedances must trip");
    }

    #[test]
    fn spent_budget_fails_locally_and_server_sheds_stamped_frames() {
        let mut server =
            PowerServer::start(ServerConfig::default(), Arc::new(ModelRegistry::default()))
                .unwrap();
        // A zero budget is spent before any attempt: the call fails
        // fast locally, typed, without touching the network.
        let mut c = PowerClient::connect(server.addr())
            .unwrap()
            .with_deadline(Duration::ZERO);
        match c.ping(0).unwrap_err() {
            ServeError::DeadlineExceeded { remaining_ms } => assert_eq!(remaining_ms, 0),
            other => panic!("expected deadline_exceeded, got {other}"),
        }
        assert_eq!(c.call_stats().deadline_exceeded, 1);
        let ord = std::sync::atomic::Ordering::Relaxed;
        let before = server.stats().frames_received.load(ord);
        // A generous budget stamps the frame and succeeds end to end.
        let mut c = PowerClient::connect(server.addr())
            .unwrap()
            .with_deadline(Duration::from_secs(5));
        assert_eq!(c.ping(0).unwrap(), 0);
        assert_eq!(c.call_stats().deadline_exceeded, 0);
        assert!(server.stats().frames_received.load(ord) > before);
        server.shutdown();
    }

    #[test]
    fn hedge_stats_read_zero_against_a_bare_server() {
        let mut server =
            PowerServer::start(ServerConfig::default(), Arc::new(ModelRegistry::default()))
                .unwrap();
        let mut c = PowerClient::connect(server.addr()).unwrap();
        // No router in the path: the series are absent, typed zeros.
        assert_eq!(c.hedge_stats().unwrap(), HedgeStats::default());
        server.shutdown();
    }

    #[test]
    fn breaker_fails_fast_against_an_overloaded_server() {
        // max_inflight 0: every request is answered with a typed
        // overload, so the breaker sees consecutive countable failures.
        let cfg = ServerConfig {
            max_inflight: 0,
            ..ServerConfig::default()
        };
        let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
        let mut c = PowerClient::connect(server.addr())
            .unwrap()
            .with_breaker(BreakerPolicy {
                failure_threshold: 2,
                cooldown: Duration::from_secs(5),
                max_cooldown: Duration::from_secs(5),
                seed: 3,
            });
        assert!(matches!(
            c.ping(0).unwrap_err(),
            ServeError::Overloaded { .. }
        ));
        assert!(matches!(
            c.ping(0).unwrap_err(),
            ServeError::Overloaded { .. }
        ));
        // Tripped: the next call never touches the network.
        match c.ping(0).unwrap_err() {
            ServeError::CircuitOpen { retry_in_ms } => assert!(retry_in_ms > 0),
            other => panic!("expected circuit open, got {other}"),
        }
        server.shutdown();
    }

    #[test]
    fn overload_retry_waits_at_least_the_server_hint() {
        let cfg = ServerConfig {
            max_inflight: 0,
            retry_after_ms: 80,
            ..ServerConfig::default()
        };
        let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
        let mut c = PowerClient::connect(server.addr())
            .unwrap()
            .with_retry(RetryPolicy {
                max_retries: 1,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
                seed: 9,
            });
        let t0 = Instant::now();
        let err = c.ping(0).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { .. }), "{err}");
        // One retry happened, and it waited for the 80 ms hint even
        // though the backoff policy alone would retry in ~1 ms.
        assert!(t0.elapsed() >= Duration::from_millis(80));
        server.shutdown();
    }

    #[test]
    fn migrate_export_import_moves_a_window_bitwise() {
        let model = tiny_model();
        let mut a = PowerServer::start(ServerConfig::default(), Arc::new(ModelRegistry::default()))
            .unwrap();
        let mut b = PowerServer::start(ServerConfig::default(), Arc::new(ModelRegistry::default()))
            .unwrap();
        let mut ca = PowerClient::connect(a.addr()).unwrap();
        let mut cb = PowerClient::connect(b.addr()).unwrap();
        ca.load_model("hsw", &model, true).unwrap();
        cb.load_model("hsw", &model, true).unwrap();

        // Build a durable window on A.
        ca.resume("mover").unwrap();
        let data = tiny_dataset(6);
        let mut last = None;
        for (i, row) in data.rows().iter().enumerate().take(6) {
            let avail = 24.0 * row.freq_mhz as f64 * 1e6 * row.duration_s;
            let sample = CounterSample {
                time_ns: (i as u64 + 1) * 1_000_000,
                duration_s: row.duration_s,
                freq_mhz: row.freq_mhz,
                voltage: row.voltage,
                deltas: model.events.iter().map(|e| row.rate(*e) * avail).collect(),
                missing: vec![],
            };
            last = Some(ca.ingest(&sample).unwrap());
        }
        let last = last.unwrap();

        // Export drains the window off A…
        let record = ca.migrate_export("mover", false).unwrap().unwrap();
        assert!(ca.migrate_export("mover", false).unwrap().is_none());
        // …and replaying it on B restores the estimate bitwise.
        cb.migrate_import(&record).unwrap();
        cb.resume("mover").unwrap();
        let moved = cb.estimate(last.time_ns).unwrap().unwrap();
        assert_eq!(moved.power_w.to_bits(), last.power_w.to_bits());
        assert_eq!(
            moved.window_power_w.to_bits(),
            last.window_power_w.to_bits()
        );
        assert_eq!(moved.samples_in_window, last.samples_in_window);

        // A cold record without the durable bit is refused.
        let bogus = Json::parse(&record.to_string().replacen("\"key\":\"8", "\"key\":\"0", 1));
        if let Ok(bogus) = bogus {
            if bogus != record {
                assert!(cb.migrate_import(&bogus).is_err());
            }
        }
        a.shutdown();
        b.shutdown();
    }
}

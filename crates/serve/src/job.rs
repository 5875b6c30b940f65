//! The unit of work the readiness core hands to the worker pool.
//!
//! A worker takes exactly one [`Job`] per dequeue and first asks
//! [`disposition`] whether it may still run. A job whose
//! **propagated** budget (the frame's `deadline_ms`, resolved to an
//! absolute expiry at enqueue) ran out is answered with the typed
//! `deadline_exceeded` status — the client's patience is gone, so a
//! retry hint would be a lie. A job that outlived
//! [`crate::server::ServerConfig::queue_deadline`] is shed with a typed
//! `overloaded` answer instead of a stale estimate. Everything else
//! executes.
//!
//! The decision is a pure function of the job and an injected `now`,
//! so the tests below pin it on virtual time, never on wall-clock
//! sleeps.

use crate::protocol::Encoding;
use pmc_json::Json;
use std::time::{Duration, Instant};

/// A parsed-but-unexecuted request handed to the worker pool.
#[derive(Debug)]
pub(crate) struct Job {
    /// Connection id the response routes back to.
    pub conn: u64,
    /// Engine key the request's state accumulates under — equals
    /// `conn` unless the connection resumed a durable token.
    pub client: u64,
    /// The raw request frame; parsed by the worker.
    pub frame: Json,
    /// When the core queued the job (drives queue-deadline shedding).
    pub enqueued: Instant,
    /// Absolute expiry of the request's propagated `deadline_ms`
    /// budget, resolved against the local clock at enqueue time.
    /// `None` when the client stamped no budget.
    pub deadline: Option<Instant>,
    /// The connection's negotiated response encoding at enqueue time —
    /// workers pre-encode responses, so it must ride with the job.
    pub encoding: Encoding,
}

/// What a worker does with the job it just dequeued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Disposition {
    /// Execute the request.
    Run,
    /// Outlived the queue deadline: answer a typed `overloaded` frame
    /// without executing.
    Shed,
    /// The propagated budget is spent: answer a typed
    /// `deadline_exceeded` frame without executing.
    Expired,
}

/// Classifies `job` at dequeue time `now`. An exceeded propagated
/// budget wins over the queue deadline: retrying inside a spent budget
/// only adds load, so the client must not get an overload's retry
/// hint.
pub(crate) fn disposition(
    job: &Job,
    now: Instant,
    queue_deadline: Option<Duration>,
) -> Disposition {
    if job.deadline.is_some_and(|d| now >= d) {
        Disposition::Expired
    } else if queue_deadline.is_some_and(|d| now.saturating_duration_since(job.enqueued) > d) {
        Disposition::Shed
    } else {
        Disposition::Run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An ingest job enqueued at `base + enqueued_ms`, optionally with
    /// a propagated budget expiring at `base + deadline_ms`.
    fn job(base: Instant, enqueued_ms: u64, deadline_ms: Option<u64>) -> Job {
        Job {
            conn: 1,
            client: 1,
            frame: Json::obj(vec![("op", Json::from("ingest"))]),
            enqueued: base + Duration::from_millis(enqueued_ms),
            deadline: deadline_ms.map(|ms| base + Duration::from_millis(ms)),
            encoding: Encoding::Json,
        }
    }

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn fresh_jobs_run() {
        let base = Instant::now();
        let q = Some(Duration::from_millis(2));
        assert_eq!(
            disposition(&job(base, 0, None), at(base, 1), q),
            Disposition::Run
        );
        assert_eq!(
            disposition(&job(base, 0, Some(20)), at(base, 1), q),
            Disposition::Run
        );
        // No queue deadline: any age runs.
        assert_eq!(
            disposition(&job(base, 0, None), at(base, 60_000), None),
            Disposition::Run
        );
    }

    #[test]
    fn stale_jobs_are_shed_never_executed() {
        // Enqueued at t=0, dequeued 5 ms later against a 2 ms queue
        // deadline: shed with an overload answer.
        let base = Instant::now();
        let q = Some(Duration::from_millis(2));
        assert_eq!(
            disposition(&job(base, 0, None), at(base, 5), q),
            Disposition::Shed
        );
    }

    #[test]
    fn expired_budget_jobs_land_in_expired_not_shed() {
        // A 2 ms budget spent after 5 ms queued is `Expired` even
        // though the (longer) queue deadline would also shed it later;
        // a 20 ms budget on the same dequeue is intact.
        let base = Instant::now();
        let q = Some(Duration::from_millis(50));
        assert_eq!(
            disposition(&job(base, 0, Some(2)), at(base, 5), q),
            Disposition::Expired
        );
        assert_eq!(
            disposition(&job(base, 0, Some(20)), at(base, 5), q),
            Disposition::Run
        );
        // Both limits blown: the budget answer wins.
        assert_eq!(
            disposition(&job(base, 0, Some(2)), at(base, 100), q),
            Disposition::Expired
        );
    }

    #[test]
    fn boundaries_match_the_documented_limits() {
        // A budget expires *at* its deadline; a queued job is stale
        // only strictly *past* the queue deadline.
        let base = Instant::now();
        let q = Some(Duration::from_millis(2));
        assert_eq!(
            disposition(&job(base, 0, Some(3)), at(base, 3), None),
            Disposition::Expired
        );
        assert_eq!(
            disposition(&job(base, 0, None), at(base, 2), q),
            Disposition::Run
        );
        // A clock reading before the enqueue stamp never underflows.
        assert_eq!(
            disposition(&job(base, 5, None), at(base, 0), q),
            Disposition::Run
        );
    }
}

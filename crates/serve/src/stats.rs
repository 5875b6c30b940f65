//! Lock-free server counters, surfaced through the `stats` op.

use pmc_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic operational counters. All counters are relaxed — they are
/// observability, not synchronization.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted and handed to a worker.
    pub connections_accepted: AtomicU64,
    /// Connections shed because the pending queue was full.
    pub connections_shed: AtomicU64,
    /// Request frames successfully parsed.
    pub frames_received: AtomicU64,
    /// Frames answered with an error response.
    pub frames_errored: AtomicU64,
    /// Samples ingested into the estimator engine.
    pub samples_ingested: AtomicU64,
    /// Estimates served (via `ingest` or `estimate`).
    pub estimates_served: AtomicU64,
    /// Models loaded into the registry.
    pub models_loaded: AtomicU64,
    /// Estimates served in degraded mode (substituted inputs or a
    /// fallback model).
    pub degraded_estimates: AtomicU64,
    /// Ingests answered by the previous model because the active one
    /// could not read the sample (width mismatch after activation).
    pub stale_model_fallbacks: AtomicU64,
    /// Connections closed by the idle/slow-peer reaper.
    pub connections_reaped: AtomicU64,
    /// Currently open connections (a gauge, not a monotone counter).
    pub connections_open: AtomicU64,
    /// Requests shed because they outlived their queue deadline
    /// before a worker could start them.
    pub requests_shed: AtomicU64,
    /// Requests refused at admission because the in-flight budget (or
    /// the worker queue) was full.
    pub requests_rejected_overload: AtomicU64,
    /// Requests shed because their propagated `deadline_ms` budget was
    /// spent — at ingress (arrived already expired) or while queued.
    pub requests_deadline_exceeded: AtomicU64,
    /// Wall-clock duration of the last graceful drain, milliseconds.
    /// Zero until a drain has completed.
    pub drain_duration_ms: AtomicU64,
    /// Worker threads that died to a panic while running a job (each
    /// in-flight request got a typed `internal_error` response).
    pub worker_panics: AtomicU64,
    /// Workers respawned by the supervisor after a panic.
    pub worker_respawns: AtomicU64,
    /// Gauge: 1 while the supervisor has given up respawning a
    /// flapping worker slot (readiness reports not-ready).
    pub supervisor_flapping: AtomicU64,
    /// Gauge: workers currently stuck — running one job longer than
    /// the configured wall-clock bound, per the watchdog.
    pub workers_stuck: AtomicU64,
    /// Engine checkpoints written successfully.
    pub checkpoints_written: AtomicU64,
    /// Engine checkpoint writes that failed (I/O or injected tear).
    pub checkpoint_write_failures: AtomicU64,
    /// Per-client windows restored from a checkpoint at startup.
    pub checkpoint_clients_restored: AtomicU64,
    /// Checkpoints quarantined at startup (torn/corrupt; server
    /// cold-started).
    pub checkpoints_quarantined: AtomicU64,
    /// Connections that bound a durable identity via `resume`.
    pub resumed_clients: AtomicU64,
    /// Connections that negotiated the `PMCB1` binary encoding via
    /// `hello` (JSON connections are the remainder).
    pub binary_conns: AtomicU64,
    /// Durable windows drained out of this server by `migrate_export`.
    pub windows_migrated_out: AtomicU64,
    /// Durable windows replayed into this server by `migrate_import`.
    pub windows_migrated_in: AtomicU64,
    /// Labeled training samples accepted by the quarantine gate into
    /// the incremental fit.
    pub train_samples_accepted: AtomicU64,
    /// Labeled training samples rejected by the quarantine gate
    /// (poisoned labels, implausible counters, leverage outliers, …).
    pub train_samples_quarantined: AtomicU64,
    /// Shadow candidates auto-activated after winning the rolling-MAPE
    /// race by the configured margin.
    pub auto_activations: AtomicU64,
    /// Automatic rollbacks after a post-activation MAPE regression
    /// beyond the guard threshold.
    pub auto_rollbacks: AtomicU64,
    /// Gauge: 1 while the most recent activation regressed past the
    /// guard and was rolled back (cleared by the next healthy
    /// activation verdict). Mirrored as a readiness reason.
    pub shadow_regressed: AtomicU64,
    /// Gauge: rolling shadow-model MAPE (percent) against live labels,
    /// stored as raw `f64` bits (scalars are u64; the exposition
    /// layers decode).
    pub shadow_mape_bits: AtomicU64,
}

impl ServerStats {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements a gauge by one (saturating at zero).
    pub fn dec(gauge: &AtomicU64) {
        let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// Every scalar counter as `(name, value)`, in a stable order.
    /// The single source of truth behind both [`ServerStats::snapshot`]
    /// and [`ServerStats::prometheus`] — adding a counter here surfaces
    /// it on both the JSON `stats` op and the `metrics` scrape.
    fn scalars(&self) -> Vec<(&'static str, u64)> {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("connections_accepted", read(&self.connections_accepted)),
            ("connections_shed", read(&self.connections_shed)),
            ("frames_received", read(&self.frames_received)),
            ("frames_errored", read(&self.frames_errored)),
            ("samples_ingested", read(&self.samples_ingested)),
            ("estimates_served", read(&self.estimates_served)),
            ("models_loaded", read(&self.models_loaded)),
            ("degraded_estimates", read(&self.degraded_estimates)),
            ("stale_model_fallbacks", read(&self.stale_model_fallbacks)),
            ("connections_reaped", read(&self.connections_reaped)),
            ("connections_open", read(&self.connections_open)),
            ("requests_shed", read(&self.requests_shed)),
            (
                "requests_rejected_overload",
                read(&self.requests_rejected_overload),
            ),
            (
                "requests_deadline_exceeded",
                read(&self.requests_deadline_exceeded),
            ),
            ("drain_duration_ms", read(&self.drain_duration_ms)),
            ("worker_panics", read(&self.worker_panics)),
            ("worker_respawns", read(&self.worker_respawns)),
            ("supervisor_flapping", read(&self.supervisor_flapping)),
            ("workers_stuck", read(&self.workers_stuck)),
            ("checkpoints_written", read(&self.checkpoints_written)),
            (
                "checkpoint_write_failures",
                read(&self.checkpoint_write_failures),
            ),
            (
                "checkpoint_clients_restored",
                read(&self.checkpoint_clients_restored),
            ),
            (
                "checkpoints_quarantined",
                read(&self.checkpoints_quarantined),
            ),
            ("resumed_clients", read(&self.resumed_clients)),
            ("binary_conns", read(&self.binary_conns)),
            ("windows_migrated_out", read(&self.windows_migrated_out)),
            ("windows_migrated_in", read(&self.windows_migrated_in)),
            ("train_samples_accepted", read(&self.train_samples_accepted)),
            (
                "train_samples_quarantined",
                read(&self.train_samples_quarantined),
            ),
            ("auto_activations", read(&self.auto_activations)),
            ("auto_rollbacks", read(&self.auto_rollbacks)),
            ("shadow_regressed", read(&self.shadow_regressed)),
        ]
    }

    /// Rolling shadow MAPE (percent) decoded from its bit-store.
    pub fn shadow_mape(&self) -> f64 {
        f64::from_bits(self.shadow_mape_bits.load(Ordering::Relaxed))
    }

    /// A point-in-time JSON snapshot.
    pub fn snapshot(&self) -> Json {
        let mut fields: Vec<(String, Json)> = self
            .scalars()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::from(v)))
            .collect();
        fields.push(("shadow_mape".into(), Json::Num(self.shadow_mape())));
        Json::Obj(fields)
    }

    /// Prometheus text exposition of every counter: one
    /// `# TYPE`-annotated `pmc_serve_<name>` sample per scalar, plus
    /// the shadow-MAPE gauge. Scraped via the `metrics` op.
    pub fn prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in self.scalars() {
            // The two gauges are annotated as such; everything else is
            // a monotone counter.
            let kind = match name {
                "connections_open"
                | "supervisor_flapping"
                | "workers_stuck"
                | "shadow_regressed" => "gauge",
                _ => "counter",
            };
            let _ = writeln!(out, "# TYPE pmc_serve_{name} {kind}");
            let _ = writeln!(out, "pmc_serve_{name} {value}");
        }
        let _ = writeln!(out, "# TYPE pmc_serve_shadow_mape gauge");
        let _ = writeln!(out, "pmc_serve_shadow_mape {}", self.shadow_mape());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = ServerStats::default();
        ServerStats::bump(&s.frames_received);
        ServerStats::bump(&s.frames_received);
        ServerStats::bump(&s.models_loaded);
        let snap = s.snapshot();
        assert_eq!(snap.u64_field("frames_received").unwrap(), 2);
        assert_eq!(snap.u64_field("models_loaded").unwrap(), 1);
        assert_eq!(snap.u64_field("connections_shed").unwrap(), 0);
        assert_eq!(snap.u64_field("requests_shed").unwrap(), 0);
        assert_eq!(snap.u64_field("drain_duration_ms").unwrap(), 0);
    }

    #[test]
    fn prometheus_exposes_every_scalar() {
        let s = ServerStats::default();
        ServerStats::bump(&s.worker_panics);
        ServerStats::bump(&s.checkpoints_written);
        ServerStats::bump(&s.checkpoints_written);
        let text = s.prometheus();
        assert!(text.contains("pmc_serve_worker_panics 1\n"));
        assert!(text.contains("pmc_serve_checkpoints_written 2\n"));
        assert!(text.contains("# TYPE pmc_serve_worker_panics counter\n"));
        assert!(text.contains("# TYPE pmc_serve_connections_open gauge\n"));
        // Every scalar in the JSON snapshot has a Prometheus sample.
        if let Json::Obj(fields) = s.snapshot() {
            for (name, _) in &fields {
                assert!(
                    text.contains(&format!("pmc_serve_{name} ")),
                    "{name} missing from scrape"
                );
            }
        } else {
            panic!("snapshot not an object");
        }
    }

    #[test]
    fn gauge_decrements_and_saturates() {
        let s = ServerStats::default();
        ServerStats::bump(&s.connections_open);
        ServerStats::bump(&s.connections_open);
        ServerStats::dec(&s.connections_open);
        assert_eq!(s.connections_open.load(Ordering::Relaxed), 1);
        ServerStats::dec(&s.connections_open);
        ServerStats::dec(&s.connections_open); // saturates, no wrap
        assert_eq!(s.connections_open.load(Ordering::Relaxed), 0);
    }
}

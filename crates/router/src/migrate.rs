//! Live window migration: the rebalancing half of the serving tier.
//!
//! When the ring changes shape (a backend evicted or restored), every
//! routed token whose ring owner no longer matches its table owner is
//! migrated: its window leaves the old owner as a self-contained
//! checkpoint record, replays on the new owner, and the move is
//! verified by comparing the replayed window's estimate **bitwise**
//! against the estimate embedded in the record. Only after a token's
//! migration settles does the routing table flip — clients retrying
//! against a typed overload land on the new owner with their window
//! already warm.
//!
//! The record comes from the freshest of three places:
//!
//! - a live old owner (up but leaving the token's shard): copied over
//!   the wire with `migrate_export keep:true`, forgotten on the old
//!   owner only after the copy verified on the new one — so a failed
//!   or retried move never strands the window in transit;
//! - the dead owner's checkpoint file (`ckpt=` in the backend spec),
//!   if it ran with one — the shared-disk recovery path;
//! - the standby replica the anti-entropy loop maintains on another
//!   backend (`crate::sync`) — recovery **without** shared disk.
//!
//! When both a checkpoint record and a replica exist, the per-window
//! dirty sequence number embedded in each record picks the fresher
//! copy. A token with no recoverable record still flips owners — the
//! window is lost and the client cold-starts with a machine-readable
//! degradation reason (`PowerRouter::degraded_tokens`, readyz), which
//! is honest degradation, not a wedge. Every network step retries a
//! few times: migration runs exactly when the fleet is unhealthy, and
//! a transient reset must not turn a recoverable window into a loss.

use crate::proxy::Shared;
use crate::stats::RouterStats;
use pmc_json::Json;
use pmc_serve::checkpoint::{encode_client_record, load_checkpoint, record_seq, CheckpointOutcome};
use pmc_serve::protocol::{read_frame, unwrap_response, write_frame, Request};
use pmc_serve::tokenhash::resume_key;
use pmc_serve::ServeError;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Attempts per network step of one token's migration. Chaos-sized:
/// a reset mid-export or mid-import is retried on a fresh connection
/// rather than counted as a lost window.
const ATTEMPTS: u32 = 4;

/// A deadline-bounded control connection to one backend, used by the
/// prober thread for migrations and by the sync thread for
/// replication (never by the core, which must stay non-blocking).
pub(crate) struct Control {
    stream: TcpStream,
}

impl Control {
    pub(crate) fn connect(addr: &str, timeout: Duration) -> Result<Self, ServeError> {
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ServeError::Protocol {
                reason: format!("backend address {addr:?} resolves to nothing"),
            })?;
        let stream = TcpStream::connect_timeout(&sock, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Control { stream })
    }

    pub(crate) fn call(&mut self, req: &Request) -> Result<Json, ServeError> {
        write_frame(&mut self.stream, &req.to_json_value())?;
        let frame = read_frame(&mut self.stream)?.ok_or(ServeError::Protocol {
            reason: "backend closed during migration".into(),
        })?;
        unwrap_response(frame)
    }
}

/// Exports `token`'s record from backend `idx` over the wire.
/// `keep` false drains (the exporter forgets the window).
pub(crate) fn wire_export(
    shared: &Shared,
    token: &str,
    idx: usize,
    keep: bool,
) -> Result<Option<Json>, ServeError> {
    let mut ctl = Control::connect(&shared.backends[idx].spec.addr, shared.config.probe_timeout)?;
    let r = ctl.call(&Request::MigrateExport {
        token: token.to_string(),
        keep,
    })?;
    match r.field("record")? {
        Json::Null => Ok(None),
        record => Ok(Some(record.clone())),
    }
}

/// How one token's migration went.
enum Moved {
    /// Window replayed on the new owner and verified bitwise.
    Verified,
    /// Window replayed; verification impossible (no embedded estimate)
    /// or mismatched.
    Unverified,
    /// No record was recoverable; the token cold-starts on its new
    /// owner.
    Lost,
}

/// Where a recovered record came from (decides post-move bookkeeping).
enum Source {
    /// Drained from the live old owner (`keep:true`; forget after).
    Live,
    /// Read from the dead owner's checkpoint file.
    Checkpoint,
    /// Fetched from the standby replica at this backend index.
    Replica(usize),
}

/// A recovered record plus everything rebalance needs to judge it.
struct Recovered {
    record: Json,
    source: Source,
    /// The record's dirty sequence number.
    seq: u64,
    /// True when the anti-entropy loop had observed the primary ahead
    /// of this record: samples newer than the last sync are lost.
    stale: bool,
}

/// Recovers the freshest available record for `token` from its old
/// owner — live drain, checkpoint file, or standby replica.
fn recover_record(
    shared: &Shared,
    token: &str,
    old: usize,
) -> Result<Option<Recovered>, ServeError> {
    let backend = &shared.backends[old];
    if backend.is_up() {
        return Ok(wire_export(shared, token, old, true)?.map(|record| {
            let seq = record_seq(&record);
            Recovered {
                record,
                source: Source::Live,
                seq,
                stale: false,
            }
        }));
    }

    // Dead owner: gather every candidate copy and keep the freshest.
    let mut best: Option<Recovered> = None;
    if let Some(path) = &backend.spec.checkpoint {
        if let CheckpointOutcome::Restored { data, .. } = load_checkpoint(path) {
            let key = resume_key(token);
            if let Some(snap) = data.clients.iter().find(|snap| snap.client == key) {
                best = Some(Recovered {
                    record: encode_client_record(snap),
                    source: Source::Checkpoint,
                    seq: snap.dirty_seq,
                    stale: false,
                });
            }
        }
    }
    let replica = shared
        .repl
        .lock()
        .expect("repl lock")
        .get(token)
        .map(|r| (r.replicated_seq, r.primary_seq, r.standby));
    let mut last_observed = 0u64;
    if let Some((replicated_seq, primary_seq, standby)) = replica {
        last_observed = primary_seq;
        let usable = replicated_seq > 0
            && standby < shared.backends.len()
            && shared.backends[standby].is_up()
            && best
                .as_ref()
                .map(|b| b.seq < replicated_seq)
                .unwrap_or(true);
        if usable {
            // The replica is (by its bookkeeping) fresher than the
            // checkpoint; fetch it. A failed fetch falls back to
            // whatever the checkpoint gave us.
            if let Ok(Some(record)) = fetch_replica(shared, token, standby) {
                let seq = record_seq(&record);
                if best.as_ref().map(|b| b.seq < seq).unwrap_or(true) {
                    best = Some(Recovered {
                        record,
                        source: Source::Replica(standby),
                        seq,
                        stale: false,
                    });
                }
            }
        }
    }
    if let Some(b) = best.as_mut() {
        b.stale = b.seq < last_observed;
    }
    Ok(best)
}

/// Fetches the replica copy from the standby, retrying transport
/// failures (non-destructive, so retries are always safe).
fn fetch_replica(shared: &Shared, token: &str, standby: usize) -> Result<Option<Json>, ServeError> {
    let mut last = None;
    for _ in 0..ATTEMPTS {
        match wire_export(shared, token, standby, true) {
            Ok(r) => return Ok(r),
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or(ServeError::Protocol {
        reason: "replica fetch failed".into(),
    }))
}

/// Replays `record` on the new owner and verifies the move bitwise:
/// the new owner's estimate at the record's own timestamp must equal
/// the estimate the old owner embedded in the record, bit for bit.
fn import_record(
    shared: &Shared,
    token: &str,
    new: usize,
    record: &Json,
) -> Result<Moved, ServeError> {
    let addr = &shared.backends[new].spec.addr;
    let mut ctl = Control::connect(addr, shared.config.probe_timeout)?;
    ctl.call(&Request::MigrateImport {
        record: record.clone(),
    })?;
    let Ok(last) = record.field("last") else {
        return Ok(Moved::Unverified);
    };
    let (Ok(want_time), Ok(want_power), Ok(want_window)) = (
        last.u64_field("time_ns"),
        last.f64_field("power_w"),
        last.f64_field("window_power_w"),
    ) else {
        // A window that never produced an estimate has nothing to
        // verify against; the hex-encoded samples still replayed.
        return Ok(Moved::Unverified);
    };
    ctl.call(&Request::Resume {
        token: token.to_string(),
    })?;
    let got = ctl.call(&Request::Estimate { now_ns: want_time })?;
    let verified = got.u64_field("time_ns").ok() == Some(want_time)
        && got.f64_field("power_w").map(f64::to_bits).ok() == Some(want_power.to_bits())
        && got.f64_field("window_power_w").map(f64::to_bits).ok() == Some(want_window.to_bits());
    Ok(if verified {
        Moved::Verified
    } else {
        Moved::Unverified
    })
}

/// Moves one token old → new with per-step retries. Returns the
/// outcome plus the staleness flag of whatever record moved.
fn move_token(shared: &Shared, token: &str, old: usize, new: usize) -> (Moved, bool) {
    for _ in 0..ATTEMPTS {
        let recovered = match recover_record(shared, token, old) {
            Ok(Some(r)) => r,
            // Definitive: no copy exists anywhere.
            Ok(None) => return (Moved::Lost, false),
            // Transport: the copy may exist; try again.
            Err(_) => continue,
        };
        let mut imported = None;
        for _ in 0..ATTEMPTS {
            match import_record(shared, token, new, &recovered.record) {
                Ok(m) => {
                    imported = Some(m);
                    break;
                }
                Err(_) => continue,
            }
        }
        let Some(moved) = imported else { continue };
        // The copy now lives on the new owner; bookkeeping by source.
        match recovered.source {
            Source::Live => {
                // Two-phase drain: only forget on the old owner once
                // the import landed. Best-effort — a stale copy left
                // behind is overwritten by the next sync round or
                // replaced wholesale if the token ever migrates back.
                let _ = wire_export(shared, token, old, false);
                shared.repl.lock().expect("repl lock").remove(token);
            }
            Source::Checkpoint => {
                shared.repl.lock().expect("repl lock").remove(token);
            }
            Source::Replica(standby) if standby == new => {
                // The standby became the primary; its copy is now the
                // single live copy until the next sync round.
                shared.repl.lock().expect("repl lock").remove(token);
            }
            Source::Replica(standby) => {
                // The standby still holds a valid copy alongside the
                // new owner; keep pointing at it so a second failure
                // before the next sync round can still recover.
                let mut repl = shared.repl.lock().expect("repl lock");
                if let Some(entry) = repl.get_mut(token) {
                    entry.replicated_seq = recovered.seq;
                    entry.standby = standby;
                }
            }
        }
        return (moved, recovered.stale);
    }
    (Moved::Lost, false)
}

/// Migrates every token whose table owner disagrees with the current
/// ring, then flips the table. Runs on the prober thread after each
/// membership change; holds the table lock only to snapshot and to
/// flip entries, never across network I/O.
pub(crate) fn rebalance(shared: &Shared) {
    let started = Instant::now();
    let ring = shared.ring.lock().expect("ring lock").clone();
    let entries: Vec<(String, usize)> = shared
        .table
        .lock()
        .expect("table lock")
        .iter()
        .map(|(t, &o)| (t.clone(), o))
        .collect();

    for (token, old) in entries {
        let Some(new) = ring.owner(resume_key(&token)) else {
            // No usable backends: leave the entry; routing answers
            // typed overloads until the fleet comes back.
            continue;
        };
        if new == old && shared.backends[old].is_up() {
            continue;
        }
        let (moved, stale) = move_token(shared, &token, old, new);
        match moved {
            Moved::Verified => RouterStats::bump(&shared.stats.migrations_completed),
            Moved::Unverified => {
                RouterStats::bump(&shared.stats.migrations_completed);
                RouterStats::bump(&shared.stats.migrations_unverified);
            }
            Moved::Lost => {
                RouterStats::bump(&shared.stats.migrations_failed);
                RouterStats::bump(&shared.stats.windows_lost);
                // Machine-readable degradation: the token cold-starts
                // on its new owner because its window was never
                // replicated (or its copies are unreachable). Cleared
                // once the (fresh) window replicates again.
                shared
                    .degraded
                    .lock()
                    .expect("degraded lock")
                    .insert(token.clone(), "cold_start:window_not_replicated".into());
            }
        }
        if stale && !matches!(moved, Moved::Lost) {
            // Warm failover from a copy older than the primary's last
            // observed state: samples since the last sync are gone.
            shared.degraded.lock().expect("degraded lock").insert(
                token.clone(),
                "stale_replica:samples_since_last_sync_lost".into(),
            );
        }
        // Flip the table either way: pointing at a gone window would
        // wedge the token behind typed overloads forever, while a
        // cold start on the new owner is visible and recoverable.
        shared.table.lock().expect("table lock").insert(token, new);
    }

    let elapsed = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    shared
        .stats
        .migration_duration_ms
        .store(elapsed, Ordering::Relaxed);
    // Membership changed: refresh the lag/coverage gauges.
    let _ = shared.replication_health();
}

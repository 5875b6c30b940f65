//! Engine checkpoint format: durable snapshots of per-client state.
//!
//! A checkpoint file is one header line followed by a JSON payload:
//!
//! ```text
//! PMCCKPT1 <crc32-of-payload, 8 hex digits>\n
//! {"version":1,"active":…,"clients":[…]}
//! ```
//!
//! The CRC is computed over the exact payload bytes, so *any* torn
//! write — a truncated tail, a partially applied rename, a corrupted
//! block — fails verification and the file is **quarantined**: renamed
//! to `<path>.corrupt` with the reason reported, and the server
//! cold-starts. A checkpoint problem must never keep the server from
//! booting; it only costs warm windows.
//!
//! ## Lossless number encoding
//!
//! The JSON layer carries every number as `f64`, which cannot encode
//! all `u64` timestamps (above 2^53) nor non-finite floats (a window
//! entry can legitimately hold a NaN power if a model misbehaved).
//! State that must round-trip *bitwise* — timestamps, window powers,
//! substitution rates, voltage — is therefore stored as fixed-width
//! hex strings of the raw bits (`time:16 hex`, `f64::to_bits:16 hex`),
//! not JSON numbers. The embedded last [`Estimate`] reuses its wire
//! shape; if it fails to re-parse it is dropped rather than failing
//! the restore (it is re-derivable from the next ingest).

use crate::engine::{ClientSnapshot, Estimate};
use crate::error::ServeError;
use crate::fsutil::{crc32, write_atomic_durable};
use crate::trainer::{GuardSnapshot, TrainingSnapshot};
use pmc_json::Json;
use std::path::{Path, PathBuf};

/// Magic prefix of the checkpoint header line.
const MAGIC: &str = "PMCCKPT1";
/// Payload schema version inside the JSON body.
const VERSION: u64 = 1;

/// Everything a checkpoint persists.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointData {
    /// The active model at snapshot time, re-pinned on restore.
    pub active: Option<(String, u32)>,
    /// Durable (token-keyed) client windows.
    pub clients: Vec<ClientSnapshot>,
    /// Online-learning state (incremental fit + shadow score windows),
    /// present once training has started. Absent in checkpoints
    /// written before online learning existed — those restore with
    /// cold training, never a boot failure (like the `seq` field).
    pub training: Option<TrainingSnapshot>,
}

/// What loading a checkpoint file produced.
#[derive(Debug)]
pub enum CheckpointOutcome {
    /// No checkpoint file exists — a genuine cold start.
    NotFound,
    /// The checkpoint verified and decoded; state can be restored.
    Restored {
        /// The decoded state.
        data: Box<CheckpointData>,
        /// Why a present but malformed training section was dropped
        /// (training restarts cold; everything else restores).
        training_dropped: Option<String>,
    },
    /// The file was torn or corrupt. It has been moved aside (to
    /// `<path>.corrupt`, best effort) and the server must cold-start.
    Quarantined {
        /// Why the checkpoint was rejected.
        reason: String,
        /// Where the corrupt file was moved, if the rename succeeded.
        quarantined_to: Option<PathBuf>,
    },
}

fn hex_u64(v: u64) -> Json {
    Json::from(format!("{v:016x}").as_str())
}

fn hex_f64(v: f64) -> Json {
    hex_u64(v.to_bits())
}

fn parse_hex_u64(v: &Json) -> Result<u64, ServeError> {
    let s = v.as_str().map_err(ServeError::from)?;
    u64::from_str_radix(s, 16).map_err(|_| ServeError::Protocol {
        reason: format!("checkpoint hex field {s:?} is not a u64"),
    })
}

fn parse_hex_f64(v: &Json) -> Result<f64, ServeError> {
    Ok(f64::from_bits(parse_hex_u64(v)?))
}

fn model_id_json(id: &Option<(String, u32)>) -> Json {
    match id {
        Some((name, version)) => Json::obj(vec![
            ("name", Json::from(name.as_str())),
            ("version", Json::from(*version)),
        ]),
        None => Json::Null,
    }
}

fn parse_model_id(v: &Json) -> Result<Option<(String, u32)>, ServeError> {
    if matches!(v, Json::Null) {
        return Ok(None);
    }
    Ok(Some((
        v.str_field("name")?.to_string(),
        v.u32_field("version")?,
    )))
}

/// Encodes one client window as a self-contained checkpoint record —
/// the unit of live migration. The router drains a window from its
/// old owner as this record, replays it on the new owner, and the
/// hex-bits number encoding guarantees the replayed window is bitwise
/// identical to the drained one.
pub fn encode_client_record(snap: &ClientSnapshot) -> Json {
    Json::obj(vec![
        ("key", hex_u64(snap.client)),
        ("model", model_id_json(&snap.model_id)),
        (
            "window",
            Json::Arr(
                snap.window
                    .iter()
                    .map(|&(t, p)| Json::Arr(vec![hex_u64(t), hex_f64(p)]))
                    .collect(),
            ),
        ),
        (
            "last_rates",
            Json::Arr(
                snap.last_rates
                    .iter()
                    .map(|r| r.map(hex_f64).unwrap_or(Json::Null))
                    .collect(),
            ),
        ),
        (
            "last_voltage",
            snap.last_voltage.map(hex_f64).unwrap_or(Json::Null),
        ),
        (
            "last",
            snap.last
                .as_ref()
                .map(Estimate::to_json_value)
                .unwrap_or(Json::Null),
        ),
        ("seq", hex_u64(snap.dirty_seq)),
    ])
}

/// Decodes one client-window checkpoint record (the inverse of
/// [`encode_client_record`]).
pub fn decode_client_record(v: &Json) -> Result<ClientSnapshot, ServeError> {
    let window = v
        .arr_field("window")?
        .iter()
        .map(|entry| {
            let pair = entry.as_arr()?;
            if pair.len() != 2 {
                return Err(ServeError::Protocol {
                    reason: "checkpoint window entry is not a [time, power] pair".into(),
                });
            }
            Ok((parse_hex_u64(&pair[0])?, parse_hex_f64(&pair[1])?))
        })
        .collect::<Result<Vec<_>, ServeError>>()?;
    let last_rates = v
        .arr_field("last_rates")?
        .iter()
        .map(|r| {
            if matches!(r, Json::Null) {
                Ok(None)
            } else {
                parse_hex_f64(r).map(Some)
            }
        })
        .collect::<Result<Vec<_>, ServeError>>()?;
    let last_voltage = match v.field("last_voltage")? {
        Json::Null => None,
        other => Some(parse_hex_f64(other)?),
    };
    // A malformed embedded estimate is re-derivable state, not a
    // reason to reject the whole client.
    let last = match v.field("last")? {
        Json::Null => None,
        other => Estimate::from_json_value(other).ok(),
    };
    // Absent in records written before replication existed: those
    // windows restore with a zero sequence and the next ingest moves
    // it, so old checkpoints stay loadable.
    let dirty_seq = match v.field("seq") {
        Ok(raw) => parse_hex_u64(raw)?,
        Err(_) => 0,
    };
    Ok(ClientSnapshot {
        client: parse_hex_u64(v.field("key")?)?,
        model_id: parse_model_id(v.field("model")?)?,
        window,
        last_rates,
        last_voltage,
        last,
        dirty_seq,
    })
}

/// Reads the dirty sequence number straight off an encoded client
/// record without decoding the whole snapshot — what a replicator
/// needs to compare the freshness of two copies of the same window.
pub fn record_seq(record: &Json) -> u64 {
    record
        .field("seq")
        .ok()
        .and_then(|raw| parse_hex_u64(raw).ok())
        .unwrap_or(0)
}

/// Encodes the online-learning state. Floats and counters use the
/// same hex-bits encoding as client windows: a restored fit must be
/// bitwise identical to the snapshotted one.
fn encode_training(t: &TrainingSnapshot) -> Json {
    let mut fields = vec![
        (
            "words",
            Json::Arr(t.words.iter().map(|&w| hex_u64(w)).collect()),
        ),
        (
            "floats",
            Json::Arr(t.floats.iter().map(|&f| hex_f64(f)).collect()),
        ),
        (
            "events",
            Json::Arr(t.events.iter().map(|e| Json::from(e.as_str())).collect()),
        ),
        ("base", model_id_json(&t.base)),
        ("accepted", hex_u64(t.accepted)),
        (
            "active_apes",
            Json::Arr(t.active_apes.iter().map(|&a| hex_f64(a)).collect()),
        ),
        (
            "shadow_apes",
            Json::Arr(t.shadow_apes.iter().map(|&a| hex_f64(a)).collect()),
        ),
    ];
    // Omitted (not null) when no guard is armed, so the common case
    // keeps the established payload shape.
    if let Some(g) = &t.guard {
        fields.push((
            "guard",
            Json::obj(vec![
                ("baseline", hex_f64(g.baseline)),
                (
                    "apes",
                    Json::Arr(g.apes.iter().map(|&a| hex_f64(a)).collect()),
                ),
            ]),
        ));
    }
    Json::obj(fields)
}

fn decode_training(v: &Json) -> Result<TrainingSnapshot, ServeError> {
    let hex_u64s = |field: &str| -> Result<Vec<u64>, ServeError> {
        v.arr_field(field)?.iter().map(parse_hex_u64).collect()
    };
    let hex_f64s = |field: &str| -> Result<Vec<f64>, ServeError> {
        v.arr_field(field)?.iter().map(parse_hex_f64).collect()
    };
    Ok(TrainingSnapshot {
        words: hex_u64s("words")?,
        floats: hex_f64s("floats")?,
        events: v
            .arr_field("events")?
            .iter()
            .map(|e| Ok(e.as_str()?.to_string()))
            .collect::<Result<Vec<_>, ServeError>>()?,
        base: parse_model_id(v.field("base")?)?,
        accepted: parse_hex_u64(v.field("accepted")?)?,
        active_apes: hex_f64s("active_apes")?,
        shadow_apes: hex_f64s("shadow_apes")?,
        // Absent in checkpoints written before the guard rode along:
        // those restore with no watch armed, never a boot failure.
        guard: match v.field("guard") {
            Ok(g) if !matches!(g, Json::Null) => Some(GuardSnapshot {
                baseline: parse_hex_f64(g.field("baseline")?)?,
                apes: g
                    .arr_field("apes")?
                    .iter()
                    .map(parse_hex_f64)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            _ => None,
        },
    })
}

/// Serializes a checkpoint to its full file content (header + payload).
pub fn encode_checkpoint(data: &CheckpointData) -> String {
    let mut fields = vec![
        ("version", Json::from(VERSION)),
        ("active", model_id_json(&data.active)),
        (
            "clients",
            Json::Arr(data.clients.iter().map(encode_client_record).collect()),
        ),
    ];
    // Omitted entirely (not null) when no training has happened, so
    // pre-training checkpoints stay byte-identical to the old format.
    if let Some(t) = &data.training {
        fields.push(("training", encode_training(t)));
    }
    let payload = Json::obj(fields).to_string();
    format!("{MAGIC} {:08x}\n{payload}", crc32(payload.as_bytes()))
}

/// Parses and CRC-verifies full checkpoint file content. Alongside the
/// data comes the reason a malformed training section was dropped, if
/// one was.
pub fn decode_checkpoint(content: &str) -> Result<(CheckpointData, Option<String>), ServeError> {
    let bad = |reason: String| ServeError::Protocol { reason };
    let (header, payload) = content
        .split_once('\n')
        .ok_or_else(|| bad("checkpoint has no header line".into()))?;
    let crc_hex = header
        .strip_prefix(MAGIC)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| bad(format!("checkpoint header {header:?} lacks {MAGIC} magic")))?;
    let expected = u32::from_str_radix(crc_hex.trim_end(), 16)
        .map_err(|_| bad(format!("checkpoint header CRC {crc_hex:?} is not hex")))?;
    let actual = crc32(payload.as_bytes());
    if actual != expected {
        return Err(bad(format!(
            "checkpoint CRC mismatch: header says {expected:08x}, payload is {actual:08x} (torn write)"
        )));
    }
    let v = Json::parse(payload)?;
    let version = v.u64_field("version")?;
    if version != VERSION {
        return Err(bad(format!("unsupported checkpoint version {version}")));
    }
    // Absent in checkpoints written before online learning (and
    // tolerated if malformed, with the reason reported): the server
    // restores with cold training rather than failing the boot —
    // training state only costs warm-up, like the absent `seq`
    // tolerance.
    let (training, training_dropped) = match v.field("training").map(decode_training) {
        Ok(Ok(t)) => (Some(t), None),
        Ok(Err(e)) => (None, Some(format!("training section: {e}"))),
        Err(_) => (None, None),
    };
    let data = CheckpointData {
        active: parse_model_id(v.field("active")?)?,
        clients: v
            .arr_field("clients")?
            .iter()
            .map(decode_client_record)
            .collect::<Result<Vec<_>, _>>()?,
        training,
    };
    Ok((data, training_dropped))
}

/// Writes a checkpoint atomically and durably. With a
/// [`pmc_faults::ServeFaults`] armed for a torn write, the content is
/// instead truncated mid-payload and written *non*-atomically to the
/// final path — exactly the wreckage a crash between `write` and
/// `fsync` leaves — and the call reports failure.
pub fn write_checkpoint(
    path: &Path,
    data: &CheckpointData,
    faults: Option<&pmc_faults::ServeFaults>,
) -> Result<(), ServeError> {
    let content = encode_checkpoint(data);
    if faults.is_some_and(|f| f.should_tear_write()) {
        let torn = &content[..content.len() * 2 / 3];
        std::fs::write(path, torn)?;
        return Err(ServeError::Internal {
            reason: "injected torn checkpoint write".into(),
        });
    }
    write_atomic_durable(path, &content)
}

/// Loads the checkpoint at `path`. Never fails the boot: a missing
/// file is [`CheckpointOutcome::NotFound`], and a torn or corrupt one
/// is moved aside and reported as [`CheckpointOutcome::Quarantined`].
pub fn load_checkpoint(path: &Path) -> CheckpointOutcome {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CheckpointOutcome::NotFound,
        Err(e) => {
            return quarantine(path, format!("checkpoint unreadable: {e}"));
        }
    };
    match decode_checkpoint(&content) {
        Ok((data, training_dropped)) => CheckpointOutcome::Restored {
            data: Box::new(data),
            training_dropped,
        },
        Err(e) => quarantine(path, e.to_string()),
    }
}

/// Moves a rejected checkpoint to `<path>.corrupt` (best effort) so
/// the next write starts clean and the evidence survives for a
/// post-mortem.
fn quarantine(path: &Path, reason: String) -> CheckpointOutcome {
    let mut corrupt_name = path.as_os_str().to_os_string();
    corrupt_name.push(".corrupt");
    let corrupt = PathBuf::from(corrupt_name);
    let quarantined_to = std::fs::rename(path, &corrupt).ok().map(|_| corrupt);
    CheckpointOutcome::Quarantined {
        reason,
        quarantined_to,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> CheckpointData {
        CheckpointData {
            active: Some(("hsw".into(), 3)),
            clients: vec![
                ClientSnapshot {
                    client: 0x8000_0000_dead_beef,
                    model_id: Some(("hsw".into(), 3)),
                    window: vec![(1, 70.5), (u64::MAX, f64::NAN), (3, -0.0)],
                    last_rates: vec![Some(0.25), None, Some(f64::INFINITY)],
                    last_voltage: Some(1.05),
                    last: Some(Estimate {
                        time_ns: 3,
                        power_w: 71.0,
                        window_power_w: 70.75,
                        samples_in_window: 3,
                        out_of_envelope: false,
                        stale: false,
                        degraded: true,
                        degraded_reasons: vec!["stale_voltage".into()],
                        model: "hsw".into(),
                        version: 3,
                    }),
                    dirty_seq: 0x1_0000_0003,
                },
                ClientSnapshot {
                    client: 2,
                    model_id: None,
                    window: vec![],
                    last_rates: vec![],
                    last_voltage: None,
                    last: None,
                    dirty_seq: 0,
                },
            ],
            training: Some(TrainingSnapshot {
                words: vec![2, 9, 256, 7, 2, 1],
                floats: vec![1.5, -0.0, f64::NAN, 2.0f64.powi(-1060), 4.0, 0.25],
                events: vec!["PRF_DM".into(), "TOT_CYC".into()],
                base: Some(("hsw".into(), 3)),
                accepted: u64::MAX - 5,
                active_apes: vec![0.05, 0.041],
                shadow_apes: vec![0.031],
                guard: Some(GuardSnapshot {
                    baseline: 3.25,
                    apes: vec![0.07, -0.0],
                }),
            }),
        }
    }

    /// PartialEq on f64 treats NaN != NaN; compare windows bitwise.
    fn assert_data_eq(a: &CheckpointData, b: &CheckpointData) {
        assert_eq!(a.active, b.active);
        assert_eq!(a.clients.len(), b.clients.len());
        for (x, y) in a.clients.iter().zip(&b.clients) {
            assert_eq!(x.client, y.client);
            assert_eq!(x.model_id, y.model_id);
            assert_eq!(x.last, y.last);
            assert_eq!(x.window.len(), y.window.len());
            for ((t1, p1), (t2, p2)) in x.window.iter().zip(&y.window) {
                assert_eq!(t1, t2);
                assert_eq!(p1.to_bits(), p2.to_bits());
            }
            let bits = |v: &Option<f64>| v.map(f64::to_bits);
            assert_eq!(bits(&x.last_voltage), bits(&y.last_voltage));
            let rate_bits: Vec<_> = x.last_rates.iter().map(bits_opt).collect();
            let other_bits: Vec<_> = y.last_rates.iter().map(bits_opt).collect();
            assert_eq!(rate_bits, other_bits);
            assert_eq!(x.dirty_seq, y.dirty_seq);
        }
        assert_eq!(a.training.is_some(), b.training.is_some());
        if let (Some(ta), Some(tb)) = (&a.training, &b.training) {
            assert_eq!(ta.words, tb.words);
            let fbits = |f: &[f64]| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(fbits(&ta.floats), fbits(&tb.floats));
            assert_eq!(ta.events, tb.events);
            assert_eq!(ta.base, tb.base);
            assert_eq!(ta.accepted, tb.accepted);
            assert_eq!(fbits(&ta.active_apes), fbits(&tb.active_apes));
            assert_eq!(fbits(&ta.shadow_apes), fbits(&tb.shadow_apes));
            assert_eq!(ta.guard.is_some(), tb.guard.is_some());
            if let (Some(ga), Some(gb)) = (&ta.guard, &tb.guard) {
                assert_eq!(ga.baseline.to_bits(), gb.baseline.to_bits());
                assert_eq!(fbits(&ga.apes), fbits(&gb.apes));
            }
        }
    }

    fn bits_opt(v: &Option<f64>) -> Option<u64> {
        v.map(f64::to_bits)
    }

    #[test]
    fn encode_decode_roundtrips_bitwise() {
        let data = sample_data();
        let encoded = encode_checkpoint(&data);
        let (decoded, _) = decode_checkpoint(&encoded).unwrap();
        assert_data_eq(&data, &decoded);
        // Encoding is deterministic (stable checkpoint bytes).
        assert_eq!(encoded, encode_checkpoint(&decoded));
    }

    #[test]
    fn record_without_seq_field_decodes_as_zero() {
        // Pre-replication records carry no "seq"; they must stay
        // loadable and report sequence 0 both ways.
        let mut record = encode_client_record(&sample_data().clients[0]);
        if let Json::Obj(fields) = &mut record {
            fields.retain(|(k, _)| k != "seq");
        }
        assert_eq!(record_seq(&record), 0);
        let snap = decode_client_record(&record).unwrap();
        assert_eq!(snap.dirty_seq, 0);
        // And a present field reads back exactly.
        let full = encode_client_record(&sample_data().clients[0]);
        assert_eq!(record_seq(&full), 0x1_0000_0003);
    }

    /// Satellite: checkpoints written before online learning carry no
    /// `training` section; they must restore with cold training —
    /// never a boot failure — mirroring the absent-`seq` tolerance.
    #[test]
    fn checkpoint_without_training_section_restores_cold() {
        let data = CheckpointData {
            training: None,
            ..sample_data()
        };
        let encoded = encode_checkpoint(&data);
        assert!(
            !encoded.contains("\"training\""),
            "no-training checkpoints must keep the pre-training payload shape"
        );
        let (decoded, dropped) = decode_checkpoint(&encoded).unwrap();
        assert!(decoded.training.is_none());
        assert!(dropped.is_none(), "an absent section is not a drop");
        assert_data_eq(&data, &decoded);
        // A malformed training section is dropped (cold training), not
        // a boot failure: everything else still restores.
        let full = encode_checkpoint(&sample_data());
        let payload = full.split_once('\n').unwrap().1;
        let mut v = Json::parse(payload).unwrap();
        if let Json::Obj(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "training" {
                    *val = Json::from("not an object");
                }
            }
        }
        let tampered = v.to_string();
        let retagged = format!("PMCCKPT1 {:08x}\n{tampered}", crc32(tampered.as_bytes()));
        let (decoded, dropped) = decode_checkpoint(&retagged).unwrap();
        assert!(decoded.training.is_none(), "malformed training must drop");
        assert!(dropped.unwrap().starts_with("training section:"));
        assert_eq!(decoded.clients.len(), 2, "client windows must survive");
    }

    /// Training sections written before the guard rode the checkpoint
    /// carry no `guard` field: they must decode with no watch armed —
    /// never a boot failure.
    #[test]
    fn training_without_guard_field_decodes_unarmed() {
        let full = encode_checkpoint(&sample_data());
        let payload = full.split_once('\n').unwrap().1;
        let mut v = Json::parse(payload).unwrap();
        if let Json::Obj(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "training" {
                    if let Json::Obj(t) = val {
                        t.retain(|(k, _)| k != "guard");
                    }
                }
            }
        }
        let tampered = v.to_string();
        let retagged = format!("PMCCKPT1 {:08x}\n{tampered}", crc32(tampered.as_bytes()));
        let (decoded, _) = decode_checkpoint(&retagged).unwrap();
        let training = decoded.training.expect("training section must survive");
        assert!(training.guard.is_none());
        assert_eq!(training.accepted, u64::MAX - 5);
    }

    #[test]
    fn every_truncation_is_detected() {
        let encoded = encode_checkpoint(&sample_data());
        for cut in 0..encoded.len() {
            if !encoded.is_char_boundary(cut) {
                continue;
            }
            assert!(
                decode_checkpoint(&encoded[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn corrupted_payload_byte_is_detected() {
        let encoded = encode_checkpoint(&sample_data());
        let body_start = encoded.find('\n').unwrap() + 1;
        // Flip one payload character (stay ASCII to keep valid UTF-8).
        let mut bytes = encoded.into_bytes();
        let i = body_start + 10;
        bytes[i] = if bytes[i] == b'a' { b'b' } else { b'a' };
        let tampered = String::from_utf8(bytes).unwrap();
        let err = decode_checkpoint(&tampered).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn load_missing_is_not_found() {
        let path = std::env::temp_dir().join(format!("pmc-ckpt-none-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            load_checkpoint(&path),
            CheckpointOutcome::NotFound
        ));
    }

    #[test]
    fn write_then_load_restores() {
        let dir = std::env::temp_dir().join(format!("pmc-ckpt-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.ckpt");
        let data = sample_data();
        write_checkpoint(&path, &data, None).unwrap();
        match load_checkpoint(&path) {
            CheckpointOutcome::Restored {
                data: got,
                training_dropped: None,
            } => assert_data_eq(&data, &got),
            other => panic!("expected restore, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_is_quarantined_on_load() {
        let dir = std::env::temp_dir().join(format!("pmc-ckpt-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.ckpt");
        let faults = pmc_faults::ServeFaults::new().tear_checkpoint(1);
        let err = write_checkpoint(&path, &sample_data(), Some(&faults)).unwrap_err();
        assert!(matches!(err, ServeError::Internal { .. }));
        assert_eq!(faults.tears_fired(), 1);
        match load_checkpoint(&path) {
            CheckpointOutcome::Quarantined {
                reason,
                quarantined_to,
            } => {
                assert!(!reason.is_empty());
                let moved = quarantined_to.expect("rename should succeed");
                assert!(moved.exists());
                assert!(!path.exists(), "corrupt file must be moved aside");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // The next write starts clean and loads fine.
        write_checkpoint(&path, &sample_data(), Some(&faults)).unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            CheckpointOutcome::Restored { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

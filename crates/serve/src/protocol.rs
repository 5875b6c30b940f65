//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! Every frame is a 4-byte big-endian payload length followed by that
//! many payload bytes in one of two negotiable encodings. The default
//! is UTF-8 JSON (one object); a connection may negotiate the `PMCB1`
//! tagged binary encoding via a `hello {"encoding": "binary"}` op (see
//! [`Encoding`]). Binary payloads are self-describing — they start
//! with the 5-byte magic `PMCB1`, which no valid JSON payload can —
//! so the parse path accepts either encoding on any frame without
//! per-connection decode state. Requests carry an `"op"` field;
//! responses carry `"status": "ok"` with a `"result"` payload or
//! `"status": "error"` with an `"error"` message. Frames larger than
//! [`MAX_FRAME_BYTES`] are rejected without being read — a malformed
//! or hostile length prefix must not make the server allocate
//! gigabytes.
//!
//! ## The `PMCB1` binary payload
//!
//! After the magic, one tagged value, recursively:
//!
//! | tag | value | layout after the tag |
//! |-----|-------|----------------------|
//! | `0x00` | null | — |
//! | `0x01` | false | — |
//! | `0x02` | true | — |
//! | `0x03` | number | 8-byte little-endian IEEE-754 bit pattern |
//! | `0x04` | string | u32 LE byte length + UTF-8 bytes |
//! | `0x05` | array | u32 LE count + that many tagged values |
//! | `0x06` | object | u32 LE count + (u32 LE key length + key UTF-8 + tagged value) each |
//! | `0x07` | f64 array | u32 LE count + count × 8-byte LE bit patterns |
//!
//! Tag `0x07` is an encoder fast path for all-number arrays (counter
//! deltas are the hot payload); decoders treat it as an array of
//! numbers. Floats travel as raw bit patterns, so round-trips are
//! exact by construction — no shortest-float printing involved. The
//! JSON encoding serializes non-finite floats as `null`; the binary
//! encoder mirrors that (and the decoder rejects non-finite bit
//! patterns), so both encodings agree on every payload.

use crate::engine::CounterSample;
use crate::error::ServeError;
use pmc_json::Json;
use std::io::{Read, Write};

/// Default cap on a frame payload (1 MiB) — far above any legitimate
/// model artifact, far below an allocation attack. The server's read
/// path can tighten this per deployment via
/// [`read_frame_limited`].
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Magic prefix of a `PMCB1` binary frame payload. A JSON payload can
/// never start with these bytes (`P` begins no JSON value), so the
/// payload encoding is sniffable per frame.
pub const BINARY_MAGIC: &[u8; 5] = b"PMCB1";

/// Nesting cap for binary payload decoding, matching
/// [`pmc_json::MAX_DEPTH`] so neither encoding can recurse deeper
/// than the other.
const MAX_BINARY_DEPTH: usize = pmc_json::MAX_DEPTH;

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_NUM: u8 = 0x03;
const TAG_STR: u8 = 0x04;
const TAG_ARR: u8 = 0x05;
const TAG_OBJ: u8 = 0x06;
const TAG_F64S: u8 = 0x07;

/// A frame payload encoding, negotiated per connection via the
/// `hello` op. JSON is the default: every peer speaks it, and a
/// connection that never sends `hello` is a JSON connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Encoding {
    /// UTF-8 JSON text — the default and the interoperable baseline.
    #[default]
    Json,
    /// `PMCB1` tagged binary: floats as raw little-endian bit
    /// patterns, no per-frame text parse on the hot path.
    Binary,
}

impl Encoding {
    /// The wire name used in `hello` negotiation.
    pub fn as_str(self) -> &'static str {
        match self {
            Encoding::Json => "json",
            Encoding::Binary => "binary",
        }
    }

    /// Parses a wire name; `None` for encodings this build does not
    /// speak (the server's negotiation falls back to JSON for those).
    pub fn from_name(name: &str) -> Option<Encoding> {
        match name {
            "json" => Some(Encoding::Json),
            "binary" => Some(Encoding::Binary),
            _ => None,
        }
    }
}

/// True for the error kinds a socket read returns when its read
/// timeout expires (platform-dependent: `WouldBlock` or `TimedOut`).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Writes one frame: 4-byte big-endian length, then the JSON text.
pub fn write_frame(w: &mut impl Write, payload: &Json) -> Result<(), ServeError> {
    let bytes = encode_frame(payload)?;
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Writes one frame in the given payload encoding.
pub fn write_frame_as(
    w: &mut impl Write,
    payload: &Json,
    encoding: Encoding,
) -> Result<(), ServeError> {
    let bytes = encode_frame_as(payload, encoding)?;
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(())
}

/// Serializes one value as a tagged `PMCB1` binary body (no magic, no
/// length prefix — [`encode_frame_as`] adds both).
fn encode_binary_value(v: &Json, out: &mut Vec<u8>) {
    match v {
        Json::Null => out.push(TAG_NULL),
        Json::Bool(false) => out.push(TAG_FALSE),
        Json::Bool(true) => out.push(TAG_TRUE),
        Json::Num(x) => {
            if x.is_finite() {
                out.push(TAG_NUM);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            } else {
                // The JSON encoding serializes non-finite floats as
                // null; mirror it so both encodings agree.
                out.push(TAG_NULL);
            }
        }
        Json::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Json::Arr(items) => {
            let all_finite_nums = !items.is_empty()
                && items
                    .iter()
                    .all(|i| matches!(i, Json::Num(x) if x.is_finite()));
            if all_finite_nums {
                // Packed fast path: counter-delta arrays are the hot
                // payload, one tag + contiguous bit patterns.
                out.push(TAG_F64S);
                out.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for i in items {
                    if let Json::Num(x) = i {
                        out.extend_from_slice(&x.to_bits().to_le_bytes());
                    }
                }
            } else {
                out.push(TAG_ARR);
                out.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for i in items {
                    encode_binary_value(i, out);
                }
            }
        }
        Json::Obj(fields) => {
            out.push(TAG_OBJ);
            out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
            for (k, val) in fields {
                out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                out.extend_from_slice(k.as_bytes());
                encode_binary_value(val, out);
            }
        }
    }
}

fn binary_error(reason: impl Into<String>) -> ServeError {
    ServeError::Protocol {
        reason: format!("binary payload: {}", reason.into()),
    }
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], ServeError> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| binary_error("truncated value"))?;
    let slice = &buf[*pos..end];
    *pos = end;
    Ok(slice)
}

fn take_u32(buf: &[u8], pos: &mut usize) -> Result<u32, ServeError> {
    let b = take(buf, pos, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn take_f64(buf: &[u8], pos: &mut usize) -> Result<f64, ServeError> {
    let b = take(buf, pos, 8)?;
    let x = f64::from_bits(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]));
    if !x.is_finite() {
        return Err(binary_error("non-finite float bit pattern"));
    }
    Ok(x)
}

fn take_str(buf: &[u8], pos: &mut usize) -> Result<String, ServeError> {
    let len = take_u32(buf, pos)? as usize;
    let bytes = take(buf, pos, len).map_err(|_| binary_error("truncated string"))?;
    std::str::from_utf8(bytes)
        .map(str::to_string)
        .map_err(|_| binary_error("string is not UTF-8"))
}

fn decode_binary_value(buf: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ServeError> {
    if depth > MAX_BINARY_DEPTH {
        return Err(binary_error(format!(
            "nesting exceeds {MAX_BINARY_DEPTH} levels"
        )));
    }
    let tag = take(buf, pos, 1)?[0];
    match tag {
        TAG_NULL => Ok(Json::Null),
        TAG_FALSE => Ok(Json::Bool(false)),
        TAG_TRUE => Ok(Json::Bool(true)),
        TAG_NUM => Ok(Json::Num(take_f64(buf, pos)?)),
        TAG_STR => Ok(Json::Str(take_str(buf, pos)?)),
        TAG_ARR => {
            let count = take_u32(buf, pos)? as usize;
            // Each element needs at least its tag byte, so a count
            // beyond the remaining bytes is a lie — reject before
            // allocating for it.
            if count > buf.len() - *pos {
                return Err(binary_error("array count exceeds payload"));
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_binary_value(buf, pos, depth + 1)?);
            }
            Ok(Json::Arr(items))
        }
        TAG_F64S => {
            let count = take_u32(buf, pos)? as usize;
            if count.saturating_mul(8) > buf.len() - *pos {
                return Err(binary_error("f64 array count exceeds payload"));
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(Json::Num(take_f64(buf, pos)?));
            }
            Ok(Json::Arr(items))
        }
        TAG_OBJ => {
            let count = take_u32(buf, pos)? as usize;
            // Each field needs at least a key length and a value tag.
            if count.saturating_mul(5) > buf.len() - *pos {
                return Err(binary_error("object count exceeds payload"));
            }
            let mut fields = Vec::with_capacity(count);
            for _ in 0..count {
                let key = take_str(buf, pos)?;
                let val = decode_binary_value(buf, pos, depth + 1)?;
                fields.push((key, val));
            }
            Ok(Json::Obj(fields))
        }
        other => Err(binary_error(format!("unknown tag 0x{other:02x}"))),
    }
}

/// Decodes one complete `PMCB1` binary payload (magic included).
/// Rejects missing magic, truncation, unknown tags, non-finite float
/// bit patterns, lying counts, over-deep nesting, and trailing bytes —
/// all as in-sync payload errors (the frame was well-delimited).
pub fn decode_binary_payload(payload: &[u8]) -> Result<Json, ServeError> {
    let body = payload
        .strip_prefix(BINARY_MAGIC.as_slice())
        .ok_or_else(|| binary_error("missing PMCB1 magic"))?;
    let mut pos = 0;
    let v = decode_binary_value(body, &mut pos, 0)?;
    if pos != body.len() {
        return Err(binary_error(format!(
            "{} trailing bytes after value",
            body.len() - pos
        )));
    }
    Ok(v)
}

/// Serializes one frame in the given payload encoding (length prefix
/// included) — the encoding-aware sibling of [`encode_frame`].
pub fn encode_frame_as(payload: &Json, encoding: Encoding) -> Result<Vec<u8>, ServeError> {
    match encoding {
        Encoding::Json => encode_frame(payload),
        Encoding::Binary => {
            let mut body = Vec::with_capacity(64);
            body.extend_from_slice(BINARY_MAGIC);
            encode_binary_value(payload, &mut body);
            if body.len() as u64 > MAX_FRAME_BYTES as u64 {
                return Err(ServeError::Protocol {
                    reason: format!("outgoing frame of {} bytes exceeds cap", body.len()),
                });
            }
            let mut out = Vec::with_capacity(4 + body.len());
            out.extend_from_slice(&(body.len() as u32).to_be_bytes());
            out.extend_from_slice(&body);
            Ok(out)
        }
    }
}

/// Sniffs the payload encoding of one complete raw frame (length
/// prefix included) — how a relay knows which encoding to re-encode
/// in when it must rewrite a frame it otherwise copies verbatim.
pub fn raw_frame_encoding(raw: &[u8]) -> Encoding {
    if raw.len() >= 4 + BINARY_MAGIC.len() && &raw[4..4 + BINARY_MAGIC.len()] == BINARY_MAGIC {
        Encoding::Binary
    } else {
        Encoding::Json
    }
}

/// Serializes one frame (length prefix + JSON text) into a byte
/// vector — the building block for buffered non-blocking writers that
/// cannot use [`write_frame`]'s all-or-nothing `write_all`.
pub fn encode_frame(payload: &Json) -> Result<Vec<u8>, ServeError> {
    let text = payload.to_string();
    let bytes = text.as_bytes();
    if bytes.len() as u64 > MAX_FRAME_BYTES as u64 {
        return Err(ServeError::Protocol {
            reason: format!("outgoing frame of {} bytes exceeds cap", bytes.len()),
        });
    }
    let mut out = Vec::with_capacity(4 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
    Ok(out)
}

/// Attempts to parse one frame from the front of an accumulation
/// buffer (the readiness-loop read path: bytes arrive in arbitrary
/// fragments and pile up per connection).
///
/// Returns `Ok(Some((frame, consumed)))` when a complete frame is
/// available — the caller must drain `consumed` bytes. `Ok(None)`
/// means the buffer holds only a partial frame; read more. An
/// oversized length prefix is a [`ServeError::Protocol`] error (the
/// connection must be dropped: the stream cannot be resynchronized),
/// while a complete frame whose payload is not UTF-8 JSON is a
/// [`ServeError::Json`]/[`ServeError::Protocol`] error *after* the
/// frame was consumed from the buffer — the caller learns how many
/// bytes to drop via the error path below, so the stream stays in
/// sync. To keep that distinction simple, payload-level failures are
/// reported through [`FrameError::Payload`] with the consumed length.
pub fn parse_frame(
    buf: &[u8],
    max_bytes: u32,
) -> std::result::Result<Option<(Json, usize)>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > max_bytes {
        return Err(FrameError::Fatal(ServeError::Protocol {
            reason: format!("frame of {len} bytes exceeds {max_bytes}-byte cap"),
        }));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = &buf[4..total];
    if payload.starts_with(BINARY_MAGIC) {
        return match decode_binary_payload(payload) {
            Ok(v) => Ok(Some((v, total))),
            Err(error) => Err(FrameError::Payload {
                consumed: total,
                error,
            }),
        };
    }
    let text = match std::str::from_utf8(payload) {
        Ok(t) => t,
        Err(_) => {
            return Err(FrameError::Payload {
                consumed: total,
                error: ServeError::Protocol {
                    reason: "frame payload is not UTF-8".into(),
                },
            })
        }
    };
    match Json::parse(text) {
        Ok(v) => Ok(Some((v, total))),
        Err(e) => Err(FrameError::Payload {
            consumed: total,
            error: ServeError::Json(e),
        }),
    }
}

/// How buffer-based frame parsing fails.
#[derive(Debug)]
pub enum FrameError {
    /// The stream is desynchronized (hostile length prefix); the
    /// connection must be dropped.
    Fatal(ServeError),
    /// The frame was well-delimited but its payload was garbage. The
    /// stream is still in sync: drop `consumed` bytes, answer with the
    /// error, keep serving.
    Payload {
        /// Bytes of the offending frame to drain from the buffer.
        consumed: usize,
        /// What was wrong with the payload.
        error: ServeError,
    },
}

/// Reads one frame under the default [`MAX_FRAME_BYTES`] cap.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Json>, ServeError> {
    read_frame_limited(r, MAX_FRAME_BYTES)
}

/// Reads one frame with a caller-chosen payload cap. Returns
/// `Ok(None)` on clean end-of-stream (EOF at a frame boundary);
/// mid-frame EOF, an oversized length prefix, or malformed JSON are
/// errors.
///
/// When the underlying stream has a read timeout, its expiry maps to
/// [`ServeError::Deadline`]: `mid_frame: false` if it hit before any
/// byte of the frame arrived (an idle poll — the stream is still in
/// sync and the caller may retry), `mid_frame: true` if it hit with a
/// frame partially read (the stream is desynchronized and must be
/// dropped).
pub fn read_frame_limited(r: &mut impl Read, max_bytes: u32) -> Result<Option<Json>, ServeError> {
    let mut len_buf = [0u8; 4];
    // Clean EOF only if the very first length byte is missing.
    match r.read(&mut len_buf) {
        Err(e) if is_timeout(&e) => return Err(ServeError::Deadline { mid_frame: false }),
        Err(e) => return Err(ServeError::Io(e)),
        Ok(0) => return Ok(None),
        Ok(mut n) => {
            while n < 4 {
                match r.read(&mut len_buf[n..]) {
                    Err(e) if is_timeout(&e) => {
                        return Err(ServeError::Deadline { mid_frame: true })
                    }
                    Err(e) => return Err(ServeError::Io(e)),
                    Ok(0) => {
                        return Err(ServeError::Protocol {
                            reason: "stream truncated inside a frame header".into(),
                        })
                    }
                    Ok(got) => n += got,
                }
            }
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > max_bytes {
        return Err(ServeError::Protocol {
            reason: format!("frame of {len} bytes exceeds {max_bytes}-byte cap"),
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ServeError::Protocol {
                reason: "stream truncated inside a frame payload".into(),
            }
        } else if is_timeout(&e) {
            ServeError::Deadline { mid_frame: true }
        } else {
            ServeError::Io(e)
        }
    })?;
    if payload.starts_with(BINARY_MAGIC) {
        return Ok(Some(decode_binary_payload(&payload)?));
    }
    let text = std::str::from_utf8(&payload).map_err(|_| ServeError::Protocol {
        reason: "frame payload is not UTF-8".into(),
    })?;
    Ok(Some(Json::parse(text)?))
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Stream one counter sample into this connection's estimator.
    Ingest(CounterSample),
    /// Fetch the latest estimate; `now_ns` drives the staleness flag.
    Estimate {
        /// The client's current clock, nanoseconds.
        now_ns: u64,
    },
    /// Load a model artifact into the registry.
    LoadModel {
        /// Deployment name to load under.
        name: String,
        /// The serialized model (a [`pmc_model::model::PowerModel`] value).
        model: Json,
        /// Activate immediately after loading.
        activate: bool,
    },
    /// Activate a loaded model.
    Activate {
        /// Deployment name.
        name: String,
        /// Version under that name.
        version: u32,
    },
    /// Restore the previously active model.
    Rollback,
    /// Server and registry statistics.
    Stats,
    /// Diagnostic echo that holds a worker for `delay_ms` (the server
    /// caps the delay). Exists so overload, shedding and drain paths
    /// can be exercised deterministically in tests and drills.
    Ping {
        /// Requested worker hold time, milliseconds (server-capped).
        delay_ms: u64,
    },
    /// Liveness probe: answered inline by the server core (never
    /// queued behind workers), so it succeeds as long as the event
    /// loop turns — even with the whole pool wedged.
    Healthz,
    /// Readiness probe: like [`Request::Healthz`] answered inline, but
    /// reports whether the server should receive traffic (not
    /// draining, a model active, supervisor not flapping) plus
    /// checkpoint age and stuck-worker diagnostics.
    Readyz,
    /// Prometheus-style plaintext scrape of the server counters.
    Metrics,
    /// Bind this connection to a durable client identity. Engine state
    /// keyed by the token survives disconnects and — with
    /// checkpointing on — server restarts, so a reconnecting client
    /// resumes its sliding window instead of cold-starting.
    Resume {
        /// Stable client-chosen identity token (non-empty).
        token: String,
    },
    /// Force an immediate engine checkpoint (ops/test hook). Errors
    /// if the server was started without `--checkpoint`.
    Checkpoint,
    /// Drain one durable (token-keyed) client window into a
    /// self-contained checkpoint record (the PR 5 on-disk client
    /// format) — the export half of live migration. With `keep` false
    /// (the default) the window is forgotten after export, so the old
    /// owner stops serving it; `keep: true` is a non-destructive copy
    /// for inspection.
    MigrateExport {
        /// The resume token whose window to export.
        token: String,
        /// Keep the window after exporting instead of forgetting it.
        keep: bool,
    },
    /// Replay an exported client-window checkpoint record into this
    /// server's engine — the import half of live migration. The record
    /// must be keyed in the durable (resume-token) namespace.
    MigrateImport {
        /// The checkpoint record produced by a `migrate_export`.
        record: Json,
    },
    /// Negotiate the connection's frame payload encoding. Must be the
    /// first frame on a connection (a `hello` after any data frame is
    /// a typed error); an unknown encoding name falls back to JSON
    /// with a typed notice in the ok response. The response travels in
    /// the newly agreed encoding.
    Hello {
        /// Requested encoding name (`"json"` or `"binary"`).
        encoding: String,
    },
    /// `(key, dirty_seq)` for every durable (token-keyed) window on
    /// this server. The replication anti-entropy poll: a router
    /// compares sequence numbers against its last drain and exports
    /// only the windows that moved, instead of copying every window
    /// every round.
    WindowSeqs,
    /// Stream one **labeled** sample — a counter vector plus measured
    /// watts — into the online-learning loop. The sample passes the
    /// quarantine gate (typed rejection reasons), feeds the incremental
    /// fit, and scores the shadow candidate against the active model.
    Train {
        /// The counter sample (same shape as `ingest`).
        sample: CounterSample,
        /// Measured power label, watts. Non-finite labels travel as
        /// JSON/binary null and decode back to NaN, so the quarantine
        /// gate — not the codec — rejects them with a typed reason.
        power_w: f64,
    },
}

impl Request {
    /// Serializes to the wire JSON shape.
    pub fn to_json_value(&self) -> Json {
        match self {
            Request::Ingest(s) => Json::obj(vec![
                ("op", Json::from("ingest")),
                ("sample", s.to_json_value()),
            ]),
            Request::Estimate { now_ns } => Json::obj(vec![
                ("op", Json::from("estimate")),
                ("now_ns", Json::from(*now_ns)),
            ]),
            Request::LoadModel {
                name,
                model,
                activate,
            } => Json::obj(vec![
                ("op", Json::from("load_model")),
                ("name", Json::from(name.as_str())),
                ("model", model.clone()),
                ("activate", Json::Bool(*activate)),
            ]),
            Request::Activate { name, version } => Json::obj(vec![
                ("op", Json::from("activate")),
                ("name", Json::from(name.as_str())),
                ("version", Json::from(*version)),
            ]),
            Request::Rollback => Json::obj(vec![("op", Json::from("rollback"))]),
            Request::Stats => Json::obj(vec![("op", Json::from("stats"))]),
            Request::Ping { delay_ms } => Json::obj(vec![
                ("op", Json::from("ping")),
                ("delay_ms", Json::from(*delay_ms)),
            ]),
            Request::Healthz => Json::obj(vec![("op", Json::from("healthz"))]),
            Request::Readyz => Json::obj(vec![("op", Json::from("readyz"))]),
            Request::Metrics => Json::obj(vec![("op", Json::from("metrics"))]),
            Request::Resume { token } => Json::obj(vec![
                ("op", Json::from("resume")),
                ("token", Json::from(token.as_str())),
            ]),
            Request::Checkpoint => Json::obj(vec![("op", Json::from("checkpoint"))]),
            Request::MigrateExport { token, keep } => Json::obj(vec![
                ("op", Json::from("migrate_export")),
                ("token", Json::from(token.as_str())),
                ("keep", Json::Bool(*keep)),
            ]),
            Request::MigrateImport { record } => Json::obj(vec![
                ("op", Json::from("migrate_import")),
                ("record", record.clone()),
            ]),
            Request::Hello { encoding } => Json::obj(vec![
                ("op", Json::from("hello")),
                ("encoding", Json::from(encoding.as_str())),
            ]),
            Request::WindowSeqs => Json::obj(vec![("op", Json::from("window_seqs"))]),
            Request::Train { sample, power_w } => Json::obj(vec![
                ("op", Json::from("train")),
                ("sample", sample.to_json_value()),
                ("power_w", Json::from(*power_w)),
            ]),
        }
    }

    /// Parses a request frame.
    pub fn from_json_value(v: &Json) -> Result<Self, ServeError> {
        let op = v.str_field("op")?;
        match op {
            "ingest" => Ok(Request::Ingest(CounterSample::from_json_value(
                v.field("sample")?,
            )?)),
            "estimate" => Ok(Request::Estimate {
                now_ns: v.u64_field("now_ns")?,
            }),
            "load_model" => Ok(Request::LoadModel {
                name: v.str_field("name")?.to_string(),
                model: v.field("model")?.clone(),
                activate: v.field("activate")?.as_bool()?,
            }),
            "activate" => Ok(Request::Activate {
                name: v.str_field("name")?.to_string(),
                version: v.u32_field("version")?,
            }),
            "rollback" => Ok(Request::Rollback),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping {
                delay_ms: v.u64_field("delay_ms").unwrap_or(0),
            }),
            "healthz" => Ok(Request::Healthz),
            "readyz" => Ok(Request::Readyz),
            "metrics" => Ok(Request::Metrics),
            "resume" => {
                let token = v.str_field("token")?.to_string();
                if token.is_empty() {
                    return Err(ServeError::Protocol {
                        reason: "resume token must be non-empty".into(),
                    });
                }
                Ok(Request::Resume { token })
            }
            "checkpoint" => Ok(Request::Checkpoint),
            "migrate_export" => {
                let token = v.str_field("token")?.to_string();
                if token.is_empty() {
                    return Err(ServeError::Protocol {
                        reason: "migrate_export token must be non-empty".into(),
                    });
                }
                Ok(Request::MigrateExport {
                    token,
                    keep: v
                        .field("keep")
                        .ok()
                        .and_then(|k| k.as_bool().ok())
                        .unwrap_or(false),
                })
            }
            "migrate_import" => Ok(Request::MigrateImport {
                record: v.field("record")?.clone(),
            }),
            "hello" => Ok(Request::Hello {
                // An absent name negotiates the default explicitly.
                encoding: v
                    .str_field("encoding")
                    .unwrap_or(Encoding::Json.as_str())
                    .to_string(),
            }),
            "window_seqs" => Ok(Request::WindowSeqs),
            "train" => Ok(Request::Train {
                sample: CounterSample::from_json_value(v.field("sample")?)?,
                // Non-finite labels encode as null; surface them as NaN
                // so the training gate quarantines with a typed reason
                // instead of the codec dropping the sample.
                power_w: v.f64_field("power_w").unwrap_or(f64::NAN),
            }),
            other => Err(ServeError::Protocol {
                reason: format!("unknown op {other:?}"),
            }),
        }
    }
}

/// Reads the optional propagated deadline budget off a raw request
/// frame. `deadline_ms` is a top-level field carrying the client's
/// **remaining patience** in milliseconds — each hop converts it to an
/// absolute deadline on arrival, and a relay decrements it by its own
/// elapsed time before forwarding, so a budget can only shrink on its
/// way downstream (retries never exceed the client's original
/// patience). Absent or malformed means "no deadline"; old peers
/// ignore the field entirely, so it is additive on the wire.
pub fn frame_deadline_ms(frame: &Json) -> Option<u64> {
    frame.get("deadline_ms").and_then(|v| v.as_u64().ok())
}

/// Returns `frame` with its `deadline_ms` budget set to `ms`,
/// replacing any prior value — the client-side stamp and the router's
/// decrement-before-relay re-encode. Non-object frames pass through
/// unchanged (request parsing reports its own error for those).
pub fn with_deadline_ms(frame: &Json, ms: u64) -> Json {
    match frame {
        Json::Obj(fields) => {
            let mut out: Vec<(String, Json)> = fields
                .iter()
                .filter(|(k, _)| k != "deadline_ms")
                .cloned()
                .collect();
            out.push(("deadline_ms".to_string(), Json::from(ms)));
            Json::Obj(out)
        }
        other => other.clone(),
    }
}

/// True if a raw request frame is an op the server core answers
/// inline, without a worker: health/readiness probes, metrics
/// scrapes, connection identity binding, and encoding negotiation.
/// These must keep working when the worker pool is saturated, wedged,
/// or flapping — that is the whole point of a liveness probe (and
/// `hello` must mutate per-connection encoding state only the core
/// owns).
pub(crate) fn is_core_inline_frame(frame: &Json) -> bool {
    matches!(
        frame.str_field("op"),
        Ok("healthz") | Ok("readyz") | Ok("metrics") | Ok("resume") | Ok("hello")
    )
}

/// True if a raw request frame is a `hello` — the one op that does
/// not count as a data frame for negotiation ordering.
pub(crate) fn is_hello_frame(frame: &Json) -> bool {
    matches!(frame.str_field("op"), Ok("hello"))
}

/// Wraps a result payload in an ok-response frame.
pub fn ok_response(result: Json) -> Json {
    Json::obj(vec![("status", Json::from("ok")), ("result", result)])
}

/// Wraps an error in an error-response frame. Overload and drain are
/// **typed statuses** on the wire (not flattened into a message
/// string) so clients can machine-read the backoff hint and tell a
/// shedding server from a broken request.
pub fn error_response(err: &ServeError) -> Json {
    match err {
        ServeError::Overloaded { retry_after_ms } => Json::obj(vec![
            ("status", Json::from("overloaded")),
            ("retry_after_ms", Json::from(*retry_after_ms)),
        ]),
        ServeError::Draining => Json::obj(vec![("status", Json::from("draining"))]),
        ServeError::DeadlineExceeded { remaining_ms } => Json::obj(vec![
            ("status", Json::from("deadline_exceeded")),
            ("remaining_ms", Json::from(*remaining_ms)),
        ]),
        ServeError::Internal { reason } => Json::obj(vec![
            ("status", Json::from("internal_error")),
            ("error", Json::from(reason.as_str())),
        ]),
        _ => Json::obj(vec![
            ("status", Json::from("error")),
            ("error", Json::from(err.to_string())),
        ]),
    }
}

/// Unwraps a response frame: the `result` payload, or the server's
/// error surfaced as a typed error — [`ServeError::Overloaded`] with
/// its backoff hint, [`ServeError::Draining`], or the catch-all
/// [`ServeError::Server`] carrying the message verbatim (so callers —
/// and retry loops — can tell a server-reported failure from a local
/// transport one).
pub fn unwrap_response(v: Json) -> Result<Json, ServeError> {
    match v.str_field("status")? {
        "ok" => Ok(v.field("result")?.clone()),
        "overloaded" => Err(ServeError::Overloaded {
            retry_after_ms: v.u64_field("retry_after_ms").unwrap_or(0),
        }),
        "draining" => Err(ServeError::Draining),
        "deadline_exceeded" => Err(ServeError::DeadlineExceeded {
            remaining_ms: v.u64_field("remaining_ms").unwrap_or(0),
        }),
        "internal_error" => Err(ServeError::Internal {
            reason: v
                .str_field("error")
                .map(|s| s.to_string())
                .unwrap_or_else(|_| "unspecified".into()),
        }),
        "error" => Err(ServeError::Server {
            message: v.str_field("error")?.to_string(),
        }),
        other => Err(ServeError::Protocol {
            reason: format!("unknown response status {other:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(req: Request) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.to_json_value()).unwrap();
        let got = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(Request::from_json_value(&got).unwrap(), req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip(Request::Ingest(CounterSample {
            time_ns: 5,
            duration_s: 0.5,
            freq_mhz: 2400,
            voltage: 1.0,
            deltas: vec![1.0, 2.0],
            missing: vec![1],
        }));
        roundtrip(Request::Estimate { now_ns: 77 });
        roundtrip(Request::Activate {
            name: "hsw".into(),
            version: 2,
        });
        roundtrip(Request::Rollback);
        roundtrip(Request::Stats);
        roundtrip(Request::Ping { delay_ms: 12 });
        roundtrip(Request::LoadModel {
            name: "hsw".into(),
            model: Json::obj(vec![("k", Json::from(1.0))]),
            activate: true,
        });
        roundtrip(Request::Healthz);
        roundtrip(Request::Readyz);
        roundtrip(Request::Metrics);
        roundtrip(Request::Resume {
            token: "client-7".into(),
        });
        roundtrip(Request::Checkpoint);
        roundtrip(Request::MigrateExport {
            token: "client-7".into(),
            keep: true,
        });
        roundtrip(Request::MigrateImport {
            record: Json::obj(vec![("key", Json::from("8000000000000001"))]),
        });
        roundtrip(Request::WindowSeqs);
        roundtrip(Request::Hello {
            encoding: "binary".into(),
        });
        // Finite labels only: NaN breaks PartialEq, and non-finite
        // labels intentionally decode differently (see test below).
        roundtrip(Request::Train {
            sample: CounterSample {
                time_ns: 9,
                duration_s: 0.25,
                freq_mhz: 2600,
                voltage: 1.05,
                deltas: vec![3.0, 4.0],
                missing: vec![],
            },
            power_w: 142.5,
        });
    }

    #[test]
    fn train_nonfinite_label_decodes_as_nan() {
        // A NaN label encodes as null on the wire (both codecs); the
        // decoder must hand the gate a NaN, not a protocol error.
        let req = Request::Train {
            sample: CounterSample {
                time_ns: 1,
                duration_s: 0.5,
                freq_mhz: 2400,
                voltage: 1.0,
                deltas: vec![1.0],
                missing: vec![],
            },
            power_w: f64::NAN,
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.to_json_value()).unwrap();
        let got = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();
        match Request::from_json_value(&got).unwrap() {
            Request::Train { power_w, .. } => assert!(power_w.is_nan()),
            other => panic!("expected train, got {other:?}"),
        }
    }

    #[test]
    fn hello_without_encoding_defaults_to_json() {
        let v = Json::obj(vec![("op", Json::from("hello"))]);
        match Request::from_json_value(&v).unwrap() {
            Request::Hello { encoding } => assert_eq!(encoding, "json"),
            other => panic!("expected hello, got {other:?}"),
        }
    }

    #[test]
    fn migrate_export_defaults_to_drain_semantics() {
        let v = Json::obj(vec![
            ("op", Json::from("migrate_export")),
            ("token", Json::from("client-7")),
        ]);
        match Request::from_json_value(&v).unwrap() {
            Request::MigrateExport { keep, .. } => assert!(!keep),
            other => panic!("expected migrate_export, got {other:?}"),
        }
        let empty = Json::obj(vec![
            ("op", Json::from("migrate_export")),
            ("token", Json::from("")),
        ]);
        assert!(Request::from_json_value(&empty).is_err());
    }

    #[test]
    fn empty_resume_token_rejected() {
        let v = Json::obj(vec![
            ("op", Json::from("resume")),
            ("token", Json::from("")),
        ]);
        assert!(matches!(
            Request::from_json_value(&v),
            Err(ServeError::Protocol { .. })
        ));
    }

    #[test]
    fn core_inline_ops_are_recognized() {
        for op in ["healthz", "readyz", "metrics", "resume", "hello"] {
            assert!(is_core_inline_frame(&Json::obj(vec![(
                "op",
                Json::from(op)
            )])));
        }
        for op in ["ingest", "stats", "ping", "checkpoint"] {
            assert!(!is_core_inline_frame(&Json::obj(vec![(
                "op",
                Json::from(op)
            )])));
        }
    }

    #[test]
    fn internal_error_is_a_typed_status() {
        let err = error_response(&ServeError::Internal {
            reason: "worker panicked".into(),
        });
        assert_eq!(err.str_field("status").unwrap(), "internal_error");
        match unwrap_response(err).unwrap_err() {
            ServeError::Internal { reason } => assert!(reason.contains("panicked")),
            other => panic!("expected internal error, got {other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_frame(&mut Cursor::new(&[])).unwrap().is_none());
    }

    #[test]
    fn truncated_header_and_payload_are_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::obj(vec![("op", Json::from("stats"))])).unwrap();
        // Cut inside the header.
        assert!(read_frame(&mut Cursor::new(&buf[..2])).is_err());
        // Cut inside the payload.
        assert!(read_frame(&mut Cursor::new(&buf[..buf.len() - 3])).is_err());
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let buf = u32::MAX.to_be_bytes();
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, ServeError::Protocol { .. }));
    }

    #[test]
    fn non_json_payload_is_typed_error() {
        let payload = b"not json";
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        buf.extend_from_slice(payload);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(ServeError::Json(_))
        ));
    }

    #[test]
    fn tightened_cap_rejects_what_the_default_allows() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::obj(vec![("op", Json::from("stats"))])).unwrap();
        assert!(read_frame_limited(&mut Cursor::new(&buf), 4).is_err());
        assert!(read_frame_limited(&mut Cursor::new(&buf), MAX_FRAME_BYTES)
            .unwrap()
            .is_some());
    }

    /// A reader that yields `n` bytes, then times out forever.
    struct TimesOutAfter {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for TimesOutAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn timeout_between_frames_is_a_recoverable_deadline() {
        let mut r = TimesOutAfter {
            data: vec![],
            pos: 0,
        };
        assert!(matches!(
            read_frame(&mut r),
            Err(ServeError::Deadline { mid_frame: false })
        ));
    }

    #[test]
    fn timeout_mid_frame_is_a_fatal_deadline() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::obj(vec![("op", Json::from("stats"))])).unwrap();
        // Cut inside the header and inside the payload.
        for cut in [2, buf.len() - 3] {
            let mut r = TimesOutAfter {
                data: buf[..cut].to_vec(),
                pos: 0,
            };
            assert!(matches!(
                read_frame(&mut r),
                Err(ServeError::Deadline { mid_frame: true })
            ));
        }
    }

    #[test]
    fn unknown_op_rejected() {
        let v = Json::obj(vec![("op", Json::from("dance"))]);
        assert!(Request::from_json_value(&v).is_err());
    }

    #[test]
    fn response_wrappers() {
        let ok = ok_response(Json::from(1.0));
        assert_eq!(unwrap_response(ok).unwrap(), Json::from(1.0));
        // Overload round-trips as a typed status with its backoff hint.
        let err = error_response(&ServeError::Overloaded { retry_after_ms: 40 });
        assert_eq!(err.str_field("status").unwrap(), "overloaded");
        let e = unwrap_response(err).unwrap_err();
        assert!(matches!(e, ServeError::Overloaded { retry_after_ms: 40 }));
        // So does draining.
        let err = error_response(&ServeError::Draining);
        assert_eq!(err.str_field("status").unwrap(), "draining");
        assert!(matches!(
            unwrap_response(err).unwrap_err(),
            ServeError::Draining
        ));
        // Everything else stays a message-carrying error status.
        let err = error_response(&ServeError::Protocol {
            reason: "bad".into(),
        });
        assert!(matches!(
            unwrap_response(err).unwrap_err(),
            ServeError::Server { .. }
        ));
    }

    #[test]
    fn deadline_budget_is_additive_and_restampable() {
        // No budget by default.
        let frame = Request::Stats.to_json_value();
        assert_eq!(frame_deadline_ms(&frame), None);
        // Stamping adds the field; restamping replaces it (no dupes).
        let stamped = with_deadline_ms(&frame, 250);
        assert_eq!(frame_deadline_ms(&stamped), Some(250));
        let restamped = with_deadline_ms(&stamped, 100);
        assert_eq!(frame_deadline_ms(&restamped), Some(100));
        let fields = restamped.as_obj().unwrap();
        assert_eq!(fields.iter().filter(|(k, _)| k == "deadline_ms").count(), 1);
        // The field is invisible to request parsing — old servers
        // that don't know deadlines parse the frame unchanged.
        assert_eq!(
            Request::from_json_value(&restamped).unwrap(),
            Request::Stats
        );
        // Malformed budgets read as "no deadline", not an error.
        let bad = Json::obj(vec![
            ("op", Json::from("stats")),
            ("deadline_ms", Json::from("soon")),
        ]);
        assert_eq!(frame_deadline_ms(&bad), None);
        // Non-object frames pass through the stamp untouched.
        assert_eq!(with_deadline_ms(&Json::Null, 5), Json::Null);
    }

    #[test]
    fn deadline_exceeded_is_a_typed_status() {
        let err = error_response(&ServeError::DeadlineExceeded { remaining_ms: 7 });
        assert_eq!(err.str_field("status").unwrap(), "deadline_exceeded");
        match unwrap_response(err).unwrap_err() {
            ServeError::DeadlineExceeded { remaining_ms } => assert_eq!(remaining_ms, 7),
            other => panic!("expected deadline_exceeded, got {other:?}"),
        }
    }

    #[test]
    fn parse_frame_handles_fragments_and_garbage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::obj(vec![("op", Json::from("stats"))])).unwrap();
        // Every strict prefix is "incomplete", never an error.
        for cut in 0..buf.len() {
            assert!(matches!(
                parse_frame(&buf[..cut], MAX_FRAME_BYTES),
                Ok(None)
            ));
        }
        // The full buffer parses and reports its consumed length.
        let (v, consumed) = parse_frame(&buf, MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(v.str_field("op").unwrap(), "stats");
        // Two concatenated frames parse one at a time.
        let mut two = buf.clone();
        two.extend_from_slice(&buf);
        let (_, consumed) = parse_frame(&two, MAX_FRAME_BYTES).unwrap().unwrap();
        assert!(parse_frame(&two[consumed..], MAX_FRAME_BYTES)
            .unwrap()
            .is_some());
        // An oversized prefix is fatal; garbage JSON is a payload
        // error that still reports how much to drain.
        assert!(matches!(
            parse_frame(&u32::MAX.to_be_bytes(), MAX_FRAME_BYTES),
            Err(FrameError::Fatal(_))
        ));
        let mut bad = Vec::new();
        bad.extend_from_slice(&4u32.to_be_bytes());
        bad.extend_from_slice(b"nope");
        match parse_frame(&bad, MAX_FRAME_BYTES) {
            Err(FrameError::Payload { consumed, .. }) => assert_eq!(consumed, 8),
            other => panic!("expected payload error, got {other:?}"),
        }
    }

    fn roundtrip_binary(req: Request) {
        let v = req.to_json_value();
        let bytes = encode_frame_as(&v, Encoding::Binary).unwrap();
        assert_eq!(raw_frame_encoding(&bytes), Encoding::Binary);
        let (got, consumed) = parse_frame(&bytes, MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(got, v, "binary decode disagrees with the source value");
        assert_eq!(Request::from_json_value(&got).unwrap(), req);
        // The blocking reader takes the same bytes.
        let via_reader = read_frame(&mut Cursor::new(&bytes)).unwrap().unwrap();
        assert_eq!(via_reader, v);
    }

    #[test]
    fn binary_requests_roundtrip() {
        roundtrip_binary(Request::Ingest(CounterSample {
            time_ns: 5,
            duration_s: 0.5,
            freq_mhz: 2400,
            voltage: 1.0,
            deltas: vec![1.0, 2.125, 1e-17, 4503599627370497.0],
            missing: vec![1],
        }));
        roundtrip_binary(Request::Estimate { now_ns: 77 });
        roundtrip_binary(Request::LoadModel {
            name: "hsw".into(),
            model: Json::obj(vec![("k", Json::from(1.0)), ("s", Json::from("x"))]),
            activate: true,
        });
        roundtrip_binary(Request::Resume {
            token: "client-7".into(),
        });
        roundtrip_binary(Request::Hello {
            encoding: "binary".into(),
        });
        roundtrip_binary(Request::WindowSeqs);
        roundtrip_binary(Request::Train {
            sample: CounterSample {
                time_ns: 9,
                duration_s: 0.25,
                freq_mhz: 2600,
                voltage: 1.05,
                deltas: vec![3.0, 4.0],
                missing: vec![],
            },
            power_w: 142.5,
        });
    }

    #[test]
    fn binary_floats_roundtrip_bitwise() {
        // Bit patterns that shortest-float JSON printing also handles,
        // plus awkward ones: subnormals, -0.0, and maximal-precision
        // values travel as raw bits in binary.
        for bits in [
            0u64,
            (-0.0f64).to_bits(),
            f64::MIN_POSITIVE.to_bits() >> 3, // subnormal
            1.0f64.to_bits() + 1,
            f64::MAX.to_bits(),
        ] {
            let x = f64::from_bits(bits);
            let v = Json::obj(vec![("x", Json::Num(x))]);
            let bytes = encode_frame_as(&v, Encoding::Binary).unwrap();
            let (got, _) = parse_frame(&bytes, MAX_FRAME_BYTES).unwrap().unwrap();
            match got.field("x").unwrap() {
                Json::Num(y) => assert_eq!(y.to_bits(), bits),
                other => panic!("expected number, got {other:?}"),
            }
        }
    }

    #[test]
    fn binary_nonfinite_encodes_as_null_like_json() {
        let v = Json::Arr(vec![
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Num(1.0),
        ]);
        let bytes = encode_frame_as(&v, Encoding::Binary).unwrap();
        let (got, _) = parse_frame(&bytes, MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(got, Json::Arr(vec![Json::Null, Json::Null, Json::Num(1.0)]));
    }

    #[test]
    fn binary_decode_rejects_garbage_in_sync() {
        // Helper: wrap a raw binary body (after the magic) in a frame.
        let framed = |body: &[u8]| {
            let mut payload = BINARY_MAGIC.to_vec();
            payload.extend_from_slice(body);
            let mut out = (payload.len() as u32).to_be_bytes().to_vec();
            out.extend_from_slice(&payload);
            out
        };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty body", framed(&[])),
            ("unknown tag", framed(&[0x42])),
            ("truncated num", framed(&[TAG_NUM, 1, 2, 3])),
            (
                "nan bit pattern",
                framed(&[&[TAG_NUM][..], &f64::NAN.to_bits().to_le_bytes()[..]].concat()),
            ),
            (
                "inf bit pattern",
                framed(
                    &[
                        &[TAG_F64S, 1, 0, 0, 0][..],
                        &f64::INFINITY.to_bits().to_le_bytes()[..],
                    ]
                    .concat(),
                ),
            ),
            ("lying array count", framed(&[TAG_ARR, 255, 255, 255, 255])),
            ("lying f64s count", framed(&[TAG_F64S, 255, 255, 255, 255])),
            ("lying obj count", framed(&[TAG_OBJ, 255, 255, 255, 255])),
            ("truncated string", framed(&[TAG_STR, 9, 0, 0, 0, b'a'])),
            (
                "non-utf8 string",
                framed(&[TAG_STR, 2, 0, 0, 0, 0xFF, 0xFE]),
            ),
            ("trailing bytes", framed(&[TAG_NULL, TAG_NULL])),
        ];
        for (what, bytes) in cases {
            match parse_frame(&bytes, MAX_FRAME_BYTES) {
                Err(FrameError::Payload { consumed, .. }) => {
                    assert_eq!(consumed, bytes.len(), "{what}: wrong drain length")
                }
                other => panic!("{what}: expected payload error, got {other:?}"),
            }
        }
        // Deep nesting is rejected, not a stack overflow.
        let mut body = vec![];
        for _ in 0..(MAX_BINARY_DEPTH + 2) {
            body.extend_from_slice(&[TAG_ARR, 1, 0, 0, 0]);
        }
        body.push(TAG_NULL);
        let bytes = framed(&body);
        assert!(matches!(
            parse_frame(&bytes, MAX_FRAME_BYTES),
            Err(FrameError::Payload { .. })
        ));
    }

    #[test]
    fn binary_frame_split_at_every_byte_is_incomplete_never_error() {
        let v = Request::Ingest(CounterSample {
            time_ns: 1,
            duration_s: 0.5,
            freq_mhz: 2000,
            voltage: 1.0,
            deltas: vec![1.0, 2.0, 3.0],
            missing: vec![],
        })
        .to_json_value();
        let bytes = encode_frame_as(&v, Encoding::Binary).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                matches!(parse_frame(&bytes[..cut], MAX_FRAME_BYTES), Ok(None)),
                "prefix of {cut} bytes must parse as incomplete"
            );
        }
        // Mixed-encoding back-to-back frames on one stream parse
        // independently: binary then JSON.
        let mut two = bytes.clone();
        let json_bytes = encode_frame(&Json::obj(vec![("op", Json::from("stats"))])).unwrap();
        two.extend_from_slice(&json_bytes);
        let (first, consumed) = parse_frame(&two, MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(first, v);
        let (second, _) = parse_frame(&two[consumed..], MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(second.str_field("op").unwrap(), "stats");
    }

    #[test]
    fn encoding_names_roundtrip() {
        assert_eq!(Encoding::from_name("json"), Some(Encoding::Json));
        assert_eq!(Encoding::from_name("binary"), Some(Encoding::Binary));
        assert_eq!(Encoding::from_name("msgpack"), None);
        assert_eq!(Encoding::default(), Encoding::Json);
        // A JSON frame sniffs as JSON.
        let bytes = encode_frame(&Json::obj(vec![("op", Json::from("stats"))])).unwrap();
        assert_eq!(raw_frame_encoding(&bytes), Encoding::Json);
    }

    #[test]
    fn encode_frame_matches_write_frame() {
        let v = Json::obj(vec![("op", Json::from("stats"))]);
        let mut via_writer = Vec::new();
        write_frame(&mut via_writer, &v).unwrap();
        assert_eq!(encode_frame(&v).unwrap(), via_writer);
    }
}

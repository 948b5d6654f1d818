//! The `.cst` ("**c**ompas **s**hot **t**race") binary format.
//!
//! A trace is a versioned header plus one event per executed shot,
//! sorted by global shot index. Events are delta-encoded: shot indices
//! as `varint(delta − 1)` (each shot appears exactly once, so deltas
//! are ≥ 1), packed classical records as zigzag-varint deltas (records
//! cluster around few outcomes, so deltas are small), RNG-stream ids as
//! raw little-endian words (they are avalanche output — incompressible
//! by design — and recorded so a regression in the seed-derivation
//! function breaks golden traces loudly). Per-shot timing, when
//! present, is bucketed to log₂(ns) and run-length encoded in a
//! trailing section; golden traces are recorded without it so the file
//! bytes are fully deterministic. The file ends with an FNV-1a 64
//! checksum of everything before it.
//!
//! ```text
//! magic "CSTR" | u16 version | u16 flags        (bit 0: timing section)
//! u64 root_seed | u64 shots | u32 num_cbits | u64 circuit_fp
//! u8-len backend name | u8-len workload name
//! u64 record_count
//! events: varint first_shot, then per event varint(Δshot−1);
//!         zigzag-varint Δrecord; u64 stream
//! timing (iff flag): RLE pairs (u8 log₂-ns bucket, varint run)
//! u64 FNV-1a checksum of all preceding bytes
//! ```
//!
//! The sidecar manifest (same stem, `.json`, via `jsonlite`) carries
//! the human-readable identity plus the outcome tally; `circuit_fp` is
//! serialized as a *string* there because JSON numbers are doubles.

use engine::ShotRecord;
use jsonlite::Json;
use std::path::{Path, PathBuf};

/// Format version written by this crate.
pub const FORMAT_VERSION: u16 = 1;

/// Header flag bit 0: the timing section is present.
pub const FLAG_TIMING: u16 = 1;

const MAGIC: &[u8; 4] = b"CSTR";

/// Identity of a recorded run — everything replay needs to reproduce
/// it besides the workload registry itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version ([`FORMAT_VERSION`] when written by this crate).
    pub version: u16,
    /// Registered workload name (see [`crate::workloads`]).
    pub workload: String,
    /// Backend name as requested of [`engine::Backend::parse`].
    pub backend: String,
    /// FNV-1a 64 fingerprint of the canonical QASM text — the same
    /// function the serving layer keys its cache by.
    pub circuit_fp: u64,
    /// Root seed of the run.
    pub root_seed: u64,
    /// Total shots recorded.
    pub shots: u64,
    /// Classical register width.
    pub num_cbits: u32,
    /// Whether per-shot timing buckets were recorded.
    pub has_timing: bool,
}

/// A decoded trace: header + per-shot records sorted by shot index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The run's identity.
    pub header: TraceHeader,
    /// One record per shot, sorted by `shot`, covering `0..shots`
    /// exactly once. `nanos` holds the *bucketed* timing (the low edge
    /// of the log₂ bucket) after a read, and zero when timing was not
    /// recorded.
    pub records: Vec<ShotRecord>,
}

impl Trace {
    /// Histogram of the recorded outcomes, in the engine's `Counts`
    /// convention.
    pub fn tally(&self) -> engine::Counts {
        let mut counts = engine::Counts::new();
        for r in &self.records {
            *counts.entry(r.record as usize).or_insert(0) += 1;
        }
        counts
    }

    /// Encoded size in bytes (header + events + checksum).
    pub fn encoded_len(&self) -> usize {
        encode(self).len()
    }
}

/// FNV-1a 64 over raw bytes — the byte-level twin of the serving
/// layer's canonical-text fingerprint, used as the file checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or("truncated varint")?;
        *pos += 1;
        if shift >= 64 {
            return Err("varint overflows u64".to_string());
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag: maps small-magnitude signed deltas to small unsigned ints.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Log₂ timing bucket: 0 for 0 ns, otherwise `1 + floor(log₂ ns)`
/// (so bucket `b > 0` covers `[2^(b−1), 2^b)` ns).
fn timing_bucket(nanos: u64) -> u8 {
    if nanos == 0 {
        0
    } else {
        (64 - nanos.leading_zeros()) as u8
    }
}

/// The low edge of a timing bucket — the value a read reconstructs.
fn bucket_nanos(bucket: u8) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket - 1)
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), String> {
    let len = u8::try_from(s.len()).map_err(|_| format!("name too long: {s:?}"))?;
    out.push(len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    let &len = bytes.get(*pos).ok_or("truncated name length")?;
    *pos += 1;
    let end = *pos + len as usize;
    let raw = bytes.get(*pos..end).ok_or("truncated name")?;
    *pos = end;
    String::from_utf8(raw.to_vec()).map_err(|_| "name is not UTF-8".to_string())
}

fn get_u16(bytes: &[u8], pos: &mut usize) -> Result<u16, String> {
    let raw = bytes.get(*pos..*pos + 2).ok_or("truncated u16")?;
    *pos += 2;
    Ok(u16::from_le_bytes([raw[0], raw[1]]))
}

fn get_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let raw = bytes.get(*pos..*pos + 4).ok_or("truncated u32")?;
    *pos += 4;
    Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
}

fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let raw = bytes.get(*pos..*pos + 8).ok_or("truncated u64")?;
    *pos += 8;
    Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
}

/// Serializes a trace to the `.cst` byte layout.
///
/// # Panics
///
/// Panics if the records are not sorted strictly by shot index (the
/// recording layer sorts before writing) or a name exceeds 255 bytes.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let h = &trace.header;
    let mut out = Vec::with_capacity(64 + trace.records.len() * 12);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&h.version.to_le_bytes());
    let flags = if h.has_timing { FLAG_TIMING } else { 0 };
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&h.root_seed.to_le_bytes());
    out.extend_from_slice(&h.shots.to_le_bytes());
    out.extend_from_slice(&h.num_cbits.to_le_bytes());
    out.extend_from_slice(&h.circuit_fp.to_le_bytes());
    put_str(&mut out, &h.backend).expect("backend name fits");
    put_str(&mut out, &h.workload).expect("workload name fits");
    out.extend_from_slice(&(trace.records.len() as u64).to_le_bytes());

    let mut prev_shot: Option<u64> = None;
    let mut prev_record: i64 = 0;
    for r in &trace.records {
        match prev_shot {
            None => put_varint(&mut out, r.shot),
            Some(p) => {
                assert!(r.shot > p, "records must be sorted strictly by shot");
                put_varint(&mut out, r.shot - p - 1);
            }
        }
        prev_shot = Some(r.shot);
        put_varint(&mut out, zigzag(r.record as i64 - prev_record));
        prev_record = r.record as i64;
        out.extend_from_slice(&r.stream.to_le_bytes());
    }

    if h.has_timing {
        // RLE over the per-shot log₂ buckets, in record order.
        let mut i = 0;
        while i < trace.records.len() {
            let bucket = timing_bucket(trace.records[i].nanos);
            let mut run = 1u64;
            while i + (run as usize) < trace.records.len()
                && timing_bucket(trace.records[i + run as usize].nanos) == bucket
            {
                run += 1;
            }
            out.push(bucket);
            put_varint(&mut out, run);
            i += run as usize;
        }
    }

    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Parses a `.cst` byte buffer, validating magic, version, checksum,
/// and record ordering.
///
/// # Errors
///
/// Returns a human-readable message on any structural violation.
pub fn decode(bytes: &[u8]) -> Result<Trace, String> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err("file too short for a trace".to_string());
    }
    if &bytes[..4] != MAGIC {
        return Err("bad magic (not a .cst trace)".to_string());
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        ));
    }
    let mut pos = 4usize;
    let version = get_u16(body, &mut pos)?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "unsupported trace version {version} (this reader speaks {FORMAT_VERSION})"
        ));
    }
    let flags = get_u16(body, &mut pos)?;
    let has_timing = flags & FLAG_TIMING != 0;
    let root_seed = get_u64(body, &mut pos)?;
    let shots = get_u64(body, &mut pos)?;
    let num_cbits = get_u32(body, &mut pos)?;
    let circuit_fp = get_u64(body, &mut pos)?;
    let backend = get_str(body, &mut pos)?;
    let workload = get_str(body, &mut pos)?;
    let count = get_u64(body, &mut pos)?;
    if count > shots {
        return Err(format!("{count} records exceed the header's {shots} shots"));
    }

    let mut records = Vec::with_capacity(count as usize);
    let mut prev_shot: Option<u64> = None;
    let mut prev_record: i64 = 0;
    for _ in 0..count {
        let shot = match prev_shot {
            None => get_varint(body, &mut pos)?,
            Some(p) => p + 1 + get_varint(body, &mut pos)?,
        };
        if shot >= shots {
            return Err(format!("shot index {shot} out of range (shots {shots})"));
        }
        prev_shot = Some(shot);
        let record = prev_record + unzigzag(get_varint(body, &mut pos)?);
        prev_record = record;
        let stream = get_u64(body, &mut pos)?;
        records.push(ShotRecord {
            shot,
            record: record as u64,
            stream,
            nanos: 0,
        });
    }

    if has_timing {
        let mut covered = 0usize;
        while covered < records.len() {
            let &bucket = body.get(pos).ok_or("truncated timing section")?;
            pos += 1;
            let run = get_varint(body, &mut pos)? as usize;
            if run == 0 || covered + run > records.len() {
                return Err("timing runs disagree with the record count".to_string());
            }
            for r in &mut records[covered..covered + run] {
                r.nanos = bucket_nanos(bucket);
            }
            covered += run;
        }
    }
    if pos != body.len() {
        return Err(format!(
            "{} trailing bytes after the last section",
            body.len() - pos
        ));
    }

    Ok(Trace {
        header: TraceHeader {
            version,
            workload,
            backend,
            circuit_fp,
            root_seed,
            shots,
            num_cbits,
            has_timing,
        },
        records,
    })
}

/// Writes `trace` to `path` (creating parent directories) and its
/// sidecar manifest to the same stem with a `.json` extension.
/// Returns the manifest path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_trace(path: &Path, trace: &Trace, mode: &str) -> std::io::Result<PathBuf> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let bytes = encode(trace);
    std::fs::write(path, &bytes)?;
    let manifest_path = path.with_extension("json");
    std::fs::write(
        &manifest_path,
        manifest(trace, mode, bytes.len()).to_pretty(),
    )?;
    Ok(manifest_path)
}

/// Reads and validates a `.cst` file.
///
/// # Errors
///
/// Returns the filesystem or structural error message.
pub fn read_trace(path: &Path) -> Result<Trace, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    decode(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// The sidecar manifest: the header identity plus the outcome tally.
/// `circuit_fp` is a decimal *string* (JSON numbers are doubles and
/// would corrupt high u64 values).
pub fn manifest(trace: &Trace, mode: &str, encoded_bytes: usize) -> Json {
    let h = &trace.header;
    let mut tally: Vec<(usize, usize)> = trace.tally().into_iter().collect();
    tally.sort_unstable();
    let tally_json = Json::Obj(
        tally
            .into_iter()
            .map(|(outcome, n)| (outcome.to_string(), Json::from_usize(n)))
            .collect(),
    );
    Json::obj(vec![
        ("format", Json::str("cst")),
        ("version", Json::num(f64::from(h.version))),
        ("workload", Json::str(&h.workload)),
        ("backend", Json::str(&h.backend)),
        ("mode", Json::str(mode)),
        ("circuit_fp", Json::str(h.circuit_fp.to_string())),
        ("root_seed", Json::from_u64(h.root_seed)),
        ("shots", Json::from_u64(h.shots)),
        ("num_cbits", Json::num(f64::from(h.num_cbits))),
        ("has_timing", Json::Bool(h.has_timing)),
        ("records", Json::from_usize(trace.records.len())),
        ("bytes", Json::from_usize(encoded_bytes)),
        (
            "bytes_per_shot",
            Json::num(encoded_bytes as f64 / (trace.records.len().max(1)) as f64),
        ),
        ("tally", tally_json),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace(has_timing: bool) -> Trace {
        let records = (0..100u64)
            .map(|shot| ShotRecord {
                shot,
                record: [0u64, 3, 3, 0, 7][shot as usize % 5],
                stream: engine::derive_stream_seed(42, shot),
                nanos: if has_timing { 1000 + shot * 17 } else { 0 },
            })
            .collect();
        Trace {
            header: TraceHeader {
                version: FORMAT_VERSION,
                workload: "unit".to_string(),
                backend: "auto".to_string(),
                circuit_fp: 0xdead_beef_cafe_f00d,
                root_seed: 42,
                shots: 100,
                num_cbits: 3,
                has_timing,
            },
            records,
        }
    }

    #[test]
    fn roundtrip_without_timing_is_exact() {
        let trace = sample_trace(false);
        let decoded = decode(&encode(&trace)).unwrap();
        assert_eq!(decoded, trace);
    }

    #[test]
    fn roundtrip_with_timing_preserves_buckets() {
        let trace = sample_trace(true);
        let decoded = decode(&encode(&trace)).unwrap();
        assert_eq!(decoded.header, trace.header);
        for (d, o) in decoded.records.iter().zip(&trace.records) {
            assert_eq!((d.shot, d.record, d.stream), (o.shot, o.record, o.stream));
            // Timing is bucketed: the decoded value is the low edge of
            // the original's log₂ bucket.
            assert_eq!(d.nanos, bucket_nanos(timing_bucket(o.nanos)));
        }
    }

    #[test]
    fn encoding_is_deterministic_and_compact() {
        let trace = sample_trace(false);
        let a = encode(&trace);
        assert_eq!(a, encode(&trace), "same trace, same bytes");
        // Delta coding: ~11 bytes/shot (2 varints + the 8-byte stream).
        let per_shot = a.len() as f64 / trace.records.len() as f64;
        assert!(per_shot < 16.0, "got {per_shot} bytes/shot");
    }

    #[test]
    fn corruption_is_detected() {
        let trace = sample_trace(true);
        let good = encode(&trace);
        // Flip one payload byte: checksum mismatch.
        let mut bad = good.clone();
        bad[20] ^= 0x40;
        assert!(decode(&bad).unwrap_err().contains("checksum"));
        // Truncation: too short / checksum.
        assert!(decode(&good[..10]).is_err());
        // Wrong magic.
        let mut wrong = good.clone();
        wrong[0] = b'X';
        assert!(decode(&wrong).unwrap_err().contains("magic"));
        // Future version: recompute the checksum so only the version
        // check can fire.
        let mut future = good.clone();
        future[4] = 99;
        let body_len = future.len() - 8;
        let sum = fnv1a(&future[..body_len]);
        future[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(decode(&future).unwrap_err().contains("version"));
    }

    #[test]
    fn varint_and_zigzag_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn manifest_carries_identity_and_tally() {
        let trace = sample_trace(false);
        let m = manifest(&trace, "sequential", 1234);
        assert_eq!(m.get("workload").unwrap().as_str(), Some("unit"));
        assert_eq!(
            m.get("circuit_fp").unwrap().as_str(),
            Some(format!("{}", 0xdead_beef_cafe_f00du64).as_str())
        );
        assert_eq!(m.get("shots").unwrap().as_u64(), Some(100));
        let tally = m.get("tally").unwrap();
        assert_eq!(tally.get("0").unwrap().as_u64(), Some(40));
        assert_eq!(tally.get("3").unwrap().as_u64(), Some(40));
        assert_eq!(tally.get("7").unwrap().as_u64(), Some(20));
        // The manifest text parses back (jsonlite round trip).
        assert!(Json::parse(&m.to_pretty()).is_ok());
    }
}

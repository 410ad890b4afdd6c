//! Durable run checkpoints (DESIGN.md §12).
//!
//! A checkpoint is a single file carrying everything [`crate::runner`]
//! needs to resume a run mid-trace with bitwise-identical remaining output:
//! the next slot index, carry-over queues, the previous executed schedule,
//! metric accumulators, the health monitor's FSM, and the scheduler's own
//! exported state (MAB posteriors, skip and dive-gate counters, RNG
//! position, and the persistent slot model's input fingerprint — the
//! lowered model itself is recomputed on resume, see DESIGN.md §13). The
//! embedder (the CLI) additionally stores an opaque *spec* — the invocation
//! parameters needed to rebuild the catalog, trace and scheduler — so
//! `birp resume <path>` is self-contained.
//!
//! ## On-disk format
//!
//! ```text
//! BIRPCKPT v<version> crc32=<8 hex digits> len=<payload bytes>\n
//! <payload: one JSON document>
//! ```
//!
//! The header is a fixed-shape ASCII line; the CRC-32 (IEEE, reflected —
//! the zlib/PNG polynomial) covers exactly the `len` payload bytes that
//! follow the newline. Anything that does not parse down this path —
//! truncation, bit flips, a future version — surfaces as a typed
//! [`ResumeError`], never a panic: corrupted checkpoints are an expected
//! input (that is the point of the chaos harness), not a programming error.
//!
//! ## Atomic write protocol
//!
//! [`save`] writes the full file to `<path>.tmp`, fsyncs it, then renames
//! over `<path>`. A crash mid-write therefore leaves either the previous
//! complete checkpoint or the new complete checkpoint at `<path>` — never a
//! torn file (the stale `.tmp` is ignored and overwritten by the next
//! save). Payload tolerance follows the `FaultPlan` convention: unknown
//! JSON fields are ignored and missing optional sections default, so older
//! readers reject only on version, not on shape drift within a version.

use std::fmt;
use std::io::Write;
use std::path::Path;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::runner::RunnerCheckpoint;

/// File magic; first bytes of every checkpoint.
pub const MAGIC: &str = "BIRPCKPT";

/// Current checkpoint format version. Bump on any payload change an older
/// reader could misinterpret silently.
pub const VERSION: u32 = 1;

/// Why a checkpoint could not be loaded or a resume could not proceed.
///
/// Every variant is a *clean* failure: the CLI maps them to a non-zero exit
/// code and a one-line diagnosis. No input byte sequence may panic the
/// loader — the corruption fuzz suite holds it to that.
#[derive(Debug)]
pub enum ResumeError {
    /// Filesystem-level failure (missing file, permissions, short read).
    Io(std::io::Error),
    /// File ends before the header or the declared payload length.
    Truncated,
    /// The file does not start with [`MAGIC`] — not a checkpoint at all.
    BadMagic,
    /// A checkpoint, but written by an incompatible format version.
    WrongVersion { found: u32 },
    /// Payload bytes do not hash to the header's CRC — bit rot or a torn
    /// copy (the atomic-rename protocol makes this impossible for crashes,
    /// so it indicates external corruption).
    ChecksumMismatch { expected: u32, found: u32 },
    /// The payload is not the JSON document the version promises.
    Parse(String),
    /// The checkpoint is internally valid but does not match the run it is
    /// being resumed into (different scheduler, catalog shape, slot count).
    SpecMismatch(String),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Io(e) => write!(f, "checkpoint io error: {e}"),
            ResumeError::Truncated => write!(f, "checkpoint truncated"),
            ResumeError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            ResumeError::WrongVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (supported: {VERSION})"
                )
            }
            ResumeError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch (header {expected:08x}, payload {found:08x})"
            ),
            ResumeError::Parse(msg) => write!(f, "checkpoint payload malformed: {msg}"),
            ResumeError::SpecMismatch(msg) => write!(f, "checkpoint does not match run: {msg}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<std::io::Error> for ResumeError {
    fn from(e: std::io::Error) -> Self {
        ResumeError::Io(e)
    }
}

impl From<DeError> for ResumeError {
    fn from(e: DeError) -> Self {
        ResumeError::Parse(e.0)
    }
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFFFFFF`) — the zlib/PNG
/// checksum, computed bitwise. Checkpoints are written at most once every
/// few slots, so a table-free loop is plenty.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A complete checkpoint: the embedder's opaque run spec plus the runner's
/// own resumable state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunCheckpoint {
    /// Whatever the embedder needs to rebuild catalog/trace/scheduler —
    /// the CLI stores its resolved invocation here. `Null` for library
    /// callers that rebuild from their own context.
    #[serde(default)]
    pub spec: Value,
    /// The runner's mid-trace state.
    pub runner: RunnerCheckpoint,
}

/// Serialize `ckpt` and write it durably to `path` via the atomic
/// temp-file + fsync + rename protocol.
pub fn save(path: &Path, ckpt: &RunCheckpoint) -> std::io::Result<()> {
    let payload =
        serde_json::to_string(&Serialize::to_value(ckpt)).expect("Value serialization cannot fail");
    let header = format!(
        "{MAGIC} v{VERSION} crc32={:08x} len={}\n",
        crc32(payload.as_bytes()),
        payload.len()
    );
    let tmp = tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(header.as_bytes())?;
        f.write_all(payload.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// The sibling temp file [`save`] stages into before the rename.
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

/// Load and fully verify a checkpoint file.
pub fn load(path: &Path) -> Result<RunCheckpoint, ResumeError> {
    let bytes = std::fs::read(path)?;
    parse(&bytes)
}

/// Parse checkpoint bytes (separated from [`load`] so the fuzz suite can
/// feed adversarial buffers without touching the filesystem).
pub fn parse(bytes: &[u8]) -> Result<RunCheckpoint, ResumeError> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(ResumeError::Truncated)?;
    let header = std::str::from_utf8(&bytes[..nl]).map_err(|_| ResumeError::BadMagic)?;
    let mut parts = header.split_ascii_whitespace();
    if parts.next() != Some(MAGIC) {
        return Err(ResumeError::BadMagic);
    }
    let version = parts
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or(ResumeError::BadMagic)?;
    if version != VERSION {
        return Err(ResumeError::WrongVersion { found: version });
    }
    let expected_crc = parts
        .next()
        .and_then(|v| v.strip_prefix("crc32="))
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or(ResumeError::Truncated)?;
    let len = parts
        .next()
        .and_then(|v| v.strip_prefix("len="))
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or(ResumeError::Truncated)?;
    let payload = bytes
        .get(nl + 1..nl + 1 + len)
        .ok_or(ResumeError::Truncated)?;
    let found_crc = crc32(payload);
    if found_crc != expected_crc {
        return Err(ResumeError::ChecksumMismatch {
            expected: expected_crc,
            found: found_crc,
        });
    }
    let text = std::str::from_utf8(payload)
        .map_err(|_| ResumeError::Parse("payload is not UTF-8".into()))?;
    let value: Value = serde_json::from_str(text).map_err(|e| ResumeError::Parse(e.to_string()))?;
    Ok(RunCheckpoint::from_value(&value)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for the IEEE/zlib polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn tiny_checkpoint() -> RunCheckpoint {
        RunCheckpoint {
            spec: Value::Object(vec![("scale".into(), Value::Str("small".into()))]),
            runner: crate::runner::RunnerCheckpoint::fresh(1, 1),
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("birp-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let ckpt = tiny_checkpoint();
        save(&path, &ckpt).unwrap();
        assert!(!tmp_path(&path).exists(), "temp file must not survive save");
        let back = load(&path).unwrap();
        assert_eq!(
            back.spec.get("scale").and_then(Value::as_str),
            Some("small")
        );
        assert_eq!(back.runner.next_slot, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_corrupt_inputs_fail_cleanly() {
        let ckpt = tiny_checkpoint();
        let payload = serde_json::to_string(&Serialize::to_value(&ckpt)).unwrap();
        let header = format!(
            "{MAGIC} v{VERSION} crc32={:08x} len={}\n",
            crc32(payload.as_bytes()),
            payload.len()
        );
        let full: Vec<u8> = header.bytes().chain(payload.bytes()).collect();

        assert!(parse(&full).is_ok());
        assert!(matches!(parse(b""), Err(ResumeError::Truncated)));
        assert!(matches!(parse(b"garbage\n"), Err(ResumeError::BadMagic)));
        assert!(matches!(
            parse(&full[..full.len() - 3]),
            Err(ResumeError::Truncated)
        ));
        let mut flipped = full.clone();
        let ix = header.len() + 5;
        flipped[ix] ^= 0x40;
        assert!(matches!(
            parse(&flipped),
            Err(ResumeError::ChecksumMismatch { .. })
        ));
        let hdr2 = header.replacen(&format!("v{VERSION}"), "v999", 1);
        let bad: Vec<u8> = hdr2.bytes().chain(payload.bytes()).collect();
        assert!(matches!(
            parse(&bad),
            Err(ResumeError::WrongVersion { found: 999 })
        ));
    }
}

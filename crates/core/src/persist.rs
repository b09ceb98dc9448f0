//! Crash-safe model persistence.
//!
//! The offline stage runs "only once to characterize a new system"
//! (Section III); its product must therefore outlive the process — and
//! outlive it *intact*. Artifacts are written with an atomic
//! write-then-rename (a reader sees either the old file or the complete
//! new one, never a torn mix), wrapped in a CRC32-checksummed,
//! version-stamped envelope:
//!
//! ```text
//! acs-artifact v1 kind=trained-model crc32=0a1b2c3d len=12345\n
//! <exactly `len` payload bytes>
//! ```
//!
//! Reads validate the envelope before the payload is parsed. Integrity
//! failures (torn tail, bit rot, length mismatch) quarantine the file by
//! renaming it to `<path>.corrupt` — the broken artifact is preserved for
//! forensics but can never be half-loaded again — and surface as a typed
//! [`PersistError::Corrupt`]. A file stamped with a *newer* format
//! version than this binary understands is rejected up front with
//! [`PersistError::VersionMismatch`] and left untouched: it is probably a
//! perfectly good artifact for a newer binary, not corruption.
//!
//! Files that predate the envelope (bare JSON) still load: an artifact
//! that does not start with the magic string is treated as a version-0
//! legacy document.

use crate::offline::TrainedModel;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The artifact format version this binary reads and writes.
const ARTIFACT_VERSION: u32 = 1;

/// Magic prefix of an enveloped artifact; anything else is legacy JSON.
const MAGIC: &str = "acs-artifact ";

/// The `kind=` tag for trained-model artifacts.
const MODEL_KIND: &str = "trained-model";

/// Errors from persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Serialization/deserialization failure.
    Format(serde_json::Error),
    /// An artifact exists but fails its integrity checks (bad checksum,
    /// torn tail, wrong kind, or unparseable contents).
    Corrupt {
        /// The offending file.
        path: String,
        /// What the check rejected.
        detail: String,
        /// Where the broken file was quarantined (`<path>.corrupt`),
        /// when the rename succeeded.
        quarantined: Option<String>,
    },
    /// The artifact declares a format version newer than this binary
    /// supports. The file is left in place: upgrade the binary instead.
    VersionMismatch {
        /// The offending file.
        path: String,
        /// The version the file declares.
        found: u32,
        /// The newest version this binary reads.
        supported: u32,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io: {e}"),
            PersistError::Format(e) => write!(f, "format: {e}"),
            PersistError::Corrupt { path, detail, quarantined } => {
                write!(f, "artifact '{path}' is corrupt or truncated: {detail}")?;
                if let Some(q) = quarantined {
                    write!(f, " (quarantined to '{q}')")?;
                }
                write!(f, " (re-run the offline training stage to regenerate it)")
            }
            PersistError::VersionMismatch { path, found, supported } => write!(
                f,
                "artifact '{path}' declares format version {found}, newer than the \
                 supported v{supported}: upgrade this binary, or re-train with this one"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Format(e)
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven. Matches the
/// ubiquitous zlib/`cksum -o 3` variant: `crc32(b"123456789") ==
/// 0xCBF43926`. Shared by the artifact envelope here and the serve
/// recovery journal.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Where a corrupt artifact at `path` gets quarantined.
fn quarantine_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".corrupt");
    PathBuf::from(os)
}

/// Move a failed artifact aside (best effort) so it can never be
/// half-loaded again; returns the quarantine path when the rename stuck.
fn quarantine(path: &Path) -> Option<String> {
    let q = quarantine_path(path);
    std::fs::rename(path, &q).ok().map(|_| q.display().to_string())
}

/// A quarantining integrity failure.
fn corrupt(path: &Path, detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt {
        path: path.display().to_string(),
        detail: detail.into(),
        quarantined: quarantine(path),
    }
}

/// Write `payload` to `path` inside a checksummed envelope, atomically:
/// the bytes land in a same-directory temporary file which is synced and
/// then renamed over `path`. A crash at any point leaves either the old
/// artifact or the new one — never a torn hybrid (the leftover temp file
/// never matches the artifact path, so loads ignore it).
fn write_artifact(path: impl AsRef<Path>, kind: &str, payload: &[u8]) -> Result<(), PersistError> {
    debug_assert!(
        !kind.contains(|c: char| c.is_whitespace()),
        "artifact kind must be a single token"
    );
    let path = path.as_ref();
    let header = format!(
        "{MAGIC}v{ARTIFACT_VERSION} kind={kind} crc32={:08x} len={}\n",
        crc32(payload),
        payload.len()
    );
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let write = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(header.as_bytes())?;
        f.write_all(payload)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(PersistError::Io(e));
    }
    // Best-effort directory sync so the rename itself is durable.
    if let Some(dir) = path.parent() {
        if let Ok(d) =
            std::fs::File::open(if dir.as_os_str().is_empty() { Path::new(".") } else { dir })
        {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Parsed fields of an envelope header line (after the magic).
fn parse_header(line: &str) -> Option<(u32, &str, u32, usize)> {
    let rest = line.strip_prefix(MAGIC)?;
    let mut parts = rest.split(' ');
    let version = parts.next()?.strip_prefix('v')?.parse().ok()?;
    let kind = parts.next()?.strip_prefix("kind=")?;
    let crc = u32::from_str_radix(parts.next()?.strip_prefix("crc32=")?, 16).ok()?;
    let len = parts.next()?.strip_prefix("len=")?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((version, kind, crc, len))
}

/// Read and verify an artifact's payload bytes.
///
/// - Not enveloped at all → returned as-is (legacy version-0 document).
/// - Declared version newer than [`ARTIFACT_VERSION`] →
///   [`PersistError::VersionMismatch`]; the file is **not** quarantined.
/// - Wrong `kind` → [`PersistError::Corrupt`] without quarantine (the
///   file may be a healthy artifact of another kind, crossed by the
///   caller).
/// - Unparseable header, length mismatch, or checksum mismatch →
///   quarantine to `<path>.corrupt` + [`PersistError::Corrupt`].
fn read_artifact(path: impl AsRef<Path>, expected_kind: &str) -> Result<Vec<u8>, PersistError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)?;
    if !bytes.starts_with(MAGIC.as_bytes()) {
        return Ok(bytes);
    }
    let Some(nl) = bytes.iter().position(|&b| b == b'\n') else {
        return Err(corrupt(path, "envelope header has no terminating newline"));
    };
    let Some(header) = std::str::from_utf8(&bytes[..nl]).ok() else {
        return Err(corrupt(path, "envelope header is not valid UTF-8"));
    };
    let Some((version, kind, crc, len)) = parse_header(header) else {
        return Err(corrupt(path, format!("unparseable envelope header '{header}'")));
    };
    if version > ARTIFACT_VERSION {
        return Err(PersistError::VersionMismatch {
            path: path.display().to_string(),
            found: version,
            supported: ARTIFACT_VERSION,
        });
    }
    if kind != expected_kind {
        return Err(PersistError::Corrupt {
            path: path.display().to_string(),
            detail: format!("artifact kind '{kind}' where '{expected_kind}' was expected"),
            quarantined: None,
        });
    }
    let payload = &bytes[nl + 1..];
    if payload.len() != len {
        return Err(corrupt(
            path,
            format!("payload is {} bytes where the header declares {len}", payload.len()),
        ));
    }
    let got = crc32(payload);
    if got != crc {
        return Err(corrupt(path, format!("checksum {got:08x} does not match declared {crc:08x}")));
    }
    Ok(payload.to_vec())
}

impl TrainedModel {
    /// Serialize to a JSON string.
    fn to_json(&self) -> Result<String, PersistError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Deserialize from a JSON string.
    fn from_json(json: &str) -> Result<Self, PersistError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Write the model to a file atomically inside a checksummed,
    /// version-stamped envelope (see the module docs).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        write_artifact(path, MODEL_KIND, self.to_json()?.as_bytes())
    }

    /// Load a model from a file. A missing file is a [`PersistError::Io`];
    /// an artifact from a newer binary is a
    /// [`PersistError::VersionMismatch`]; a file that fails its checksum
    /// or does not parse is quarantined to `<path>.corrupt` and reported
    /// as [`PersistError::Corrupt`]. Pre-envelope bare-JSON files load as
    /// legacy documents.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let path = path.as_ref();
        let payload = read_artifact(path, MODEL_KIND)?;
        let text = match std::str::from_utf8(&payload) {
            Ok(t) => t,
            Err(_) => return Err(corrupt(path, "model payload is not valid UTF-8")),
        };
        Self::from_json(text).map_err(|e| match e {
            PersistError::Format(err) => corrupt(path, err.to_string()),
            other => other,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::{train, TrainingParams};
    use crate::online::Predictor;
    use crate::profile::collect_suite;
    use acs_sim::{KernelCharacteristics, Machine};

    fn model() -> (TrainedModel, Vec<crate::profile::KernelProfile>) {
        let m = Machine::new(7);
        let kernels: Vec<KernelCharacteristics> = (0..6)
            .map(|i| KernelCharacteristics {
                name: format!("k{i}"),
                gpu_speedup: 2.0 + i as f64 * 3.0,
                memory_time_s: 0.001 * (1 + i % 3) as f64,
                ..Default::default()
            })
            .collect();
        let profiles = collect_suite(&m, &kernels);
        (
            train(&profiles, TrainingParams { n_clusters: 3, ..Default::default() }).unwrap(),
            profiles,
        )
    }

    /// A fresh scratch directory per test so quarantine renames in one
    /// test cannot race file checks in another.
    fn scratch(test: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("acs-persist-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn json_roundtrip_preserves_model() {
        let (m, _) = model();
        let json = m.to_json().unwrap();
        let back = TrainedModel::from_json(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn a_negative_zero_coefficient_reloads_bit_equal() {
        // `PartialEq` cannot see the sign of a zero; the bits can.
        let (mut m, _) = model();
        m.clusters[0].power_cpu.coeffs[0] = -0.0;
        let dir = scratch("negzero");
        let path = dir.join("model.json");
        m.save(&path).unwrap();
        let back = TrainedModel::load(&path).unwrap();
        assert_eq!(back.clusters[0].power_cpu.coeffs[0].to_bits(), (-0.0f64).to_bits());
        for (a, b) in m.clusters.iter().zip(&back.clusters) {
            let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.power_cpu.coeffs), bits(&b.power_cpu.coeffs));
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn roundtripped_model_predicts_identically() {
        let (m, profiles) = model();
        let back = TrainedModel::from_json(&m.to_json().unwrap()).unwrap();
        for p in &profiles {
            let samples = p.sample_pair();
            let a = Predictor::new(&m).predict(&samples);
            let b = Predictor::new(&back).predict(&samples);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn file_roundtrip_through_the_envelope() {
        let (m, _) = model();
        let dir = scratch("roundtrip");
        let path = dir.join("model.json");
        m.save(&path).unwrap();

        // The on-disk form is enveloped and leaves no temp file behind.
        let raw = std::fs::read_to_string(&path).unwrap();
        assert!(raw.starts_with("acs-artifact v1 kind=trained-model crc32="), "{raw:.60}");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "temp file left behind");

        let back = TrainedModel::load(&path).unwrap();
        assert_eq!(m, back);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn legacy_bare_json_still_loads() {
        let (m, _) = model();
        let dir = scratch("legacy");
        let path = dir.join("legacy.json");
        std::fs::write(&path, m.to_json().unwrap()).unwrap();
        let back = TrainedModel::load(&path).unwrap();
        assert_eq!(m, back);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(matches!(TrainedModel::from_json("{not json"), Err(PersistError::Format(_))));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(matches!(
            TrainedModel::load("/nonexistent/acs/model.json"),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn truncated_artifact_is_quarantined() {
        let (m, _) = model();
        let dir = scratch("truncated");
        let path = dir.join("truncated.json");
        m.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();

        let err = TrainedModel::load(&path).unwrap_err();
        match &err {
            PersistError::Corrupt { path: p, quarantined, .. } => {
                assert!(p.contains("truncated.json"), "{p}");
                assert!(quarantined.is_some(), "truncation must quarantine");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("re-run the offline training"), "{msg}");
        // The broken file moved aside; the original path is gone.
        assert!(!path.exists());
        assert!(quarantine_path(&path).exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn bit_rot_fails_the_checksum_and_quarantines() {
        let (m, _) = model();
        let dir = scratch("bitrot");
        let path = dir.join("model.json");
        m.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // payload flip: same length, wrong checksum
        std::fs::write(&path, &bytes).unwrap();

        let err = TrainedModel::load(&path).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("checksum"), "{err}");
        assert!(quarantine_path(&path).exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn newer_version_is_rejected_and_left_in_place() {
        let dir = scratch("version");
        let path = dir.join("future.json");
        let payload = b"{}";
        let header =
            format!("acs-artifact v999 kind=trained-model crc32={:08x} len=2\n", crc32(payload));
        std::fs::write(&path, format!("{header}{{}}")).unwrap();

        match TrainedModel::load(&path).unwrap_err() {
            PersistError::VersionMismatch { found, supported, .. } => {
                assert_eq!(found, 999);
                assert_eq!(supported, ARTIFACT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        assert!(path.exists(), "a future-version artifact must not be quarantined");
        assert!(!quarantine_path(&path).exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn wrong_kind_is_corrupt_but_not_quarantined() {
        let dir = scratch("kind");
        let path = dir.join("other.json");
        write_artifact(&path, "recovery-journal", b"{}").unwrap();
        match TrainedModel::load(&path).unwrap_err() {
            PersistError::Corrupt { detail, quarantined, .. } => {
                assert!(detail.contains("recovery-journal"), "{detail}");
                assert!(quarantined.is_none(), "crossed kinds must not destroy the file");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(path.exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn garbage_model_file_is_reported_corrupt() {
        let dir = scratch("garbage");
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{\"clusters\": \"not an array\"}").unwrap();
        let err = TrainedModel::load(&path).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }), "{err:?}");
        assert!(quarantine_path(&path).exists(), "undecodable legacy files quarantine too");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn save_replaces_an_existing_artifact_atomically() {
        let (m, _) = model();
        let dir = scratch("replace");
        let path = dir.join("model.json");
        m.save(&path).unwrap();
        m.save(&path).unwrap(); // overwrite goes through rename, not truncate
        assert_eq!(TrainedModel::load(&path).unwrap(), m);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }
}

//! Versioned, checksummed full-system checkpoints.
//!
//! This module owns the *container* format; the component state inside it
//! is written by [`crate::System::snapshot`] and read back by
//! [`crate::System::try_restore`]. Each component's codec is generated from
//! its one field list by `ndp_common::snap_state!` / `snap_value!`, and
//! restores in place into a freshly constructed machine.
//!
//! ## File layout
//!
//! ```text
//! magic        u64   "NDPCKPT\0" (little-endian)
//! schema       u32   SCHEMA_VERSION — bumped on any payload layout change
//! config_fp    u64   FNV-1a of the SystemConfig debug rendering
//! kernel_fp    u64   FNV-1a of the compiled kernel (program + blocks)
//! cycle        u64   simulated cycle the snapshot was taken at
//! payload_len  u64   exact byte length of the payload that follows
//! checksum     u64   checksum64 (word-wise) of the payload bytes
//! payload      [u8]  section-tagged component state (System::snapshot)
//! ```
//!
//! A snapshot is written straight into one buffer: [`writer`] reserves the
//! header's bytes up front and [`seal`] patches them in place once the
//! payload is complete, so the payload is never copied.
//!
//! Every rejection path — wrong magic, unknown schema, fingerprint
//! mismatch, truncation, trailing bytes, checksum failure, or a decode
//! error inside the payload — surfaces as a typed
//! [`SimError::BadCheckpoint`] naming the failed check; corrupt input is
//! never a panic and never a silently-wrong resume.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ndp_common::config::SystemConfig;
use ndp_common::error::SimError;
use ndp_common::ids::Cycle;
use ndp_common::snap::{checksum64, fnv1a, SnapReader, SnapWriter};
use ndp_compiler::CompiledKernel;

/// File magic, read/written as a little-endian `u64`.
pub const MAGIC: u64 = u64::from_le_bytes(*b"NDPCKPT\0");

/// Payload schema version. Bump whenever any component's layout changes;
/// old files are then rejected with a `schema` check failure instead of
/// being misdecoded. v2: the payload checksum became [`checksum64`] (v1
/// used FNV-1a), so a v1 file must fail on its schema, not as a checksum
/// mismatch. v3: the clock section dropped the intra-cycle threading flag
/// byte (the threaded path is gone), shifting every later field. v4: every
/// codec is generated from one field list per type (`ndp_common::snap`),
/// which normalised the encodings the hand-written pairs had drifted
/// into. An absent `Option` is now just its flag, with no placeholder
/// payload. Histogram buckets and SM scoreboards carry a length, as every
/// fixed-shape sequence does, and an occupancy series carries its
/// capacity. The vault completion heap is written in `Ord` order. A v3
/// image no longer lines up with these fields, so it must fail on its
/// schema instead of misdecoding. v5: the execution mode left the image
/// (the clock section lost its skip byte), because a restore takes it from
/// its `RunOptions`; and the observability section lost its three caps,
/// which became constants, leaving one on/off flag. A v4 image must fail
/// on its schema. v6: every link's statistics lost their per-packet-kind
/// byte array (nothing read it), so a v5 image must fail on its schema.
pub const SCHEMA_VERSION: u32 = 6;

/// File extension used for per-workload checkpoints when the checkpoint
/// target or resume source names a directory.
pub const EXTENSION: &str = "ndpckpt";

/// Fixed header size in bytes (magic + schema + 5 × u64 fields).
pub const HEADER_BYTES: usize = 8 + 4 + 8 * 5;

/// Parsed checkpoint header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub schema: u32,
    pub config_fp: u64,
    pub kernel_fp: u64,
    pub cycle: Cycle,
    pub payload_len: u64,
    pub checksum: u64,
}

/// Shorthand for the typed rejection error.
pub fn bad(check: &'static str, detail: impl Into<String>) -> SimError {
    SimError::BadCheckpoint {
        check,
        detail: detail.into(),
    }
}

/// Fingerprint of a system configuration: FNV-1a over its debug rendering.
/// Guards a resume against a config that would rebuild the machine with
/// different capacities, timings or policies than the snapshot assumed.
pub fn config_fingerprint(cfg: &SystemConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

/// Fingerprint of a compiled kernel: FNV-1a over the program text and its
/// offload-block partition. Guards a resume against restoring warp state
/// into a different program.
pub fn kernel_fingerprint(kernel: &CompiledKernel) -> u64 {
    fnv1a(format!("{:?}|{:?}", kernel.program, kernel.blocks).as_bytes())
}

/// Both header fingerprints of one (config, kernel) pair. Rendering the
/// config and program to compute them is not free, so a `System` takes
/// them at most once and every save reuses them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprints {
    pub config: u64,
    pub kernel: u64,
}

impl Fingerprints {
    pub fn of(cfg: &SystemConfig, kernel: &CompiledKernel) -> Fingerprints {
        Fingerprints {
            config: config_fingerprint(cfg),
            kernel: kernel_fingerprint(kernel),
        }
    }
}

impl Header {
    /// Serialize the header for `payload`.
    pub fn write(&self, w: &mut SnapWriter) {
        w.u64(MAGIC);
        w.u32(self.schema);
        w.u64(self.config_fp);
        w.u64(self.kernel_fp);
        w.u64(self.cycle);
        w.u64(self.payload_len);
        w.u64(self.checksum);
    }

    /// Parse and structurally validate a header (magic and schema). The
    /// fingerprint and checksum checks need the caller's fingerprints and
    /// the payload, so they live in [`open`].
    pub fn read(r: &mut SnapReader<'_>) -> Result<Header, SimError> {
        let magic = r.u64().map_err(|e| bad("magic", e.0))?;
        if magic != MAGIC {
            return Err(bad(
                "magic",
                format!("not a checkpoint file (magic {magic:#018x})"),
            ));
        }
        let schema = r.u32().map_err(|e| bad("schema", e.0))?;
        if schema != SCHEMA_VERSION {
            return Err(bad(
                "schema",
                format!("checkpoint schema v{schema}, this build reads v{SCHEMA_VERSION}"),
            ));
        }
        let header = Header {
            schema,
            config_fp: r.u64().map_err(|e| bad("header", e.0))?,
            kernel_fp: r.u64().map_err(|e| bad("header", e.0))?,
            cycle: r.u64().map_err(|e| bad("header", e.0))?,
            payload_len: r.u64().map_err(|e| bad("header", e.0))?,
            checksum: r.u64().map_err(|e| bad("header", e.0))?,
        };
        Ok(header)
    }
}

/// Validate `bytes` as a checkpoint for exactly the (config, kernel) pair
/// `fp` fingerprints: magic, schema, both fingerprints, payload length,
/// and checksum. Returns the header and the verified payload slice.
pub fn open(bytes: &[u8], fp: Fingerprints) -> Result<(Header, &[u8]), SimError> {
    let mut r = SnapReader::new(bytes);
    let header = Header::read(&mut r)?;
    if header.config_fp != fp.config {
        return Err(bad(
            "config",
            format!(
                "checkpoint was taken under config {:#018x}, this run has {:#018x}",
                header.config_fp, fp.config
            ),
        ));
    }
    if header.kernel_fp != fp.kernel {
        return Err(bad(
            "kernel",
            format!(
                "checkpoint was taken for kernel {:#018x}, this run compiles {:#018x}",
                header.kernel_fp, fp.kernel
            ),
        ));
    }
    let payload = &bytes[r.position()..];
    if payload.len() as u64 != header.payload_len {
        return Err(bad(
            "length",
            format!(
                "header promises {} payload bytes, file carries {}",
                header.payload_len,
                payload.len()
            ),
        ));
    }
    let sum = checksum64(payload);
    if sum != header.checksum {
        return Err(bad(
            "checksum",
            format!(
                "payload hashes to {sum:#018x}, header records {:#018x}",
                header.checksum
            ),
        ));
    }
    Ok((header, payload))
}

/// A writer for a checkpoint payload, with room for the header reserved
/// at the front (a zeroed placeholder that [`seal`] overwrites).
pub fn writer() -> SnapWriter {
    let mut w = SnapWriter::new();
    Header {
        schema: 0,
        config_fp: 0,
        kernel_fp: 0,
        cycle: 0,
        payload_len: 0,
        checksum: 0,
    }
    .write(&mut w);
    w
}

/// Seal a payload written after [`writer`]'s reserved header into a
/// complete checkpoint file image, patching the header in place.
pub fn seal(fp: Fingerprints, cycle: Cycle, w: SnapWriter) -> Vec<u8> {
    let mut image = w.into_bytes();
    let payload = &image[HEADER_BYTES..];
    let mut h = SnapWriter::new();
    Header {
        schema: SCHEMA_VERSION,
        config_fp: fp.config,
        kernel_fp: fp.kernel,
        cycle,
        payload_len: payload.len() as u64,
        checksum: checksum64(payload),
    }
    .write(&mut h);
    image[..HEADER_BYTES].copy_from_slice(&h.into_bytes());
    image
}

/// Write `bytes` to `path` atomically: a dotted temp file in the same
/// directory, flushed, then renamed over the target. A reader (or a resume
/// after a kill mid-save) only ever sees the previous complete file or the
/// new complete file, never a torn one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "checkpoint path has no file name",
        )
    })?;
    let tmp_name = format!(".{}.tmp{}", name.to_string_lossy(), std::process::id());
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    fs::write(&tmp, bytes)?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Read a checkpoint image from disk; a failure is a typed `read` error.
pub fn read(path: &Path) -> Result<Vec<u8>, SimError> {
    fs::read(path).map_err(|e| bad("read", format!("{}: {e}", path.display())))
}

/// Resolve where a run should save (or look for) its checkpoint: a
/// directory gets one file per (workload, config) cell —
/// `<dir>/<workload>-<config_fp>.ndpckpt`, the sweep/`--resume-dir` form,
/// where matrix runs execute each workload under many configurations —
/// while anything else is used verbatim (the single-run form).
pub fn file_for(path: &Path, workload: &str, config_fp: u64) -> PathBuf {
    if path.is_dir() {
        path.join(format!("{workload}-{config_fp:016x}.{EXTENSION}"))
    } else {
        path.to_path_buf()
    }
}

/// Resolve a resume source (`RunOptions::resume`) for one (workload,
/// config) cell: `None` when there is none, or when it names a directory
/// with no checkpoint for this cell (that run starts fresh — the sweep
/// form resumes whichever cells were interrupted). The config is
/// fingerprinted only in the directory form.
pub fn resume_path(path: Option<&Path>, workload: &str, cfg: &SystemConfig) -> Option<PathBuf> {
    let path = path?;
    if path.is_dir() {
        let f = file_for(path, workload, config_fingerprint(cfg));
        f.exists().then_some(f)
    } else {
        Some(path.to_path_buf())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_and_kernel() -> (SystemConfig, CompiledKernel) {
        let p = ndp_workloads::Workload::Vadd.build(&ndp_workloads::Scale { warps: 4, iters: 1 });
        let k = ndp_compiler::compile(&p, &ndp_compiler::CompilerConfig::default());
        (SystemConfig::baseline(), k)
    }

    fn sealed(fp: Fingerprints, cycle: Cycle, payload: &[u8]) -> Vec<u8> {
        let mut w = writer();
        for &b in payload {
            w.u8(b);
        }
        seal(fp, cycle, w)
    }

    #[test]
    fn seal_then_open_round_trips() {
        let (cfg, k) = cfg_and_kernel();
        let fp = Fingerprints::of(&cfg, &k);
        let bytes = sealed(fp, 512, &[1, 2, 3, 4]);
        assert_eq!(bytes.len(), HEADER_BYTES + 4);
        let (h, payload) = open(&bytes, fp).expect("valid checkpoint");
        assert_eq!(h.cycle, 512);
        assert_eq!(payload, &[1, 2, 3, 4]);
    }

    #[test]
    fn open_rejects_garbage_and_mismatches() {
        let (cfg, k) = cfg_and_kernel();
        let fp = Fingerprints::of(&cfg, &k);
        let check = |bytes: &[u8], want: &str| {
            match open(bytes, fp) {
                Err(SimError::BadCheckpoint { check, .. }) => assert_eq!(check, want),
                other => panic!("expected BadCheckpoint[{want}], got {other:?}"),
            };
        };
        check(b"not a checkpoint at all....", "magic");
        check(&[], "magic");

        let good = sealed(fp, 0, &[9; 32]);
        let mut v = good.clone();
        v[8] ^= 0xff; // schema field
        check(&v, "schema");
        let mut v = good.clone();
        v[12] ^= 0x01; // config fingerprint
        check(&v, "config");
        let mut v = good.clone();
        v[20] ^= 0x01; // kernel fingerprint
        check(&v, "kernel");
        let mut v = good.clone();
        v.truncate(good.len() - 1); // truncated payload
        check(&v, "length");
        let mut v = good.clone();
        v.push(0); // trailing junk
        check(&v, "length");
        let mut v = good.clone();
        *v.last_mut().unwrap() ^= 0x80; // payload corruption
        check(&v, "checksum");

        // A different config is rejected by fingerprint.
        let mut other = cfg.clone();
        other.gpu.num_sms += 1;
        match open(&good, Fingerprints::of(&other, &k)) {
            Err(SimError::BadCheckpoint { check, .. }) => assert_eq!(check, "config"),
            other => panic!("expected BadCheckpoint[config], got {other:?}"),
        }
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("ndpckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("a.ndpckpt");
        write_atomic(&target, b"first").unwrap();
        write_atomic(&target, b"second").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"second");
        // No temp droppings left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_paths_resolve_per_workload() {
        let dir = std::env::temp_dir().join(format!("ndpckpt-dir-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(
            file_for(&dir, "VADD", 0xabcd),
            dir.join("VADD-000000000000abcd.ndpckpt"),
            "directory form is per-(workload, config) cell"
        );
        let file = dir.join("single.ndpckpt");
        assert_eq!(
            file_for(&file, "VADD", 0xabcd),
            file,
            "file form is verbatim"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

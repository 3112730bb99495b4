//! Sketch persistence.
//!
//! Signatures are the expensive phase — one full pass over the data — while
//! candidate generation is cheap and parameter-dependent. Persisting the
//! sketch lets a deployment compute it once (or keep it updated with
//! [`MhBuilder`](crate::builder::MhBuilder)) and re-mine at many thresholds
//! or band configurations without touching the table again.
//!
//! Formats (little-endian):
//!
//! * `.sfmh` — `b"SFM2"`, `k: u32`, `m: u32`, then `k·m` `u64` values
//!   (row-major), then a CRC-32 trailer, for [`SignatureMatrix`].
//! * `.sfkm` — `b"SFK2"`, `k: u32`, `m: u32`, then per column
//!   `count: u32`, `len: u32`, `len` ascending `u64` values, then a CRC-32
//!   trailer, for [`BottomKSignatures`].
//!
//! The trailing CRC-32 (see [`sfa_matrix::crc32`]) covers everything after
//! the magic and is verified before any value is trusted, so bit flips and
//! truncation are rejected up front. Readers also still accept the legacy
//! checksum-less v1 layouts (magics `b"SFMH"`/`b"SFKM"`, no trailer), which
//! [`write_signatures_v1`]/[`write_bottom_k_v1`] keep producible.
//!
//! Byte-exact layouts and the validation rules readers enforce are
//! specified in `docs/FORMATS.md` at the repository root.
//!
//! The [`encode_signatures`]/[`decode_signatures`] (and `_bottom_k`) pairs
//! expose the same formats as in-memory byte images, so callers that need
//! atomic or fault-injected IO (the signature cache, checkpoints) can route
//! the bytes through their own writer.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use sfa_matrix::crc32::crc32;
use sfa_matrix::{MatrixError, Result};

use crate::kmh::BottomKSignatures;
use crate::signature::SignatureMatrix;

const MH_MAGIC: [u8; 4] = *b"SFMH";
const MH_MAGIC_V2: [u8; 4] = *b"SFM2";
const KMH_MAGIC: [u8; 4] = *b"SFKM";
const KMH_MAGIC_V2: [u8; 4] = *b"SFK2";

fn write_u32(w: &mut impl Write, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

fn write_u64(w: &mut impl Write, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes())?;
    Ok(())
}

/// A bounds-checked cursor over an in-memory file image; every error
/// carries the byte offset where the data ran out or went wrong.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    const fn new(bytes: &'a [u8], pos: usize) -> Self {
        Self { bytes, pos }
    }

    /// Current byte offset (for error messages).
    const fn offset(&self) -> u64 {
        self.pos as u64
    }

    /// Bytes between the cursor and the end of the parseable region.
    const fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(MatrixError::Parse {
                at: self.offset(),
                detail: format!(
                    "file truncated: needed {n} bytes, {} left",
                    self.remaining()
                ),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn read_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn read_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Checks a sketch image's magic against the v1/v2 constants and (for v2)
/// verifies the CRC-32 trailer, before any value is trusted.
fn check_sketch(bytes: &[u8], magic_v1: [u8; 4], magic_v2: [u8; 4], what: &str) -> Result<()> {
    if bytes.len() < 4 {
        return Err(MatrixError::Parse {
            at: bytes.len() as u64,
            detail: format!("file too short for a magic (not an {what} sketch)"),
        });
    }
    let v2 = match &bytes[0..4] {
        m if *m == magic_v1 => false,
        m if *m == magic_v2 => true,
        _ => {
            return Err(MatrixError::Parse {
                at: 0,
                detail: format!("bad magic (not an {what} sketch)"),
            })
        }
    };
    if v2 {
        if bytes.len() < 8 {
            return Err(MatrixError::Parse {
                at: bytes.len() as u64,
                detail: "v2 file shorter than magic + checksum trailer".into(),
            });
        }
        let body_end = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[body_end..].try_into().expect("4 bytes"));
        let computed = crc32(&bytes[4..body_end]);
        if stored != computed {
            return Err(MatrixError::Checksum { stored, computed });
        }
    }
    Ok(())
}

/// Assembles a v2 image: magic, body, CRC-32 trailer over the body.
fn seal_v2(magic: [u8; 4], body: &[u8]) -> Vec<u8> {
    let crc = crc32(body);
    let mut out = Vec::with_capacity(4 + body.len() + 4);
    out.extend_from_slice(&magic);
    out.extend_from_slice(body);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The payload region of a loaded sketch image: everything after the magic,
/// minus the CRC trailer when the magic says v2.
fn payload(bytes: &[u8], magic_v2: [u8; 4]) -> Cursor<'_> {
    let end = if bytes[0..4] == magic_v2 {
        bytes.len() - 4
    } else {
        bytes.len()
    };
    Cursor::new(&bytes[..end], 4)
}

/// Encodes a [`SignatureMatrix`] as a checksummed v2 `.sfmh` byte image —
/// the exact bytes [`write_signatures`] puts on disk.
#[must_use]
pub fn encode_signatures(sigs: &SignatureMatrix) -> Vec<u8> {
    let mut body = Vec::new();
    write_signatures_body(&mut body, sigs).expect("writing to a Vec cannot fail");
    seal_v2(MH_MAGIC_V2, &body)
}

/// Writes a [`SignatureMatrix`] to `path` in the checksummed v2 format.
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_signatures(sigs: &SignatureMatrix, path: &Path) -> Result<()> {
    std::fs::write(path, encode_signatures(sigs))?;
    Ok(())
}

/// Writes a [`SignatureMatrix`] in the legacy v1 format (no checksum), for
/// interoperating with pre-v2 readers and for compatibility tests.
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_signatures_v1(sigs: &SignatureMatrix, path: &Path) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&MH_MAGIC)?;
    write_signatures_body(&mut w, sigs)?;
    w.flush()?;
    Ok(())
}

fn write_signatures_body(w: &mut impl Write, sigs: &SignatureMatrix) -> Result<()> {
    write_u32(w, u32::try_from(sigs.k()).expect("k fits u32"))?;
    write_u32(w, u32::try_from(sigs.m()).expect("m fits u32"))?;
    for l in 0..sigs.k() {
        for &v in sigs.row(l) {
            write_u64(w, v)?;
        }
    }
    Ok(())
}

/// Reads a [`SignatureMatrix`] from `path` (v1 `SFMH` or checksummed v2
/// `SFM2`).
///
/// # Errors
///
/// Fails on IO errors, a malformed header, a payload whose size disagrees
/// with the declared `k·m`, or (v2) a checksum mismatch.
pub fn read_signatures(path: &Path) -> Result<SignatureMatrix> {
    decode_signatures(&std::fs::read(path)?)
}

/// Decodes a [`SignatureMatrix`] from a v1/v2 byte image, with the same
/// validation as [`read_signatures`].
///
/// # Errors
///
/// As [`read_signatures`], minus the IO.
pub fn decode_signatures(bytes: &[u8]) -> Result<SignatureMatrix> {
    check_sketch(bytes, MH_MAGIC, MH_MAGIC_V2, "SFMH/SFM2")?;
    let mut c = payload(bytes, MH_MAGIC_V2);
    let k = c.read_u32()? as usize;
    let m = c.read_u32()? as usize;
    // Validate the declared size against the actual payload *before*
    // allocating: a corrupt header must not drive a huge reservation.
    let declared = (k as u128) * (m as u128) * 8;
    if declared != c.remaining() as u128 {
        return Err(MatrixError::Parse {
            at: c.offset(),
            detail: format!(
                "header declares k={k}, m={m} ({declared} payload bytes) but {} are present",
                c.remaining()
            ),
        });
    }
    let mut values = Vec::with_capacity(k * m);
    for _ in 0..k * m {
        values.push(c.read_u64()?);
    }
    Ok(SignatureMatrix::from_values(k, m, values))
}

/// Encodes [`BottomKSignatures`] as a checksummed v2 `.sfkm` byte image —
/// the exact bytes [`write_bottom_k`] puts on disk.
#[must_use]
pub fn encode_bottom_k(sigs: &BottomKSignatures) -> Vec<u8> {
    let mut body = Vec::new();
    write_bottom_k_body(&mut body, sigs).expect("writing to a Vec cannot fail");
    seal_v2(KMH_MAGIC_V2, &body)
}

/// Writes [`BottomKSignatures`] to `path` in the checksummed v2 format.
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_bottom_k(sigs: &BottomKSignatures, path: &Path) -> Result<()> {
    std::fs::write(path, encode_bottom_k(sigs))?;
    Ok(())
}

/// Writes [`BottomKSignatures`] in the legacy v1 format (no checksum), for
/// interoperating with pre-v2 readers and for compatibility tests.
///
/// # Errors
///
/// Propagates IO errors.
pub fn write_bottom_k_v1(sigs: &BottomKSignatures, path: &Path) -> Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&KMH_MAGIC)?;
    write_bottom_k_body(&mut w, sigs)?;
    w.flush()?;
    Ok(())
}

fn write_bottom_k_body(w: &mut impl Write, sigs: &BottomKSignatures) -> Result<()> {
    write_u32(w, u32::try_from(sigs.k()).expect("k fits u32"))?;
    write_u32(w, u32::try_from(sigs.m()).expect("m fits u32"))?;
    for j in 0..sigs.m() as u32 {
        write_u32(w, sigs.column_count(j))?;
        let sig = sigs.signature(j);
        write_u32(w, u32::try_from(sig.len()).expect("len fits u32"))?;
        for &v in sig {
            write_u64(w, v)?;
        }
    }
    Ok(())
}

/// Reads [`BottomKSignatures`] from `path` (v1 `SFKM` or checksummed v2
/// `SFK2`).
///
/// # Errors
///
/// Fails on IO errors, malformed headers, invalid sketch contents
/// (signature longer than `k`, non-ascending values, size mismatches —
/// every error carries the byte offset), or (v2) a checksum mismatch.
pub fn read_bottom_k(path: &Path) -> Result<BottomKSignatures> {
    decode_bottom_k(&std::fs::read(path)?)
}

/// Decodes [`BottomKSignatures`] from a v1/v2 byte image, with the same
/// validation as [`read_bottom_k`].
///
/// # Errors
///
/// As [`read_bottom_k`], minus the IO.
pub fn decode_bottom_k(bytes: &[u8]) -> Result<BottomKSignatures> {
    check_sketch(bytes, KMH_MAGIC, KMH_MAGIC_V2, "SFKM/SFK2")?;
    let mut c = payload(bytes, KMH_MAGIC_V2);
    let k = c.read_u32()? as usize;
    let m = c.read_u32()? as usize;
    // Each column record is at least 8 bytes; bound the declared column
    // count by the payload before reserving per-column vectors.
    if (m as u64) * 8 > c.remaining() as u64 {
        return Err(MatrixError::Parse {
            at: c.offset(),
            detail: format!(
                "header declares {m} columns but only {} payload bytes remain",
                c.remaining()
            ),
        });
    }
    let mut sigs = Vec::with_capacity(m);
    let mut counts = Vec::with_capacity(m);
    for j in 0..m {
        counts.push(c.read_u32()?);
        let len_offset = c.offset();
        let len = c.read_u32()? as usize;
        if len > k {
            return Err(MatrixError::Parse {
                at: len_offset,
                detail: format!("column {j}: signature length {len} exceeds k = {k}"),
            });
        }
        if (len as u64) * 8 > c.remaining() as u64 {
            return Err(MatrixError::Parse {
                at: len_offset,
                detail: format!(
                    "column {j}: signature of {len} values needs {} bytes, {} left",
                    len * 8,
                    c.remaining()
                ),
            });
        }
        let mut sig = Vec::with_capacity(len);
        let mut prev: Option<u64> = None;
        for _ in 0..len {
            let value_offset = c.offset();
            let v = c.read_u64()?;
            if prev.is_some_and(|p| p >= v) {
                return Err(MatrixError::Parse {
                    at: value_offset,
                    detail: format!("column {j}: signature not strictly ascending"),
                });
            }
            prev = Some(v);
            sig.push(v);
        }
        sigs.push(sig);
    }
    if c.remaining() > 0 {
        return Err(MatrixError::Parse {
            at: c.offset(),
            detail: format!("{} trailing bytes after the last column", c.remaining()),
        });
    }
    Ok(BottomKSignatures::from_parts(k, sigs, counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compute_bottom_k, compute_signatures};
    use sfa_matrix::{MemoryRowStream, RowMajorMatrix};

    fn matrix() -> RowMajorMatrix {
        RowMajorMatrix::from_rows(
            4,
            vec![vec![0, 1], vec![1, 2], vec![0, 3], vec![2, 3], vec![]],
        )
        .unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sfa_persist_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn signature_matrix_roundtrips() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        let p = tmp("sigs.sfmh");
        write_signatures(&sigs, &p).unwrap();
        assert_eq!(&std::fs::read(&p).unwrap()[0..4], b"SFM2");
        assert_eq!(read_signatures(&p).unwrap(), sigs);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bottom_k_roundtrips() {
        let m = matrix();
        let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 3, 5).unwrap();
        let p = tmp("sigs.sfkm");
        write_bottom_k(&sigs, &p).unwrap();
        assert_eq!(&std::fs::read(&p).unwrap()[0..4], b"SFK2");
        assert_eq!(read_bottom_k(&p).unwrap(), sigs);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn v1_sketches_still_load() {
        let m = matrix();
        let mh = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        let kmh = compute_bottom_k(&mut MemoryRowStream::new(&m), 3, 5).unwrap();
        let pm = tmp("legacy.sfmh");
        let pk = tmp("legacy.sfkm");
        write_signatures_v1(&mh, &pm).unwrap();
        write_bottom_k_v1(&kmh, &pk).unwrap();
        assert_eq!(&std::fs::read(&pm).unwrap()[0..4], b"SFMH");
        assert_eq!(&std::fs::read(&pk).unwrap()[0..4], b"SFKM");
        assert_eq!(read_signatures(&pm).unwrap(), mh);
        assert_eq!(read_bottom_k(&pk).unwrap(), kmh);
        std::fs::remove_file(&pm).ok();
        std::fs::remove_file(&pk).ok();
    }

    #[test]
    fn wrong_magic_rejected_both_ways() {
        let m = matrix();
        let mh = compute_signatures(&mut MemoryRowStream::new(&m), 4, 1).unwrap();
        let kmh = compute_bottom_k(&mut MemoryRowStream::new(&m), 4, 1).unwrap();
        let pm = tmp("cross.sfmh");
        let pk = tmp("cross.sfkm");
        write_signatures(&mh, &pm).unwrap();
        write_bottom_k(&kmh, &pk).unwrap();
        assert!(read_signatures(&pk).is_err());
        assert!(read_bottom_k(&pm).is_err());
        std::fs::remove_file(&pm).ok();
        std::fs::remove_file(&pk).ok();
    }

    #[test]
    fn truncated_file_is_an_error() {
        let m = matrix();
        let sigs = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        let p = tmp("truncated.sfmh");
        write_signatures(&sigs, &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() / 2]).unwrap();
        assert!(read_signatures(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bit_flip_is_a_checksum_error() {
        let m = matrix();
        let mh = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        let kmh = compute_bottom_k(&mut MemoryRowStream::new(&m), 3, 5).unwrap();
        let pm = tmp("flip.sfmh");
        let pk = tmp("flip.sfkm");
        write_signatures(&mh, &pm).unwrap();
        write_bottom_k(&kmh, &pk).unwrap();
        for p in [&pm, &pk] {
            let mut bytes = std::fs::read(p).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            std::fs::write(p, &bytes).unwrap();
        }
        assert!(matches!(
            read_signatures(&pm),
            Err(MatrixError::Checksum { .. })
        ));
        assert!(matches!(
            read_bottom_k(&pk),
            Err(MatrixError::Checksum { .. })
        ));
        std::fs::remove_file(&pm).ok();
        std::fs::remove_file(&pk).ok();
    }

    #[test]
    fn v1_size_mismatch_is_rejected_before_allocation() {
        // A hostile v1 header declaring a huge k·m must be rejected from
        // the payload size alone, without attempting the allocation.
        let p = tmp("huge.sfmh");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SFMH");
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            read_signatures(&p),
            Err(MatrixError::Parse { .. })
        ));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn encode_matches_writer_bytes_and_round_trips() {
        let m = matrix();
        let mh = compute_signatures(&mut MemoryRowStream::new(&m), 8, 5).unwrap();
        let kmh = compute_bottom_k(&mut MemoryRowStream::new(&m), 3, 5).unwrap();
        let pm = tmp("enc.sfmh");
        let pk = tmp("enc.sfkm");
        write_signatures(&mh, &pm).unwrap();
        write_bottom_k(&kmh, &pk).unwrap();
        assert_eq!(encode_signatures(&mh), std::fs::read(&pm).unwrap());
        assert_eq!(encode_bottom_k(&kmh), std::fs::read(&pk).unwrap());
        assert_eq!(decode_signatures(&encode_signatures(&mh)).unwrap(), mh);
        assert_eq!(decode_bottom_k(&encode_bottom_k(&kmh)).unwrap(), kmh);
        std::fs::remove_file(&pm).ok();
        std::fs::remove_file(&pk).ok();
    }

    #[test]
    fn reloaded_sketch_mines_identically() {
        let m = matrix();
        let sigs = compute_bottom_k(&mut MemoryRowStream::new(&m), 4, 9).unwrap();
        let p = tmp("mine.sfkm");
        write_bottom_k(&sigs, &p).unwrap();
        let loaded = read_bottom_k(&p).unwrap();
        let pool = sfa_par::ThreadPool::new(1);
        let mine = |s: &BottomKSignatures| {
            let all = sfa_hash::PairShard::all();
            crate::hashcount::kmh_candidates(s, 0.4, 0.2, all, usize::MAX, &pool).0
        };
        assert_eq!(mine(&sigs), mine(&loaded));
        std::fs::remove_file(&p).ok();
    }
}

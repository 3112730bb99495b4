//! The checksummed record codec behind every small file the miner
//! persists whole: sketches (`.sfmh`/`.sfkm`), checkpoints (`.sfcp`),
//! spills (`.sfsp`) and the run manifest (`.sfmf`).
//!
//! A record is a 4-byte magic, a body of little-endian `u32`/`u64` fields
//! written back to back, and a CRC-32 trailer over everything after the
//! magic (see `docs/FORMATS.md`, "Checksummed records"). [`Writer`] builds
//! one in memory and [`Writer::seal`] appends the trailer; [`open`] checks
//! length, magic and trailer before a single field is read, and hands back
//! a bounds-checked [`Cursor`] over the body. Every read error is a
//! [`MatrixError::Parse`] carrying the byte offset where it happened, so a
//! reader never panics and never trusts a size it has not checked.
//!
//! # Examples
//!
//! ```
//! use sfa_matrix::record::{open, Writer};
//!
//! let mut w = Writer::new(*b"DEMO");
//! w.u32(7);
//! w.u64(1 << 40);
//! let bytes = w.seal();
//!
//! let mut c = open(&bytes, *b"DEMO").unwrap();
//! assert_eq!(c.u32().unwrap(), 7);
//! assert_eq!(c.u64().unwrap(), 1 << 40);
//! c.finish().unwrap();
//! ```

use crate::crc32::crc32;
use crate::error::{MatrixError, Result};

/// Builds a record: the magic, then the fields in call order.
#[derive(Debug, Clone)]
pub struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    /// A record starting with `magic`.
    #[must_use]
    pub fn new(magic: [u8; 4]) -> Self {
        Self {
            bytes: magic.to_vec(),
        }
    }

    /// Appends a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends the CRC-32 trailer over everything after the magic and
    /// returns the finished image.
    #[must_use]
    pub fn seal(mut self) -> Vec<u8> {
        let crc = crc32(&self.bytes[4..]);
        self.u32(crc);
        self.bytes
    }
}

/// A bounds-checked reader over a record body.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor over `bytes[pos..]`; offsets in errors count from the start
    /// of `bytes`. [`open`] is the usual way in; this constructor serves
    /// layouts without a trailer (the v1 sketches).
    #[must_use]
    pub const fn new(bytes: &'a [u8], pos: usize) -> Self {
        Self { bytes, pos }
    }

    /// The byte offset of the next field.
    #[must_use]
    pub const fn offset(&self) -> u64 {
        self.pos as u64
    }

    /// Bytes left to read.
    #[must_use]
    pub const fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        if self.remaining() < N {
            return Err(MatrixError::Parse {
                at: self.offset(),
                detail: format!(
                    "record truncated: needed {N} bytes, {} left",
                    self.remaining()
                ),
            });
        }
        let field = self.bytes[self.pos..self.pos + N]
            .try_into()
            .expect("length checked");
        self.pos += N;
        Ok(field)
    }

    /// Reads a `u32` (little-endian).
    ///
    /// # Errors
    ///
    /// [`MatrixError::Parse`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32> {
        self.take().map(u32::from_le_bytes)
    }

    /// Reads a `u64` (little-endian).
    ///
    /// # Errors
    ///
    /// [`MatrixError::Parse`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64> {
        self.take().map(u64::from_le_bytes)
    }

    /// Checks that the body has been read to its end.
    ///
    /// # Errors
    ///
    /// [`MatrixError::Parse`] naming the trailing byte count.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() > 0 {
            return Err(MatrixError::Parse {
                at: self.offset(),
                detail: format!("{} trailing bytes in record", self.remaining()),
            });
        }
        Ok(())
    }
}

/// Checks a sealed record's length, magic and CRC-32 trailer, and returns
/// a cursor over its body (after the magic, before the trailer).
///
/// # Errors
///
/// [`MatrixError::Parse`] for a file shorter than magic plus trailer or a
/// wrong magic; [`MatrixError::Checksum`] when the trailer disagrees with
/// the bytes.
pub fn open(bytes: &[u8], magic: [u8; 4]) -> Result<Cursor<'_>> {
    if bytes.len() < 8 {
        return Err(MatrixError::Parse {
            at: bytes.len() as u64,
            detail: "record shorter than magic + checksum trailer".into(),
        });
    }
    if bytes[0..4] != magic {
        return Err(MatrixError::Parse {
            at: 0,
            detail: format!("bad magic (expected {})", String::from_utf8_lossy(&magic)),
        });
    }
    let end = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[end..].try_into().expect("4 bytes"));
    let computed = crc32(&bytes[4..end]);
    if stored != computed {
        return Err(MatrixError::Checksum { stored, computed });
    }
    Ok(Cursor::new(&bytes[..end], 4))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = Writer::new(*b"TEST");
        w.u32(0xAABB_CCDD);
        w.u64(42);
        w.seal()
    }

    #[test]
    fn layout_is_magic_fields_trailer() {
        let bytes = sample();
        assert_eq!(&bytes[..4], b"TEST");
        assert_eq!(&bytes[4..8], &0xAABB_CCDDu32.to_le_bytes());
        assert_eq!(&bytes[8..16], &42u64.to_le_bytes());
        assert_eq!(&bytes[16..], &crc32(&bytes[4..16]).to_le_bytes());
    }

    #[test]
    fn round_trips_and_finishes() {
        let bytes = sample();
        let mut c = open(&bytes, *b"TEST").unwrap();
        assert_eq!(c.offset(), 4);
        assert_eq!(c.u32().unwrap(), 0xAABB_CCDD);
        assert_eq!(c.remaining(), 8);
        assert_eq!(c.u64().unwrap(), 42);
        c.finish().unwrap();
    }

    #[test]
    fn reads_past_the_body_are_parse_errors_with_offsets() {
        let bytes = sample();
        let mut c = open(&bytes, *b"TEST").unwrap();
        c.u32().unwrap();
        assert_eq!(c.u32().unwrap(), 42);
        assert!(matches!(c.u64(), Err(MatrixError::Parse { at: 12, .. })));
        // A failed read consumes nothing.
        assert_eq!(c.u32().unwrap(), 0);
        let c = open(&bytes, *b"TEST").unwrap();
        assert!(matches!(c.finish(), Err(MatrixError::Parse { at: 4, .. })));
    }

    #[test]
    fn every_mutation_and_truncation_is_rejected() {
        let bytes = sample();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(open(&bad, *b"TEST").is_err(), "flip at byte {i}");
        }
        for cut in 0..bytes.len() {
            assert!(open(&bytes[..cut], *b"TEST").is_err(), "cut at {cut}");
        }
        assert!(matches!(
            open(&bytes, *b"NOPE"),
            Err(MatrixError::Parse { at: 0, .. })
        ));
    }

    #[test]
    fn a_flipped_body_byte_is_a_checksum_error() {
        let mut bytes = sample();
        bytes[6] ^= 0x80;
        assert!(matches!(
            open(&bytes, *b"TEST"),
            Err(MatrixError::Checksum { .. })
        ));
    }
}

//! Hand-rolled binary snapshot encoding for checkpoint/resume.
//!
//! The checkpoint subsystem (DESIGN.md §9) serializes the complete engine
//! state — caches, directories, event queue, RNG streams, fault-plan
//! cursors, statistics — to a versioned on-disk format. No external
//! serialization crates are used; every stateful type writes its fields in
//! declaration order through [`SnapWriter`] and reads them back through
//! [`SnapReader`]. The container format is:
//!
//! ```text
//! [magic: u64][version: u32][payload bytes][checksum: u64]
//! ```
//!
//! with the checksum an FNV-1a-64 over everything before it (magic and
//! version included). [`SnapReader::open`] verifies length, checksum,
//! magic, and version before any field is decoded, so a truncated or
//! corrupted checkpoint fails with a structured [`SnapError`] instead of
//! deserializing garbage. All integers are little-endian.

use std::fmt;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a-64 over a byte slice (the checkpoint checksum).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The container does not start with the expected magic number.
    BadMagic { expected: u64, found: u64 },
    /// The container version is not the one this build reads.
    BadVersion { expected: u32, found: u32 },
    /// The checksum over the container does not match its trailer, or a
    /// decoded field failed a structural validity check (`context` names it).
    Corrupt { context: &'static str },
    /// The container ended before the field being decoded.
    Truncated { context: &'static str },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic { expected, found } => {
                write!(
                    f,
                    "bad magic: expected {expected:#018x}, found {found:#018x}"
                )
            }
            SnapError::BadVersion { expected, found } => {
                write!(f, "unsupported version: expected {expected}, found {found}")
            }
            SnapError::Corrupt { context } => write!(f, "corrupt snapshot: {context}"),
            SnapError::Truncated { context } => write!(f, "truncated snapshot at {context}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only encoder. Construct with [`SnapWriter::new`], write fields in
/// declaration order, and seal the container with [`SnapWriter::finish`].
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Starts a container with the given magic number and format version.
    pub fn new(magic: u64, version: u32) -> Self {
        let mut w = SnapWriter {
            buf: Vec::with_capacity(4096),
        };
        w.u64(magic);
        w.u32(version);
        w
    }

    /// Appends the checksum trailer and returns the finished container.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }

    /// Bytes written so far (header included, checksum excluded).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing beyond the header has been written. Present for
    /// `len`/`is_empty` symmetry; a fresh writer already holds its header.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` travels as `u64` (checkpoints must be portable across word
    /// sizes).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// `f64` travels as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Sequential decoder over a finished container.
#[derive(Debug)]
pub struct SnapReader<'a> {
    /// Payload region (header included, checksum trailer excluded).
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Verifies length, checksum, magic, and version, then positions the
    /// cursor at the first payload field.
    pub fn open(bytes: &'a [u8], magic: u64, version: u32) -> Result<Self, SnapError> {
        // Header (8 + 4) + checksum trailer (8).
        if bytes.len() < 20 {
            return Err(SnapError::Truncated {
                context: "container header",
            });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        if fnv1a(body) != stored {
            return Err(SnapError::Corrupt {
                context: "container checksum",
            });
        }
        let mut r = SnapReader { buf: body, pos: 0 };
        let found_magic = r.u64("magic")?;
        if found_magic != magic {
            return Err(SnapError::BadMagic {
                expected: magic,
                found: found_magic,
            });
        }
        let found_version = r.u32("version")?;
        if found_version != version {
            return Err(SnapError::BadVersion {
                expected: version,
                found: found_version,
            });
        }
        Ok(r)
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapError::Truncated { context })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub fn u8(&mut self, context: &'static str) -> Result<u8, SnapError> {
        Ok(self.take(1, context)?[0])
    }

    pub fn bool(&mut self, context: &'static str) -> Result<bool, SnapError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt { context }),
        }
    }

    pub fn u16(&mut self, context: &'static str) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(
            self.take(2, context)?.try_into().expect("2 bytes"),
        ))
    }

    pub fn u32(&mut self, context: &'static str) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    pub fn u64(&mut self, context: &'static str) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    pub fn u128(&mut self, context: &'static str) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(
            self.take(16, context)?.try_into().expect("16 bytes"),
        ))
    }

    pub fn i64(&mut self, context: &'static str) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    pub fn usize(&mut self, context: &'static str) -> Result<usize, SnapError> {
        usize::try_from(self.u64(context)?).map_err(|_| SnapError::Corrupt { context })
    }

    /// Reads an item count, rejecting it when that many items of at least
    /// `min_item_bytes` each cannot fit in the bytes left. A decoder may
    /// size a buffer from the count it returns: a sound checksum does not
    /// make a length trustworthy.
    pub fn count(
        &mut self,
        context: &'static str,
        min_item_bytes: usize,
    ) -> Result<usize, SnapError> {
        let n = self.usize(context)?;
        if n.saturating_mul(min_item_bytes) > self.buf.len() - self.pos {
            return Err(SnapError::Corrupt { context });
        }
        Ok(n)
    }

    pub fn f64(&mut self, context: &'static str) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    pub fn bytes(&mut self, context: &'static str) -> Result<&'a [u8], SnapError> {
        let n = self.usize(context)?;
        self.take(n, context)
    }

    pub fn str(&mut self, context: &'static str) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes(context)?).map_err(|_| SnapError::Corrupt { context })
    }

    /// Asserts every payload byte was consumed — a length drift between
    /// writer and reader is a format bug, not a tolerable leftover.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapError::Corrupt {
                context: "trailing payload bytes",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: u64 = 0x5a44_5356_0001_cafe;

    #[test]
    fn round_trip_every_field_kind() {
        let mut w = SnapWriter::new(MAGIC, 3);
        w.u8(7);
        w.bool(true);
        w.bool(false);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.u128((1u128 << 100) | 17);
        w.i64(-42);
        w.usize(123_456);
        w.f64(-0.125);
        w.bytes(&[1, 2, 3]);
        w.str("torture");
        let buf = w.finish();

        let mut r = SnapReader::open(&buf, MAGIC, 3).expect("opens");
        assert_eq!(r.u8("a").unwrap(), 7);
        assert!(r.bool("b").unwrap());
        assert!(!r.bool("c").unwrap());
        assert_eq!(r.u16("d").unwrap(), 0xbeef);
        assert_eq!(r.u32("e").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("f").unwrap(), u64::MAX - 1);
        assert_eq!(r.u128("g").unwrap(), (1u128 << 100) | 17);
        assert_eq!(r.i64("h").unwrap(), -42);
        assert_eq!(r.usize("i").unwrap(), 123_456);
        assert_eq!(r.f64("j").unwrap(), -0.125);
        assert_eq!(r.bytes("k").unwrap(), &[1, 2, 3]);
        assert_eq!(r.str("l").unwrap(), "torture");
        r.expect_end().unwrap();
    }

    #[test]
    fn wrong_magic_version_and_bitflips_are_rejected() {
        let mut w = SnapWriter::new(MAGIC, 1);
        w.u64(99);
        let buf = w.finish();
        assert!(matches!(
            SnapReader::open(&buf, MAGIC ^ 1, 1),
            Err(SnapError::BadMagic { .. })
        ));
        assert!(matches!(
            SnapReader::open(&buf, MAGIC, 2),
            Err(SnapError::BadVersion { .. })
        ));
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            // Any single bit flip must fail to open (checksum, magic, or
            // version catches it — never a silent success).
            assert!(
                SnapReader::open(&bad, MAGIC, 1).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_structured_errors() {
        let mut w = SnapWriter::new(MAGIC, 1);
        w.u64(5);
        w.u64(6);
        let buf = w.finish();
        assert!(matches!(
            SnapReader::open(&buf[..10], MAGIC, 1),
            Err(SnapError::Truncated { .. })
        ));
        let mut r = SnapReader::open(&buf, MAGIC, 1).unwrap();
        assert_eq!(r.u64("x").unwrap(), 5);
        assert!(matches!(r.expect_end(), Err(SnapError::Corrupt { .. })));
        assert_eq!(r.u64("y").unwrap(), 6);
        r.expect_end().unwrap();
        assert!(matches!(r.u64("z"), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn count_rejects_items_that_cannot_fit() {
        let mut w = SnapWriter::new(MAGIC, 1);
        w.usize(3);
        w.u64(0);
        w.u32(0);
        let buf = w.finish();
        // 3 items of 4 bytes fit in the 12 bytes that follow; 3 of 5 do not.
        let mut r = SnapReader::open(&buf, MAGIC, 1).unwrap();
        assert_eq!(r.count("n", 4), Ok(3));
        let mut r = SnapReader::open(&buf, MAGIC, 1).unwrap();
        assert_eq!(r.count("n", 5), Err(SnapError::Corrupt { context: "n" }));
        // A byte size past usize::MAX saturates instead of wrapping.
        let mut w = SnapWriter::new(MAGIC, 1);
        w.usize(1 << 62);
        let buf = w.finish();
        let mut r = SnapReader::open(&buf, MAGIC, 1).unwrap();
        assert_eq!(
            r.count("huge", 8),
            Err(SnapError::Corrupt { context: "huge" })
        );
    }

    #[test]
    fn bool_rejects_non_canonical_bytes() {
        let mut w = SnapWriter::new(MAGIC, 1);
        w.u8(2);
        let buf = w.finish();
        let mut r = SnapReader::open(&buf, MAGIC, 1).unwrap();
        assert!(matches!(r.bool("flag"), Err(SnapError::Corrupt { .. })));
    }
}

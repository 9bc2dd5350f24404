//! Hand-rolled binary snapshot encoding for the model checker's images.
//!
//! The model checker (`zerodev_model`) keeps each state waiting in its
//! frontier as an image of the machine ([`SnapWriter::image`],
//! [`SnapReader::image`]): every stateful type writes its fields in
//! declaration order through [`SnapWriter`] and reads them back through
//! [`SnapReader`], and no external serialization crate is used. All
//! integers are little-endian. The bytes never leave the process, so an
//! image has no header and no checksum; a field that fails a decoder's
//! range check is a structured [`SnapError`], never garbage state.
//!
//! Such images are mostly zero bytes (counters, empty sharer sets, high
//! bytes of small integers), so [`pack`] stores each run of zeros as two
//! bytes and [`unpack`] restores them. The field writers and readers are
//! `#[inline]`: an image is hundreds of fields, written and read from
//! other crates.

use std::fmt;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a-64 over a byte slice (the configuration fingerprint's hash).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// A decoded field failed a structural validity check (`context`
    /// names it).
    Corrupt { context: &'static str },
    /// The image ended before the field being decoded.
    Truncated { context: &'static str },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Corrupt { context } => write!(f, "corrupt snapshot: {context}"),
            SnapError::Truncated { context } => write!(f, "truncated snapshot at {context}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only encoder. Start an image with [`SnapWriter::image`] and write
/// fields in declaration order.
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Starts an empty in-memory image. Read it back with
    /// [`SnapReader::image`].
    pub fn image() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the writer, keeping its buffer: a writer is reused for the
    /// next image this way.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` travels as `u64`, so an image's layout does not depend on
    /// the word size.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// A fieldless enum value, as its index in `all` (every variant, in a
    /// fixed order). Read it back with [`SnapReader::variant`].
    ///
    /// # Panics
    /// Panics when `v` is not in `all`.
    pub fn variant<T: PartialEq>(&mut self, all: &[T], v: &T) {
        let i = all.iter().position(|x| x == v).expect("variant listed");
        self.u8(u8::try_from(i).expect("at most 256 variants"));
    }
}

/// Sequential decoder over an image.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Reads an in-memory image ([`SnapWriter::image`]); every check is
    /// left to the field decoders.
    pub fn image(bytes: &'a [u8]) -> Self {
        SnapReader { buf: bytes, pos: 0 }
    }

    #[inline]
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

    #[inline]
    pub fn u8(&mut self, context: &'static str) -> Result<u8, SnapError> {
        Ok(self.take(1, context)?[0])
    }

    #[inline]
    pub fn bool(&mut self, context: &'static str) -> Result<bool, SnapError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt { context }),
        }
    }

    #[inline]
    pub fn u16(&mut self, context: &'static str) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(
            self.take(2, context)?.try_into().expect("2 bytes"),
        ))
    }

    #[inline]
    pub fn u32(&mut self, context: &'static str) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().expect("4 bytes"),
        ))
    }

    #[inline]
    pub fn u64(&mut self, context: &'static str) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    #[inline]
    pub fn u128(&mut self, context: &'static str) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(
            self.take(16, context)?.try_into().expect("16 bytes"),
        ))
    }

    #[inline]
    pub fn usize(&mut self, context: &'static str) -> Result<usize, SnapError> {
        usize::try_from(self.u64(context)?).map_err(|_| SnapError::Corrupt { context })
    }

    /// Reads an item count, rejecting it when that many items of at least
    /// `min_item_bytes` each cannot fit in the bytes left. A decoder may
    /// size a buffer from the count it returns.
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

    /// A [`SnapWriter::variant`] value: the `all` entry its byte indexes.
    pub fn variant<T: Copy>(&mut self, all: &[T], context: &'static str) -> Result<T, SnapError> {
        all.get(usize::from(self.u8(context)?))
            .copied()
            .ok_or(SnapError::Corrupt { context })
    }

    /// Asserts every image byte was consumed — a length drift between
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

/// Appends `src` to `out` with every run of zero bytes stored as a zero and
/// the run's length (1..=255; a longer run takes several such pairs). Other
/// bytes are copied as they are.
pub fn pack(src: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    while let Some(&b) = src.get(i) {
        if b != 0 {
            out.push(b);
            i += 1;
            continue;
        }
        // A zero run, skipped a word at a time where it can be.
        let (start, end) = (i, src.len().min(i + 255));
        while i + 8 <= end && u64::from_ne_bytes(src[i..i + 8].try_into().expect("8 bytes")) == 0 {
            i += 8;
        }
        while i < end && src[i] == 0 {
            i += 1;
        }
        out.extend_from_slice(&[0, (i - start) as u8]);
    }
}

/// Appends the bytes [`pack`] packed into `src` to `out`.
///
/// # Errors
/// A zero with no length after it is [`SnapError::Truncated`]; a zero run
/// of length 0 is [`SnapError::Corrupt`].
pub fn unpack(src: &[u8], out: &mut Vec<u8>) -> Result<(), SnapError> {
    let mut bytes = src.iter();
    while let Some(&b) = bytes.next() {
        if b != 0 {
            out.push(b);
            continue;
        }
        let run = match bytes.next() {
            None => {
                return Err(SnapError::Truncated {
                    context: "packed zero run",
                })
            }
            Some(0) => {
                return Err(SnapError::Corrupt {
                    context: "packed zero run",
                })
            }
            Some(&run) => run,
        };
        out.resize(out.len() + usize::from(run), 0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_field_kind() {
        let mut w = SnapWriter::image();
        w.u8(7);
        w.bool(true);
        w.bool(false);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.u128((1u128 << 100) | 17);
        w.usize(123_456);

        let mut r = SnapReader::image(w.as_bytes());
        assert_eq!(r.u8("a").unwrap(), 7);
        assert!(r.bool("b").unwrap());
        assert!(!r.bool("c").unwrap());
        assert_eq!(r.u16("d").unwrap(), 0xbeef);
        assert_eq!(r.u32("e").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("f").unwrap(), u64::MAX - 1);
        assert_eq!(r.u128("g").unwrap(), (1u128 << 100) | 17);
        assert_eq!(r.usize("i").unwrap(), 123_456);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_structured_errors() {
        let mut w = SnapWriter::image();
        w.u64(5);
        w.u64(6);
        let buf = w.as_bytes();
        let mut r = SnapReader::image(&buf[..10]);
        assert_eq!(r.u64("x").unwrap(), 5);
        assert!(matches!(r.u64("y"), Err(SnapError::Truncated { .. })));
        let mut r = SnapReader::image(buf);
        assert_eq!(r.u64("x").unwrap(), 5);
        assert!(matches!(r.expect_end(), Err(SnapError::Corrupt { .. })));
        assert_eq!(r.u64("y").unwrap(), 6);
        r.expect_end().unwrap();
        assert!(matches!(r.u64("z"), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn count_rejects_items_that_cannot_fit() {
        let mut w = SnapWriter::image();
        w.usize(3);
        w.u64(0);
        w.u32(0);
        // 3 items of 4 bytes fit in the 12 bytes that follow; 3 of 5 do not.
        let mut r = SnapReader::image(w.as_bytes());
        assert_eq!(r.count("n", 4), Ok(3));
        let mut r = SnapReader::image(w.as_bytes());
        assert_eq!(r.count("n", 5), Err(SnapError::Corrupt { context: "n" }));
        // A byte size past usize::MAX saturates instead of wrapping.
        let mut w = SnapWriter::image();
        w.usize(1 << 62);
        let mut r = SnapReader::image(w.as_bytes());
        assert_eq!(
            r.count("huge", 8),
            Err(SnapError::Corrupt { context: "huge" })
        );
    }

    #[test]
    fn images_have_no_header_or_checksum() {
        let mut w = SnapWriter::image();
        assert!(w.as_bytes().is_empty());
        w.u16(0xbeef);
        w.variant(&[7u8, 8, 9], &9);
        assert_eq!(w.as_bytes(), &[0xef, 0xbe, 2]);
        let mut r = SnapReader::image(w.as_bytes());
        assert_eq!(r.u16("a"), Ok(0xbeef));
        assert_eq!(r.variant(&[7u8, 8, 9], "b"), Ok(9));
        r.expect_end().unwrap();
        // A variant byte past the list is corrupt.
        let mut r = SnapReader::image(&[3]);
        assert_eq!(
            r.variant(&[7u8, 8, 9], "c"),
            Err(SnapError::Corrupt { context: "c" })
        );
        // The writer is reused from empty.
        w.clear();
        w.u8(5);
        assert_eq!(w.as_bytes(), &[5]);
    }

    #[test]
    fn pack_round_trips_zero_runs_of_every_length() {
        let zeros = |n: usize| vec![0u8; n];
        let mut inputs: Vec<Vec<u8>> = vec![Vec::new(), vec![1, 2, 3, 255], vec![9]];
        for run in [1, 255, 256, 511] {
            inputs.push(zeros(run));
            // Leading, trailing and inner runs.
            inputs.push([zeros(run), vec![7]].concat());
            inputs.push([vec![7], zeros(run)].concat());
            inputs.push([vec![1], zeros(run), vec![2], zeros(3)].concat());
        }
        for src in inputs {
            let mut packed = Vec::new();
            pack(&src, &mut packed);
            // Each zero run costs two bytes per 255 zeros; no zeros, nothing.
            let runs: usize = src
                .split(|&b| b != 0)
                .filter(|r| !r.is_empty())
                .map(|r| r.len().div_ceil(255))
                .sum();
            let nonzero = src.iter().filter(|&&b| b != 0).count();
            assert_eq!(packed.len(), nonzero + 2 * runs, "{src:?}");
            let mut out = vec![42];
            unpack(&packed, &mut out).unwrap();
            assert_eq!(out[1..], src[..], "unpack appends");
        }
        assert_eq!(
            unpack(&[5, 0], &mut Vec::new()),
            Err(SnapError::Truncated {
                context: "packed zero run"
            })
        );
        assert_eq!(
            unpack(&[0, 0], &mut Vec::new()),
            Err(SnapError::Corrupt {
                context: "packed zero run"
            })
        );
    }

    #[test]
    fn bool_rejects_non_canonical_bytes() {
        let mut r = SnapReader::image(&[2]);
        assert!(matches!(r.bool("flag"), Err(SnapError::Corrupt { .. })));
    }
}

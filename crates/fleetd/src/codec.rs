//! The byte format layer of the cold tier, and the checkpoint codec.
//!
//! Three stored formats share one byte writer, one byte reader and one
//! offset-carrying [`FormatError`]: the checkpoint (`FDC1`, here), the
//! CRC frame around it and the fleet manifest (`FDS1` and `FDM1`, in
//! [`store`](crate::store)).
//!
//! An evicted home is exactly one encoded
//! [`stream::WindowCheckpoint`]: the fill automaton
//! (one tagged scalar), the open-window samples, and one 48-byte record
//! per closed window. The format is little-endian, versioned by a
//! 4-byte magic, and round-trips exactly (`decode(encode(cp)) == cp`,
//! including NaN payloads bit-for-bit) — the property the eviction
//! identity claim leans on.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   4 bytes  "FDC1"
//! fill    1 + 8    tag (0 passthrough, 1 zero, 2 hold-pending, 3 hold-last)
//!                  + u64 count or f64 watts payload (zero if unused)
//! next    8        u64 open-window start index
//! open    4 + 8n   u32 count + f64 samples
//! closed  4 + 48n  u32 count + (u64 start, f64 mean/variance/range/min/max)
//! ```

use stream::{FillCheckpoint, WindowCheckpoint};
use timeseries::Summary;

/// First four bytes of every encoded checkpoint.
pub const MAGIC: [u8; 4] = *b"FDC1";

/// Offset of the window geometry (`next`, then `open`) in an encoded
/// checkpoint.
pub(crate) const GEOMETRY_AT: usize = 13;

/// Why a byte buffer failed to parse as a checkpoint, a frame or a
/// manifest.
///
/// Every variant is anchored at a byte offset (see
/// [`FormatError::offset`]) so recovery logs can name *where* a stored
/// record went bad, not just that it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatError {
    /// Buffer ended before the structure it promised: at the field that
    /// could not be read, or — for a record whose header declares its
    /// length — at the buffer's end.
    Truncated {
        /// Byte position at which more input was required.
        offset: usize,
    },
    /// The buffer doesn't start with the format's magic (offset 0).
    BadMagic,
    /// Unknown checkpoint fill-automaton tag at `offset`.
    BadFillTag {
        /// The unrecognized tag byte.
        tag: u8,
        /// Byte position of the tag.
        offset: usize,
    },
    /// The CRC32 stored at `offset` doesn't match the record's contents.
    CrcMismatch {
        /// Byte position of the stored CRC.
        offset: usize,
        /// CRC stored in the record.
        stored: u32,
        /// CRC computed over the record's contents.
        computed: u32,
    },
    /// Bytes remain past a complete record.
    TrailingBytes {
        /// Byte position the error is anchored at: where a checkpoint or
        /// manifest ended, or where the payload whose declared length the
        /// buffer overruns starts in a frame.
        offset: usize,
        /// Number of surplus bytes.
        trailing: usize,
    },
}

impl FormatError {
    /// Byte offset the error is anchored at.
    pub fn offset(&self) -> usize {
        match *self {
            FormatError::BadMagic => 0,
            FormatError::Truncated { offset }
            | FormatError::BadFillTag { offset, .. }
            | FormatError::CrcMismatch { offset, .. }
            | FormatError::TrailingBytes { offset, .. } => offset,
        }
    }
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Truncated { offset } => write!(f, "truncated at byte {offset}"),
            FormatError::BadMagic => write!(f, "magic mismatch at byte 0"),
            FormatError::BadFillTag { tag, offset } => {
                write!(f, "unknown fill tag {tag} at byte {offset}")
            }
            FormatError::CrcMismatch {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "crc mismatch at byte {offset} (stored {stored:#010x}, computed {computed:#010x})"
            ),
            FormatError::TrailingBytes { offset, trailing } => {
                write!(f, "{trailing} trailing bytes at byte {offset}")
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// Little-endian byte writer shared by the three formats, the mirror of
/// the reader below.
pub(crate) struct Writer(pub(crate) Vec<u8>);

impl Writer {
    pub(crate) fn bytes(&mut self, bytes: &[u8]) -> &mut Writer {
        self.0.extend_from_slice(bytes);
        self
    }

    pub(crate) fn u32(&mut self, v: u32) -> &mut Writer {
        self.bytes(&v.to_le_bytes())
    }

    pub(crate) fn u64(&mut self, v: u64) -> &mut Writer {
        self.bytes(&v.to_le_bytes())
    }

    pub(crate) fn f64(&mut self, v: f64) -> &mut Writer {
        self.u64(v.to_bits())
    }
}

/// Little-endian byte reader shared by the three formats: every read
/// past the end is a [`FormatError::Truncated`] at the field it failed
/// on, never a panic.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    /// Fails unless the buffer holds at least `len` bytes in all — the
    /// check of a record whose header declares its length, reported at
    /// the buffer's end.
    pub(crate) fn need(&self, len: usize) -> Result<(), FormatError> {
        if self.buf.len() < len {
            return Err(FormatError::Truncated {
                offset: self.buf.len(),
            });
        }
        Ok(())
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(FormatError::Truncated { offset: self.at })?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    pub(crate) fn magic(&mut self, magic: [u8; 4]) -> Result<(), FormatError> {
        if self.take(4)? != magic {
            return Err(FormatError::BadMagic);
        }
        Ok(())
    }

    pub(crate) fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, FormatError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Fails if bytes remain past the reader's position.
    pub(crate) fn finish(&self) -> Result<(), FormatError> {
        if self.at != self.buf.len() {
            return Err(FormatError::TrailingBytes {
                offset: self.at,
                trailing: self.buf.len() - self.at,
            });
        }
        Ok(())
    }
}

/// Serializes a checkpoint into the compact binary layout.
///
/// # Examples
///
/// ```
/// use stream::{FillCheckpoint, WindowCheckpoint};
///
/// let cp = WindowCheckpoint {
///     fill: FillCheckpoint::Passthrough,
///     next_start: 30,
///     open: vec![120.0, 350.5],
///     closed: Vec::new(),
/// };
/// let bytes = fleetd::codec::encode(&cp);
/// assert_eq!(fleetd::codec::decode(&bytes).unwrap(), cp);
/// ```
pub fn encode(cp: &WindowCheckpoint) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(encoded_len(cp)));
    write(&mut w, cp);
    w.0
}

/// Appends `cp` in the checkpoint layout — [`encode`] into a buffer
/// that may already hold a frame header.
pub(crate) fn write(w: &mut Writer, cp: &WindowCheckpoint) {
    let (tag, payload): (u8, u64) = match cp.fill {
        FillCheckpoint::Passthrough => (0, 0),
        FillCheckpoint::Zero => (1, 0),
        FillCheckpoint::HoldPending(n) => (2, n),
        FillCheckpoint::HoldLast(watts) => (3, watts.to_bits()),
    };
    w.bytes(&MAGIC)
        .bytes(&[tag])
        .u64(payload)
        .u64(cp.next_start)
        .u32(cp.open.len() as u32);
    for &x in &cp.open {
        w.f64(x);
    }
    w.u32(cp.closed.len() as u32);
    for &(start, s) in &cp.closed {
        w.u64(start);
        for v in [s.mean, s.variance, s.range, s.min, s.max] {
            w.f64(v);
        }
    }
}

/// Exact byte length [`encode`] produces for `cp` — the cold-store cost
/// of evicting this home.
pub fn encoded_len(cp: &WindowCheckpoint) -> usize {
    4 + 9 + 8 + 4 + 8 * cp.open.len() + 4 + 48 * cp.closed.len()
}

/// Deserializes a buffer produced by [`encode`].
///
/// # Errors
///
/// [`FormatError`] on truncation, magic mismatch, an unknown fill tag, or
/// trailing bytes. Never panics on malformed input.
pub fn decode(bytes: &[u8]) -> Result<WindowCheckpoint, FormatError> {
    let mut r = Reader::new(bytes);
    r.magic(MAGIC)?;
    let tag = r.take(1)?[0];
    let payload = r.u64()?;
    let fill = match tag {
        0 => FillCheckpoint::Passthrough,
        1 => FillCheckpoint::Zero,
        2 => FillCheckpoint::HoldPending(payload),
        3 => FillCheckpoint::HoldLast(f64::from_bits(payload)),
        tag => {
            return Err(FormatError::BadFillTag {
                tag,
                offset: MAGIC.len(),
            })
        }
    };
    let next_start = r.u64()?;
    let open_len = r.u32()? as usize;
    let mut open = Vec::with_capacity(open_len.min(bytes.len() / 8));
    for _ in 0..open_len {
        open.push(r.f64()?);
    }
    let closed_len = r.u32()? as usize;
    let mut closed = Vec::with_capacity(closed_len.min(bytes.len() / 48));
    for _ in 0..closed_len {
        let start = r.u64()?;
        let summary = Summary {
            mean: r.f64()?,
            variance: r.f64()?,
            range: r.f64()?,
            min: r.f64()?,
            max: r.f64()?,
        };
        closed.push((start, summary));
    }
    r.finish()?;
    Ok(WindowCheckpoint {
        fill,
        next_start,
        open,
        closed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> WindowCheckpoint {
        WindowCheckpoint {
            fill: FillCheckpoint::HoldLast(432.5),
            next_start: 45,
            open: vec![120.0, f64::NAN, 0.0, -1.5],
            closed: vec![
                (
                    0,
                    Summary {
                        mean: 1.0,
                        variance: 2.0,
                        range: 3.0,
                        min: 4.0,
                        max: 5.0,
                    },
                ),
                (
                    15,
                    Summary {
                        mean: -1.0,
                        variance: 0.0,
                        range: f64::INFINITY,
                        min: f64::MIN,
                        max: f64::MAX,
                    },
                ),
            ],
        }
    }

    fn bit_eq(a: &WindowCheckpoint, b: &WindowCheckpoint) -> bool {
        // PartialEq is false under NaN; compare payload bits instead.
        encode(a) == encode(b)
    }

    #[test]
    fn round_trips_exactly() {
        for fill in [
            FillCheckpoint::Passthrough,
            FillCheckpoint::Zero,
            FillCheckpoint::HoldPending(7),
            FillCheckpoint::HoldLast(99.25),
        ] {
            let cp = WindowCheckpoint {
                fill,
                ..sample_checkpoint()
            };
            let bytes = encode(&cp);
            assert_eq!(bytes.len(), encoded_len(&cp));
            assert!(bit_eq(&decode(&bytes).unwrap(), &cp), "{fill:?}");
        }
    }

    #[test]
    fn empty_checkpoint_is_29_bytes() {
        let cp = WindowCheckpoint {
            fill: FillCheckpoint::Zero,
            next_start: 0,
            open: Vec::new(),
            closed: Vec::new(),
        };
        assert_eq!(encode(&cp).len(), 29);
    }

    #[test]
    fn malformed_buffers_error_not_panic() {
        let good = encode(&sample_checkpoint());
        assert_eq!(decode(&[]), Err(FormatError::Truncated { offset: 0 }));
        assert_eq!(decode(b"NOPE"), Err(FormatError::BadMagic));
        for cut in 0..good.len() {
            let err = decode(&good[..cut]).expect_err("every prefix must fail");
            assert!(err.offset() <= cut, "cut {cut}: {err}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(
            decode(&trailing),
            Err(FormatError::TrailingBytes {
                offset: good.len(),
                trailing: 1
            })
        );
        let mut bad_tag = good.clone();
        bad_tag[4] = 9;
        assert_eq!(
            decode(&bad_tag),
            Err(FormatError::BadFillTag { tag: 9, offset: 4 })
        );
    }

    #[test]
    fn huge_declared_lengths_do_not_preallocate() {
        // A 4 GiB open-window count on a 30-byte buffer must fail fast
        // (Truncated), not try to reserve 32 GiB.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(0);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode(&bytes),
            Err(FormatError::Truncated {
                offset: bytes.len()
            })
        );
    }
}

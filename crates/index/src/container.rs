//! The `.seal` durable container: a checksummed, section-addressed
//! single-file format with crash-safe atomic writes.
//!
//! A container is a flat byte string laid out as
//!
//! ```text
//! header    10 B   magic u32 | version u8 | flags u8 | section_count u32
//! directory 22 B × section_count
//!                  kind u16 | offset u64 | len u64 | crc32 u32
//! payloads  contiguous section bytes, in directory order
//! footer    16 B   file_len u64 | dir_crc u32 | footer_magic u32
//! ```
//!
//! (all integers little-endian). Every byte of the file is covered by
//! a CRC: payloads by their directory entry's per-section CRC32, the
//! header and directory themselves by the footer's `dir_crc`, and the
//! footer by its own magic plus the `file_len` echo — so any single
//! bit flip anywhere in the file is detected before a payload is
//! handed to a decoder.
//!
//! # Hardened parsing
//!
//! [`Container::parse`] is written for *untrusted* bytes: every
//! declared count and length is validated against the bytes actually
//! present **before** any allocation is sized from it, section ranges
//! must be contiguous, in order and in bounds (checked arithmetic, no
//! overlap, no gaps), and every failure is a typed [`ContainerError`]
//! — never a panic, never an oversized `Vec::with_capacity`.
//!
//! # Crash-safe writes
//!
//! [`ContainerWriter::write_atomic`] serializes to `<path>.tmp`,
//! fsyncs, then atomically renames over the destination (fsyncing the
//! parent directory afterwards, best effort). A crash at any point
//! leaves either the previous container or the complete new one on
//! disk — never a torn file — and a stale `.tmp` from a crashed save
//! is simply overwritten by the next attempt.
//!
//! Section *kinds* are opaque `u16` tags at this layer; `seal-core`
//! defines the engine's taxonomy (store, dictionary, engine metadata,
//! scheme, index payloads).

use crate::IndexCodecError;
use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// First four bytes of every `.seal` container.
pub const CONTAINER_MAGIC: u32 = 0x5EA1_C0DE;
/// Last four bytes of every `.seal` container.
pub const FOOTER_MAGIC: u32 = 0x5EA1_F007;
/// Current container format version.
pub const CONTAINER_VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 10;
/// Size of one directory entry in bytes.
pub const DIR_ENTRY_LEN: usize = 22;
/// Fixed footer size in bytes.
pub const FOOTER_LEN: usize = 16;

/// The slicing-by-16 tables of the IEEE CRC-32 (reflected polynomial
/// 0xEDB88320), computed at compile time so the checksum needs no
/// runtime setup and no external crate. `CRC_TABLES[k][n]` is the CRC
/// register after byte `n` followed by `k` zero bytes: eight bit steps
/// per byte from the register `n`. Table 0 is the classic bytewise
/// table.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let (mut n, mut byte) = (0usize, 0u32);
    while n < 256 {
        let mut c = byte;
        let mut k = 0;
        while k < 16 {
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                bit += 1;
            }
            tables[k][n] = c;
            k += 1;
        }
        n += 1;
        byte += 1;
    }
    tables
};

/// IEEE CRC-32 (the zlib/PNG polynomial) of a byte string.
///
/// Slicing-by-16 (Kounavis & Berry, ISCC 2005): each step folds the
/// register into the next 16 bytes and looks every byte up in its own
/// table, so the 16 lookups are independent instead of a chain of one
/// per byte; the tail of fewer than 16 bytes goes bytewise through
/// table 0.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let mut b = [0u8; 16];
        b.copy_from_slice(block);
        for (x, r) in b.iter_mut().zip(c.to_le_bytes()) {
            *x ^= r;
        }
        c = b
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&x, table)| acc ^ table[usize::from(x)]);
    }
    for &x in blocks.remainder() {
        c = CRC_TABLES[0][usize::from(c.to_le_bytes()[0] ^ x)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Why a container failed to parse, verify, decode or persist.
///
/// Every malformed input maps to exactly one of these variants; the
/// load path never panics on untrusted bytes.
#[derive(Debug)]
pub enum ContainerError {
    /// The file is shorter than its fixed framing requires.
    Truncated {
        /// Bytes the current parse step needed.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The leading magic is not [`CONTAINER_MAGIC`].
    BadMagic {
        /// The four bytes found, as a little-endian `u32`.
        found: u32,
    },
    /// The format version is not supported by this build.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// The trailing magic is not [`FOOTER_MAGIC`].
    BadFooterMagic {
        /// The four bytes found, as a little-endian `u32`.
        found: u32,
    },
    /// The footer's recorded file length disagrees with the bytes
    /// present (truncation or trailing garbage).
    LengthMismatch {
        /// Length recorded in the footer.
        declared: u64,
        /// Length of the byte string handed to the parser.
        actual: u64,
    },
    /// The header/directory CRC in the footer does not match.
    DirectoryChecksum {
        /// CRC recorded in the footer.
        expected: u32,
        /// CRC computed over the bytes present.
        found: u32,
    },
    /// The declared section count does not fit in the file — the
    /// allocation-cap check (`count × entry size` validated against
    /// the bytes present *before* any `Vec::with_capacity`).
    OversizedDirectory {
        /// Declared section count.
        sections: u64,
        /// Bytes available between header and footer.
        available: usize,
    },
    /// A directory entry is malformed (out of bounds, overlapping,
    /// out of order, or leaving unaccounted bytes).
    BadSectionTable {
        /// Index of the offending entry.
        index: usize,
        /// What was expected vs found.
        detail: String,
    },
    /// A payload's CRC32 does not match its directory entry.
    SectionChecksum {
        /// Section kind tag.
        kind: u16,
        /// CRC recorded in the directory.
        expected: u32,
        /// CRC computed over the payload bytes.
        found: u32,
    },
    /// The same section kind appears twice.
    DuplicateSection {
        /// The duplicated kind tag.
        kind: u16,
    },
    /// A section the decoder requires is absent.
    MissingSection {
        /// The missing kind tag.
        kind: u16,
    },
    /// A section payload failed to decode (the engine-level sections:
    /// store, dictionary, metadata, scheme).
    Section {
        /// Human-readable section name.
        section: &'static str,
        /// Byte offset within the section payload.
        offset: usize,
        /// Expected-vs-found detail.
        detail: String,
    },
    /// An index payload failed the `serialize` codec.
    Codec(IndexCodecError),
    /// An I/O failure while reading or atomically writing the file.
    Io(std::io::Error),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Truncated { need, have } => {
                write!(f, "container truncated: need {need} bytes, have {have}")
            }
            ContainerError::BadMagic { found } => {
                write!(f, "not a .seal container (magic {found:#010x})")
            }
            ContainerError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported container version {found} (expected {CONTAINER_VERSION})"
                )
            }
            ContainerError::BadFooterMagic { found } => {
                write!(f, "container footer corrupt (magic {found:#010x})")
            }
            ContainerError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "container length mismatch: footer declares {declared} bytes, file has {actual}"
                )
            }
            ContainerError::DirectoryChecksum { expected, found } => {
                write!(
                    f,
                    "container directory checksum mismatch: expected {expected:#010x}, \
                     found {found:#010x}"
                )
            }
            ContainerError::OversizedDirectory {
                sections,
                available,
            } => {
                write!(
                    f,
                    "container declares {sections} sections but only {available} bytes follow \
                     the header"
                )
            }
            ContainerError::BadSectionTable { index, detail } => {
                write!(f, "container section table entry {index}: {detail}")
            }
            ContainerError::SectionChecksum {
                kind,
                expected,
                found,
            } => {
                write!(
                    f,
                    "section kind {kind} checksum mismatch: expected {expected:#010x}, \
                     found {found:#010x}"
                )
            }
            ContainerError::DuplicateSection { kind } => {
                write!(f, "section kind {kind} appears more than once")
            }
            ContainerError::MissingSection { kind } => {
                write!(f, "required section kind {kind} is missing")
            }
            ContainerError::Section {
                section,
                offset,
                detail,
            } => {
                write!(f, "section {section:?} corrupt at byte {offset}: {detail}")
            }
            ContainerError::Codec(e) => write!(f, "index payload: {e}"),
            ContainerError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerError::Codec(e) => Some(e),
            ContainerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IndexCodecError> for ContainerError {
    fn from(e: IndexCodecError) -> Self {
        ContainerError::Codec(e)
    }
}

impl From<std::io::Error> for ContainerError {
    fn from(e: std::io::Error) -> Self {
        ContainerError::Io(e)
    }
}

// ---------------------------------------------------------------- reader

/// Why a [`Reader`] refused. The engine sections report it as
/// [`ContainerError::Section`]; the index codec as
/// [`IndexCodecError::Truncated`], or as [`IndexCodecError::Corrupt`]
/// when bytes were left over.
#[derive(Debug)]
pub struct ReadError {
    /// The part being read.
    pub section: &'static str,
    /// Byte offset within it.
    pub offset: usize,
    /// Needed-vs-remaining or left-over detail.
    pub detail: String,
    /// Bytes were left over ([`Reader::done`]) rather than missing.
    pub trailing: bool,
}

impl From<ReadError> for ContainerError {
    fn from(e: ReadError) -> Self {
        ContainerError::Section {
            section: e.section,
            offset: e.offset,
            detail: e.detail,
        }
    }
}

/// The one bounds-checked little-endian reader over persisted bytes:
/// the container's own framing, every engine section and the index
/// codec read through it.
///
/// Every read states what it needs before touching the buffer, so a
/// shortfall is a typed [`ReadError`] naming the part and the byte
/// offset — no slicing panics, no `count * size` overflow, no
/// allocation sized from an unvalidated count ([`count`](Self::count)),
/// and no trailing bytes ([`done`](Self::done)).
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Where the current part starts; error offsets count from here.
    base: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`, whose errors name `section`.
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        Reader {
            buf,
            pos: 0,
            base: 0,
            section,
        }
    }

    /// Starts the next part of the payload: later errors name
    /// `section` and count their offset from the current position.
    pub fn enter(&mut self, section: &'static str) {
        self.section = section;
        self.base = self.pos;
    }

    /// A [`ContainerError::Section`] at the current position — for
    /// the decoder's own semantic checks.
    pub fn err(&self, detail: impl Into<String>) -> ContainerError {
        self.fail(detail.into(), false).into()
    }

    fn fail(&self, detail: String, trailing: bool) -> ReadError {
        ReadError {
            section: self.section,
            offset: self.pos - self.base,
            detail,
            trailing,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn shortfall(&self, n: usize) -> ReadError {
        self.fail(
            format!("need {n} bytes, {} remain", self.remaining()),
            false,
        )
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let Some(s) = self.buf[self.pos..].get(..n) else {
            return Err(self.shortfall(n));
        };
        self.pos += n;
        Ok(s)
    }

    fn array<const W: usize>(&mut self) -> Result<[u8; W], ReadError> {
        let Some(&a) = self.buf[self.pos..].first_chunk::<W>() else {
            return Err(self.shortfall(W));
        };
        self.pos += W;
        Ok(a)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, ReadError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    /// A little-endian IEEE `f64`.
    pub fn f64(&mut self) -> Result<f64, ReadError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Validates a declared element count against the bytes remaining
    /// (`min_elem_bytes` per element) **before** the caller allocates
    /// anything sized from it.
    pub fn count(&self, declared: u64, min_elem_bytes: usize) -> Result<usize, ReadError> {
        let Ok(n) = usize::try_from(declared) else {
            return Err(self.fail("declared count exceeds the address space".into(), false));
        };
        match n.checked_mul(min_elem_bytes) {
            Some(total) if total <= self.remaining() => Ok(n),
            _ => Err(self.fail(
                format!(
                    "declared count {n} needs at least {min_elem_bytes}×{n} bytes, {} remain",
                    self.remaining()
                ),
                false,
            )),
        }
    }

    /// `n` fixed-width little-endian values, read as one `n · W`-byte
    /// run and decoded word by word.
    pub fn column<const W: usize, T>(
        &mut self,
        n: usize,
        decode: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, ReadError> {
        let n = self.count(n as u64, W)?;
        let (words, _) = self.take(n * W)?.as_chunks::<W>();
        Ok(words.iter().map(|&w| decode(w)).collect())
    }

    /// Asserts the payload was consumed exactly — trailing bytes are
    /// corruption, not padding.
    pub fn done(self) -> Result<(), ReadError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.fail(format!("{n} unconsumed trailing bytes"), true)),
        }
    }
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u128`.
pub fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian IEEE `f64`.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Assembles a container from `(kind, payload)` sections and persists
/// it atomically.
#[derive(Default)]
pub struct ContainerWriter {
    sections: Vec<(u16, Vec<u8>)>,
}

impl ContainerWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ContainerWriter::default()
    }

    /// Appends a section. Sections are laid out (and must be decoded)
    /// in push order; each kind may appear at most once, which
    /// [`finish`](Self::finish) enforces by construction of the
    /// callers and [`Container::parse`] re-checks on load.
    pub fn push_section(&mut self, kind: u16, payload: Vec<u8>) {
        self.sections.push((kind, payload));
    }

    /// The header and directory (with per-section CRCs), the
    /// CRC-protected footer, and the container's total length: every
    /// byte but the payloads, which go between the two as pushed.
    fn frame(&self) -> (Vec<u8>, [u8; FOOTER_LEN], usize) {
        let dir_len = self.sections.len() * DIR_ENTRY_LEN;
        let payload_len: usize = self.sections.iter().map(|(_, p)| p.len()).sum();
        let total = HEADER_LEN + dir_len + payload_len + FOOTER_LEN;
        let mut head = Vec::with_capacity(HEADER_LEN + dir_len);
        head.extend_from_slice(&CONTAINER_MAGIC.to_le_bytes());
        head.push(CONTAINER_VERSION);
        head.push(0); // flags, reserved
        let count = u32::try_from(self.sections.len()).expect("section count fits u32");
        head.extend_from_slice(&count.to_le_bytes());
        let mut offset = HEADER_LEN + dir_len;
        for (kind, payload) in &self.sections {
            head.extend_from_slice(&kind.to_le_bytes());
            head.extend_from_slice(&(offset as u64).to_le_bytes());
            head.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            head.extend_from_slice(&crc32(payload).to_le_bytes());
            offset += payload.len();
        }
        let mut footer = [0u8; FOOTER_LEN];
        footer[..8].copy_from_slice(&(total as u64).to_le_bytes());
        footer[8..12].copy_from_slice(&crc32(&head).to_le_bytes());
        footer[12..].copy_from_slice(&FOOTER_MAGIC.to_le_bytes());
        (head, footer, total)
    }

    /// Serializes the container to bytes: header, directory with
    /// per-section CRCs, contiguous payloads, CRC-protected footer.
    /// The output is a pure function of the pushed sections, so equal
    /// section bytes always produce equal container bytes.
    pub fn finish(self) -> Vec<u8> {
        let (mut out, footer, total) = self.frame();
        out.reserve_exact(total - out.len());
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out.extend_from_slice(&footer);
        debug_assert_eq!(out.len(), total);
        out
    }

    /// Writes the container [`finish`](Self::finish) would return to
    /// `path` **crash-safely**, straight from the pushed sections (no
    /// second copy of the container is built): the bytes go to
    /// [`temp_path_for`]`(path)` first, are fsynced, and are renamed
    /// over the destination only once fully on disk (then the parent
    /// directory is fsynced, best effort). A failure at any step leaves
    /// an existing file at `path` untouched. Returns the container size
    /// in bytes.
    pub fn write_atomic(self, path: &Path) -> Result<u64, ContainerError> {
        let (head, footer, total) = self.frame();
        let tmp = temp_path_for(path);
        let write = (|| -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&head)?;
            for (_, payload) in &self.sections {
                f.write_all(payload)?;
            }
            f.write_all(&footer)?;
            f.sync_all()?;
            drop(f);
            std::fs::rename(&tmp, path)?;
            // Make the rename itself durable. Not all platforms allow
            // opening a directory for sync; failing to fsync the
            // parent weakens durability, not atomicity, so best
            // effort is the right trade here.
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    if let Ok(d) = File::open(dir) {
                        let _ = d.sync_all();
                    }
                }
            }
            Ok(())
        })();
        if let Err(e) = write {
            // Best-effort cleanup; the temp file is ignored by loads
            // and overwritten by the next save either way.
            let _ = std::fs::remove_file(&tmp);
            return Err(ContainerError::Io(e));
        }
        Ok(total as u64)
    }
}

/// The deterministic scratch path a save writes before renaming:
/// `<path>.tmp`. Deterministic so a crashed save's leftover is
/// reclaimed (overwritten) by the next save instead of accumulating.
pub fn temp_path_for(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// One parsed section: a validated, CRC-checked window into the
/// container bytes.
#[derive(Debug, Clone, Copy)]
pub struct Section<'a> {
    /// The section's kind tag.
    pub kind: u16,
    /// Byte offset of the payload within the container.
    pub offset: usize,
    /// The payload bytes.
    pub payload: &'a [u8],
}

/// A parsed, fully verified container: framing validated, every
/// section CRC checked. Borrowing (rather than copying) the input
/// keeps the parse allocation proportional to the section *count*,
/// never the payload sizes.
#[derive(Debug)]
pub struct Container<'a> {
    sections: Vec<Section<'a>>,
}

impl<'a> Container<'a> {
    /// [`parse_with_threads`](Self::parse_with_threads) on one thread.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, ContainerError> {
        Self::parse_with_threads(bytes, 1)
    }

    /// Parses and verifies a container, fanning the per-section CRC
    /// checks out over `threads` workers of the shared
    /// [`crate::parallel`] pool (0 = one per core) — each section is
    /// dispatched to a worker as it is sliced out of the buffer.
    ///
    /// # Errors
    /// A typed [`ContainerError`] for any malformed input: this
    /// function never panics and never sizes an allocation from an
    /// unvalidated count, no matter the bytes.
    pub fn parse_with_threads(bytes: &'a [u8], threads: usize) -> Result<Self, ContainerError> {
        if bytes.len() < HEADER_LEN + FOOTER_LEN {
            return Err(ContainerError::Truncated {
                need: HEADER_LEN + FOOTER_LEN,
                have: bytes.len(),
            });
        }
        let mut r = Reader::new(bytes, "container framing");
        let magic = r.u32()?;
        if magic != CONTAINER_MAGIC {
            return Err(ContainerError::BadMagic { found: magic });
        }
        let version = r.u8()?;
        if version != CONTAINER_VERSION {
            return Err(ContainerError::BadVersion { found: version });
        }
        // The flags byte is reserved (ignored when zero or not;
        // covered by the directory CRC like the rest).
        r.u8()?;
        let section_count = r.u32()?;

        // Footer first: it vouches for the header + directory, so a
        // flipped bit in the framing is caught before the framing is
        // trusted.
        let mut foot = Reader::new(&bytes[bytes.len() - FOOTER_LEN..], "container footer");
        let declared = foot.u64()?;
        let dir_crc = foot.u32()?;
        let footer_magic = foot.u32()?;
        if footer_magic != FOOTER_MAGIC {
            return Err(ContainerError::BadFooterMagic {
                found: footer_magic,
            });
        }
        if declared != bytes.len() as u64 {
            return Err(ContainerError::LengthMismatch {
                declared,
                actual: bytes.len() as u64,
            });
        }

        // The allocation cap: the directory must fit in the bytes
        // actually present before `section_count` sizes anything.
        let body = bytes.len() - HEADER_LEN - FOOTER_LEN;
        let dir_bytes = usize::try_from(section_count)
            .ok()
            .and_then(|n| n.checked_mul(DIR_ENTRY_LEN))
            .filter(|&n| n <= body)
            .ok_or(ContainerError::OversizedDirectory {
                sections: u64::from(section_count),
                available: body,
            })?;
        let section_count = dir_bytes / DIR_ENTRY_LEN;
        let dir_end = HEADER_LEN + dir_bytes;
        let found_crc = crc32(&bytes[..dir_end]);
        if found_crc != dir_crc {
            return Err(ContainerError::DirectoryChecksum {
                expected: dir_crc,
                found: found_crc,
            });
        }

        // Directory entries: contiguous, ascending, in bounds.
        let payload_end = bytes.len() - FOOTER_LEN;
        let mut checked: Vec<(Section<'a>, u32)> = Vec::with_capacity(section_count);
        let mut cursor = dir_end;
        for index in 0..section_count {
            let kind = r.u16()?;
            let offset = r.u64()?;
            let len = r.u64()?;
            let crc = r.u32()?;
            let (Ok(offset), Ok(len)) = (usize::try_from(offset), usize::try_from(len)) else {
                return Err(ContainerError::BadSectionTable {
                    index,
                    detail: format!("offset {offset} / len {len} exceed the address space"),
                });
            };
            if offset != cursor {
                return Err(ContainerError::BadSectionTable {
                    index,
                    detail: format!("expected contiguous offset {cursor}, found {offset}"),
                });
            }
            let Some(end) = offset.checked_add(len).filter(|&e| e <= payload_end) else {
                return Err(ContainerError::BadSectionTable {
                    index,
                    detail: format!(
                        "payload [{offset}, {offset}+{len}) overruns the payload area \
                         (ends at {payload_end})"
                    ),
                });
            };
            if checked.iter().any(|(s, _)| s.kind == kind) {
                return Err(ContainerError::DuplicateSection { kind });
            }
            checked.push((
                Section {
                    kind,
                    offset,
                    payload: &bytes[offset..end],
                },
                crc,
            ));
            cursor = end;
        }
        if cursor != payload_end {
            return Err(ContainerError::BadSectionTable {
                index: section_count,
                detail: format!(
                    "sections end at {cursor} but the payload area ends at {payload_end} \
                     (unaccounted bytes)"
                ),
            });
        }

        // Per-section CRCs, one worker per section slice.
        let threads = crate::parallel::resolve_threads(threads);
        let mismatches: Vec<Option<(u16, u32, u32)>> =
            crate::parallel::map_indexed(checked.len(), threads, |i| {
                let (s, expected) = &checked[i];
                let found = crc32(s.payload);
                (found != *expected).then_some((s.kind, *expected, found))
            });
        if let Some((kind, expected, found)) = mismatches.into_iter().flatten().next() {
            return Err(ContainerError::SectionChecksum {
                kind,
                expected,
                found,
            });
        }

        Ok(Container {
            sections: checked.into_iter().map(|(s, _)| s).collect(),
        })
    }

    /// The sections in file order.
    pub fn sections(&self) -> &[Section<'a>] {
        &self.sections
    }

    /// The payload of the section with the given kind, if present.
    pub fn section(&self, kind: u16) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|s| s.kind == kind)
            .map(|s| s.payload)
    }

    /// The payload of a section the decoder cannot proceed without.
    ///
    /// # Errors
    /// [`ContainerError::MissingSection`] when absent.
    pub fn require(&self, kind: u16) -> Result<&'a [u8], ContainerError> {
        self.section(kind)
            .ok_or(ContainerError::MissingSection { kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ContainerWriter::new();
        w.push_section(1, vec![1, 2, 3, 4, 5]);
        w.push_section(2, Vec::new());
        w.push_section(7, vec![0xAB; 100]);
        w.finish()
    }

    #[test]
    fn crc32_known_vectors() {
        // The standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise CRC-32 the sliced kernel must equal: one table
    /// lookup per byte, from table 0.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &x in bytes {
            c = CRC_TABLES[0][usize::from(c.to_le_bytes()[0] ^ x)] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Every length 0–300 at every start offset 0–15 of `buf`, so the
    /// 16-byte blocks start unaligned and every tail length occurs.
    fn assert_sliced_equals_bytewise(buf: &[u8]) {
        for len in 0..=300 {
            for start in 0..16 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} at offset {start}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn crc32_equals_the_bytewise_reference(
            buf in proptest::collection::vec(0u8..=255, 316..317),
        ) {
            assert_sliced_equals_bytewise(&buf);
        }
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_on_constant_and_large_buffers() {
        assert_sliced_equals_bytewise(&[0x00; 316]);
        assert_sliced_equals_bytewise(&[0xFF; 316]);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let big: Vec<u8> = (0..1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[0]
            })
            .collect();
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn roundtrip_preserves_sections() {
        let bytes = sample();
        for threads in [1usize, 2, 0] {
            let c = Container::parse_with_threads(&bytes, threads).expect("valid container");
            assert_eq!(c.sections().len(), 3);
            assert_eq!(c.section(1), Some(&[1u8, 2, 3, 4, 5][..]));
            assert_eq!(c.section(2), Some(&[][..]));
            assert_eq!(c.section(7).map(<[u8]>::len), Some(100));
            assert!(c.section(3).is_none());
            assert!(matches!(
                c.require(3),
                Err(ContainerError::MissingSection { kind: 3 })
            ));
        }
    }

    #[test]
    fn finish_is_deterministic() {
        assert_eq!(sample(), sample());
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = ContainerWriter::new().finish();
        assert_eq!(bytes.len(), HEADER_LEN + FOOTER_LEN);
        let c = Container::parse(&bytes).expect("empty container is valid");
        assert!(c.sections().is_empty());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    Container::parse(&bad).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample();
        for len in 0..bytes.len() {
            assert!(
                Container::parse(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn oversized_section_count_is_rejected_before_allocation() {
        let mut bytes = sample();
        // Declare u32::MAX sections; the directory CRC will also
        // mismatch, but the count check must fire safely regardless of
        // field order — so patch the CRC to keep the framing "valid".
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        match Container::parse(&bytes) {
            Err(
                ContainerError::OversizedDirectory { .. }
                | ContainerError::DirectoryChecksum { .. },
            ) => {}
            other => panic!("expected a typed rejection, got {other:?}"),
        }
    }

    #[test]
    fn temp_path_is_deterministic() {
        let p = Path::new("/tmp/x/index.seal");
        assert_eq!(temp_path_for(p), PathBuf::from("/tmp/x/index.seal.tmp"));
        assert_eq!(temp_path_for(p), temp_path_for(p));
    }

    #[test]
    fn atomic_write_then_parse() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("seal-container-test-{}.seal", std::process::id()));
        let mut w = ContainerWriter::new();
        w.push_section(4, vec![9, 9, 9]);
        let n = w.write_atomic(&path).expect("atomic write");
        let bytes = std::fs::read(&path).expect("read back");
        assert_eq!(bytes.len() as u64, n);
        assert!(
            !temp_path_for(&path).exists(),
            "temp file must be renamed away"
        );
        let c = Container::parse(&bytes).expect("parse written container");
        assert_eq!(c.section(4), Some(&[9u8, 9, 9][..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_atomic_write_leaves_destination_untouched() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("seal-container-keep-{}.seal", std::process::id()));
        let mut w = ContainerWriter::new();
        w.push_section(1, vec![1]);
        w.write_atomic(&path).expect("initial save");
        let original = std::fs::read(&path).expect("read original");
        // Sabotage the scratch path: a *directory* at `<path>.tmp`
        // makes File::create fail, simulating a save that dies before
        // the rename.
        let tmp = temp_path_for(&path);
        std::fs::create_dir(&tmp).expect("plant blocking dir");
        let mut w2 = ContainerWriter::new();
        w2.push_section(1, vec![2]);
        assert!(matches!(w2.write_atomic(&path), Err(ContainerError::Io(_))));
        assert_eq!(
            std::fs::read(&path).expect("destination intact"),
            original,
            "failed save must never clobber the existing container"
        );
        std::fs::remove_dir(&tmp).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display_is_diagnosable() {
        let e = ContainerError::SectionChecksum {
            kind: 6,
            expected: 0xDEAD_BEEF,
            found: 0x0BAD_F00D,
        };
        let msg = e.to_string();
        assert!(msg.contains("kind 6"), "{msg}");
        assert!(msg.contains("0xdeadbeef"), "{msg}");
        let e = ContainerError::Section {
            section: "store",
            offset: 42,
            detail: "expected 7 objects, found count 9".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("store") && msg.contains("42"), "{msg}");
        let codec: ContainerError = IndexCodecError::Truncated.into();
        assert!(std::error::Error::source(&codec).is_some());
    }
}

//! The binary on-disk format: byte codec, checksums, column files, string
//! dictionaries and the versioned manifest.
//!
//! Everything here is normatively specified in DESIGN.md §14 ("Storage
//! model"); this module is the reference implementation. The format is
//! deliberately mmap-friendly — fixed-width little-endian arrays behind a
//! 32-byte aligned header — even though this implementation reads through
//! buffered `std::fs` (the toolchain has no mmap without external crates).
//!
//! ```
//! use relgraph_store::persist::format::{ByteReader, ByteWriter};
//! use relgraph_store::Value;
//!
//! // The codec round-trips every `Value` variant byte-exactly.
//! let mut w = ByteWriter::new();
//! w.put_value(&Value::Text("héllo".into()));
//! w.put_value(&Value::Null);
//! w.put_value(&Value::Float(-0.5));
//! let bytes = w.into_bytes();
//! let mut r = ByteReader::new(&bytes, "doc");
//! assert_eq!(r.take_value().unwrap(), Value::Text("héllo".into()));
//! assert_eq!(r.take_value().unwrap(), Value::Null);
//! assert_eq!(r.take_value().unwrap(), Value::Float(-0.5));
//! assert!(r.is_empty());
//! ```

use std::io::{Read, Write};
use std::path::Path;

use crate::column::Column;
use crate::error::{StoreError, StoreResult};
use crate::ingest::{IngestPolicy, PolicyAction, QuarantinedRow, RowBatch};
use crate::row::Row;
use crate::value::{DataType, Value};

/// Newest on-disk format version this build reads and writes. A major
/// bump means the layout changed incompatibly; readers must refuse newer
/// files with [`StoreError::UnsupportedVersion`].
pub const FORMAT_VERSION: u16 = 1;

/// Magic prefix of column segment files (`*.col`).
pub const MAGIC_COLUMN: &[u8; 4] = b"RGCF";
/// Magic prefix of string-dictionary files (`strings.dict`).
pub const MAGIC_DICT: &[u8; 4] = b"RGSD";
/// Magic prefix of the write-ahead log (`wal.log`).
pub const MAGIC_WAL: &[u8; 4] = b"RGWL";
/// Magic prefix of the quarantine sidecar (`quarantine.bin`).
pub const MAGIC_QUARANTINE: &[u8; 4] = b"RGQR";
/// Magic first line of the `MANIFEST` file.
pub const MANIFEST_MAGIC: &str = "relgraph-data";

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

/// Build the CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) lookup table.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// Incremental CRC-32 (IEEE) state. Feed bytes with [`update`](Self::update),
/// read the digest with [`finish`](Self::finish).
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Feed a byte slice.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// Final digest.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

// ---------------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------------

/// Little-endian append-only byte encoder for variable-length payloads
/// (WAL records, snapshot sections).
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume into the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed (`u32`) UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a [`Value`] as a tag byte plus its payload.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Int(i) => {
                self.put_u8(1);
                self.put_i64(*i);
            }
            Value::Float(x) => {
                self.put_u8(2);
                self.put_f64(*x);
            }
            Value::Text(s) => {
                self.put_u8(3);
                self.put_str(s);
            }
            Value::Bool(b) => {
                self.put_u8(4);
                self.put_u8(*b as u8);
            }
            Value::Timestamp(t) => {
                self.put_u8(5);
                self.put_i64(*t);
            }
        }
    }

    /// Append a [`Row`] as a `u32` arity plus its cells.
    pub fn put_row(&mut self, row: &Row) {
        self.put_u32(row.arity() as u32);
        for v in row.values() {
            self.put_value(v);
        }
    }

    /// Append an [`IngestPolicy`] as four action tags.
    pub fn put_policy(&mut self, p: &IngestPolicy) {
        for a in [
            p.on_type_mismatch,
            p.on_fk_violation,
            p.on_out_of_order,
            p.on_duplicate_key,
        ] {
            self.put_u8(match a {
                PolicyAction::Reject => 0,
                PolicyAction::Quarantine => 1,
                PolicyAction::Coerce => 2,
            });
        }
    }

    /// Append a [`RowBatch`] as a `u32` count plus `(table, row)` pairs.
    pub fn put_batch(&mut self, batch: &RowBatch) {
        self.put_u32(batch.len() as u32);
        for (table, row) in batch.rows() {
            self.put_str(table);
            self.put_row(row);
        }
    }
}

/// Bounds-checked little-endian decoder over a byte slice. Every short
/// read is a structured [`StoreError::Corrupt`] naming the source file.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    file: String,
}

impl<'a> ByteReader<'a> {
    /// Decode from `buf`; `file` names the source in error messages.
    pub fn new(buf: &'a [u8], file: impl Into<String>) -> Self {
        ByteReader {
            buf,
            pos: 0,
            file: file.into(),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn corrupt(&self, message: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            file: self.file.clone(),
            message: message.into(),
        }
    }

    /// Take `n` raw bytes.
    pub fn take_raw(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.corrupt(format!(
                "short read: wanted {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Take a single byte.
    pub fn take_u8(&mut self) -> StoreResult<u8> {
        Ok(self.take_raw(1)?[0])
    }

    /// Take a little-endian `u16`.
    pub fn take_u16(&mut self) -> StoreResult<u16> {
        Ok(u16::from_le_bytes(self.take_raw(2)?.try_into().unwrap()))
    }

    /// Take a little-endian `u32`.
    pub fn take_u32(&mut self) -> StoreResult<u32> {
        Ok(u32::from_le_bytes(self.take_raw(4)?.try_into().unwrap()))
    }

    /// Take a little-endian `u64`.
    pub fn take_u64(&mut self) -> StoreResult<u64> {
        Ok(u64::from_le_bytes(self.take_raw(8)?.try_into().unwrap()))
    }

    /// Take a little-endian `i64`.
    pub fn take_i64(&mut self) -> StoreResult<i64> {
        Ok(i64::from_le_bytes(self.take_raw(8)?.try_into().unwrap()))
    }

    /// Take a little-endian IEEE-754 `f64`.
    pub fn take_f64(&mut self) -> StoreResult<f64> {
        Ok(f64::from_le_bytes(self.take_raw(8)?.try_into().unwrap()))
    }

    /// Take a `u32`-length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> StoreResult<String> {
        let n = self.take_u32()? as usize;
        let bytes = self.take_raw(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.corrupt("string payload is not valid UTF-8"))
    }

    /// Take a [`Value`] (inverse of [`ByteWriter::put_value`]).
    pub fn take_value(&mut self) -> StoreResult<Value> {
        Ok(match self.take_u8()? {
            0 => Value::Null,
            1 => Value::Int(self.take_i64()?),
            2 => Value::Float(self.take_f64()?),
            3 => Value::Text(self.take_str()?),
            4 => Value::Bool(self.take_u8()? != 0),
            5 => Value::Timestamp(self.take_i64()?),
            t => return Err(self.corrupt(format!("unknown value tag {t}"))),
        })
    }

    /// Take a [`Row`] (inverse of [`ByteWriter::put_row`]).
    pub fn take_row(&mut self) -> StoreResult<Row> {
        let arity = self.take_u32()? as usize;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(self.take_value()?);
        }
        Ok(Row::from(values))
    }

    /// Take an [`IngestPolicy`] (inverse of [`ByteWriter::put_policy`]).
    pub fn take_policy(&mut self) -> StoreResult<IngestPolicy> {
        let mut actions = [PolicyAction::Reject; 4];
        for a in actions.iter_mut() {
            *a = match self.take_u8()? {
                0 => PolicyAction::Reject,
                1 => PolicyAction::Quarantine,
                2 => PolicyAction::Coerce,
                t => return Err(self.corrupt(format!("unknown policy action tag {t}"))),
            };
        }
        Ok(IngestPolicy {
            on_type_mismatch: actions[0],
            on_fk_violation: actions[1],
            on_out_of_order: actions[2],
            on_duplicate_key: actions[3],
        })
    }

    /// Take a [`RowBatch`] (inverse of [`ByteWriter::put_batch`]).
    pub fn take_batch(&mut self) -> StoreResult<RowBatch> {
        let n = self.take_u32()? as usize;
        let mut batch = RowBatch::new();
        for _ in 0..n {
            let table = self.take_str()?;
            let row = self.take_row()?;
            batch.push(table, row);
        }
        Ok(batch)
    }
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Map an `io::Error` on `path` to a structured [`StoreError::Io`].
pub(crate) fn io_err(path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Io(format!("{}: {e}", path.display()))
}

/// Write `bytes` to `path` and `sync_data` before returning, so the file's
/// *contents* survive a power loss. The file's directory *entry* is only
/// durable once the enclosing directory is fsynced too — callers finish
/// with [`sync_dir`] on the parent (or rely on a later `sync_dir` that
/// happens before anything depends on the file existing).
pub(crate) fn write_file_durable(path: &Path, bytes: &[u8]) -> StoreResult<()> {
    let mut file = std::fs::File::create(path).map_err(|e| io_err(path, e))?;
    file.write_all(bytes).map_err(|e| io_err(path, e))?;
    file.sync_data().map_err(|e| io_err(path, e))?;
    Ok(())
}

/// Fsync a directory, making the creations/renames inside it durable.
/// Required after `rename` for atomic file replacement and after creating
/// files that later durability steps (e.g. a WAL reset) assume exist.
pub(crate) fn sync_dir(path: &Path) -> StoreResult<()> {
    let dir = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
    dir.sync_all().map_err(|e| io_err(path, e))?;
    Ok(())
}

/// Validate a file's magic + version header fields.
pub(crate) fn check_version(
    file: &str,
    magic_found: &[u8],
    magic: &[u8; 4],
    version: u16,
) -> StoreResult<()> {
    if magic_found != magic {
        return Err(StoreError::Corrupt {
            file: file.to_string(),
            message: format!(
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(magic),
                String::from_utf8_lossy(magic_found)
            ),
        });
    }
    if version == 0 || version > FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            file: file.to_string(),
            found: version as u32,
            supported: FORMAT_VERSION as u32,
        });
    }
    Ok(())
}

/// Length of the fixed header written by [`write_blob`].
pub const BLOB_HEADER_LEN: usize = 24;

/// Write a checksummed single-blob snapshot file: a 24-byte header
/// (`magic`, format version, body length, body CRC-32) followed by `body`.
/// Used by the graph/model warm-start snapshots, which serialize their
/// payload with [`ByteWriter`] and delegate framing here. Returns the
/// total file size in bytes.
pub fn write_blob(path: &Path, magic: &[u8; 4], body: &[u8]) -> StoreResult<u64> {
    let mut header = ByteWriter::new();
    header.put_raw(magic);
    header.put_u16(FORMAT_VERSION);
    header.put_u16(0); // reserved
    header.put_u64(body.len() as u64);
    header.put_u32(crc32(body));
    header.put_u32(0); // reserved
    let mut bytes = header.into_bytes();
    debug_assert_eq!(bytes.len(), BLOB_HEADER_LEN);
    bytes.extend_from_slice(body);
    let file = std::fs::File::create(path).map_err(|e| io_err(path, e))?;
    {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(&file);
        f.write_all(&bytes).map_err(|e| io_err(path, e))?;
        f.flush().map_err(|e| io_err(path, e))?;
    }
    file.sync_data().map_err(|e| io_err(path, e))?;
    Ok(bytes.len() as u64)
}

/// Read a snapshot file written by [`write_blob`], verifying magic,
/// version, length and checksum; returns the body bytes.
pub fn read_blob(path: &Path, magic: &[u8; 4]) -> StoreResult<Vec<u8>> {
    let name = path.display().to_string();
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    if bytes.len() < BLOB_HEADER_LEN {
        return Err(StoreError::Corrupt {
            file: name,
            message: format!(
                "file is {} byte(s), shorter than the {BLOB_HEADER_LEN}-byte header",
                bytes.len()
            ),
        });
    }
    let mut r = ByteReader::new(&bytes[..BLOB_HEADER_LEN], &name);
    let found_magic = r.take_raw(4)?.to_vec();
    let version = r.take_u16()?;
    check_version(&name, &found_magic, magic, version)?;
    r.take_u16()?; // reserved
    let body_len = r.take_u64()? as usize;
    let crc = r.take_u32()?;
    let body = &bytes[BLOB_HEADER_LEN..];
    if body.len() != body_len {
        return Err(StoreError::Corrupt {
            file: name,
            message: format!("body is {} byte(s), header promises {body_len}", body.len()),
        });
    }
    if crc32(body) != crc {
        return Err(StoreError::Corrupt {
            file: name,
            message: "body checksum mismatch".to_string(),
        });
    }
    Ok(body.to_vec())
}

/// Round `n` up to the next multiple of 8 (section alignment).
pub(crate) fn pad8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// Data-type tag byte used in column-file headers.
pub(crate) fn type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
        DataType::Timestamp => 4,
    }
}

/// Inverse of [`type_tag`].
pub(crate) fn tag_type(tag: u8, file: &str) -> StoreResult<DataType> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Bool,
        4 => DataType::Timestamp,
        t => {
            return Err(StoreError::Corrupt {
                file: file.to_string(),
                message: format!("unknown column type tag {t}"),
            })
        }
    })
}

/// Fixed value width in bytes for a column data section.
pub(crate) fn type_width(ty: DataType) -> usize {
    match ty {
        DataType::Int | DataType::Timestamp => 8,
        DataType::Float => 8,
        DataType::Text => 4,
        DataType::Bool => 1,
    }
}

// ---------------------------------------------------------------------------
// String dictionary
// ---------------------------------------------------------------------------

/// Incremental per-table string dictionary: ids are assigned in first-
/// occurrence order, so the writer can stream rows without a second pass.
#[derive(Debug, Default)]
pub struct DictBuilder {
    by_string: std::collections::HashMap<String, u32>,
    strings: Vec<String>,
}

impl DictBuilder {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its stable id.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.by_string.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.by_string.insert(s.to_string(), id);
        self.strings.push(s.to_string());
        id
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Serialize to the `strings.dict` layout (see DESIGN.md §14.3).
    pub fn encode(&self) -> Vec<u8> {
        let bytes_len: usize = self.strings.iter().map(String::len).sum();
        let mut body = Vec::with_capacity((self.strings.len() + 1) * 8 + bytes_len);
        let mut off = 0u64;
        for s in &self.strings {
            body.extend_from_slice(&off.to_le_bytes());
            off += s.len() as u64;
        }
        body.extend_from_slice(&off.to_le_bytes());
        for s in &self.strings {
            body.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::with_capacity(32 + body.len());
        out.extend_from_slice(MAGIC_DICT);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&[0u8; 2]);
        out.extend_from_slice(&(self.strings.len() as u64).to_le_bytes());
        out.extend_from_slice(&(bytes_len as u64).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&[0u8; 4]);
        out.extend_from_slice(&body);
        out
    }

    /// Write the encoded dictionary to `path`, synced to disk.
    pub fn write_to(&self, path: &Path) -> StoreResult<u64> {
        let bytes = self.encode();
        write_file_durable(path, &bytes)?;
        Ok(bytes.len() as u64)
    }
}

/// Decode a `strings.dict` file into its string table.
pub fn read_dict(path: &Path) -> StoreResult<Vec<String>> {
    let file = path.display().to_string();
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    if bytes.len() < 32 {
        return Err(StoreError::Corrupt {
            file,
            message: format!("dictionary header truncated at {} bytes", bytes.len()),
        });
    }
    check_version(
        &file,
        &bytes[0..4],
        MAGIC_DICT,
        u16::from_le_bytes([bytes[4], bytes[5]]),
    )?;
    let count = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let bytes_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let want_crc = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    let body = &bytes[32..];
    // `count` and `bytes_len` live in the header, outside the body CRC, so
    // a bit flip there must fail this structural check — with checked
    // arithmetic, since a flipped high bit would overflow the computation.
    let want_len = count
        .checked_add(1)
        .and_then(|n| n.checked_mul(8))
        .and_then(|n| n.checked_add(bytes_len));
    if want_len != Some(body.len()) {
        return Err(StoreError::Corrupt {
            file,
            message: format!(
                "dictionary body is {} bytes, header promises {count} entries + {bytes_len} string bytes",
                body.len()
            ),
        });
    }
    if crc32(body) != want_crc {
        return Err(StoreError::Corrupt {
            file,
            message: "dictionary checksum mismatch".into(),
        });
    }
    let mut offsets = Vec::with_capacity(count + 1);
    for i in 0..=count {
        offsets.push(u64::from_le_bytes(body[i * 8..i * 8 + 8].try_into().unwrap()) as usize);
    }
    let blob = &body[(count + 1) * 8..];
    let mut strings = Vec::with_capacity(count);
    for w in offsets.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        if lo > hi || hi > blob.len() {
            return Err(StoreError::Corrupt {
                file,
                message: format!("dictionary offsets out of order or out of range ({lo}..{hi})"),
            });
        }
        let s = std::str::from_utf8(&blob[lo..hi]).map_err(|_| StoreError::Corrupt {
            file: file.clone(),
            message: "dictionary entry is not valid UTF-8".into(),
        })?;
        strings.push(s.to_string());
    }
    Ok(strings)
}

// ---------------------------------------------------------------------------
// Column segment files
// ---------------------------------------------------------------------------

/// Streaming writer for one column segment file. Values append straight to
/// disk (the running CRC and the validity bitmap stay in memory — 1 bit per
/// row); [`finish`](Self::finish) writes the bitmap, patches the header and
/// syncs. Peak memory is O(rows / 8) regardless of column width.
#[derive(Debug)]
pub struct ColumnFileWriter {
    file: std::fs::File,
    path: std::path::PathBuf,
    ty: DataType,
    rows: u64,
    data_crc: Crc32,
    bitmap: Vec<u8>,
}

impl ColumnFileWriter {
    /// Create `path`, writing a placeholder header.
    pub fn create(path: &Path, ty: DataType) -> StoreResult<Self> {
        let mut file = std::fs::File::create(path).map_err(|e| io_err(path, e))?;
        file.write_all(&[0u8; 32]).map_err(|e| io_err(path, e))?;
        Ok(ColumnFileWriter {
            file,
            path: path.to_path_buf(),
            ty,
            rows: 0,
            data_crc: Crc32::new(),
            bitmap: Vec::new(),
        })
    }

    fn put(&mut self, bytes: &[u8], valid: bool) -> StoreResult<()> {
        self.data_crc.update(bytes);
        self.file
            .write_all(bytes)
            .map_err(|e| io_err(&self.path, e))?;
        let i = self.rows as usize;
        if i / 8 >= self.bitmap.len() {
            self.bitmap.push(0);
        }
        if valid {
            self.bitmap[i / 8] |= 1 << (i % 8);
        }
        self.rows += 1;
        Ok(())
    }

    /// Append one cell. `id` carries the dictionary id for `Text` columns
    /// (ignored otherwise); the cell's raw in-memory value and its validity
    /// bit are both preserved so reload is bit-exact.
    pub fn push_parts(
        &mut self,
        i64v: i64,
        f64v: f64,
        boolv: bool,
        id: u32,
        valid: bool,
    ) -> StoreResult<()> {
        match self.ty {
            DataType::Int | DataType::Timestamp => self.put(&i64v.to_le_bytes(), valid),
            DataType::Float => self.put(&f64v.to_le_bytes(), valid),
            DataType::Bool => self.put(&[boolv as u8], valid),
            DataType::Text => self.put(&id.to_le_bytes(), valid),
        }
    }

    /// Pad the data section, append the validity bitmap, patch the header
    /// with the final counts and checksums, and sync to disk. Returns the
    /// file's total size in bytes.
    pub fn finish(mut self) -> StoreResult<u64> {
        use std::io::Seek;
        let width = type_width(self.ty);
        let data_len = self.rows as usize * width;
        let pad = pad8(data_len) - data_len;
        self.file
            .write_all(&[0u8; 8][..pad])
            .map_err(|e| io_err(&self.path, e))?;
        let valid_crc = crc32(&self.bitmap);
        self.file
            .write_all(&self.bitmap)
            .map_err(|e| io_err(&self.path, e))?;
        let mut header = [0u8; 32];
        header[0..4].copy_from_slice(MAGIC_COLUMN);
        header[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[6] = type_tag(self.ty);
        header[7] = width as u8;
        header[8..16].copy_from_slice(&self.rows.to_le_bytes());
        header[16..20].copy_from_slice(&self.data_crc.finish().to_le_bytes());
        header[20..24].copy_from_slice(&valid_crc.to_le_bytes());
        self.file
            .seek(std::io::SeekFrom::Start(0))
            .map_err(|e| io_err(&self.path, e))?;
        self.file
            .write_all(&header)
            .map_err(|e| io_err(&self.path, e))?;
        self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
        Ok((32 + pad8(data_len) + self.bitmap.len()) as u64)
    }
}

/// Write an in-memory [`Column`] to `path`, interning text into `dict`.
pub fn write_column_file(path: &Path, col: &Column, dict: &mut DictBuilder) -> StoreResult<u64> {
    let mut w = ColumnFileWriter::create(path, col.data_type())?;
    match col {
        Column::Int { data, valid } | Column::Timestamp { data, valid } => {
            for (v, &ok) in data.iter().zip(valid) {
                w.push_parts(*v, 0.0, false, 0, ok)?;
            }
        }
        Column::Float { data, valid } => {
            for (v, &ok) in data.iter().zip(valid) {
                w.push_parts(0, *v, false, 0, ok)?;
            }
        }
        Column::Bool { data, valid } => {
            for (v, &ok) in data.iter().zip(valid) {
                w.push_parts(0, 0.0, *v, 0, ok)?;
            }
        }
        Column::Text { valid, .. } => {
            // A NULL cell interns "", exactly as the streamed writers do.
            for (i, &ok) in valid.iter().enumerate() {
                let id = dict.intern(col.get_str(i).unwrap_or(""));
                w.push_parts(0, 0.0, false, id, ok)?;
            }
        }
    }
    w.finish()
}

/// Decoded column-file header.
#[derive(Debug, Clone, Copy)]
pub struct ColumnHeader {
    /// Column data type.
    pub ty: DataType,
    /// Number of rows.
    pub rows: u64,
    /// CRC-32 of the (unpadded) data section.
    pub data_crc: u32,
    /// CRC-32 of the validity bitmap.
    pub valid_crc: u32,
}

/// Parse and validate the 32-byte header of a column file.
pub fn read_column_header(file: &str, header: &[u8]) -> StoreResult<ColumnHeader> {
    if header.len() < 32 {
        return Err(StoreError::Corrupt {
            file: file.to_string(),
            message: format!("column header truncated at {} bytes", header.len()),
        });
    }
    check_version(
        file,
        &header[0..4],
        MAGIC_COLUMN,
        u16::from_le_bytes([header[4], header[5]]),
    )?;
    let ty = tag_type(header[6], file)?;
    if header[7] as usize != type_width(ty) {
        return Err(StoreError::Corrupt {
            file: file.to_string(),
            message: format!(
                "declared width {} does not match type {ty} (expected {})",
                header[7],
                type_width(ty)
            ),
        });
    }
    Ok(ColumnHeader {
        ty,
        rows: u64::from_le_bytes(header[8..16].try_into().unwrap()),
        data_crc: u32::from_le_bytes(header[16..20].try_into().unwrap()),
        valid_crc: u32::from_le_bytes(header[20..24].try_into().unwrap()),
    })
}

/// Read a column file fully into an in-memory [`Column`], resolving text
/// ids through `dict`. Verifies both section checksums.
pub fn read_column_file(path: &Path, dict: &[String]) -> StoreResult<Column> {
    let file = path.display().to_string();
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    if bytes.len() < 32 {
        return Err(StoreError::Corrupt {
            file,
            message: format!("column file truncated at {} bytes", bytes.len()),
        });
    }
    let h = read_column_header(&file, &bytes[0..32])?;
    let n = h.rows as usize;
    let width = type_width(h.ty);
    let data_len = n * width;
    let valid_len = n.div_ceil(8);
    let want = 32 + pad8(data_len) + valid_len;
    if bytes.len() != want {
        return Err(StoreError::Corrupt {
            file,
            message: format!(
                "column file is {} bytes, header promises {want}",
                bytes.len()
            ),
        });
    }
    let data = &bytes[32..32 + data_len];
    let bitmap = &bytes[32 + pad8(data_len)..];
    if crc32(data) != h.data_crc {
        return Err(StoreError::Corrupt {
            file,
            message: "data-section checksum mismatch".into(),
        });
    }
    if crc32(bitmap) != h.valid_crc {
        return Err(StoreError::Corrupt {
            file,
            message: "validity-bitmap checksum mismatch".into(),
        });
    }
    let valid: Vec<bool> = (0..n)
        .map(|i| bitmap[i / 8] & (1 << (i % 8)) != 0)
        .collect();
    let take_i64 = |i: usize| i64::from_le_bytes(data[i * 8..i * 8 + 8].try_into().unwrap());
    Ok(match h.ty {
        DataType::Int => Column::Int {
            data: (0..n).map(take_i64).collect(),
            valid,
        },
        DataType::Timestamp => Column::Timestamp {
            data: (0..n).map(take_i64).collect(),
            valid,
        },
        DataType::Float => Column::Float {
            data: (0..n)
                .map(|i| f64::from_le_bytes(data[i * 8..i * 8 + 8].try_into().unwrap()))
                .collect(),
            valid,
        },
        DataType::Bool => Column::Bool {
            data: (0..n).map(|i| data[i] != 0).collect(),
            valid,
        },
        DataType::Text => {
            let mut col = Column::with_capacity(DataType::Text, n);
            for (i, &ok) in valid.iter().enumerate() {
                let id = u32::from_le_bytes(data[i * 4..i * 4 + 4].try_into().unwrap()) as usize;
                let s = dict.get(id).ok_or_else(|| StoreError::Corrupt {
                    file: file.clone(),
                    message: format!(
                        "text id {id} out of dictionary range ({} entries)",
                        dict.len()
                    ),
                })?;
                col.push_str(ok.then_some(s.as_str()));
            }
            col
        }
    })
}

/// Read and validate only the 32-byte header of a column file — magic,
/// version, type tag, declared width and row count — without touching the
/// body. The partial-load path ([`DataDir::open_columns`]) uses this to
/// size a deferred all-NULL placeholder for columns it skips, paying one
/// small read instead of the full segment.
///
/// [`DataDir::open_columns`]: super::DataDir::open_columns
pub fn peek_column_header(path: &Path) -> StoreResult<ColumnHeader> {
    let file = path.display().to_string();
    let mut header = [0u8; 32];
    let mut f = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
    f.read_exact(&mut header).map_err(|_| StoreError::Corrupt {
        file: file.clone(),
        message: "column file shorter than its 32-byte header".into(),
    })?;
    read_column_header(&file, &header)
}

/// Stream a column file in fixed-size chunks, verifying checksums without
/// materializing the column. Returns the row count. This is the out-of-core
/// read path used by the scale harness: peak memory is one chunk.
pub fn verify_column_file(path: &Path) -> StoreResult<u64> {
    let file = path.display().to_string();
    let mut f = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
    let mut header = [0u8; 32];
    f.read_exact(&mut header).map_err(|_| StoreError::Corrupt {
        file: file.clone(),
        message: "column header truncated".into(),
    })?;
    let h = read_column_header(&file, &header)?;
    let n = h.rows as usize;
    let width = type_width(h.ty);
    let data_len = n * width;
    let mut crc = Crc32::new();
    let mut left = data_len;
    let mut chunk = vec![0u8; 1 << 20];
    while left > 0 {
        let take = left.min(chunk.len());
        f.read_exact(&mut chunk[..take])
            .map_err(|_| StoreError::Corrupt {
                file: file.clone(),
                message: "data section truncated".into(),
            })?;
        crc.update(&chunk[..take]);
        left -= take;
    }
    if crc.finish() != h.data_crc {
        return Err(StoreError::Corrupt {
            file,
            message: "data-section checksum mismatch".into(),
        });
    }
    let mut pad = vec![0u8; pad8(data_len) - data_len];
    f.read_exact(&mut pad).map_err(|_| StoreError::Corrupt {
        file: file.clone(),
        message: "padding truncated".into(),
    })?;
    let mut bitmap = vec![0u8; n.div_ceil(8)];
    f.read_exact(&mut bitmap).map_err(|_| StoreError::Corrupt {
        file: file.clone(),
        message: "validity bitmap truncated".into(),
    })?;
    if crc32(&bitmap) != h.valid_crc {
        return Err(StoreError::Corrupt {
            file,
            message: "validity-bitmap checksum mismatch".into(),
        });
    }
    Ok(h.rows)
}

// ---------------------------------------------------------------------------
// Quarantine sidecar
// ---------------------------------------------------------------------------

/// Serialize the quarantine buffer (part of a base snapshot: compaction
/// folds WAL batches into the base, so their quarantined rows must survive
/// alongside the accepted ones).
pub fn encode_quarantine(rows: &[QuarantinedRow]) -> Vec<u8> {
    let mut body = ByteWriter::new();
    for q in rows {
        body.put_str(&q.table);
        body.put_u64(q.batch_row as u64);
        body.put_row(&q.row);
        body.put_str(&q.reason);
    }
    let body = body.into_bytes();
    let mut out = Vec::with_capacity(24 + body.len());
    out.extend_from_slice(MAGIC_QUARANTINE);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]);
    out.extend_from_slice(&body);
    out
}

/// Inverse of [`encode_quarantine`].
pub fn decode_quarantine(file: &str, bytes: &[u8]) -> StoreResult<Vec<QuarantinedRow>> {
    if bytes.len() < 24 {
        return Err(StoreError::Corrupt {
            file: file.to_string(),
            message: format!("quarantine header truncated at {} bytes", bytes.len()),
        });
    }
    check_version(
        file,
        &bytes[0..4],
        MAGIC_QUARANTINE,
        u16::from_le_bytes([bytes[4], bytes[5]]),
    )?;
    let count = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let want_crc = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    let body = &bytes[24..];
    if crc32(body) != want_crc {
        return Err(StoreError::Corrupt {
            file: file.to_string(),
            message: "quarantine checksum mismatch".into(),
        });
    }
    // The count lives in the header, outside the body CRC: a bit flip
    // there passes the checksum, so bound it against the body before
    // trusting it as an allocation size. Each record is at least 20 bytes
    // (two length-prefixed strings, a u64, a row arity).
    const MIN_RECORD_LEN: usize = 20;
    if count
        .checked_mul(MIN_RECORD_LEN)
        .is_none_or(|n| n > body.len())
    {
        return Err(StoreError::Corrupt {
            file: file.to_string(),
            message: format!(
                "quarantine header promises {count} records, body is only {} bytes",
                body.len()
            ),
        });
    }
    let mut r = ByteReader::new(body, file);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let table = r.take_str()?;
        let batch_row = r.take_u64()? as usize;
        let row = r.take_row()?;
        let reason = r.take_str()?;
        out.push(QuarantinedRow {
            table,
            batch_row,
            row,
            reason,
        });
    }
    if !r.is_empty() {
        return Err(StoreError::Corrupt {
            file: file.to_string(),
            message: format!("{} trailing bytes after quarantine records", r.remaining()),
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// The versioned `MANIFEST` at a data directory's root: names the live base
/// generation and how far the WAL had been folded in when that base was
/// written. Text with a trailing CRC line so corruption (including an
/// interrupted rewrite) is always detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Database name (restored on open; part of database equality).
    pub name: String,
    /// Live base generation; the base snapshot lives in `base-<generation>/`.
    pub generation: u64,
    /// Highest WAL sequence number already folded into the base. Recovery
    /// replays only records with `seq > applied_seq`.
    pub applied_seq: u64,
}

impl Manifest {
    /// Render to the on-disk text form (including the CRC line).
    pub fn render(&self) -> String {
        let mut body = format!(
            "{MANIFEST_MAGIC} v1\nname {}\ngeneration {}\napplied_seq {}\n",
            self.name, self.generation, self.applied_seq
        );
        let crc = crc32(body.as_bytes());
        body.push_str(&format!("crc32 {crc:08X}\n"));
        body
    }

    /// Parse and validate the on-disk text form.
    pub fn parse(file: &str, text: &str) -> StoreResult<Self> {
        let corrupt = |message: String| StoreError::Corrupt {
            file: file.to_string(),
            message,
        };
        let crc_at = text
            .rfind("crc32 ")
            .ok_or_else(|| corrupt("missing crc32 line".into()))?;
        let (body, crc_line) = text.split_at(crc_at);
        let want = u32::from_str_radix(crc_line.trim_start_matches("crc32 ").trim(), 16)
            .map_err(|_| corrupt("malformed crc32 line".into()))?;
        if crc32(body.as_bytes()) != want {
            return Err(corrupt("manifest checksum mismatch".into()));
        }
        let mut lines = body.lines();
        let head = lines
            .next()
            .ok_or_else(|| corrupt("empty manifest".into()))?;
        let (magic, version) = head
            .split_once(" v")
            .ok_or_else(|| corrupt(format!("malformed header line `{head}`")))?;
        if magic != MANIFEST_MAGIC {
            return Err(corrupt(format!("bad magic `{magic}`")));
        }
        let version: u32 = version
            .parse()
            .map_err(|_| corrupt(format!("malformed version in `{head}`")))?;
        if version == 0 || version > FORMAT_VERSION as u32 {
            return Err(StoreError::UnsupportedVersion {
                file: file.to_string(),
                found: version,
                supported: FORMAT_VERSION as u32,
            });
        }
        let mut name = None;
        let mut generation = None;
        let mut applied_seq = None;
        for line in lines {
            match line.split_once(' ') {
                Some(("name", v)) => name = Some(v.to_string()),
                Some(("generation", v)) => {
                    generation = Some(
                        v.parse()
                            .map_err(|_| corrupt(format!("bad generation `{v}`")))?,
                    )
                }
                Some(("applied_seq", v)) => {
                    applied_seq = Some(
                        v.parse()
                            .map_err(|_| corrupt(format!("bad applied_seq `{v}`")))?,
                    )
                }
                // Unknown keys are ignored: minor (same-major) format
                // revisions may add fields without breaking old readers.
                _ => {}
            }
        }
        Ok(Manifest {
            name: name.ok_or_else(|| corrupt("missing `name`".into()))?,
            generation: generation.ok_or_else(|| corrupt("missing `generation`".into()))?,
            applied_seq: applied_seq.ok_or_else(|| corrupt("missing `applied_seq`".into()))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn codec_round_trips_rows_policies_batches() {
        let row = Row::from(vec![
            Value::Int(-5),
            Value::Null,
            Value::Text("a,b\"c\n".into()),
            Value::Bool(true),
            Value::Float(f64::MIN_POSITIVE),
            Value::Timestamp(86_400),
        ]);
        let policy = IngestPolicy {
            on_type_mismatch: PolicyAction::Coerce,
            on_fk_violation: PolicyAction::Quarantine,
            on_out_of_order: PolicyAction::Reject,
            on_duplicate_key: PolicyAction::Coerce,
        };
        let batch = RowBatch::new()
            .with("t1", row.clone())
            .with("t2", Row::new().push(1i64));
        let mut w = ByteWriter::new();
        w.put_row(&row);
        w.put_policy(&policy);
        w.put_batch(&batch);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.take_row().unwrap(), row);
        assert_eq!(r.take_policy().unwrap(), policy);
        let got = r.take_batch().unwrap();
        assert_eq!(got.rows(), batch.rows());
        assert!(r.is_empty());
    }

    #[test]
    fn manifest_round_trip_and_corruption() {
        let m = Manifest {
            name: "shop".into(),
            generation: 3,
            applied_seq: 17,
        };
        let text = m.render();
        assert_eq!(Manifest::parse("MANIFEST", &text).unwrap(), m);
        // Flip a byte in the body: checksum must catch it.
        let bad = text.replace("generation 3", "generation 4");
        assert!(matches!(
            Manifest::parse("MANIFEST", &bad),
            Err(StoreError::Corrupt { .. })
        ));
        // Future major version must be refused.
        let future = format!("{MANIFEST_MAGIC} v99\nname x\ngeneration 1\napplied_seq 0\n");
        let crc = crc32(future.as_bytes());
        let future = format!("{future}crc32 {crc:08X}\n");
        assert!(matches!(
            Manifest::parse("MANIFEST", &future),
            Err(StoreError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn short_reads_are_structured_errors() {
        let mut r = ByteReader::new(&[1, 2, 3], "short");
        let err = r.take_u64().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
        assert!(err.to_string().contains("short"));
    }
}

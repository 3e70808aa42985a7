//! The versioned on-disk container: header + CRC-checked chunks.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic          8 bytes   b"DISETRC\0"
//! version        u32       format version (currently 1)
//! fingerprint    u64       kernel fingerprint of the recorded program
//! chunk*                   tag u8 | payload_len u32 | crc32 u32 | payload
//!   tag 1 = data           payload: compressed record bytes
//!   tag 2 = end            payload: record_count u64 — must be last
//! ```
//!
//! The container is agnostic to what the data payloads contain; the
//! record codec lives in `dise_cpu::trace` and treats chunking as pure
//! byte segmentation. A file without its terminal `end` chunk is
//! truncated by definition, so an interrupted recording can never pass
//! for a complete one. Writers additionally stage the whole file at a
//! process-unique temporary sibling and `rename(2)` it into place on
//! [`ChunkWriter::finish`], so concurrent recorders of the same trace
//! are safe (last rename wins, and deterministic encoding makes both
//! files byte-identical anyway) and a crash leaves no half-trace behind.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::wire::crc32;
use crate::TraceError;

/// The first eight bytes of every trace file.
pub const MAGIC: [u8; 8] = *b"DISETRC\0";

/// The format version this build writes and reads.
pub const VERSION: u32 = 1;

/// Chunk tag: compressed record bytes.
const TAG_DATA: u8 = 1;
/// Chunk tag: terminal record count.
const TAG_END: u8 = 2;

/// Header length: magic + version + fingerprint.
const HEADER_LEN: usize = 8 + 4 + 8;
/// Chunk header length: tag + payload length + CRC.
const CHUNK_HEADER_LEN: usize = 1 + 4 + 4;

fn io_error(path: &Path, error: &std::io::Error) -> TraceError {
    TraceError::Io { path: path.display().to_string(), error: error.to_string() }
}

/// Streaming writer for the chunked container.
///
/// Stages everything at `<path>.tmp.<pid>`; the real `path` appears
/// only when [`ChunkWriter::finish`] renames the staged file into
/// place. Dropping an unfinished writer deletes the staged file.
#[derive(Debug)]
pub struct ChunkWriter {
    file: Option<BufWriter<File>>,
    tmp: PathBuf,
    path: PathBuf,
    bytes: u64,
    finished: bool,
}

impl ChunkWriter {
    /// Create the staged file and write the header.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the staged file cannot be created or
    /// written — e.g. a missing or read-only trace directory.
    pub fn create(path: &Path, fingerprint: u64) -> Result<ChunkWriter, TraceError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        let file = File::create(&tmp).map_err(|e| io_error(path, &e))?;
        let mut writer = ChunkWriter {
            file: Some(BufWriter::new(file)),
            tmp,
            path: path.to_path_buf(),
            bytes: 0,
            finished: false,
        };
        writer.write(&MAGIC)?;
        writer.write(&VERSION.to_le_bytes())?;
        writer.write(&fingerprint.to_le_bytes())?;
        Ok(writer)
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        self.bytes += bytes.len() as u64;
        self.file
            .as_mut()
            .expect("file lives until finish()")
            .write_all(bytes)
            .map_err(|e| io_error(&self.path, &e))
    }

    fn write_chunk(&mut self, tag: u8, payload: &[u8]) -> Result<(), TraceError> {
        self.write(&[tag])?;
        self.write(
            &u32::try_from(payload.len())
                .expect("chunk payloads stay far below 4 GiB")
                .to_le_bytes(),
        )?;
        self.write(&crc32(payload).to_le_bytes())?;
        self.write(payload)
    }

    /// Append one CRC-protected data chunk.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the write fails.
    pub fn chunk(&mut self, payload: &[u8]) -> Result<(), TraceError> {
        self.write_chunk(TAG_DATA, payload)
    }

    /// Write the terminal record-count chunk, flush, and rename the
    /// staged file into place. Returns the total file size in bytes.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the final write, flush or rename fails;
    /// the staged file is removed either way.
    pub fn finish(mut self, record_count: u64) -> Result<u64, TraceError> {
        self.write_chunk(TAG_END, &record_count.to_le_bytes())?;
        let mut file = self.file.take().expect("finish() runs once");
        file.flush().map_err(|e| io_error(&self.path, &e))?;
        drop(file);
        fs::rename(&self.tmp, &self.path).map_err(|e| io_error(&self.path, &e))?;
        self.finished = true;
        Ok(self.bytes)
    }
}

impl Drop for ChunkWriter {
    fn drop(&mut self) {
        if !self.finished {
            // Abandoned recording: close and remove the staged file so
            // no half-trace survives (and no later run replays it).
            drop(self.file.take());
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// A fully validated chunk file: header fields plus the concatenated
/// data-chunk payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFile {
    /// Kernel fingerprint from the header.
    pub fingerprint: u64,
    /// Record count from the terminal chunk.
    pub record_count: u64,
    /// All data-chunk payloads, concatenated in file order.
    pub payload: Vec<u8>,
}

/// Read and validate an entire chunk file eagerly: magic, version,
/// every chunk CRC, and the presence of the terminal record-count
/// chunk. Corruption is detected here, before a single record is
/// decoded — never during replay.
///
/// # Errors
///
/// [`TraceError::Io`] when the file cannot be read,
/// [`TraceError::BadMagic`] / [`TraceError::BadVersion`] on a foreign
/// or incompatible header, [`TraceError::Truncated`] when the file ends
/// before its terminal chunk, [`TraceError::CorruptChunk`] on a CRC
/// failure, and [`TraceError::Malformed`] on inconsistent framing.
pub fn read_chunk_file(path: &Path) -> Result<ChunkFile, TraceError> {
    let display = path.display().to_string();
    let bytes = fs::read(path).map_err(|e| io_error(path, &e))?;
    let truncated =
        |offset: usize| TraceError::Truncated { path: display.clone(), offset: offset as u64 };
    if bytes.len() < HEADER_LEN {
        if !bytes.starts_with(&MAGIC[..bytes.len().min(MAGIC.len())]) {
            return Err(TraceError::BadMagic { path: display });
        }
        return Err(truncated(bytes.len()));
    }
    if bytes[..8] != MAGIC {
        return Err(TraceError::BadMagic { path: display });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(TraceError::BadVersion { path: display, found: version, expected: VERSION });
    }
    let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));

    let mut payload = Vec::new();
    let mut pos = HEADER_LEN;
    let mut chunk_index = 0u64;
    loop {
        if pos == bytes.len() {
            // Ran out of file without seeing the end chunk.
            return Err(truncated(pos));
        }
        if bytes.len() - pos < CHUNK_HEADER_LEN {
            return Err(truncated(bytes.len()));
        }
        let tag = bytes[pos];
        let len = u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().expect("4 bytes"));
        pos += CHUNK_HEADER_LEN;
        if bytes.len() - pos < len {
            return Err(truncated(bytes.len()));
        }
        let chunk = &bytes[pos..pos + len];
        pos += len;
        if crc32(chunk) != crc {
            return Err(TraceError::CorruptChunk { path: display, chunk: chunk_index });
        }
        match tag {
            TAG_DATA => payload.extend_from_slice(chunk),
            TAG_END => {
                let count: [u8; 8] = chunk.try_into().map_err(|_| TraceError::Malformed {
                    path: display.clone(),
                    reason: format!("end chunk payload is {len} bytes, expected 8"),
                })?;
                if pos != bytes.len() {
                    return Err(TraceError::Malformed {
                        path: display,
                        reason: format!("{} trailing bytes after the end chunk", bytes.len() - pos),
                    });
                }
                return Ok(ChunkFile {
                    fingerprint,
                    record_count: u64::from_le_bytes(count),
                    payload,
                });
            }
            other => {
                return Err(TraceError::Malformed {
                    path: display,
                    reason: format!("unknown chunk tag {other} at chunk {chunk_index}"),
                });
            }
        }
        chunk_index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dise-trace-store-tests-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    fn write_sample(path: &Path, fingerprint: u64, chunks: &[&[u8]]) -> u64 {
        let mut w = ChunkWriter::create(path, fingerprint).expect("create");
        let mut records = 0;
        for c in chunks {
            w.chunk(c).expect("chunk");
            records += c.len() as u64; // pretend one record per byte
        }
        w.finish(records).expect("finish")
    }

    #[test]
    fn round_trips_header_payload_and_count() {
        let path = scratch("roundtrip.dtrc");
        let bytes = write_sample(&path, 0xDEAD_BEEF_F00D_CAFE, &[b"hello ", b"", b"world"]);
        let file = read_chunk_file(&path).expect("valid file");
        assert_eq!(file.fingerprint, 0xDEAD_BEEF_F00D_CAFE);
        assert_eq!(file.payload, b"hello world");
        assert_eq!(file.record_count, 11);
        assert_eq!(bytes, fs::metadata(&path).expect("metadata").len());
    }

    #[test]
    fn unfinished_writer_publishes_nothing() {
        let path = scratch("abandoned.dtrc");
        let _ = fs::remove_file(&path);
        {
            let mut w = ChunkWriter::create(&path, 1).expect("create");
            w.chunk(b"half a recording").expect("chunk");
            // Dropped without finish(): the crash / abandonment path.
        }
        assert!(!path.exists(), "no half-trace may appear at the real path");
        assert!(
            matches!(read_chunk_file(&path), Err(TraceError::Io { .. })),
            "the abandoned trace must read as absent"
        );
    }

    #[test]
    fn missing_end_chunk_is_truncation() {
        let path = scratch("no-end.dtrc");
        write_sample(&path, 7, &[b"payload"]);
        let full = fs::read(&path).expect("read");
        // Cut the terminal chunk off entirely, then byte by byte.
        let end_len = CHUNK_HEADER_LEN + 8;
        for keep in [full.len() - end_len, full.len() - end_len + 1, full.len() - 1] {
            let cut = scratch("no-end-cut.dtrc");
            fs::write(&cut, &full[..keep]).expect("write");
            assert!(
                matches!(read_chunk_file(&cut), Err(TraceError::Truncated { .. })),
                "keeping {keep}/{} bytes must read as truncated",
                full.len()
            );
        }
    }

    #[test]
    fn truncated_header_is_loud() {
        let path = scratch("short-header.dtrc");
        fs::write(&path, &MAGIC[..6]).expect("write");
        assert!(matches!(read_chunk_file(&path), Err(TraceError::Truncated { .. })));
        fs::write(&path, b"ELF\x7f").expect("write");
        assert!(matches!(read_chunk_file(&path), Err(TraceError::BadMagic { .. })));
    }

    #[test]
    fn flipped_payload_or_crc_byte_is_corrupt_chunk() {
        let path = scratch("corrupt.dtrc");
        write_sample(&path, 7, &[b"payload bytes under crc"]);
        let full = fs::read(&path).expect("read");
        // Flip one byte inside the first chunk's stored CRC, then one
        // inside its payload.
        for flip in [HEADER_LEN + 5, HEADER_LEN + CHUNK_HEADER_LEN + 2] {
            let mut bad = full.clone();
            bad[flip] ^= 0x40;
            let badpath = scratch("corrupt-flip.dtrc");
            fs::write(&badpath, &bad).expect("write");
            assert!(
                matches!(read_chunk_file(&badpath), Err(TraceError::CorruptChunk { chunk: 0, .. })),
                "a flipped byte at offset {flip} must fail the chunk-0 CRC"
            );
        }
    }

    #[test]
    fn foreign_magic_and_future_version_are_distinct() {
        let path = scratch("version.dtrc");
        write_sample(&path, 7, &[b"x"]);
        let mut bad = fs::read(&path).expect("read");
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &bad).expect("write");
        assert!(matches!(
            read_chunk_file(&path),
            Err(TraceError::BadVersion { found: 99, expected: VERSION, .. })
        ));
        bad[0] = b'X';
        fs::write(&path, &bad).expect("write");
        assert!(matches!(read_chunk_file(&path), Err(TraceError::BadMagic { .. })));
    }

    #[test]
    fn trailing_bytes_after_end_chunk_are_malformed() {
        let path = scratch("trailing.dtrc");
        write_sample(&path, 7, &[b"x"]);
        let mut bad = fs::read(&path).expect("read");
        bad.push(0);
        fs::write(&path, &bad).expect("write");
        assert!(matches!(read_chunk_file(&path), Err(TraceError::Malformed { .. })));
    }
}

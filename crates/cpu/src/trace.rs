//! Persistent `Exec` streams: the record codec plus [`TraceWriter`] /
//! [`TraceReader`] over the `dise-trace` container.
//!
//! ## The codec
//!
//! An `Exec` record is large in memory (~100 bytes) but carries almost
//! no information most of the time: kernel inner loops re-execute the
//! same few instructions with the PC advancing predictably and only
//! memory-operand values changing. The codec exploits that with three
//! token kinds over a small amount of shared state (`prev`, the last
//! record emitted, and `last`, the most recent record seen at each
//! `(pc, disepc)` position):
//!
//! - `RUN n` — the next `n` records are each *exactly* the remembered
//!   record at the position sequential flow predicts from its
//!   predecessor (fall-through, taken-branch target, or the next
//!   replacement-sequence slot). Straight-line re-execution — the
//!   overwhelmingly common case — costs amortised fractions of a byte
//!   per record.
//! - `SAME` — the record equals the remembered record at its position,
//!   but control arrived there unpredictably; costs a PC delta.
//! - `FULL` — anything else: field-by-field delta encoding against the
//!   remembered record at this position, with presence flags so absent
//!   options cost nothing.
//!
//! The decoder maintains the same state machine, so both sides agree on
//! every prediction without any side channel; round-trips are
//! bit-identical by construction and the conformance suite pins it.
//!
//! ## Fingerprints
//!
//! A trace is only replayable against the exact program image that
//! produced it. [`program_fingerprint`] hashes everything that
//! determines the functional stream (text, data, entry, stack top);
//! the writer stamps it into the container header and
//! [`TraceReader::open`] rejects a mismatch loudly
//! ([`TraceError::FingerprintMismatch`]) — a stale trace must never
//! silently replay wrong.

use std::collections::HashMap;
use std::path::Path;

use dise_asm::Program;
use dise_isa::{decode as decode_instr, encode as encode_instr, INSTR_BYTES};
use dise_trace::wire::{apply_delta, delta, read_uvarint, write_uvarint};
use dise_trace::{read_chunk_file, ChunkWriter, TraceError};

use crate::exec::{Branch, BranchKind, Event, Exec, ExecError, FlushKind, MemOp};
use crate::{CpuConfig, RunStats, TimingBatch, MAX_BLOCK_STEPS};

/// Target size of one compressed data chunk. Chunking is pure byte
/// segmentation — the codec state runs straight across chunk seams —
/// so this only bounds the blast radius of a CRC failure.
const CHUNK_BYTES: usize = 64 * 1024;

const OP_RUN: u8 = 0;
const OP_SAME: u8 = 1;
const OP_FULL: u8 = 2;

/// Fingerprint of everything that determines a program's functional
/// `Exec` stream: text placement and words, data placement and bytes,
/// entry point, and initial stack top. (Symbols and statement markers
/// are debugger-side metadata and deliberately excluded.) FNV-1a, 64
/// bits.
pub fn program_fingerprint(prog: &Program) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    };
    eat(&prog.text_base.to_le_bytes());
    for w in &prog.text {
        eat(&w.to_le_bytes());
    }
    eat(&prog.data_base.to_le_bytes());
    eat(&prog.data);
    eat(&prog.entry.to_le_bytes());
    eat(&prog.stack_top.to_le_bytes());
    h
}

/// The position sequential flow predicts after `e`: the taken-branch
/// target, the next slot of an in-progress replacement sequence, or
/// plain fall-through. Both codec sides compute this identically.
fn predicted_next(e: &Exec) -> (u64, u16) {
    if let Some(b) = e.branch {
        if b.taken {
            return (b.target, 0);
        }
    }
    if e.disepc > 0 {
        (e.pc, e.disepc.wrapping_add(1))
    } else {
        (e.pc.wrapping_add(INSTR_BYTES), 0)
    }
}

fn branch_kind_code(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Direct => 1,
        BranchKind::Indirect => 2,
        BranchKind::Call => 3,
        BranchKind::Return => 4,
    }
}

fn branch_kind_from(code: u8) -> Result<BranchKind, String> {
    Ok(match code {
        0 => BranchKind::Conditional,
        1 => BranchKind::Direct,
        2 => BranchKind::Indirect,
        3 => BranchKind::Call,
        4 => BranchKind::Return,
        other => return Err(format!("unknown branch kind {other}")),
    })
}

fn flush_code(kind: FlushKind) -> u8 {
    match kind {
        FlushKind::DiseBranch => 0,
        FlushKind::DiseCall => 1,
        FlushKind::DiseRet => 2,
        FlushKind::ReplacementBranch => 3,
    }
}

fn flush_from(code: u8) -> Result<FlushKind, String> {
    Ok(match code {
        0 => FlushKind::DiseBranch,
        1 => FlushKind::DiseCall,
        2 => FlushKind::DiseRet,
        3 => FlushKind::ReplacementBranch,
        other => return Err(format!("unknown flush kind {other}")),
    })
}

fn exec_error_parts(e: ExecError) -> (u8, u64) {
    match e {
        ExecError::BadInstruction(pc) => (0, pc),
        ExecError::DiseProtection(pc) => (1, pc),
        ExecError::StrayDiseReturn(pc) => (2, pc),
        ExecError::DiseBranchOutOfSequence(pc) => (3, pc),
        ExecError::NestedDiseCall(pc) => (4, pc),
    }
}

fn exec_error_from(code: u8, pc: u64) -> Result<ExecError, String> {
    Ok(match code {
        0 => ExecError::BadInstruction(pc),
        1 => ExecError::DiseProtection(pc),
        2 => ExecError::StrayDiseReturn(pc),
        3 => ExecError::DiseBranchOutOfSequence(pc),
        4 => ExecError::NestedDiseCall(pc),
        other => return Err(format!("unknown exec error {other}")),
    })
}

/// Codec state shared (by construction, not by channel) between the
/// encoder and the decoder.
#[derive(Default)]
struct CodecState {
    /// The last record coded, for PC deltas and run prediction.
    prev: Option<Exec>,
    /// The most recent record seen at each `(pc, disepc)` position.
    last: HashMap<(u64, u16), Exec>,
}

/// Streaming `Exec` → bytes encoder. Feed records with
/// [`ExecEncoder::encode`]; call [`ExecEncoder::finish`] once at end of
/// stream to flush a pending run token.
#[derive(Default)]
pub struct ExecEncoder {
    state: CodecState,
    run: u64,
}

impl ExecEncoder {
    /// A fresh encoder at stream start.
    pub fn new() -> ExecEncoder {
        ExecEncoder::default()
    }

    /// Append the encoding of `e` to `out` (possibly zero bytes now:
    /// run tokens are emitted lazily when the run breaks or the stream
    /// finishes).
    pub fn encode(&mut self, e: &Exec, out: &mut Vec<u8>) {
        let key = (e.pc, e.disepc);
        let predicted = self.state.prev.as_ref().map(predicted_next);
        let same = self.state.last.get(&key) == Some(e);
        if same && predicted == Some(key) {
            self.run += 1;
        } else {
            self.flush_run(out);
            let prev_pc = self.state.prev.map_or(0, |p| p.pc);
            if same {
                out.push(OP_SAME);
                write_uvarint(out, delta(prev_pc, e.pc));
                write_uvarint(out, u64::from(e.disepc));
            } else {
                self.encode_full(e, prev_pc, out);
            }
        }
        self.state.last.insert(key, *e);
        self.state.prev = Some(*e);
    }

    /// Flush the pending run token at end of stream.
    pub fn finish(&mut self, out: &mut Vec<u8>) {
        self.flush_run(out);
    }

    fn flush_run(&mut self, out: &mut Vec<u8>) {
        if self.run > 0 {
            out.push(OP_RUN);
            write_uvarint(out, self.run);
            self.run = 0;
        }
    }

    fn encode_full(&self, e: &Exec, prev_pc: u64, out: &mut Vec<u8>) {
        let base = self.state.last.get(&(e.pc, e.disepc));
        let instr_same = base.is_some_and(|b| b.instr == e.instr);
        let mut flags = 0u8;
        flags |= u8::from(e.fetched);
        flags |= u8::from(e.in_dise_call) << 1;
        flags |= u8::from(e.branch.is_some()) << 2;
        flags |= u8::from(e.mem.is_some()) << 3;
        flags |= u8::from(e.flush.is_some()) << 4;
        flags |= u8::from(e.event.is_some()) << 5;
        flags |= u8::from(instr_same) << 6;
        out.push(OP_FULL);
        out.push(flags);
        write_uvarint(out, delta(prev_pc, e.pc));
        write_uvarint(out, u64::from(e.disepc));
        if !instr_same {
            out.extend_from_slice(&encode_instr(&e.instr).to_le_bytes());
        }
        if let Some(b) = e.branch {
            out.push(branch_kind_code(b.kind) | (u8::from(b.taken) << 3));
            write_uvarint(out, delta(e.pc, b.target));
        }
        if let Some(m) = e.mem {
            out.push(u8::from(m.is_store));
            write_uvarint(out, m.width);
            // Memory operands delta against the previous access at the
            // same position: array walks and counters become one byte.
            if let Some(lm) = base.and_then(|b| b.mem) {
                write_uvarint(out, delta(lm.addr, m.addr));
                write_uvarint(out, delta(lm.old_value, m.old_value));
                write_uvarint(out, delta(lm.new_value, m.new_value));
            } else {
                write_uvarint(out, m.addr);
                write_uvarint(out, m.old_value);
                write_uvarint(out, m.new_value);
            }
        }
        if let Some(fl) = e.flush {
            out.push(flush_code(fl));
        }
        if let Some(ev) = e.event {
            match ev {
                Event::Trap => out.push(0),
                Event::ProtFault { addr } => {
                    out.push(1);
                    write_uvarint(out, addr);
                }
                Event::Halted => out.push(2),
                Event::Error(err) => {
                    out.push(3);
                    let (code, pc) = exec_error_parts(err);
                    out.push(code);
                    write_uvarint(out, pc);
                }
            }
        }
    }
}

/// Streaming bytes → `Exec` decoder — the exact mirror of
/// [`ExecEncoder`]. Errors are returned as human-readable reasons; the
/// caller wraps them in [`TraceError::Malformed`] with the file path.
#[derive(Default)]
pub struct ExecDecoder {
    state: CodecState,
    run: u64,
}

impl ExecDecoder {
    /// A fresh decoder at stream start.
    pub fn new() -> ExecDecoder {
        ExecDecoder::default()
    }

    /// Decode the next record from `buf` at `*pos`, or `Ok(None)` at
    /// end of stream.
    ///
    /// # Errors
    ///
    /// A description of the inconsistency when the byte stream does not
    /// decode — possible only for hand-damaged input, since CRC
    /// validation happens before decoding.
    pub fn next(&mut self, buf: &[u8], pos: &mut usize) -> Result<Option<Exec>, String> {
        if self.run > 0 {
            self.run -= 1;
            return self.replay_predicted().map(Some);
        }
        if *pos >= buf.len() {
            return Ok(None);
        }
        let op = buf[*pos];
        *pos += 1;
        match op {
            OP_RUN => {
                let n = read_uvarint(buf, pos).ok_or("truncated run token")?;
                if n == 0 {
                    return Err("empty run token".to_string());
                }
                self.run = n - 1;
                self.replay_predicted().map(Some)
            }
            OP_SAME => {
                let prev_pc = self.state.prev.map_or(0, |p| p.pc);
                let pc = apply_delta(prev_pc, read_uvarint(buf, pos).ok_or("truncated SAME pc")?);
                let disepc = read_uvarint(buf, pos).ok_or("truncated SAME disepc")?;
                let disepc =
                    u16::try_from(disepc).map_err(|_| format!("disepc {disepc} out of range"))?;
                let e = *self
                    .state
                    .last
                    .get(&(pc, disepc))
                    .ok_or("SAME token for a position never seen")?;
                self.state.prev = Some(e);
                Ok(Some(e))
            }
            OP_FULL => self.decode_full(buf, pos).map(Some),
            other => Err(format!("unknown opcode {other}")),
        }
    }

    fn replay_predicted(&mut self) -> Result<Exec, String> {
        let prev = self.state.prev.as_ref().ok_or("run token before any record")?;
        let key = predicted_next(prev);
        let e = *self.state.last.get(&key).ok_or("run token reached a position never seen")?;
        self.state.prev = Some(e);
        Ok(e)
    }

    #[allow(clippy::too_many_lines)]
    fn decode_full(&mut self, buf: &[u8], pos: &mut usize) -> Result<Exec, String> {
        let flags = *buf.get(*pos).ok_or("truncated FULL flags")?;
        *pos += 1;
        let prev_pc = self.state.prev.map_or(0, |p| p.pc);
        let pc = apply_delta(prev_pc, read_uvarint(buf, pos).ok_or("truncated FULL pc")?);
        let disepc = read_uvarint(buf, pos).ok_or("truncated FULL disepc")?;
        let disepc = u16::try_from(disepc).map_err(|_| format!("disepc {disepc} out of range"))?;
        let base = self.state.last.get(&(pc, disepc)).copied();
        let instr = if flags & (1 << 6) != 0 {
            base.ok_or("instr-same flag for a position never seen")?.instr
        } else {
            if buf.len() - *pos < 4 {
                return Err("truncated FULL instruction word".to_string());
            }
            let word = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().expect("4 bytes"));
            *pos += 4;
            decode_instr(word).map_err(|e| format!("undecodable instruction word: {e:?}"))?
        };
        let branch = if flags & (1 << 2) != 0 {
            let b = *buf.get(*pos).ok_or("truncated branch byte")?;
            *pos += 1;
            let target = apply_delta(pc, read_uvarint(buf, pos).ok_or("truncated branch target")?);
            Some(Branch { kind: branch_kind_from(b & 0x7)?, taken: b & (1 << 3) != 0, target })
        } else {
            None
        };
        let mem = if flags & (1 << 3) != 0 {
            let m = *buf.get(*pos).ok_or("truncated mem byte")?;
            *pos += 1;
            let width = read_uvarint(buf, pos).ok_or("truncated mem width")?;
            if !matches!(width, 1 | 2 | 4 | 8) {
                return Err(format!("memory access width {width} is not 1, 2, 4 or 8"));
            }
            let (addr, old_value, new_value) = if let Some(lm) = base.and_then(|b| b.mem) {
                (
                    apply_delta(lm.addr, read_uvarint(buf, pos).ok_or("truncated mem addr")?),
                    apply_delta(
                        lm.old_value,
                        read_uvarint(buf, pos).ok_or("truncated mem old value")?,
                    ),
                    apply_delta(
                        lm.new_value,
                        read_uvarint(buf, pos).ok_or("truncated mem new value")?,
                    ),
                )
            } else {
                (
                    read_uvarint(buf, pos).ok_or("truncated mem addr")?,
                    read_uvarint(buf, pos).ok_or("truncated mem old value")?,
                    read_uvarint(buf, pos).ok_or("truncated mem new value")?,
                )
            };
            Some(MemOp { addr, width, is_store: m & 1 != 0, old_value, new_value })
        } else {
            None
        };
        let flush = if flags & (1 << 4) != 0 {
            let fl = *buf.get(*pos).ok_or("truncated flush byte")?;
            *pos += 1;
            Some(flush_from(fl)?)
        } else {
            None
        };
        let event = if flags & (1 << 5) != 0 {
            let tag = *buf.get(*pos).ok_or("truncated event tag")?;
            *pos += 1;
            Some(match tag {
                0 => Event::Trap,
                1 => Event::ProtFault {
                    addr: read_uvarint(buf, pos).ok_or("truncated fault address")?,
                },
                2 => Event::Halted,
                3 => {
                    let code = *buf.get(*pos).ok_or("truncated error code")?;
                    *pos += 1;
                    let pc = read_uvarint(buf, pos).ok_or("truncated error pc")?;
                    Event::Error(exec_error_from(code, pc)?)
                }
                other => return Err(format!("unknown event tag {other}")),
            })
        } else {
            None
        };
        let e = Exec {
            pc,
            disepc,
            in_dise_call: flags & (1 << 1) != 0,
            instr,
            fetched: flags & 1 != 0,
            branch,
            mem,
            flush,
            event,
        };
        self.state.last.insert((pc, disepc), e);
        self.state.prev = Some(e);
        Ok(e)
    }
}

/// Size accounting for one recorded trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceStats {
    /// Records in the stream.
    pub records: u64,
    /// What the stream would occupy uncompressed, at
    /// `size_of::<Exec>()` per record.
    pub raw_bytes: u64,
    /// Actual on-disk file size, container overhead included.
    pub file_bytes: u64,
}

impl TraceStats {
    /// Compression ratio versus the in-memory record size.
    pub fn compression(&self) -> f64 {
        if self.file_bytes == 0 {
            return 0.0;
        }
        self.raw_bytes as f64 / self.file_bytes as f64
    }
}

/// Records an `Exec` stream to a trace file.
///
/// [`TraceWriter::record`] encodes each record on the caller's thread
/// into one byte buffer and persists it as a CRC-checked data chunk
/// whenever the buffer reaches `CHUNK_BYTES`. Until
/// [`TraceWriter::finish`] renames it into place the trace exists only
/// as a staged temporary, and dropping an unfinished writer deletes it,
/// so an abandoned or crashed recording publishes nothing.
pub struct TraceWriter {
    store: ChunkWriter,
    encoder: ExecEncoder,
    buf: Vec<u8>,
    records: u64,
}

impl TraceWriter {
    /// Open the staged file, surfacing an unwritable trace directory
    /// immediately, before any simulation work.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the staged file cannot be created.
    pub fn create(path: &Path, fingerprint: u64) -> Result<TraceWriter, TraceError> {
        Ok(TraceWriter {
            store: ChunkWriter::create(path, fingerprint)?,
            encoder: ExecEncoder::new(),
            buf: Vec::with_capacity(2 * CHUNK_BYTES),
            records: 0,
        })
    }

    /// Encode one record, persisting a data chunk when the buffer fills.
    ///
    /// # Panics
    ///
    /// Panics — loudly, with the path and the I/O error — when a chunk
    /// cannot be written (e.g. the disk filled mid-recording). A
    /// recording the caller asked for must never silently become a
    /// non-recording.
    pub fn record(&mut self, e: &Exec) {
        self.records += 1;
        self.encoder.encode(e, &mut self.buf);
        if self.buf.len() >= CHUNK_BYTES {
            if let Err(err) = self.store.chunk(&self.buf) {
                panic!("trace recording failed: {err}");
            }
            self.buf.clear();
        }
    }

    /// Seal the stream: write the last data chunk and the terminal
    /// chunk, and rename the staged file into place.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when persisting failed; the staged file is
    /// discarded and nothing is published.
    pub fn finish(mut self) -> Result<TraceStats, TraceError> {
        self.encoder.finish(&mut self.buf);
        if !self.buf.is_empty() {
            self.store.chunk(&self.buf)?;
        }
        let file_bytes = self.store.finish(self.records)?;
        let raw_bytes = self.records * std::mem::size_of::<Exec>() as u64;
        Ok(TraceStats { records: self.records, raw_bytes, file_bytes })
    }
}

/// Replays an `Exec` stream from a trace file.
///
/// [`TraceReader::open`] validates everything eagerly — magic, version,
/// kernel fingerprint, every chunk CRC, terminal record count — so a
/// damaged or stale trace is rejected before a single record is
/// delivered; [`TraceReader::next`] then decodes lazily.
pub struct TraceReader {
    path: String,
    payload: Vec<u8>,
    pos: usize,
    decoder: ExecDecoder,
    delivered: u64,
    records: u64,
}

impl TraceReader {
    /// Open and validate `path`. Pass the fingerprint of the program
    /// about to be replayed to reject stale traces; `None` skips that
    /// check (inspection tools only — replayers must pass it).
    ///
    /// # Errors
    ///
    /// Every [`TraceError`] variant, per its documentation; notably
    /// [`TraceError::FingerprintMismatch`] for a well-formed trace of
    /// the wrong kernel.
    pub fn open(path: &Path, expected_fingerprint: Option<u64>) -> Result<TraceReader, TraceError> {
        let file = read_chunk_file(path)?;
        if let Some(expected) = expected_fingerprint {
            if expected != file.fingerprint {
                return Err(TraceError::FingerprintMismatch {
                    path: path.display().to_string(),
                    expected,
                    found: file.fingerprint,
                });
            }
        }
        Ok(TraceReader {
            path: path.display().to_string(),
            payload: file.payload,
            pos: 0,
            decoder: ExecDecoder::new(),
            delivered: 0,
            records: file.record_count,
        })
    }

    /// Decode the next record, or `Ok(None)` at end of stream.
    ///
    /// # Errors
    ///
    /// [`TraceError::Malformed`] when the (CRC-clean) bytes do not
    /// decode or the stream length disagrees with the terminal record
    /// count.
    // Not `Iterator`: decoding is fallible, and callers must not be
    // able to skip a mid-stream error and keep iterating.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Exec>, TraceError> {
        let malformed = |reason: String| TraceError::Malformed { path: self.path.clone(), reason };
        match self.decoder.next(&self.payload, &mut self.pos) {
            Ok(Some(e)) => {
                self.delivered += 1;
                if self.delivered > self.records {
                    return Err(malformed(format!(
                        "stream holds more than the {} records its end chunk declares",
                        self.records
                    )));
                }
                Ok(Some(e))
            }
            Ok(None) => {
                if self.delivered != self.records {
                    return Err(malformed(format!(
                        "stream ended after {} of {} declared records",
                        self.delivered, self.records
                    )));
                }
                Ok(None)
            }
            Err(reason) => Err(malformed(reason)),
        }
    }

    /// Total records the trace declares.
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// Run a [`TimingBatch`] entirely from a stored trace: one stream read,
/// one [`RunStats`] per configuration, no functional execution at all.
///
/// # Errors
///
/// [`TraceError`] when the stream fails mid-decode (see
/// [`TraceReader::next`]).
pub fn replay_timing(
    reader: &mut TraceReader,
    cpus: &[CpuConfig],
) -> Result<Vec<RunStats>, TraceError> {
    let mut batch = TimingBatch::new(cpus);
    // Pure timing replay has no observers, so every record is clean:
    // decode into one scratch buffer and account each full buffer as a
    // slice, models-outer / records-inner.
    let mut buf = Vec::with_capacity(MAX_BLOCK_STEPS);
    while let Some(e) = reader.next()? {
        buf.push(e);
        if buf.len() == MAX_BLOCK_STEPS {
            batch.consume_slice(&buf);
            buf.clear();
        }
    }
    batch.consume_slice(&buf);
    Ok(batch.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_isa::{Instr, Reg, Width};

    fn nop(pc: u64) -> Exec {
        Exec {
            pc,
            disepc: 0,
            in_dise_call: false,
            instr: Instr::Nop,
            fetched: true,
            branch: None,
            mem: None,
            flush: None,
            event: None,
        }
    }

    fn roundtrip(stream: &[Exec]) -> Vec<u8> {
        let mut enc = ExecEncoder::new();
        let mut out = Vec::new();
        for e in stream {
            enc.encode(e, &mut out);
        }
        enc.finish(&mut out);
        let mut dec = ExecDecoder::new();
        let mut pos = 0;
        for (i, e) in stream.iter().enumerate() {
            assert_eq!(dec.next(&out, &mut pos).expect("decodes"), Some(*e), "record {i}");
        }
        assert_eq!(dec.next(&out, &mut pos).expect("clean end"), None);
        assert_eq!(pos, out.len(), "every byte must be consumed");
        out
    }

    #[test]
    fn codec_round_trips_every_field_shape() {
        let mut stream = vec![nop(0x1000)];
        // A branch of every kind, taken and not.
        for (i, kind) in [
            BranchKind::Conditional,
            BranchKind::Direct,
            BranchKind::Indirect,
            BranchKind::Call,
            BranchKind::Return,
        ]
        .into_iter()
        .enumerate()
        {
            let mut e = nop(0x1000 + 4 * (i as u64 + 1));
            e.branch =
                Some(Branch { kind, taken: i % 2 == 0, target: 0x1000 + 4 * (i as u64 + 2) });
            stream.push(e);
        }
        // Memory ops: load, store, silent store; replacement sequence
        // positions; DISE-called code; every flush kind; every event.
        let mut e = nop(0x2000);
        e.mem = Some(MemOp { addr: 0x8000, width: 8, is_store: false, old_value: 7, new_value: 7 });
        stream.push(e);
        let mut e = nop(0x2000);
        e.mem = Some(MemOp { addr: 0x8008, width: 4, is_store: true, old_value: 7, new_value: 9 });
        stream.push(e);
        for (i, flush) in [
            FlushKind::DiseBranch,
            FlushKind::DiseCall,
            FlushKind::DiseRet,
            FlushKind::ReplacementBranch,
        ]
        .into_iter()
        .enumerate()
        {
            let mut e = nop(0x3000);
            e.disepc = i as u16 + 1;
            e.fetched = false;
            e.in_dise_call = i % 2 == 1;
            e.flush = Some(flush);
            stream.push(e);
        }
        for event in [
            Event::Trap,
            Event::ProtFault { addr: 0x9990 },
            Event::Halted,
            Event::Error(ExecError::BadInstruction(0x4000)),
            Event::Error(ExecError::DiseProtection(0x4004)),
            Event::Error(ExecError::StrayDiseReturn(0x4008)),
            Event::Error(ExecError::DiseBranchOutOfSequence(0x400c)),
            Event::Error(ExecError::NestedDiseCall(0x4010)),
        ] {
            let mut e = nop(0x4000);
            e.event = Some(event);
            stream.push(e);
        }
        roundtrip(&stream);
    }

    #[test]
    fn straight_line_reexecution_collapses_to_run_tokens() {
        // A two-instruction loop body repeated: after the first
        // iteration teaches the codec the loop, every later iteration
        // should cost only run-token bytes.
        let mut body = Vec::new();
        let mut e = nop(0x1000);
        e.branch = None;
        body.push(e);
        let mut e = nop(0x1004);
        e.branch = Some(Branch { kind: BranchKind::Conditional, taken: true, target: 0x1000 });
        body.push(e);
        let mut stream = Vec::new();
        for _ in 0..1000 {
            stream.extend_from_slice(&body);
        }
        let out = roundtrip(&stream);
        assert!(
            out.len() < 32,
            "1000 identical iterations must collapse to a handful of bytes, got {}",
            out.len()
        );
    }

    #[test]
    fn same_position_different_values_delta_cheaply() {
        // A store loop whose stored value changes every iteration: the
        // store record can never join a run, but its FULL encoding must
        // stay small via per-position deltas.
        let mut stream = Vec::new();
        for i in 0..1000u64 {
            let mut st = nop(0x1000);
            st.instr =
                Instr::Store { width: Width::Q, rs: Reg::gpr(1), base: Reg::gpr(2), disp: 0 };
            st.mem = Some(MemOp {
                addr: 0x8000,
                width: 8,
                is_store: true,
                old_value: 1000 - i,
                new_value: 1000 - i - 1,
            });
            stream.push(st);
            let mut br = nop(0x1004);
            br.branch = Some(Branch { kind: BranchKind::Conditional, taken: true, target: 0x1000 });
            stream.push(br);
        }
        let out = roundtrip(&stream);
        let per_iteration = out.len() as f64 / 1000.0;
        assert!(
            per_iteration < 12.0,
            "a counting store loop must cost ~order-10 bytes/iteration, got {per_iteration}"
        );
    }

    #[test]
    fn fingerprint_distinguishes_programs_and_is_stable() {
        use dise_asm::{parse_asm, Layout};
        let assemble = |src: &str| {
            parse_asm(src).expect("parses").assemble(Layout::default()).expect("assembles")
        };
        let a = assemble("start: halt\n");
        let b = assemble("start: nop\n halt\n");
        assert_eq!(program_fingerprint(&a), program_fingerprint(&a));
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
    }
}

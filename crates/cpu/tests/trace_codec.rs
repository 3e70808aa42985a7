//! The trace codec against the real machine: a tight-loop kernel's
//! recorded bytes are pinned to a golden fixture (any codec or format
//! change must be a conscious, reviewed decision — it invalidates every
//! stored trace), and timing replay from a trace is proven equal to the
//! live machine.
//!
//! Regenerate the fixture after a *deliberate* format change with:
//!
//! ```text
//! DISE_BLESS_TRACE=1 cargo test -p dise-cpu --test trace_codec
//! ```

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use dise_asm::{parse_asm, Layout, Program};
use dise_cpu::{
    program_fingerprint, replay_timing, CpuConfig, Exec, ExecEncoder, Executor, Machine, MemOp,
    TraceReader, TraceWriter,
};
use dise_isa::{Instr, Reg, Width};
use dise_trace::{ChunkWriter, TraceError};

/// The known tight-loop stream the fixture pins: a counted store loop,
/// the shape the RLE + delta codec is built for.
const TIGHT_LOOP: &str = "
    start:  la r1, hot
            lda r4, 2000(zero)
    loop:   stq r4, 0(r1)
            subq r4, 1, r4
            bgt r4, loop
            halt
    .data
    hot:    .quad 0
";

fn tight_loop() -> Program {
    parse_asm(TIGHT_LOOP).expect("parses").assemble(Layout::default()).expect("assembles")
}

fn scratch(name: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("dise-trace-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(format!("{}-{name}", UNIQUE.fetch_add(1, Ordering::Relaxed)))
}

/// Record `prog`'s full functional stream to `path`, returning the
/// stats.
fn record(prog: &Program, path: &std::path::Path) -> dise_cpu::TraceStats {
    let mut writer = TraceWriter::create(path, program_fingerprint(prog)).expect("create");
    let mut exec = Executor::from_program(prog, CpuConfig::default());
    while !exec.is_halted() {
        writer.record(&exec.step());
    }
    writer.finish().expect("finish")
}

#[test]
fn tight_loop_encoding_matches_the_golden_fixture() {
    let fixture: &[u8] = include_bytes!("data/tight_loop.dtrc");
    let prog = tight_loop();
    let path = scratch("tight_loop.dtrc");
    record(&prog, &path);
    let fresh = std::fs::read(&path).expect("recorded trace");
    if std::env::var_os("DISE_BLESS_TRACE").is_some() {
        let dest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/tight_loop.dtrc");
        std::fs::write(&dest, &fresh).expect("bless fixture");
        return;
    }
    assert_eq!(
        fresh, fixture,
        "the on-disk trace encoding changed; if deliberate, bump the format version \
         and re-bless with DISE_BLESS_TRACE=1"
    );
}

#[test]
fn golden_fixture_replays_bit_identically_to_the_live_stream() {
    // Decode the *committed* fixture (not a fresh recording) against a
    // live machine: proves stored traces survive codec refactors.
    let fixture: &[u8] = include_bytes!("data/tight_loop.dtrc");
    let path = scratch("fixture_copy.dtrc");
    std::fs::write(&path, fixture).expect("write fixture copy");
    let prog = tight_loop();
    let mut reader =
        TraceReader::open(&path, Some(program_fingerprint(&prog))).expect("valid fixture");
    let mut exec = Executor::from_program(&prog, CpuConfig::default());
    let mut n = 0u64;
    while !exec.is_halted() {
        let live = exec.step();
        let replayed = reader.next().expect("decodes").expect("stream long enough");
        assert_eq!(live, replayed, "record {n} diverged");
        n += 1;
    }
    assert_eq!(reader.next().expect("clean end"), None, "trace must end with the stream");
    assert_eq!(reader.records(), n);
}

#[test]
fn tight_loop_compresses_at_least_ten_fold() {
    let prog = tight_loop();
    let path = scratch("ratio.dtrc");
    let stats = record(&prog, &path);
    assert!(
        stats.compression() >= 10.0,
        "tight loop must compress ≥10× vs in-memory records, got {:.1}× \
         ({} records, {} file bytes)",
        stats.compression(),
        stats.records,
        stats.file_bytes
    );
}

#[test]
fn timing_replay_from_trace_equals_the_live_machine() {
    let prog = tight_loop();
    let path = scratch("timing.dtrc");
    record(&prog, &path);

    let cheap = CpuConfig { debugger_transition_cost: 5, ..CpuConfig::default() };
    let live_default = Machine::from_program(&prog).run();
    let live_cheap = Machine::with_config(&prog, cheap).run();

    let mut reader =
        TraceReader::open(&path, Some(program_fingerprint(&prog))).expect("valid trace");
    let replayed = replay_timing(&mut reader, &[CpuConfig::default(), cheap]).expect("replays");
    assert_eq!(replayed, vec![live_default, live_cheap], "timing from trace must be exact");
}

#[test]
fn stale_trace_is_rejected_by_fingerprint() {
    let prog = tight_loop();
    let path = scratch("stale.dtrc");
    record(&prog, &path);
    let other =
        parse_asm("start: halt\n").expect("parses").assemble(Layout::default()).expect("assembles");
    let err = TraceReader::open(&path, Some(program_fingerprint(&other)))
        .err()
        .expect("stale trace must be rejected");
    assert!(matches!(err, TraceError::FingerprintMismatch { .. }), "wrong variant: {err:?}");
}

/// A quad store record at a fixed PC with the given access width and
/// stored value.
fn store(width: u64, new_value: u64) -> Exec {
    Exec {
        pc: 0x1000,
        disepc: 0,
        in_dise_call: false,
        instr: Instr::Store { width: Width::Q, rs: Reg::gpr(1), base: Reg::gpr(2), disp: 0 },
        fetched: true,
        branch: None,
        mem: Some(MemOp { addr: 0x8000, width, is_store: true, old_value: 7, new_value }),
        flush: None,
        event: None,
    }
}

/// A CRC-clean trace whose store claims a 3-byte access must be
/// rejected as malformed at decode, not panic later in replay when the
/// shadow memory is asked for an impossible access width.
#[test]
fn bad_store_width_is_malformed() {
    let encode = |e: &Exec| {
        let (mut enc, mut out) = (ExecEncoder::new(), Vec::new());
        enc.encode(e, &mut out);
        enc.finish(&mut out);
        out
    };
    let (quad, long) = (encode(&store(8, 9)), encode(&store(4, 9)));
    assert_eq!(quad.len(), long.len());
    let differing: Vec<usize> = (0..quad.len()).filter(|&i| quad[i] != long[i]).collect();
    let [width_at] = differing[..] else { panic!("the width is one byte: {differing:?}") };
    let mut bad = quad;
    bad[width_at] = 3;

    let path = scratch("bad_width.dtrc");
    let mut writer = ChunkWriter::create(&path, 0).expect("create");
    writer.chunk(&bad).expect("chunk");
    writer.finish(1).expect("finish");
    let mut reader = TraceReader::open(&path, None).expect("every CRC is valid");
    let err = reader.next().expect_err("a 3-byte store must not decode");
    assert!(matches!(err, TraceError::Malformed { .. }), "wrong variant: {err:?}");
}

/// Abandoning a recording after it has persisted a data chunk publishes
/// nothing and leaves no staged file behind.
#[test]
fn dropped_writer_leaves_no_trace_and_no_staged_file() {
    let path = scratch("abandoned.dtrc");
    let mut staged = path.clone().into_os_string();
    staged.push(format!(".tmp.{}", std::process::id()));
    let staged = PathBuf::from(staged);

    let mut writer = TraceWriter::create(&path, 1).expect("create");
    // Pseudo-random stored values defeat the delta coding, so every
    // record costs several bytes and a 64 KiB data chunk soon fills.
    let mut value = 0x9E37_79B9_7F4A_7C15u64;
    while std::fs::metadata(&staged).expect("staged file exists").len() < 64 * 1024 {
        value = value.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        writer.record(&store(8, value));
    }
    drop(writer);
    assert!(!path.exists(), "an abandoned recording must publish nothing");
    assert!(!staged.exists(), "an abandoned recording must remove its staged file");
}

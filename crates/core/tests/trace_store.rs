//! Loud-rejection tests for the persistent trace store: a stored
//! `Exec` stream that is stale, corrupt, truncated, or the wrong
//! format version must fail **before** any member observes a single
//! record — each failure class with its own [`TraceError`] variant, so
//! callers (and error messages) can tell "re-record, the kernel
//! changed" from "the file is damaged" from "wrong tool version". The
//! one class only a replay can find — a record that fails to decode
//! behind valid CRCs — fails every member with a typed error too.
//!
//! Every test damages a freshly recorded, provably good trace — the
//! happy path is asserted first, so a failure here is the rejection
//! logic, never the recording.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dise_asm::{parse_asm, Layout};
use dise_cpu::{
    program_fingerprint, CpuConfig, Exec, ExecEncoder, Executor, TraceReader, MAX_BLOCK_STEPS,
};
use dise_debug::{
    record_session, replay_from_trace, Application, BackendKind, DebugError, ObserverBatch,
    TraceError, WatchExpr, Watchpoint,
};
use dise_isa::Width;
use dise_trace::ChunkWriter;

/// Unique scratch path per test (tests share one process and may run
/// concurrently).
fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "dise-store-{name}-{}-{}.dtrc",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn app(iters: u32) -> Application {
    Application::new(
        parse_asm(&format!(
            "        la      r1, x
                     lda     r4, {iters}(zero)
             loop:   stq     r4, 0(r1)
                     subq    r4, 1, r4
                     bgt     r4, loop
                     halt
             .data
             x:      .quad 0"
        ))
        .expect("kernel parses"),
        Layout::default(),
    )
}

fn watch(app: &Application) -> Vec<Watchpoint> {
    let x = app.program().expect("assembles").symbol("x").expect("x exists");
    vec![Watchpoint::new(WatchExpr::Scalar { addr: x, width: Width::Q })]
}

/// Record a known-good trace and prove it replays before any test
/// damages it.
fn good_trace(name: &str, a: &Application) -> PathBuf {
    let path = scratch(name);
    record_session(a, &path).expect("recording succeeds");
    let members = vec![(BackendKind::VirtualMemory, watch(a), vec![CpuConfig::default()])];
    let replayed = replay_from_trace(a, members, &path).expect("pristine trace replays");
    assert!(replayed[0].is_ok(), "pristine replay runs clean");
    path
}

fn replay_err(a: &Application, path: &Path) -> DebugError {
    let members = vec![(BackendKind::VirtualMemory, watch(a), vec![CpuConfig::default()])];
    replay_from_trace(a, members, path).expect_err("damaged trace must be rejected")
}

#[test]
fn truncated_trace_is_rejected_as_truncated() {
    let a = app(50);
    let path = good_trace("truncated", &a);
    let bytes = std::fs::read(&path).expect("trace readable");
    // Cut mid-stream: the end chunk (and with it the declared record
    // count) is gone, which is exactly what a crashed writer would
    // leave if staging did not already prevent publishing it.
    std::fs::write(&path, &bytes[..bytes.len() - 10]).expect("rewrite");
    assert!(
        matches!(replay_err(&a, &path), DebugError::Trace(TraceError::Truncated { .. })),
        "a cut-off file is truncation, not generic corruption"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flipped_payload_byte_is_rejected_by_crc() {
    let a = app(50);
    let path = good_trace("crc", &a);
    let mut bytes = std::fs::read(&path).expect("trace readable");
    // Flip one byte inside the first data chunk's payload: header is
    // 20 bytes, chunk header 9, so offset 40 is well inside the
    // payload for any non-trivial kernel.
    bytes[40] ^= 0x01;
    std::fs::write(&path, &bytes).expect("rewrite");
    assert!(
        matches!(replay_err(&a, &path), DebugError::Trace(TraceError::CorruptChunk { .. })),
        "a flipped bit must be caught by the chunk CRC"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_format_version_is_rejected_as_version() {
    let a = app(50);
    let path = good_trace("version", &a);
    let mut bytes = std::fs::read(&path).expect("trace readable");
    // The version field is the u32 after the 8-byte magic.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &bytes).expect("rewrite");
    assert!(
        matches!(
            replay_err(&a, &path),
            DebugError::Trace(TraceError::BadVersion { found: 99, .. })
        ),
        "a future format version is rejected by name, not misread"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mangled_magic_is_rejected_as_not_a_trace() {
    let a = app(50);
    let path = good_trace("magic", &a);
    let mut bytes = std::fs::read(&path).expect("trace readable");
    bytes[0] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("rewrite");
    assert!(
        matches!(replay_err(&a, &path), DebugError::Trace(TraceError::BadMagic { .. })),
        "a file that is not a trace at all gets its own rejection"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_trace_for_an_edited_kernel_is_rejected_by_fingerprint() {
    // Record the 50-iteration kernel, then "edit" it to 60 iterations:
    // same symbols, same shape, different program — the trace is stale
    // and must be rejected before any member replays a wrong stream.
    let recorded = app(50);
    let edited = app(60);
    let path = good_trace("stale", &recorded);
    assert!(
        matches!(
            replay_err(&edited, &path),
            DebugError::Trace(TraceError::FingerprintMismatch { .. })
        ),
        "an edited kernel must never silently replay its old trace"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn rejection_happens_before_any_member_runs() {
    // The error is scenario-wide (outer Err), not smeared across
    // members: nobody gets half a replay.
    let a = app(50);
    let path = good_trace("outer", &a);
    let bytes = std::fs::read(&path).expect("trace readable");
    std::fs::write(&path, &bytes[..30]).expect("rewrite");
    let members = vec![
        (BackendKind::VirtualMemory, watch(&a), vec![CpuConfig::default()]),
        (BackendKind::hw4(), watch(&a), vec![CpuConfig::default()]),
    ];
    let err = replay_from_trace(&a, members, &path).expect_err("rejected for every member at once");
    assert!(matches!(err, DebugError::Trace(_)), "outer error carries the trace failure: {err}");
    let _ = std::fs::remove_file(&path);
}

/// Encode `records` as one stream, the way a recording does.
fn encode(records: &[Exec]) -> Vec<u8> {
    let (mut enc, mut out) = (ExecEncoder::new(), Vec::new());
    for e in records {
        enc.encode(e, &mut out);
    }
    enc.finish(&mut out);
    out
}

/// A record that fails to decode behind valid CRCs — here a store whose
/// width byte says 3 — is found only when the replay reaches it. The
/// run stops there and every admitted member reports that decode error:
/// no panic, and no member gets half a replay.
#[test]
fn malformed_record_mid_replay_fails_every_member() {
    let a = app(50);
    let prog = a.program().expect("assembles");
    let mut exec = Executor::from_program(&prog, CpuConfig::default());
    let mut records = Vec::new();
    while !exec.is_halted() {
        records.push(exec.step());
    }
    // The first store past the fan-out's first chunk of records.
    let k = (MAX_BLOCK_STEPS..records.len())
        .find(|&i| records[i].mem.is_some_and(|m| m.is_store))
        .expect("the loop stores past the first chunk");
    // Narrowing that store to a longword changes exactly its width byte.
    let mut narrowed = records[..=k].to_vec();
    narrowed[k].mem.as_mut().expect("a store").width = 4;
    let (quad, long) = (encode(&records[..=k]), encode(&narrowed));
    assert_eq!(quad.len(), long.len());
    let differing: Vec<usize> = (0..quad.len()).filter(|&i| quad[i] != long[i]).collect();
    let [width_at] = differing[..] else { panic!("the width is one byte: {differing:?}") };
    let mut bytes = encode(&records);
    assert_eq!(bytes[..quad.len()], quad[..], "a stream prefix encodes as a byte prefix");
    bytes[width_at] = 3;

    // Two data chunks with valid CRCs; the damaged store is in the
    // second, so the first decodes and dispatches cleanly.
    let path = scratch("mid_stream");
    let split = encode(&records[..k]).len();
    let fingerprint = program_fingerprint(&prog);
    let mut writer = ChunkWriter::create(&path, fingerprint).expect("create");
    writer.chunk(&bytes[..split]).expect("first chunk");
    writer.chunk(&bytes[split..]).expect("second chunk");
    writer.finish(records.len() as u64).expect("finish");

    let mut reader = TraceReader::open(&path, Some(fingerprint)).expect("every CRC is valid");
    let expected = loop {
        match reader.next() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("the damaged store must not decode"),
            Err(e) => break e,
        }
    };
    assert!(matches!(expected, TraceError::Malformed { .. }), "wrong variant: {expected:?}");

    let mut batch = ObserverBatch::new(&a);
    for backend in [BackendKind::VirtualMemory, BackendKind::hw4(), BackendKind::DiseComparators] {
        batch.member(backend, watch(&a), vec![CpuConfig::default()]);
    }
    let results = batch.run_from_trace(&path).expect("admission succeeds: the header is sound");
    assert_eq!(results.len(), 3);
    for r in results {
        assert_eq!(r, Err(DebugError::Trace(expected.clone())));
    }
    let _ = std::fs::remove_file(&path);
}

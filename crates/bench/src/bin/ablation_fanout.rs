//! Chunked fan-out ablation: what handing clean records to timing in
//! slices buys over record-at-a-time fan-out. The observer batch runs a
//! watch-sparse kernel — every store lands pages away from every
//! watched cell — once per [`Fanout`]
//! (`chunk: 1` *is* the per-record fan-out: every record becomes a
//! singleton chunk), on both the live-execution and trace-replay paths,
//! for each observing backend solo and for the 4-member batch. A middle
//! row per configuration (chunked, private timing) splits the win
//! between chunked dispatch and copy-on-write timing groups.
//! The reps are interleaved round-robin across the three fan-outs and
//! each is reported at its median wall time, so a burst of machine
//! noise hits every configuration alike. Output is asserted
//! byte-identical across chunk sizes and sharing modes before any
//! throughput is reported, and the whole table is also emitted as
//! machine-readable `BENCH_fanout.json`.
//!
//! Knobs: `DISE_ITERS` (kernel iterations, default 20000), `DISE_REPS`
//! (reps per fan-out, default 5) and `DISE_CHUNK` (the chunked rows'
//! chunk size, default 64).

use std::path::Path;
use std::time::Instant;

use dise_asm::{parse_asm, Layout};
use dise_cpu::CpuConfig;
use dise_debug::{
    fanout_chunks, fanout_chunks_scanned, fanout_chunks_skipped, Application, BackendKind, Fanout,
    ObserverBatch, SessionReport, WatchExpr, Watchpoint,
};
use dise_isa::Width;

/// One member of the ablation batch: a display name, an observing
/// backend, and the watched address.
type Member = (&'static str, BackendKind, u64);

/// One measured configuration, ready for both the console table and the
/// JSON emission.
struct Sample {
    label: &'static str,
    mode: &'static str,
    chunk: usize,
    share: bool,
    records_per_sec: f64,
    chunks: u64,
    skipped: u64,
    scanned: u64,
    reports: Vec<Vec<SessionReport>>,
}

fn watchpoint(addr: u64) -> Watchpoint {
    Watchpoint::new(WatchExpr::Scalar { addr, width: Width::Q })
}

fn batch<'a>(app: &'a Application, members: &[Member]) -> ObserverBatch<'a> {
    let mut b = ObserverBatch::new(app);
    for &(_, backend, addr) in members {
        b.member(backend, vec![watchpoint(addr)], vec![CpuConfig::default()]);
    }
    b
}

/// The median of `times` (the upper one for an even count).
fn median(times: &mut [f64]) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Run `members` over `app` under every fan-out in `fanouts`, `reps`
/// times each with the reps interleaved round-robin across the
/// fan-outs, and return one sample per fan-out: its median throughput,
/// its chunk-counter deltas, and its reports (for the byte-identity
/// assertion).
#[allow(clippy::cast_precision_loss)]
fn measure(
    label: &'static str,
    app: &Application,
    members: &[Member],
    records: u64,
    fanouts: &[Fanout],
    trace: Option<&Path>,
    reps: u32,
) -> Vec<Sample> {
    let mode = if trace.is_some() { "replay" } else { "live" };
    let mut times = vec![Vec::new(); fanouts.len()];
    let mut samples = Vec::new();
    for rep in 0..reps.max(1) {
        for (i, &fanout) in fanouts.iter().enumerate() {
            let (c0, s0, k0) = (fanout_chunks(), fanout_chunks_scanned(), fanout_chunks_skipped());
            let mut b = batch(app, members);
            b.fanout(fanout);
            let t = Instant::now();
            let out = match trace {
                Some(path) => b.run_from_trace(path),
                None => b.run(),
            };
            times[i].push(t.elapsed().as_secs_f64());
            let (chunks, scanned, skipped) =
                (fanout_chunks() - c0, fanout_chunks_scanned() - s0, fanout_chunks_skipped() - k0);
            assert_eq!(
                scanned + skipped,
                members.len() as u64 * chunks,
                "{label}/{mode}: every (member, chunk) pair is scanned xor skipped"
            );
            if rep == 0 {
                samples.push(Sample {
                    label,
                    mode,
                    chunk: fanout.chunk,
                    share: fanout.share_timing,
                    records_per_sec: 0.0,
                    chunks,
                    skipped,
                    scanned,
                    reports: out
                        .expect("ablation batch runs")
                        .into_iter()
                        .map(|r| r.expect("every member is observable"))
                        .collect(),
                });
            }
        }
    }
    for (s, t) in samples.iter_mut().zip(&mut times) {
        s.records_per_sec = records as f64 / median(t);
    }
    samples
}

fn json_row(s: &Sample) -> String {
    format!(
        "    {{\"config\": \"{}\", \"mode\": \"{}\", \"chunk\": {}, \"timing_share\": {}, \
         \"records_per_sec\": {:.0}, \"chunks\": {}, \"skipped\": {}, \"scanned\": {}}}",
        s.label, s.mode, s.chunk, s.share, s.records_per_sec, s.chunks, s.skipped, s.scanned
    )
}

#[allow(clippy::too_many_lines)]
fn main() {
    let iters: u32 = dise_env::env_number("DISE_ITERS", 20_000);
    let reps: u32 = dise_env::env_number("DISE_REPS", 5);
    let chunk: usize = dise_env::env_number("DISE_CHUNK", 64);
    assert!(chunk > 1, "the ablation compares DISE_CHUNK={chunk} against the per-record 1");
    // The baseline is the pre-chunking fan-out: every record dispatched
    // alone, every member consuming privately. The middle row isolates
    // the chunked-dispatch win from the shared-timing win.
    let fanouts = [
        Fanout { chunk: 1, share_timing: false },
        Fanout { chunk, share_timing: false },
        Fanout { chunk, share_timing: true },
    ];

    // The watch-sparse kernel: a tight store loop hammering `hot`,
    // with every watched cell a page or more away — no store ever hits
    // a member's filter, so every record but the final halt is clean
    // and reaches the members only as timing slices. This isolates the
    // per-record dispatch cost that chunking removes; the conformance
    // and property suites already prove the dense/retargeting cases
    // byte-identical.
    // `lda` carries a 14-bit displacement; synthesize larger iteration
    // counts as base * 2^k with a run of doublings.
    let (mut base, mut doublings) = (i64::from(iters), String::new());
    while base > 8191 {
        base = (base + 1) / 2;
        doublings.push_str("addq r4, r4, r4\n");
    }
    let app = Application::new(
        parse_asm(&format!(
            "        la      r1, hot
                     lda     r4, {base}(zero)
                     {doublings}
             loop:   stq     r4, 0(r1)
                     subq    r4, 1, r4
                     bgt     r4, loop
                     halt
             .data
             hot:    .quad 0
                     .space 4096
             cold:   .quad 0
                     .space 4096
             cold2:  .quad 0"
        ))
        .expect("kernel parses"),
        Layout::default(),
    );
    let prog = app.program().expect("kernel assembles");
    let (cold, cold2) = (prog.symbol("cold").unwrap(), prog.symbol("cold2").unwrap());
    let records =
        dise_debug::run_baseline(&app, CpuConfig::default()).expect("kernel runs").instructions;

    let solo: [Member; 3] = [
        ("virtual_memory", BackendKind::VirtualMemory, cold),
        ("hw_registers", BackendKind::hw4(), cold),
        ("dise_comparators", BackendKind::DiseComparators, cold),
    ];
    let batch4: [Member; 4] = [
        ("virtual_memory", BackendKind::VirtualMemory, cold),
        ("hw_registers", BackendKind::hw4(), cold),
        ("dise_comparators", BackendKind::DiseComparators, cold),
        ("virtual_memory", BackendKind::VirtualMemory, cold2),
    ];

    // One recorded pass feeds every replay measurement.
    let dir = std::env::temp_dir().join(format!("dise-fanout-ablation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let trace = dir.join("kernel.dtrc");
    dise_debug::record_session(&app, &trace).expect("kernel records");

    println!("Chunked fan-out ablation ({iters}-iteration kernel, {records} records)\n");
    println!(
        "{:<22}{:>8}{:>7}{:>7}{:>13}{:>9}{:>9}{:>9}",
        "config", "mode", "chunk", "share", "Mrec/s", "chunks", "skipped", "scanned"
    );
    let mut samples: Vec<Sample> = Vec::new();
    let mut speedups = Vec::new();
    for members in
        std::iter::once(&batch4[..]).chain(solo.iter().map(std::slice::from_ref::<Member>))
    {
        let label = if members.len() == 4 { "batch4" } else { members[0].0 };
        for trace in [None, Some(trace.as_path())] {
            let measured = measure(label, &app, members, records, &fanouts, trace, reps);
            let [per_record, chunked_priv, chunked] = &measured[..] else {
                unreachable!("one sample per fan-out")
            };
            assert_eq!(
                chunked_priv.reports, per_record.reports,
                "{label}: chunked fan-out must be byte-identical to per-record"
            );
            assert_eq!(
                chunked.reports, per_record.reports,
                "{label}: shared timing must be byte-identical to private timing"
            );
            let speedup = chunked.records_per_sec / per_record.records_per_sec;
            let mode = chunked.mode;
            for s in measured {
                println!(
                    "{:<22}{:>8}{:>7}{:>7}{:>13.2}{:>9}{:>9}{:>9}",
                    s.label,
                    s.mode,
                    s.chunk,
                    s.share,
                    s.records_per_sec / 1e6,
                    s.chunks,
                    s.skipped,
                    s.scanned
                );
                samples.push(s);
            }
            if label == "batch4" {
                speedups.push((mode, speedup));
            }
        }
    }

    println!(
        "\n4-member batch, median records/sec of chunked shared-timing fan-out \
         (chunk {chunk}) over per-record private-timing dispatch (chunk 1), {reps} \
         interleaved reps:"
    );
    for (mode, speedup) in &speedups {
        println!("  {mode:<7} {speedup:.2}x records/sec");
    }
    // The floor applies to the better of the live and replay modes'
    // median speedups.
    let top = speedups.iter().map(|&(_, s)| s).fold(0.0f64, f64::max);
    assert!(
        top >= 2.0,
        "acceptance bar: >=2x median records/sec on the watch-sparse 4-member batch, \
         got {top:.2}x"
    );

    let rows: Vec<String> = samples.iter().map(json_row).collect();
    let json = format!(
        "{{\n  \"kernel\": \"cold_watch_loop\",\n  \"iters\": {iters},\n  \
         \"records\": {records},\n  \"chunk\": {chunk},\n  \"reps\": {reps},\n  \
         \"batch4_speedup\": {{{}}},\n  \"configs\": [\n{}\n  ]\n}}\n",
        speedups
            .iter()
            .map(|(mode, s)| format!("\"{mode}\": {s:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
        rows.join(",\n")
    );
    std::fs::write("BENCH_fanout.json", &json).expect("write BENCH_fanout.json");
    println!("\nwrote BENCH_fanout.json");

    println!(
        "\nThe skipped column is the dispatch half: a record whose store \
         misses every member's filter and that carries no event is clean, \
         so on a watch-sparse stream every member skips whole chunks and \
         no member's observer ever touches a clean record. The share column \
         is the timing half: members with identical CpuConfig lists hold \
         bit-identical timing state until their first spurious stall, so \
         one copy-on-write timing group consumes each chunk once instead of \
         {} times. Per-record private-timing dispatch (chunk 1, share \
         off) — the pre-chunking fan-out — pays both costs on every kernel \
         instruction.",
        batch4.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

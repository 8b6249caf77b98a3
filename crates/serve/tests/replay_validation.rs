//! Replay validates a capture in the same pass that simulates it: no
//! whole-file scan runs first. This is the corruption matrix for that
//! path over a 4-stream mix capture. Every damaged file must fail each
//! replay surface (`Experiment::replay_all`, `Experiment::replay` of
//! stream 0, `ops::replay` with and without `--mix`, `ops::obs`, and the
//! `trace_tool replay` process with and without `--mix`) with exactly
//! the error text of `TraceInfo::scan`, and nothing may panic on the
//! way. The panic hook is process-wide, so this file holds a single
//! test.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use whirlpool_repro::harness::{Classification, Experiment, SchemeKind};
use wp_serve::ops::{self, OpCtx};
use wp_trace::TraceInfo;

const TAG_STREAM_DEF: u8 = 1;
const TAG_CHUNK: u8 = 2;
const TAG_END: u8 = 3;

/// Panics anywhere in the process, prefetch threads included.
static PANICS: AtomicUsize = AtomicUsize::new(0);

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wp-replay-val-{}-{tag}.wpt", std::process::id()))
}

/// A 4-stream mix capture, several chunks per stream.
fn capture() -> Vec<u8> {
    let path = temp("capture");
    Experiment::mix(SchemeKind::SNucaLru, &["mcf", "lbm", "delaunay", "milc"])
        .warmup(0)
        .measure(1_500_000)
        .capture_to(&path)
        .run()
        .expect("mix capture");
    let bytes = std::fs::read(&path).expect("read capture");
    std::fs::remove_file(&path).unwrap();
    bytes
}

fn varint(buf: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = buf[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
    }
    v
}

/// One block of a `.wpt` file, found by walking its framing by hand.
struct Block {
    /// Offset of the tag byte; the length varint follows it.
    start: usize,
    tag: u8,
    /// The chunk's stream (chunks only).
    stream: u64,
    payload: std::ops::Range<usize>,
}

fn blocks(buf: &[u8]) -> Vec<Block> {
    let mut out = Vec::new();
    let mut pos = 8;
    while pos < buf.len() {
        let start = pos;
        let tag = buf[pos];
        pos += 1;
        let len = varint(buf, &mut pos) as usize;
        pos += 4;
        let mut p = pos;
        let stream = if tag == TAG_CHUNK {
            varint(buf, &mut p)
        } else {
            0
        };
        out.push(Block {
            start,
            tag,
            stream,
            payload: pos..pos + len,
        });
        pos += len;
    }
    out
}

fn flip(buf: &[u8], at: usize) -> Vec<u8> {
    let mut bad = buf.to_vec();
    bad[at] ^= 0x08;
    bad
}

fn mid(range: &std::ops::Range<usize>) -> usize {
    range.start + range.len() / 2
}

/// `(name, damaged bytes)` for every case of the matrix.
fn corruption_matrix(buf: &[u8]) -> Vec<(String, Vec<u8>)> {
    let all = blocks(buf);
    let chunks_of = |s: u64| {
        all.iter()
            .filter(move |b| b.tag == TAG_CHUNK && b.stream == s)
    };
    let first_chunk = all.iter().position(|b| b.tag == TAG_CHUNK).unwrap();
    let mut cases = Vec::new();
    for cut in [
        all[first_chunk].payload.start + 3,
        buf.len() / 3,
        buf.len() / 2,
        buf.len() - 1,
    ] {
        cases.push((format!("truncated at byte {cut}"), buf[..cut].to_vec()));
    }
    for s in 0..4 {
        let chunks: Vec<&Block> = chunks_of(s).collect();
        assert!(chunks.len() >= 2, "stream {s} needs several chunks");
        let chunk = chunks[chunks.len() / 2];
        cases.push((
            format!("bit flip in a chunk of stream {s}"),
            flip(buf, mid(&chunk.payload)),
        ));
    }
    // Cases where the replay meets different damage than the scan: a
    // chunk length that throws the frame walk off the block boundaries,
    // and two damaged streams, where core 0's reader reports a later
    // block than the scan's first one.
    let chunk = chunks_of(1).nth(1).unwrap();
    cases.push((
        "bit flip in the length of a chunk of stream 1".into(),
        flip(buf, chunk.start + 1),
    ));
    let early = chunks_of(3).next().unwrap();
    let late = chunks_of(0).next_back().unwrap();
    cases.push((
        "bit flips in chunks of streams 3 and 0".into(),
        flip(&flip(buf, mid(&early.payload)), mid(&late.payload)),
    ));
    let def = all
        .iter()
        .filter(|b| b.tag == TAG_STREAM_DEF)
        .nth(2)
        .unwrap();
    cases.push((
        "bit flip in stream definition 2".into(),
        flip(buf, mid(&def.payload)),
    ));
    let end = all.iter().find(|b| b.tag == TAG_END).unwrap();
    cases.push((
        "bit flip in the End block".into(),
        flip(buf, end.payload.start),
    ));
    cases.push(("trailing bytes after End".into(), [buf, b"junk"].concat()));
    cases
}

fn strs(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_string()).collect()
}

/// Replays `path` on every surface, each of which must fail with the
/// scan's error text. `budget` is extra replay flags.
fn assert_replays_fail_like_the_scan(case: &str, path: &Path, budget: &[&str]) {
    let want = TraceInfo::scan(path)
        .err()
        .unwrap_or_else(|| panic!("{case}: the scan must reject the file"))
        .to_string();
    let file = path.to_str().unwrap();

    // Stream 0 alone: the other streams are checked before the run.
    let all = Experiment::replay_all(SchemeKind::SNucaLru, path);
    let one = Experiment::replay(SchemeKind::SNucaLru, path, 0);
    for (surface, exp) in [("all streams", all), ("stream 0", one)] {
        let mut exp = exp.classification(Classification::None);
        if let ["--measure", n] = budget {
            exp = exp.measure(n.parse().unwrap());
        }
        let got = exp.run().expect_err(case).to_string();
        assert_eq!(got, want, "{case}: Experiment::replay, {surface}");
    }

    let mix = [&["replay", file, "--mix", "--scheme", "LRU"], budget].concat();
    let one = [&["replay", file, "--scheme", "LRU"], budget].concat();
    for argv in [&mix, &one] {
        let got = ops::replay(&strs(&argv[1..]), &OpCtx::offline()).expect_err(case);
        assert_eq!(got, want, "{case}: ops::{argv:?}");
    }
    let obs = [&[file, "--scheme", "LRU"], budget].concat();
    let got = ops::obs(&strs(&obs), &OpCtx::offline()).expect_err(case);
    assert_eq!(got, want, "{case}: ops::obs");
    for argv in [mix, one] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
            .args(&argv)
            .output()
            .expect("run trace_tool");
        assert_eq!(out.status.code(), Some(2), "{case}: {argv:?} exit code");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr,
            format!("trace_tool: {want}\n"),
            "{case}: {argv:?} stderr"
        );
        assert!(out.stdout.is_empty(), "{case}: {argv:?} printed a summary");
    }
}

#[test]
fn every_damaged_capture_fails_every_replay_surface_with_the_scan_error() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));
    let buf = capture();
    let path = temp("case");
    for (case, bad) in corruption_matrix(&buf) {
        std::fs::write(&path, &bad).unwrap();
        assert_replays_fail_like_the_scan(&case, &path, &[]);
    }

    // A replay its budget cuts short still validates the tail: the last
    // chunk is its stream's last, and 1000 instructions per core end the
    // run inside every stream's first chunk.
    let last = blocks(&buf)
        .into_iter()
        .rfind(|b| b.tag == TAG_CHUNK)
        .unwrap();
    std::fs::write(&path, flip(&buf, mid(&last.payload))).unwrap();
    assert_replays_fail_like_the_scan(
        "bit flip in the last chunk, budget-cut replay",
        &path,
        &["--measure", "1000"],
    );
    std::fs::remove_file(&path).unwrap();
    assert_eq!(PANICS.load(Ordering::SeqCst), 0, "a replay panicked");
}

//! `wp-fault` probes in the trace parser: every armed reader point
//! surfaces as the typed [`TraceError`] the equivalent disk fault would
//! produce — through the whole-file scan, a followed replay read and the
//! prefetch thread alike — the same spec + seed reproduces the same
//! failure, and a cleared plan reads the same bytes back cleanly.

use std::io::Write;
use std::path::Path;

use wp_fault::FaultPlan;
use wp_mem::LineAddr;
use wp_trace::{
    BatchReader, EventBatch, PrefetchBatches, TraceError, TraceInfo, TraceReader, TraceWriter,
};

/// A small multi-chunk, two-stream trace on disk: 1000 events in stream 0
/// and 500 in stream 1.
fn write_trace(tag: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("wp-fault-trace-{}-{tag}.wpt", std::process::id()));
    let mut buf = Vec::new();
    let mut w = TraceWriter::new(&mut buf).unwrap().with_chunk_events(64);
    let a = w.add_stream("a", &[]).unwrap();
    let b = w.add_stream("b", &[]).unwrap();
    for i in 0..1000u64 {
        w.record(a, 1, LineAddr(4096 + i * 7), i % 3 == 0).unwrap();
        if i % 2 == 0 {
            w.record(b, 2, LineAddr(1 << 20 | i), false).unwrap();
        }
    }
    w.finish().unwrap();
    drop(w);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(&buf).unwrap();
    path
}

/// One way of reading a whole trace, returning the events it saw.
type Drain = fn(&Path) -> Result<u64, TraceError>;

fn drain_records(path: &Path) -> Result<u64, TraceError> {
    let mut r = TraceReader::open(path)?;
    let mut n = 0;
    while r.next_record()?.is_some() {
        n += 1;
    }
    Ok(n)
}

fn scan(path: &Path) -> Result<u64, TraceError> {
    Ok(TraceInfo::scan(path)?.total_events())
}

/// A replay core's read: stream 1 only.
fn drain_followed(path: &Path) -> Result<u64, TraceError> {
    let mut r = BatchReader::open_stream(path, 1)?;
    let mut batch = EventBatch::new();
    let mut n = 0;
    while r.next_chunk(&mut batch)?.is_some() {
        n += batch.len() as u64;
    }
    Ok(n)
}

fn drain_prefetched(path: &Path) -> Result<u64, TraceError> {
    let mut r = PrefetchBatches::open(path)?;
    let mut batch = EventBatch::new();
    let mut n = 0;
    while r.next_chunk(&mut batch)?.is_some() {
        n += batch.len() as u64;
    }
    Ok(n)
}

#[test]
fn armed_reader_points_surface_as_their_typed_errors() {
    let path = write_trace("typed");
    let _guard = wp_fault::test_guard();

    wp_fault::install(FaultPlan::parse("reader-io@1:3").unwrap());
    assert!(matches!(drain_records(&path), Err(TraceError::Io(_))));

    wp_fault::install(FaultPlan::parse("reader-truncate@2:3").unwrap());
    assert!(matches!(drain_records(&path), Err(TraceError::Truncated)));

    wp_fault::install(FaultPlan::parse("reader-io@1:3").unwrap());
    assert!(matches!(drain_prefetched(&path), Err(TraceError::Io(_))));

    // Disarmed, every view reads the file cleanly — the injected faults
    // never touched the bytes on disk.
    wp_fault::clear();
    assert_eq!(drain_records(&path).unwrap(), 1500);
    assert_eq!(scan(&path).unwrap(), 1500);
    assert_eq!(drain_followed(&path).unwrap(), 500);
    assert_eq!(drain_prefetched(&path).unwrap(), 1500);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_flip_is_caught_by_the_crc_in_scan_followed_replay_and_prefetch() {
    let path = write_trace("bitflip");
    let _guard = wp_fault::test_guard();
    let views: [(&str, Drain); 4] = [
        ("records", drain_records),
        ("scan", scan),
        ("followed", drain_followed),
        ("prefetch", drain_prefetched),
    ];
    for (name, drain) in views {
        for spec in ["reader-bitflip@1:3", "reader-bitflip@2:9"] {
            wp_fault::install(FaultPlan::parse(spec).unwrap());
            let got = drain(&path);
            assert!(
                matches!(got, Err(TraceError::Checksum { .. })),
                "{name} under {spec}: {got:?}"
            );
            // The flip lands in a private copy: the next read is clean.
            wp_fault::clear();
            assert!(drain(&path).is_ok(), "{name} after {spec}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn same_spec_and_seed_reproduce_the_same_failure() {
    let path = write_trace("determinism");
    let _guard = wp_fault::test_guard();
    let offset_of = |spec: &str| {
        wp_fault::install(FaultPlan::parse(spec).unwrap());
        match drain_records(&path) {
            Err(TraceError::Checksum { offset }) => offset,
            other => panic!("expected a checksum error, got {other:?}"),
        }
    };
    assert_eq!(offset_of("reader-bitflip:7"), offset_of("reader-bitflip:7"));
    wp_fault::clear();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_prefetch_panic_is_joined_into_a_typed_error() {
    let path = write_trace("prefetch");
    let _guard = wp_fault::test_guard();
    wp_fault::install(FaultPlan::parse("prefetch-panic@1:1").unwrap());
    let mut r = PrefetchBatches::open(&path).unwrap();
    let mut batch = EventBatch::new();
    let err = loop {
        match r.next_chunk(&mut batch) {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("prefetch fault never surfaced"),
            Err(e) => break e,
        }
    };
    let msg = err.to_string();
    assert!(
        msg.contains("injected prefetch fault"),
        "panic payload lost: {msg}"
    );
    // One-shot: a fresh prefetch run over the same file succeeds.
    wp_fault::clear();
    assert_eq!(drain_prefetched(&path).unwrap(), 1500);
    let _ = std::fs::remove_file(&path);
}

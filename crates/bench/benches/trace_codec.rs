//! Criterion benchmark of the `.wpt` codec on a small seeded 4-app mix
//! capture, recorded once at start-up:
//!
//! * `trace_info_scan` — `TraceInfo::scan`, the whole-file summary
//!   `trace_tool info` prints (CRC, unpack and summary fold of every
//!   chunk);
//! * `batch_reader_decode` — every chunk through one `BatchReader`;
//! * `trace_writer_encode` — the decoded events re-encoded by a
//!   `TraceWriter` into `io::sink()`.
//!
//! Divide a timing by the event count printed at start-up for ns/event.
//! Run with `cargo bench -p wp-bench --bench trace_codec`.

use std::hint::black_box;
use std::path::PathBuf;

use criterion::{criterion_group, criterion_main, Criterion};
use whirlpool_repro::harness::{Classification, Experiment, SchemeKind};
use wp_trace::{BatchReader, EventBatch, TraceInfo, TraceWriter};

const APPS: [&str; 4] = ["mcf", "lbm", "delaunay", "milc"];

fn bench(c: &mut Criterion) {
    let path: PathBuf =
        std::env::temp_dir().join(format!("wp-trace-codec-bench-{}.wpt", std::process::id()));
    Experiment::mix(SchemeKind::SNucaLru, &APPS)
        .classification(Classification::Manual)
        .seed(1)
        .warmup(600_000)
        .measure(900_000)
        .capture_to(&path)
        .run()
        .expect("capture run");

    // The capture's streams and its chunks in file order, for re-encoding.
    let mut reader = BatchReader::open(&path).expect("open capture");
    let mut chunks = Vec::new();
    let mut batch = EventBatch::new();
    while let Some(stream) = reader.next_chunk(&mut batch).expect("decode capture") {
        chunks.push((stream, batch.clone()));
    }
    let streams: Vec<_> = reader.streams().cloned().collect();
    let events: usize = chunks.iter().map(|(_, b)| b.len()).sum();
    eprintln!(
        "trace_codec: {events} events in {} chunks, {} bytes",
        chunks.len(),
        std::fs::metadata(&path).expect("capture size").len()
    );

    let mut g = c.benchmark_group("trace_codec");
    g.sample_size(10);
    g.bench_function("trace_info_scan", |b| {
        b.iter(|| black_box(TraceInfo::scan(&path).expect("scan")))
    });
    g.bench_function("batch_reader_decode", |b| {
        b.iter(|| {
            let mut reader = BatchReader::open(&path).expect("open");
            let mut batch = EventBatch::new();
            let mut n = 0;
            while reader.next_chunk(&mut batch).expect("decode").is_some() {
                n += batch.len();
            }
            black_box(n)
        })
    });
    g.bench_function("trace_writer_encode", |b| {
        b.iter(|| {
            let mut w = TraceWriter::new(std::io::sink()).expect("writer");
            for s in &streams {
                w.add_stream(&s.name, &s.pools).expect("stream");
            }
            for (stream, batch) in &chunks {
                for i in 0..batch.len() {
                    w.record(*stream, batch.gaps[i], batch.lines[i], batch.writes[i])
                        .expect("record");
                }
            }
            w.finish().expect("finish")
        })
    });
    g.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench);
criterion_main!(benches);

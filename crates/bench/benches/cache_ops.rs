//! Criterion microbenchmarks for the cache structures on the access path.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wp_cache::{
    AccessOutcome, DrripPolicy, LruCache, LruPolicy, MonitorConfig, PartitionedCache,
    SetAssocCache, UtilityMonitor,
};
use wp_mrc::SampledStack;

/// Banks of the 4-core chip, and lines in each (512 KB of 64 B lines).
const BANKS: usize = 25;
const BANK_LINES: usize = 8192;
/// Partitions (VCs) per bank, with equal quotas.
const PARTS: u32 = 8;
/// Accesses per timed iteration: one driver quantum.
const QUANTUM: usize = 256;
/// Events of lookahead in the prefetching variant, as the NUCA runtime.
const LOOKAHEAD: usize = 16;

/// A chip's worth of bank partitions, full, and a seeded stream of
/// `(bank, partition, line)` accesses over a working set 2.5× their
/// capacity: about 20 MB of LRU state probed in hash-scattered order,
/// far beyond the host L2, as on the NUCA access path.
fn nuca_bank_set() -> (Vec<PartitionedCache>, Vec<(usize, u32, u64)>) {
    let mut banks: Vec<PartitionedCache> = (0..BANKS)
        .map(|_| {
            let mut bank = PartitionedCache::new(BANK_LINES);
            for part in 0..PARTS {
                bank.set_quota(part, BANK_LINES / PARTS as usize);
            }
            bank
        })
        .collect();
    let lines_per_part = (BANKS * BANK_LINES) as u64 * 5 / 2 / u64::from(PARTS);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let stream: Vec<(usize, u32, u64)> = (0..1 << 20)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let part = (x % u64::from(PARTS)) as u32;
            let line = (u64::from(part) << 32) + (x >> 8) % lines_per_part;
            let bank = (line.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 40) as usize % BANKS;
            (bank, part, line)
        })
        .collect();
    for &(bank, part, line) in &stream {
        banks[bank].access(part, line);
    }
    (banks, stream)
}

fn bench(c: &mut Criterion) {
    // The cyclic benches sweep twice the capacity, so every access is a
    // miss and an eviction; the `/hit` variants stay within capacity
    // (half of it), so after the first lap nearly every access hits.
    c.bench_function("lru_cache_access", |b| {
        let mut cache = LruCache::new(8192);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 16_384;
            black_box(cache.access(i));
        })
    });
    c.bench_function("lru_cache_access/hit", |b| {
        let mut cache = LruCache::new(8192);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 4096;
            black_box(cache.access(i));
        })
    });
    c.bench_function("setassoc_access_512KB_16w", |b| {
        let mut cache = SetAssocCache::with_capacity_bytes(512 * 1024, 16, LruPolicy::new());
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 16_384;
            black_box(cache.access(i));
        })
    });
    c.bench_function("setassoc_access_512KB_16w/hit", |b| {
        let mut cache = SetAssocCache::with_capacity_bytes(512 * 1024, 16, LruPolicy::new());
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 4096;
            black_box(cache.access(i));
        })
    });
    c.bench_function("setassoc_drrip_512KB_16w", |b| {
        let mut cache = SetAssocCache::with_capacity_bytes(512 * 1024, 16, DrripPolicy::new(2));
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 16_384;
            black_box(cache.access(i));
        })
    });
    c.bench_function("partitioned_bank_access", |b| {
        let mut bank = PartitionedCache::new(8192);
        for vc in 0..4 {
            bank.set_quota(vc, 2048);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 16_384;
            black_box(bank.access((i % 4) as u32, i));
        })
    });
    let (mut banks, stream) = nuca_bank_set();
    for lookahead in [false, true] {
        let name = if lookahead {
            "nuca_bank_set_quantum/lookahead"
        } else {
            "nuca_bank_set_quantum/plain"
        };
        let mut at = 0;
        c.bench_function(name, |b| {
            b.iter(|| {
                let q = &stream[at..at + QUANTUM + LOOKAHEAD];
                at = (at + QUANTUM) % (stream.len() - QUANTUM - LOOKAHEAD);
                let mut hits = 0u32;
                for (i, &(bank, part, line)) in q[..QUANTUM].iter().enumerate() {
                    if lookahead {
                        let (b, p, l) = q[i + LOOKAHEAD];
                        banks[b].prefetch(p, l);
                    }
                    hits += u32::from(banks[bank].access(part, line) == AccessOutcome::Hit);
                }
                hits
            })
        });
    }
    c.bench_function("gmon_record_sampled", |b| {
        // Only lines the monitor samples: every call reaches the stack,
        // over a footprint well past its depth bound.
        let config = MonitorConfig::default();
        let probe = SampledStack::new(
            config.sample_rate_log2,
            config.granule_lines,
            config.curve_points,
        );
        let keys: Vec<u64> = (0..1u64 << 21)
            .filter(|&l| probe.first_slot(l).is_some())
            .collect();
        let mut mon = UtilityMonitor::new(config);
        let mut i = 0;
        b.iter(|| {
            i = (i + 7919) % keys.len();
            mon.record(keys[i]);
        })
    });
    c.bench_function("gmon_record", |b| {
        let mut mon = UtilityMonitor::new(MonitorConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 131_072;
            mon.record(i);
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Criterion microbenchmarks for the miss-rate-curve machinery: Mattson
//! stack throughput, curve combining (Appendix B), hulls, partitioning.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wp_mrc::{
    combine_miss_curves, convex_hull, partition_capacity, MattsonStack, MissCurve, SampledStack,
};

fn geometric(apki: f64, ratio: f64, n: usize) -> MissCurve {
    MissCurve::new((0..n).map(|i| apki * ratio.powi(i as i32)).collect(), 1024)
}

fn bench(c: &mut Criterion) {
    c.bench_function("mattson_access_64k_lines", |b| {
        let mut s = MattsonStack::new();
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 65_536;
            black_box(s.access(i));
        })
    });
    c.bench_function("sampled_stack_access", |b| {
        let mut s = SampledStack::new(2, 1024, 201);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 65_536;
            s.access(i);
        })
    });
    let a = geometric(40.0, 0.97, 201);
    let bb = geometric(25.0, 0.95, 201);
    c.bench_function("combine_miss_curves_201pt", |b| {
        b.iter(|| black_box(combine_miss_curves(&a, &bb)))
    });
    c.bench_function("convex_hull_201pt", |b| {
        b.iter(|| black_box(convex_hull(&a)))
    });
    let curves: Vec<MissCurve> = (0..8)
        .map(|i| geometric(30.0, 0.9 + 0.01 * i as f64, 201))
        .collect();
    c.bench_function("partition_8vcs_200granules", |b| {
        b.iter(|| black_box(partition_capacity(&curves, 200)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);

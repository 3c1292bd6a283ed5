//! Criterion benchmarks: register-allocation scaling on random scheduled
//! DFGs (testable vs. traditional), on the unrolled diff-eq designs, and
//! on list-scheduled corpus designs (plus the list scheduler itself on
//! the largest one).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lobist_alloc::baseline_regalloc::{self, BaselineAlgorithm};
use lobist_alloc::module_assign::assign_modules;
use lobist_alloc::testable_regalloc::{allocate_registers, TestableAllocOptions};
use lobist_dfg::corpus::{generate, CorpusKind};
use lobist_dfg::lifetime::LifetimeOptions;
use lobist_dfg::random::{random_scheduled_dfg, RandomDfgConfig};
use lobist_dfg::scheduling::list_schedule;
use lobist_dfg::{benchmarks, modules::ModuleSet};

fn bench_random_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("regalloc_random");
    for &n in &[10usize, 20, 40, 80] {
        let cfg = RandomDfgConfig {
            num_ops: n,
            num_inputs: 6,
            max_ops_per_step: 4,
            ..RandomDfgConfig::default()
        };
        let (dfg, schedule) = random_scheduled_dfg(7, &cfg);
        let modules: ModuleSet = "4+,4-,4*,4&".parse().expect("valid");
        let ma = assign_modules(&dfg, &schedule, &modules).expect("assigns");
        group.bench_with_input(BenchmarkId::new("testable", n), &n, |b, _| {
            b.iter(|| {
                allocate_registers(
                    &dfg,
                    &schedule,
                    LifetimeOptions::registered_inputs(),
                    &ma,
                    &TestableAllocOptions::default(),
                )
                .expect("chordal")
            })
        });
        group.bench_with_input(BenchmarkId::new("left_edge", n), &n, |b, _| {
            b.iter(|| {
                baseline_regalloc::allocate_registers(
                    &dfg,
                    &schedule,
                    LifetimeOptions::registered_inputs(),
                    BaselineAlgorithm::LeftEdge,
                )
                .expect("chordal")
            })
        });
    }
    group.finish();
}

fn bench_diffeq_unrolled(c: &mut Criterion) {
    let mut group = c.benchmark_group("regalloc_diffeq");
    for &k in &[1usize, 2, 4] {
        let bench = benchmarks::diffeq_unrolled(k);
        let ma = assign_modules(&bench.dfg, &bench.schedule, &bench.module_allocation)
            .expect("assigns");
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                allocate_registers(
                    &bench.dfg,
                    &bench.schedule,
                    bench.lifetime_options,
                    &ma,
                    &TestableAllocOptions::default(),
                )
                .expect("chordal")
            })
        });
    }
    group.finish();
}

fn bench_corpus(c: &mut Criterion) {
    let mut group = c.benchmark_group("regalloc_corpus");
    let modules: ModuleSet = "1+,1*,1-".parse().expect("valid");
    for kind in [CorpusKind::Matmul, CorpusKind::Diffeq] {
        for size in [16u32, 32, 64] {
            let dfg = generate(kind, size, 1);
            let schedule = list_schedule(&dfg, &modules).expect("covers the corpus");
            let ma = assign_modules(&dfg, &schedule, &modules).expect("assigns");
            let id = BenchmarkId::new(kind.name(), format!("n{size}"));
            group.bench_with_input(id, &size, |b, _| {
                b.iter(|| {
                    allocate_registers(
                        &dfg,
                        &schedule,
                        LifetimeOptions::registered_inputs(),
                        &ma,
                        &TestableAllocOptions::default(),
                    )
                    .expect("chordal")
                })
            });
        }
    }
    let matmul = generate(CorpusKind::Matmul, 64, 1);
    group.bench_function("list_schedule/matmul_n64", |b| {
        b.iter(|| list_schedule(&matmul, &modules).expect("covers the corpus"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_random_scaling,
    bench_diffeq_unrolled,
    bench_corpus
);
criterion_main!(benches);

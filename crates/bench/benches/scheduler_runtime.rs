//! Scheduler runtime scaling (the paper's Sec. 6.1 runtime remarks:
//! EAS-base runs in a few seconds on ~500-task graphs; search-and-repair
//! increases the runtime on benchmarks that need it).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use noc_bench::platforms;
use noc_ctg::prelude::*;
use noc_eas::prelude::*;

fn graphs_of_size(task_count: usize, platform: &noc_platform::Platform) -> TaskGraph {
    let mut cfg = TgffConfig::category_i(42);
    cfg.task_count = task_count;
    cfg.width = (task_count / 20).max(4);
    TgffGenerator::new(cfg).generate(platform).expect("valid")
}

fn bench_scaling(c: &mut Criterion) {
    let platform = platforms::mesh_4x4();
    let mut group = c.benchmark_group("eas_base_scaling");
    group.sample_size(10);
    for &n in &[50usize, 125, 250, 500] {
        let graph = graphs_of_size(n, &platform);
        group.bench_with_input(BenchmarkId::from_parameter(n), &graph, |b, g| {
            let s = EasScheduler::base();
            b.iter(|| black_box(s.schedule(g, &platform).expect("schedules")));
        });
    }
    group.finish();
}

fn bench_schedulers_at_paper_scale(c: &mut Criterion) {
    let platform = platforms::mesh_4x4();
    let graph = graphs_of_size(500, &platform);
    let mut group = c.benchmark_group("paper_scale_500_tasks");
    group.sample_size(10);
    group.bench_function("eas-base", |b| {
        let s = EasScheduler::base();
        b.iter(|| black_box(s.schedule(&graph, &platform).expect("schedules")));
    });
    group.bench_function("edf", |b| {
        let s = EdfScheduler::new();
        b.iter(|| black_box(s.schedule(&graph, &platform).expect("schedules")));
    });
    group.finish();
}

fn bench_repair_overhead(c: &mut Criterion) {
    // A tight instance that actually needs repairing (EAS-base misses a
    // deadline on this seed/laxity; asserted below so the bench cannot
    // silently measure a no-op).
    let platform = platforms::mesh_4x4();
    let mut cfg = TgffConfig::small(2);
    cfg.deadline_laxity = 0.95;
    let graph = TgffGenerator::new(cfg).generate(&platform).expect("valid");
    let base_outcome = EasScheduler::base()
        .schedule(&graph, &platform)
        .expect("schedules");
    assert!(
        !base_outcome.report.meets_deadlines(),
        "bench workload must trigger search-and-repair"
    );
    let mut group = c.benchmark_group("search_and_repair_overhead");
    group.sample_size(10);
    group.bench_function("eas-base", |b| {
        let s = EasScheduler::base();
        b.iter(|| black_box(s.schedule(&graph, &platform).expect("schedules")));
    });
    group.bench_function("eas-with-repair", |b| {
        let s = EasScheduler::full();
        b.iter(|| black_box(s.schedule(&graph, &platform).expect("schedules")));
    });
    group.finish();
}

fn bench_budgeting(c: &mut Criterion) {
    let platform = platforms::mesh_4x4();
    let graph = graphs_of_size(500, &platform);
    c.bench_function("slack_budgeting_500_tasks", |b| {
        b.iter(|| {
            black_box(noc_eas::budget::SlackBudgets::compute_with_comm(
                &graph,
                WeightFunction::VarEnergyTimesVarTime,
                32.0,
            ))
        });
    });
}

criterion_group!(
    benches,
    bench_scaling,
    bench_schedulers_at_paper_scale,
    bench_repair_overhead,
    bench_budgeting
);
criterion_main!(benches);

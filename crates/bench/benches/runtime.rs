//! Criterion benchmarks for Figure 17: the cost of a single TKCM imputation
//! as a function of the pattern length `l`, the number of reference series
//! `d`, the number of anchor points `k` and the window length `L`.
//!
//! Each parameter point is measured on both dissimilarity paths: `inc` reads
//! the incrementally maintained `D` (Section 6.2, the standalone
//! `IncrementalDissimilarity` state) and
//! `exact` recomputes every candidate pattern (`O(L·l·d)`, the paper's naive
//! baseline whose pattern-extraction phase dominates).  The `tick` group
//! measures the per-tick sliding-aggregate update the incremental path pays
//! instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tkcm_core::{IncrementalDissimilarity, TkcmConfig, TkcmImputer};
use tkcm_eval::experiments::runtime::build_workload;
use tkcm_eval::experiments::Scale;

fn config_for(l: usize, d: usize, k: usize, window: usize) -> TkcmConfig {
    TkcmConfig::builder()
        .window_length(window.max((k + 1) * l))
        .pattern_length(l)
        .anchor_count(k)
        .reference_count(d)
        .build()
        .expect("valid config")
}

fn bench_imputation(
    c: &mut Criterion,
    group_name: &str,
    params: &[(usize, usize, usize, usize)], // (l, d, k, L)
) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(20);
    for &(l, d, k, window) in params {
        let workload = build_workload(Scale::Quick, window, d);
        let imputer = TkcmImputer::new(config_for(l, d, k, window)).expect("valid config");
        let mut state = IncrementalDissimilarity::new(
            workload.references.clone(),
            l,
            workload.window.length(),
            false,
        )
        .expect("valid state");
        state.rebuild(&workload.window).expect("rebuild succeeds");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("inc_l{l}_d{d}_k{k}_L{window}")),
            &workload,
            |b, w| {
                b.iter(|| {
                    imputer
                        .impute_maintained(&w.window, w.target, &w.references, &state)
                        .expect("imputation succeeds")
                        .value
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("exact_l{l}_d{d}_k{k}_L{window}")),
            &workload,
            |b, w| {
                b.iter(|| {
                    imputer
                        .impute(&w.window, w.target, &w.references)
                        .expect("imputation succeeds")
                        .value
                })
            },
        );
    }
    group.finish();
}

fn fig17_pattern_length(c: &mut Criterion) {
    bench_imputation(
        c,
        "fig17_l",
        &[(12, 3, 5, 2000), (36, 3, 5, 2000), (72, 3, 5, 2000)],
    );
}

fn fig17_reference_count(c: &mut Criterion) {
    bench_imputation(
        c,
        "fig17_d",
        &[(36, 1, 5, 2000), (36, 2, 5, 2000), (36, 4, 5, 2000)],
    );
}

fn fig17_anchor_count(c: &mut Criterion) {
    bench_imputation(
        c,
        "fig17_k",
        &[(36, 3, 5, 2000), (36, 3, 50, 2000), (36, 3, 150, 2000)],
    );
}

fn fig17_window_length(c: &mut Criterion) {
    bench_imputation(
        c,
        "fig17_L",
        &[(36, 3, 5, 1000), (36, 3, 5, 2000), (36, 3, 5, 3000)],
    );
}

/// The per-tick cost the incremental path pays instead of per-imputation
/// recomputes: one O(L·d) sliding-aggregate advance (Section 6.2), measured
/// in steady state (pre-synced state, one pushed tick per iteration), plus
/// the O(L·l·d) rebuild entry point as its own id for comparison — the
/// `advance_*` numbers must come out roughly `l`× below their `rebuild_*`
/// twins or the fast path has regressed.
fn maintenance_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("sec6_2_tick");
    group.sample_size(20);
    for &(l, d, window) in &[(12usize, 3usize, 2000usize), (36, 3, 2000), (36, 3, 3000)] {
        let workload = build_workload(Scale::Quick, window, d);

        // Steady-state sliding-aggregate advance: the per-tick cost the
        // engine actually pays once a maintainer is live.
        let mut live_window = workload.window.clone();
        let mut state = IncrementalDissimilarity::new(
            workload.references.clone(),
            l,
            live_window.length(),
            false,
        )
        .expect("valid state");
        state.rebuild(&live_window).expect("rebuild succeeds");
        let width = live_window.width();
        let mut t = live_window.current_time().expect("window has ticks").tick();
        group.bench_function(&format!("advance_l{l}_d{d}_L{window}"), |b| {
            b.iter(|| {
                t += 1;
                let values = (0..width)
                    .map(|s| Some((t + s as i64) as f64 * 0.01))
                    .collect();
                live_window
                    .push_tick(&tkcm_timeseries::StreamTick::new(
                        tkcm_timeseries::Timestamp::new(t),
                        values,
                    ))
                    .expect("push succeeds");
                state.advance(&live_window).expect("advance succeeds");
                state.dissimilarity_at_lag(l)
            })
        });

        // Rebuild entry point (first use / de-sync / periodic drift wash).
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("rebuild_l{l}_d{d}_L{window}")),
            &workload,
            |b, w| {
                b.iter(|| {
                    let mut state = IncrementalDissimilarity::new(
                        w.references.clone(),
                        l,
                        w.window.length(),
                        false,
                    )
                    .expect("valid state");
                    state.advance(&w.window).expect("advance succeeds");
                    state.dissimilarity_at_lag(l)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    fig17_pattern_length,
    fig17_reference_count,
    fig17_anchor_count,
    fig17_window_length,
    maintenance_tick
);
criterion_main!(benches);

//! Figure 17 and the Section 7.4 breakdown: runtime of a single imputation.
//!
//! The paper shows that the naive recompute-all implementation is linear in
//! every parameter (`l`, `d`, `k`, `L`) and dominated by the
//! pattern-extraction (PE) phase (~92 % for the default `k`).  With the
//! Section 6.2 incremental maintenance (the standalone
//! [`IncrementalDissimilarity`] state, driven directly here) the
//! per-imputation cost no longer depends on `l` or `d` at all: extraction
//! shrinks to an `O(L)` sweep over the maintained `D`, the `O(L·d)`
//! sliding-aggregate update moves into a separate per-tick maintenance
//! phase, and pattern selection (the dynamic program) becomes the dominant
//! per-imputation cost.  This module measures both paths so the speedup and
//! the new phase profile are visible side by side; the Criterion benches in
//! `tkcm-bench` repeat the measurements with proper statistics.  (The
//! streaming engine runs neither: its default is the composed pruning path,
//! measured by the `candidate_pruning` experiment.)

use std::time::Instant;

use tkcm_core::{IncrementalDissimilarity, PhaseBreakdown, TkcmConfig, TkcmImputer};
use tkcm_datasets::DatasetKind;
use tkcm_timeseries::{SeriesId, StreamSource, StreamTick, StreamingWindow};

use crate::report::{Report, Table};

use super::{dataset_for, Scale};

/// A prepared runtime workload: a warm window and the reference ids, so a
/// single imputation can be timed in isolation.
pub struct RuntimeWorkload {
    /// The warm streaming window (all ticks pushed, current target missing).
    pub window: StreamingWindow,
    /// The target series.
    pub target: SeriesId,
    /// The reference series used for the query pattern.
    pub references: Vec<SeriesId>,
}

/// Builds a warm window over the SBR-1d stand-in with the given window
/// length, where the target's value at the current time is missing.
pub fn build_workload(scale: Scale, window_length: usize, d: usize) -> RuntimeWorkload {
    let dataset = dataset_for(DatasetKind::SbrShifted, scale, 5);
    let len = dataset.len().min(window_length);
    let mut window = StreamingWindow::new(dataset.width(), window_length);
    let stream = dataset.to_stream();
    for (i, tick) in stream.ticks().enumerate() {
        if i + 1 == len {
            // Final tick: make the target missing.
            let mut values = tick.values.clone();
            values[0] = None;
            window
                .push_tick(&StreamTick::new(tick.time, values))
                .expect("tick accepted");
            break;
        }
        window.push_tick(&tick).expect("tick accepted");
    }
    let references = (1..=d).map(SeriesId::from).collect();
    RuntimeWorkload {
        window,
        target: SeriesId(0),
        references,
    }
}

fn runtime_config(l: usize, d: usize, k: usize, window: usize) -> TkcmConfig {
    TkcmConfig::builder()
        .window_length(window.max((k + 1) * l))
        .pattern_length(l)
        .anchor_count(k)
        .reference_count(d)
        .build()
        .expect("valid runtime config")
}

/// Mean wall-clock seconds per imputation over enough repetitions to smooth
/// timer noise (a maintained-path imputation is only microseconds).
fn average_impute_seconds(
    imputer: &TkcmImputer,
    workload: &RuntimeWorkload,
    maintained: Option<&IncrementalDissimilarity>,
    iters: usize,
) -> f64 {
    let run = || {
        let detail = match maintained {
            Some(state) => imputer
                .impute_maintained(
                    &workload.window,
                    workload.target,
                    &workload.references,
                    state,
                )
                .expect("imputation succeeds"),
            None => imputer
                .impute(&workload.window, workload.target, &workload.references)
                .expect("imputation succeeds"),
        };
        assert!(detail.value.is_finite());
    };
    run(); // warm-up pass outside the measurement
    let start = Instant::now();
    for _ in 0..iters {
        run();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Measures the steady-state seconds of one imputation on the maintained
/// (incremental, Section 6.2) path: the maintained `D` state is built once
/// outside the measurement, as a stream keeps it between ticks.
pub fn time_single_imputation(scale: Scale, l: usize, d: usize, k: usize, window: usize) -> f64 {
    let workload = build_workload(scale, window, d);
    let imputer = TkcmImputer::new(runtime_config(l, d, k, window)).expect("valid config");
    let mut state = IncrementalDissimilarity::new(
        workload.references.clone(),
        l,
        workload.window.length(),
        false,
    )
    .expect("valid state");
    state.rebuild(&workload.window).expect("rebuild succeeds");
    average_impute_seconds(&imputer, &workload, Some(&state), 32)
}

/// Measures the seconds of one imputation on the exact recompute-all path
/// — the pre-Section-6.2 baseline.
pub fn time_single_imputation_exact(
    scale: Scale,
    l: usize,
    d: usize,
    k: usize,
    window: usize,
) -> f64 {
    let workload = build_workload(scale, window, d);
    let imputer = TkcmImputer::new(runtime_config(l, d, k, window)).expect("valid config");
    average_impute_seconds(&imputer, &workload, None, 4)
}

/// Per-phase shares of TKCM's runtime over a streaming gap workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseShares {
    /// Pattern extraction (reading `D`, or recomputing it on the exact path).
    pub extraction: f64,
    /// Pattern selection (the dynamic program).
    pub selection: f64,
    /// Incremental maintenance (zero on the exact path).
    pub maintenance: f64,
}

/// Replays the SBR-1d stand-in with the target (series 0) missing over a
/// tail gap and imputes every gap tick, on the maintained path
/// (`incremental`) or the exact recompute.  The maintained state is created
/// at the first gap tick and advanced on every tick from then on, its
/// rebuild and advances timed as maintenance.  The target is never a
/// reference, so its imputed write-backs leave the state valid.
fn phase_shares_for(scale: Scale, k: usize, incremental: bool) -> PhaseShares {
    let window_length = match scale {
        Scale::Quick => 2_000,
        Scale::Paper => 20_000,
    };
    let l = scale.default_pattern_length();
    let dataset = dataset_for(DatasetKind::SbrShifted, scale, 5);
    let config = TkcmConfig::builder()
        .window_length(window_length.max((k + 1) * l))
        .pattern_length(l)
        .anchor_count(k)
        .reference_count(3)
        .build()
        .expect("valid config");
    let imputer = TkcmImputer::new(config).expect("valid config");
    let config = imputer.config();
    let target = SeriesId(0);
    // The references are never missing, so these are the first `d` ranked
    // candidates reference selection would pick for the target.
    let references: Vec<SeriesId> = (1..=config.reference_count).map(SeriesId::from).collect();
    let mut window = StreamingWindow::new(dataset.width(), config.window_length);
    let mut state: Option<IncrementalDissimilarity> = None;
    let mut breakdown = PhaseBreakdown::default();

    let len = dataset.len().min(window_length);
    let gap = 32.min(len / 4);
    let stream = dataset.to_stream();
    for (i, tick) in stream.ticks().take(len).enumerate() {
        let in_gap = i + gap >= len;
        let mut values = tick.values.clone();
        if in_gap {
            values[target.index()] = None;
        }
        window
            .push_tick(&StreamTick::new(tick.time, values))
            .expect("tick accepted");
        if incremental && in_gap {
            let start = Instant::now();
            let state = state.get_or_insert_with(|| {
                IncrementalDissimilarity::new(
                    references.clone(),
                    l,
                    config.window_length,
                    config.allow_missing_in_patterns,
                )
                .expect("valid state")
            });
            state.advance(&window).expect("advance succeeds");
            breakdown.maintenance += start.elapsed();
        }
        if in_gap {
            let detail = match &state {
                Some(state) => imputer.impute_maintained(&window, target, &references, state),
                None => imputer.impute(&window, target, &references),
            }
            .expect("imputation succeeds");
            window
                .write_imputed(target, 0, detail.value)
                .expect("write-back accepted");
            breakdown.merge(&detail.breakdown);
        }
    }
    assert_eq!(breakdown.imputations, gap);
    PhaseShares {
        extraction: breakdown.extraction_share(),
        selection: breakdown.selection_share(),
        maintenance: breakdown.maintenance_share(),
    }
}

/// Phase shares of the maintained (Section 6.2) path for the given `k`.
pub fn phase_shares(scale: Scale, k: usize) -> PhaseShares {
    phase_shares_for(scale, k, true)
}

/// Phase shares of the exact recompute-all path for the given `k` — the
/// profile the paper reports for the naive implementation (PE ≈ 92 %).
pub fn phase_shares_exact(scale: Scale, k: usize) -> PhaseShares {
    phase_shares_for(scale, k, false)
}

/// Parameter sweep values for the runtime experiment.
pub fn sweep(scale: Scale) -> (Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>) {
    match scale {
        Scale::Quick => (
            vec![4, 12, 24],           // l
            vec![1, 2, 3],             // d
            vec![2, 5, 10],            // k
            vec![1_000, 2_000, 3_000], // L
        ),
        Scale::Paper => (
            vec![18, 36, 72, 108, 144],
            vec![1, 2, 3, 4, 5],
            vec![5, 50, 100, 200, 300],
            vec![10_000, 20_000, 30_000],
        ),
    }
}

/// Runs the runtime experiment and returns per-parameter timing tables.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new("Figure 17: runtime linearity and phase breakdown");
    report.note("Seconds per single imputation while sweeping one parameter (SBR-1d stand-in)");
    report.note(
        "Timed path: incremental D maintenance (Section 6.2, standalone state) — flat in l and \
         d, linear in k/L",
    );
    let (ls, ds, ks, windows) = sweep(scale);
    let base_window = match scale {
        Scale::Quick => 2_000,
        Scale::Paper => 20_000,
    };
    let l_default = scale.default_pattern_length();

    let mut l_table = Table::new(
        "Runtime vs pattern length l",
        std::iter::once("parameter".to_string())
            .chain(ls.iter().map(|v| format!("l={v}")))
            .collect(),
    );
    l_table.push_row(
        "seconds",
        ls.iter()
            .map(|&l| time_single_imputation(scale, l, 3, 5, base_window))
            .collect(),
    );
    report.add_table(l_table);

    let mut d_table = Table::new(
        "Runtime vs reference count d",
        std::iter::once("parameter".to_string())
            .chain(ds.iter().map(|v| format!("d={v}")))
            .collect(),
    );
    d_table.push_row(
        "seconds",
        ds.iter()
            .map(|&d| time_single_imputation(scale, l_default, d, 5, base_window))
            .collect(),
    );
    report.add_table(d_table);

    let mut k_table = Table::new(
        "Runtime vs anchor count k",
        std::iter::once("parameter".to_string())
            .chain(ks.iter().map(|v| format!("k={v}")))
            .collect(),
    );
    k_table.push_row(
        "seconds",
        ks.iter()
            .map(|&k| time_single_imputation(scale, l_default, 3, k, base_window))
            .collect(),
    );
    report.add_table(k_table);

    let mut w_table = Table::new(
        "Runtime vs window length L",
        std::iter::once("parameter".to_string())
            .chain(windows.iter().map(|v| format!("L={v}")))
            .collect(),
    );
    w_table.push_row(
        "seconds",
        windows
            .iter()
            .map(|&w| time_single_imputation(scale, l_default, 3, 5, w))
            .collect(),
    );
    report.add_table(w_table);

    // The Section 6.2 payoff: incremental vs exact per-imputation cost at
    // the default parameters.
    let mut versus = Table::new(
        "Per-imputation cost: incremental vs exact recompute",
        vec!["path".into(), "seconds".into()],
    );
    versus.push_row(
        "incremental",
        vec![time_single_imputation(scale, l_default, 3, 5, base_window)],
    );
    versus.push_row(
        "exact",
        vec![time_single_imputation_exact(
            scale,
            l_default,
            3,
            5,
            base_window,
        )],
    );
    report.add_table(versus);

    // Section 7.4 phase breakdown for the default k and a very large k, on
    // both paths (the paper's ~92 % PE share is the exact path's profile).
    let mut phases = Table::new(
        "Phase breakdown (share of runtime)",
        vec![
            "configuration".into(),
            "extraction".into(),
            "selection".into(),
            "maintenance".into(),
        ],
    );
    let big_k = match scale {
        Scale::Quick => 50,
        Scale::Paper => 300,
    };
    let inc_default = phase_shares(scale, 5);
    phases.push_row(
        "incremental k=5",
        vec![
            inc_default.extraction,
            inc_default.selection,
            inc_default.maintenance,
        ],
    );
    let inc_big = phase_shares(scale, big_k);
    phases.push_row(
        format!("incremental k={big_k}"),
        vec![inc_big.extraction, inc_big.selection, inc_big.maintenance],
    );
    let exact_default = phase_shares_exact(scale, 5);
    phases.push_row(
        "exact k=5",
        vec![
            exact_default.extraction,
            exact_default.selection,
            exact_default.maintenance,
        ],
    );
    report.add_table(phases);

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_grows_with_window_length() {
        // Linearity in L (Figure 17d): a 3x larger window should not be
        // cheaper than the small one.
        let small = time_single_imputation(Scale::Quick, 12, 3, 5, 1_000);
        let large = time_single_imputation(Scale::Quick, 12, 3, 5, 3_000);
        assert!(large >= small * 0.8, "large {large} vs small {small}");
        assert!(small >= 0.0);
    }

    #[test]
    fn incremental_is_cheaper_than_exact_recompute() {
        // The whole point of Section 6.2: reading the maintained D must beat
        // re-extracting every candidate pattern by a wide margin.
        let incremental = time_single_imputation(Scale::Quick, 12, 3, 5, 2_000);
        let exact = time_single_imputation_exact(Scale::Quick, 12, 3, 5, 2_000);
        assert!(
            incremental < exact * 0.5,
            "incremental {incremental}s should be well under exact {exact}s"
        );
    }

    #[test]
    fn incremental_extraction_no_longer_dominates() {
        // The acceptance criterion for the Section 6.2 rework: pattern
        // extraction drops from ~94 % to a minority of the runtime.
        let shares = phase_shares(Scale::Quick, 5);
        assert!(
            shares.extraction < 0.5,
            "extraction share {} should be a minority on the incremental path",
            shares.extraction
        );
        assert!(shares.maintenance > 0.0, "maintenance phase must be timed");
    }

    #[test]
    fn exact_path_extraction_still_dominates() {
        // Section 7.4: on the recompute-all path the PE phase dominates PS
        // for the default k — kept as the cross-check baseline.
        let shares = phase_shares_exact(Scale::Quick, 5);
        assert!(
            shares.extraction > shares.selection,
            "extraction {} vs selection {}",
            shares.extraction,
            shares.selection
        );
        assert!(shares.extraction > 0.5);
        assert_eq!(shares.maintenance, 0.0);
    }

    #[test]
    fn large_k_increases_the_selection_share() {
        let small = phase_shares(Scale::Quick, 5);
        let large = phase_shares(Scale::Quick, 100);
        assert!(
            large.selection > small.selection,
            "selection share should grow with k ({} -> {})",
            small.selection,
            large.selection
        );
    }

    #[test]
    fn report_has_six_tables() {
        let report = run(Scale::Quick);
        assert_eq!(report.tables.len(), 6);
        for table in &report.tables {
            for (_, values) in &table.rows {
                assert!(values.iter().all(|v| v.is_finite() && *v >= 0.0));
            }
        }
        // The last table is the phase breakdown the `breakdown_phases`
        // binary prints.
        assert_eq!(
            report.tables.last().unwrap().title,
            "Phase breakdown (share of runtime)"
        );
    }

    #[test]
    fn workload_has_missing_target_at_current_time() {
        let w = build_workload(Scale::Quick, 1_500, 3);
        assert_eq!(w.window.currently_missing(), vec![SeriesId(0)]);
        assert_eq!(w.references.len(), 3);
        assert!(w.window.is_warm() || w.window.ticks_seen() > 0);
    }
}

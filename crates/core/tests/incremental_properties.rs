//! Property tests for the Section 6.2 incremental dissimilarity maintenance:
//! the maintained `D[j]` must equal a from-scratch recompute (within
//! floating-point epsilon) across random streams with gaps, random missing
//! blocks and ring-buffer wrap-around.

use proptest::prelude::*;

use tkcm_core::{
    extract_pattern, extract_query_pattern, Dissimilarity, IncrementalDissimilarity, L2Distance,
};
use tkcm_timeseries::{SeriesId, StreamTick, StreamingWindow, Timestamp};

/// From-scratch `D` at one candidate lag, computed exactly like the exact
/// imputer path: pattern extraction plus the L2 distance of Definition 2.
fn from_scratch_d(
    window: &StreamingWindow,
    refs: &[SeriesId],
    l: usize,
    lag: usize,
    allow_missing: bool,
) -> f64 {
    let now = window.current_time().unwrap();
    let Some(query) = extract_query_pattern(window, refs, l, allow_missing).unwrap() else {
        return f64::INFINITY;
    };
    match extract_pattern(window, refs, now - lag as i64, l, allow_missing).unwrap() {
        Some(candidate) => L2Distance.distance(&candidate, &query),
        None => f64::INFINITY,
    }
}

fn assert_state_matches(
    state: &IncrementalDissimilarity,
    window: &StreamingWindow,
    refs: &[SeriesId],
    l: usize,
    allow_missing: bool,
) -> Result<(), String> {
    let filled = window.filled();
    if filled < 2 * l {
        return Ok(());
    }
    for lag in l..=(filled - l) {
        let exact = from_scratch_d(window, refs, l, lag, allow_missing);
        let inc = state.dissimilarity_at_lag(lag);
        if exact.is_infinite() {
            prop_assert!(
                inc.is_infinite(),
                "lag {lag}: from-scratch inf, incremental {inc}"
            );
        } else {
            prop_assert!(
                (exact - inc).abs() <= 1e-8 * (1.0 + exact.abs()),
                "lag {lag}: from-scratch {exact} vs incremental {inc}"
            );
        }
    }
    Ok(())
}

proptest! {
    /// Random two-series streams with random gaps, replayed for well past
    /// one full window so the ring buffers wrap and evict: after every tick
    /// the maintained sums must match a from-scratch recompute in both
    /// missing-value modes.
    #[test]
    fn incremental_d_matches_from_scratch_recompute(
        v0 in proptest::collection::vec(proptest::option::of(-100.0f64..100.0), 24..120),
        v1 in proptest::collection::vec(proptest::option::of(-100.0f64..100.0), 24..120),
        capacity in 6usize..20,
        l_raw in 1usize..6,
        mode in 0u32..2,
    ) {
        let l = l_raw.min(capacity / 2).max(1);
        let allow_missing = mode == 1;
        let refs = vec![SeriesId(0), SeriesId(1)];
        let mut window = StreamingWindow::new(2, capacity);
        let mut state = IncrementalDissimilarity::new(refs.clone(), l, capacity, allow_missing)
            .expect("valid state parameters");

        let len = v0.len().min(v1.len());
        for t in 0..len {
            window
                .push_tick(&StreamTick::new(Timestamp::new(t as i64), vec![v0[t], v1[t]]))
                .expect("tick accepted");
            state.advance(&window).expect("advance succeeds");
            assert_state_matches(&state, &window, &refs, l, allow_missing)?;
        }
    }
}

//! Incremental maintenance of the dissimilarity array `D` (Section 6.2).
//!
//! The naive implementation of Algorithm 1 recomputes every `D[j]` from
//! scratch at each imputation: `O(L·l·d)` work per missing value, which the
//! Section 7.4 breakdown shows is ~94 % of TKCM's runtime.  Section 6.2
//! observes that `D` can instead be *maintained* as the window slides, which
//! is what makes TKCM viable on unbounded streams.
//!
//! # The update equations
//!
//! Index candidates by their **lag** `a = t_n − t_j` (the age of the anchor
//! relative to the current time, `l ≤ a ≤ L − l`).  The squared L2
//! dissimilarity of Definition 2 between the candidate pattern `P(t_n − a)`
//! and the query pattern `P(t_n)` decomposes into per-column contributions:
//!
//! ```text
//! D²[a](t_n) = Σ_{i=0}^{l−1}  c(t_n − i, a)
//! c(t, a)    = Σ_{r ∈ R}      ( r(t − a) − r(t) )²
//! ```
//!
//! The key property: when the tick `t_{n+1}` arrives, the candidate at lag
//! `a` *and* the query both slide forward by one tick, so `l − 1` of the `l`
//! column contributions are shared and the sliding aggregate update is
//!
//! ```text
//! D²[a](t_{n+1}) = D²[a](t_n)  +  c(t_{n+1}, a)        (new column enters)
//!                              −  c(t_{n+1} − l, a)    (old column expires)
//! ```
//!
//! — `O(d)` work per candidate lag per tick ([`IncrementalDissimilarity::advance`]),
//! `O(L·d)` per tick over all lags, replacing the `O(L·l·d)` recompute per
//! imputation.  Missing values are handled by carrying the *observed pair
//! count* alongside each running sum: a pair contributes only when both the
//! candidate and the query slot are present, exactly mirroring
//! [`crate::dissimilarity::l2_components`], so the running sums equal what a
//! from-scratch recompute over the window would produce — the invariant the
//! property tests in `tests/incremental_properties.rs` assert.
//!
//! This is a standalone type: the streaming engine does not run it (its
//! composed pruning path is faster on every measured workload).  The
//! Figure 17 runtime experiment and the `runtime` bench drive it directly,
//! through [`crate::imputer::TkcmImputer::impute_maintained`].  It has no
//! hook for values written into the window after the fact; a caller that
//! writes into a reference series must [`IncrementalDissimilarity::rebuild`].
//!
//! Floating-point drift from the add/subtract cycle is bounded by rebuilding
//! from scratch every `L` ticks (amortised `O(l·d)` per tick, negligible).

use std::sync::LazyLock;

use tkcm_timeseries::{SeriesId, StreamingWindow, Timestamp, TsError};

use crate::dissimilarity::l2_from_components;

/// From-scratch maintainer rebuilds (first use, de-sync fallback and the
/// periodic drift wash-out), fleet-wide.  Record-only (`obs-read-only`).
static REBUILDS: LazyLock<tkcm_obs::Counter> =
    LazyLock::new(|| tkcm_obs::registry().counter("tkcm_core_maintainer_rebuilds_total", &[]));

/// Sliding-aggregate state for the dissimilarity array `D` of Algorithm 1,
/// maintained per reference set (Section 6.2).
///
/// The state is valid for exactly one `(references, l, L, allow_missing)`
/// combination and must be kept in lock-step with the window it was built
/// over: call [`IncrementalDissimilarity::advance`] after every
/// `StreamingWindow::push_tick`, and [`IncrementalDissimilarity::rebuild`]
/// after writing into a reference series.
#[derive(Clone, Debug)]
pub struct IncrementalDissimilarity {
    references: Vec<SeriesId>,
    pattern_length: usize,
    window_length: usize,
    allow_missing: bool,
    /// `sums[a - l]` = running Σ of squared differences over observed pairs
    /// for the candidate at lag `a`.
    sums: Vec<f64>,
    /// `counts[a - l]` = number of observed pairs in that sum (≤ `d·l`).
    counts: Vec<u32>,
    /// Per-reference value at age `L − 1` after the last sync point: the slot
    /// the ring buffer will evict on the next push.  Needed because the
    /// expiring column of the maximum lag (`a = L − l`) reaches age `L`,
    /// which is no longer addressable after the push.
    prev_oldest: Vec<Option<f64>>,
    /// Window time of the last sync ([`Self::rebuild`] / [`Self::advance`]).
    last_time: Option<Timestamp>,
    ticks_since_rebuild: usize,
}

impl IncrementalDissimilarity {
    /// Creates an empty (un-synced) state for the given reference set.
    ///
    /// `pattern_length` and `window_length` are the `l` and `L` the paired
    /// imputer runs with; `allow_missing` mirrors
    /// `TkcmConfig::allow_missing_in_patterns`.
    pub fn new(
        references: Vec<SeriesId>,
        pattern_length: usize,
        window_length: usize,
        allow_missing: bool,
    ) -> Result<Self, TsError> {
        if references.is_empty() {
            return Err(TsError::invalid(
                "references",
                "incremental state needs at least one reference series",
            ));
        }
        if pattern_length == 0 {
            return Err(TsError::invalid("l", "pattern length must be positive"));
        }
        if window_length < 2 * pattern_length {
            return Err(TsError::invalid(
                "L",
                "window must hold the query pattern plus one candidate (L >= 2l)",
            ));
        }
        let lags = window_length - 2 * pattern_length + 1;
        let width = references.len();
        Ok(IncrementalDissimilarity {
            references,
            pattern_length,
            window_length,
            allow_missing,
            sums: vec![0.0; lags],
            counts: vec![0; lags],
            prev_oldest: vec![None; width],
            last_time: None,
            ticks_since_rebuild: 0,
        })
    }

    /// The reference series the state is maintained for.
    pub fn references(&self) -> &[SeriesId] {
        &self.references
    }

    /// The pattern length `l` the state is maintained for.
    pub fn pattern_length(&self) -> usize {
        self.pattern_length
    }

    /// The window length `L` the state is maintained for.
    pub fn window_length(&self) -> usize {
        self.window_length
    }

    /// Whether the state is in lock-step with the window (same current time).
    pub fn is_synced(&self, window: &StreamingWindow) -> bool {
        self.last_time.is_some() && self.last_time == window.current_time()
    }

    /// Number of maintained candidate lags (`L − 2l + 1`).
    pub fn lag_count(&self) -> usize {
        self.sums.len()
    }

    /// Recomputes every running sum from the current window contents:
    /// `O(L·l·d)`.  Called on first use, after a de-sync, and periodically to
    /// wash out floating-point drift.
    pub fn rebuild(&mut self, window: &StreamingWindow) -> Result<(), TsError> {
        REBUILDS.inc();
        let now = window
            .current_time()
            .ok_or_else(|| TsError::invalid("window", "no tick has been pushed yet"))?;
        let l = self.pattern_length;
        self.sums.fill(0.0);
        self.counts.fill(0);
        // Per-reference values indexed by age, fetched once so the O(L·l)
        // inner loops index a flat slice instead of ring arithmetic.
        for &r in &self.references {
            let by_age: Vec<Option<f64>> = (0..self.window_length)
                .map(|age| window.buffer(r).map(|b| b.recent(age)))
                .collect::<Result<_, _>>()?;
            for (idx, (sum, count)) in self.sums.iter_mut().zip(self.counts.iter_mut()).enumerate()
            {
                let lag = idx + l;
                for i in 0..l {
                    if let (Some(x), Some(y)) = (by_age[lag + i], by_age[i]) {
                        *sum += (x - y) * (x - y);
                        *count += 1;
                    }
                }
            }
        }
        self.snapshot_oldest(window)?;
        self.last_time = Some(now);
        self.ticks_since_rebuild = 0;
        Ok(())
    }

    /// Applies the Section 6.2 sliding-aggregate update for one arrived tick:
    /// `O(d)` per lag, `O(L·d)` total.  Falls back to [`Self::rebuild`] when
    /// the state is not exactly one tick behind the window (first use, missed
    /// ticks) or the periodic drift-rebuild is due.
    pub fn advance(&mut self, window: &StreamingWindow) -> Result<(), TsError> {
        let now = window
            .current_time()
            .ok_or_else(|| TsError::invalid("window", "no tick has been pushed yet"))?;
        // Exactly one tick behind ⇔ the previous tick (age 1) carries the
        // time of the last sync.  Comparing stored tick times (instead of
        // `now - t == 1`) keeps the O(d)-per-lag path on any real cadence —
        // at a 600-second spacing the delta is never 1 and the old check
        // silently degraded every advance into an O(L·l·d) rebuild.
        let one_step = self.last_time.is_some() && window.time_of_age(1) == self.last_time;
        if !one_step || self.ticks_since_rebuild >= self.window_length {
            return self.rebuild(window);
        }
        let l = self.pattern_length;
        for (ri, &r) in self.references.iter().enumerate() {
            let buf = window.buffer(r)?;
            // Loop-invariant query-side values: the entering column pairs
            // against age 0, the expiring column against age l.
            let y_new = buf.recent(0);
            let y_old = buf.recent(l);
            let evicted = self.prev_oldest[ri];
            for (idx, (sum, count)) in self.sums.iter_mut().zip(self.counts.iter_mut()).enumerate()
            {
                let lag = idx + l;
                // Entering column: c(t_{n+1}, a) — pairs r(t_{n+1} − a) with
                // the value that just arrived.
                if let (Some(x), Some(y)) = (buf.recent(lag), y_new) {
                    *sum += (x - y) * (x - y);
                    *count += 1;
                }
                // Expiring column: c(t_{n+1} − l, a).  Its candidate-side
                // value sits at age `lag + l`; for the maximum lag that is
                // age `L`, which the push just evicted — use the snapshot.
                let x = if lag + l == self.window_length {
                    evicted
                } else {
                    buf.recent(lag + l)
                };
                if let (Some(x), Some(y)) = (x, y_old) {
                    *sum -= (x - y) * (x - y);
                    *count -= 1;
                }
            }
        }
        self.snapshot_oldest(window)?;
        self.last_time = Some(now);
        self.ticks_since_rebuild += 1;
        Ok(())
    }

    /// The maintained dissimilarity `D` of the candidate at the given lag
    /// (`lag = t_n − t_j`), folded exactly like the from-scratch path: in
    /// strict mode (`allow_missing = false`) a candidate with *any* missing
    /// pair is `+∞`; in lenient mode missing pairs are skipped and the sum
    /// rescaled (Definition 2 as implemented by `L2Distance`).
    pub fn dissimilarity_at_lag(&self, lag: usize) -> f64 {
        let l = self.pattern_length;
        if lag < l || lag > self.window_length - l {
            return f64::INFINITY;
        }
        let idx = lag - l;
        let total = self.references.len() * l;
        let observed = self.counts[idx] as usize;
        if !self.allow_missing && observed != total {
            return f64::INFINITY;
        }
        l2_from_components(self.sums[idx], observed, total)
    }

    /// Verifies the state is usable for an imputation over `window` with the
    /// given reference set and pattern length.
    pub fn ensure_compatible(
        &self,
        window: &StreamingWindow,
        references: &[SeriesId],
        pattern_length: usize,
        allow_missing: bool,
    ) -> Result<(), TsError> {
        if self.references != references {
            return Err(TsError::invalid(
                "references",
                "incremental state was built for a different reference set",
            ));
        }
        if self.pattern_length != pattern_length || self.allow_missing != allow_missing {
            return Err(TsError::invalid(
                "config",
                "incremental state was built for a different configuration",
            ));
        }
        if self.window_length != window.length() {
            return Err(TsError::invalid(
                "L",
                "incremental state was built for a different window length",
            ));
        }
        if !self.is_synced(window) {
            return Err(TsError::invalid(
                "state",
                "incremental state is out of sync with the window; call advance() after every push_tick",
            ));
        }
        Ok(())
    }

    fn snapshot_oldest(&mut self, window: &StreamingWindow) -> Result<(), TsError> {
        for (ri, &r) in self.references.iter().enumerate() {
            self.prev_oldest[ri] = window.value_recent(r, self.window_length - 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dissimilarity::{Dissimilarity, L2Distance};
    use crate::pattern::{extract_pattern_at_age, extract_query_pattern};
    use tkcm_timeseries::StreamTick;

    /// From-scratch D at one lag, exactly as the exact imputer path computes
    /// it (used here as the ground truth for the incremental updates).
    fn exact_d(
        window: &StreamingWindow,
        refs: &[SeriesId],
        l: usize,
        lag: usize,
        allow_missing: bool,
    ) -> f64 {
        let query = extract_query_pattern(window, refs, l, allow_missing).unwrap();
        let Some(query) = query else {
            return f64::INFINITY;
        };
        // The candidate lag *is* the anchor age — going through an absolute
        // timestamp here would re-introduce a unit-cadence assumption.
        let candidate = extract_pattern_at_age(window, refs, lag, l, allow_missing).unwrap();
        match candidate {
            Some(c) => L2Distance.distance(&c, &query),
            None => f64::INFINITY,
        }
    }

    fn assert_matches_exact(
        state: &IncrementalDissimilarity,
        window: &StreamingWindow,
        refs: &[SeriesId],
        l: usize,
        allow_missing: bool,
    ) {
        let filled = window.filled();
        if filled < 2 * l {
            return;
        }
        for lag in l..=(filled - l) {
            let exact = exact_d(window, refs, l, lag, allow_missing);
            let inc = state.dissimilarity_at_lag(lag);
            if exact.is_infinite() {
                assert!(inc.is_infinite(), "lag {lag}: exact inf, incremental {inc}");
            } else {
                assert!(
                    (exact - inc).abs() <= 1e-9 * (1.0 + exact.abs()),
                    "lag {lag}: exact {exact} vs incremental {inc}"
                );
            }
        }
    }

    #[test]
    fn advance_tracks_from_scratch_on_a_clean_stream() {
        let width = 2;
        let capacity = 24;
        let l = 3;
        let refs = vec![SeriesId(0), SeriesId(1)];
        let mut window = StreamingWindow::new(width, capacity);
        let mut state = IncrementalDissimilarity::new(refs.clone(), l, capacity, false).unwrap();
        // Run for 3 full window lengths so the ring wraps repeatedly.
        for t in 0..(3 * capacity) {
            let v0 = (t as f64 * 0.7).sin() * 10.0;
            let v1 = (t as f64 * 0.7 + 1.0).cos() * 5.0;
            window
                .push_tick(&StreamTick::new(
                    Timestamp::new(t as i64),
                    vec![Some(v0), Some(v1)],
                ))
                .unwrap();
            state.advance(&window).unwrap();
            assert_matches_exact(&state, &window, &refs, l, false);
        }
        assert!(state.is_synced(&window));
        assert_eq!(state.lag_count(), capacity - 2 * l + 1);
    }

    #[test]
    fn advance_handles_missing_values_in_both_modes() {
        for allow_missing in [false, true] {
            let capacity = 20;
            let l = 2;
            let refs = vec![SeriesId(0), SeriesId(1)];
            let mut window = StreamingWindow::new(2, capacity);
            let mut state =
                IncrementalDissimilarity::new(refs.clone(), l, capacity, allow_missing).unwrap();
            for t in 0..(2 * capacity) {
                // Deterministic sprinkle of missing values on both series.
                let v0 = if t % 7 == 3 { None } else { Some(t as f64) };
                let v1 = if t % 5 == 1 { None } else { Some(-(t as f64)) };
                window
                    .push_tick(&StreamTick::new(Timestamp::new(t as i64), vec![v0, v1]))
                    .unwrap();
                state.advance(&window).unwrap();
                assert_matches_exact(&state, &window, &refs, l, allow_missing);
            }
        }
    }

    #[test]
    fn advance_stays_incremental_on_non_unit_cadence() {
        // Ticks 600 timestamp units apart (a 10-minute cadence at second
        // resolution): the one-step detection must still take the O(d)-per-lag
        // sliding update, not fall back to a rebuild on every tick.
        let capacity = 16;
        let l = 2;
        let refs = vec![SeriesId(0), SeriesId(1)];
        let mut window = StreamingWindow::new(2, capacity);
        let mut state = IncrementalDissimilarity::new(refs.clone(), l, capacity, false).unwrap();
        // Stay below the periodic drift-rebuild horizon (`L` ticks) so the
        // counter below isolates the cadence behaviour.
        let total = capacity - 4;
        for t in 0..total {
            window
                .push_tick(&StreamTick::new(
                    Timestamp::new(t as i64 * 600),
                    vec![Some((t as f64 * 0.7).sin()), Some((t as f64 * 0.9).cos())],
                ))
                .unwrap();
            state.advance(&window).unwrap();
            assert_matches_exact(&state, &window, &refs, l, false);
        }
        // The first advance rebuilds (nothing to slide from); every later one
        // must have taken the incremental path.  A per-tick rebuild would
        // leave this counter at 0.
        assert_eq!(state.ticks_since_rebuild, total - 1);
    }

    #[test]
    fn desync_falls_back_to_rebuild() {
        let capacity = 12;
        let l = 2;
        let refs = vec![SeriesId(0)];
        let mut window = StreamingWindow::new(1, capacity);
        let mut state = IncrementalDissimilarity::new(refs.clone(), l, capacity, false).unwrap();
        for t in 0..capacity {
            window
                .push_tick(&StreamTick::new(
                    Timestamp::new(t as i64),
                    vec![Some((t as f64).sin())],
                ))
                .unwrap();
            // Deliberately skip advance() on most ticks.
            if t % 5 == 0 {
                state.advance(&window).unwrap();
            }
        }
        state.advance(&window).unwrap();
        assert!(state.is_synced(&window));
        assert_matches_exact(&state, &window, &refs, l, false);
    }

    #[test]
    fn constructor_validates_parameters() {
        assert!(IncrementalDissimilarity::new(vec![], 2, 8, false).is_err());
        assert!(IncrementalDissimilarity::new(vec![SeriesId(0)], 0, 8, false).is_err());
        assert!(IncrementalDissimilarity::new(vec![SeriesId(0)], 5, 8, false).is_err());
        let state = IncrementalDissimilarity::new(vec![SeriesId(0)], 4, 8, false).unwrap();
        assert_eq!(state.lag_count(), 1);
        assert_eq!(state.pattern_length(), 4);
        assert_eq!(state.references(), &[SeriesId(0)]);
    }

    #[test]
    fn ensure_compatible_rejects_mismatches() {
        let capacity = 12;
        let mut window = StreamingWindow::new(2, capacity);
        let mut state =
            IncrementalDissimilarity::new(vec![SeriesId(1)], 2, capacity, false).unwrap();
        // Un-synced state is rejected even with matching parameters.
        assert!(state
            .ensure_compatible(&window, &[SeriesId(1)], 2, false)
            .is_err());
        for t in 0..4 {
            window
                .push_tick(&StreamTick::new(
                    Timestamp::new(t),
                    vec![Some(1.0), Some(2.0)],
                ))
                .unwrap();
        }
        state.advance(&window).unwrap();
        assert!(state
            .ensure_compatible(&window, &[SeriesId(1)], 2, false)
            .is_ok());
        assert!(state
            .ensure_compatible(&window, &[SeriesId(0)], 2, false)
            .is_err());
        assert!(state
            .ensure_compatible(&window, &[SeriesId(1)], 3, false)
            .is_err());
        assert!(state
            .ensure_compatible(&window, &[SeriesId(1)], 2, true)
            .is_err());
        let other = StreamingWindow::new(2, capacity + 4);
        assert!(state
            .ensure_compatible(&other, &[SeriesId(1)], 2, false)
            .is_err());
    }

    #[test]
    fn out_of_range_lags_are_infinite() {
        let capacity = 12;
        let mut window = StreamingWindow::new(1, capacity);
        let mut state =
            IncrementalDissimilarity::new(vec![SeriesId(0)], 3, capacity, false).unwrap();
        for t in 0..capacity {
            window
                .push_tick(&StreamTick::new(Timestamp::new(t as i64), vec![Some(1.0)]))
                .unwrap();
        }
        state.advance(&window).unwrap();
        assert!(state.dissimilarity_at_lag(0).is_infinite());
        assert!(state.dissimilarity_at_lag(2).is_infinite());
        assert!(state.dissimilarity_at_lag(capacity - 2).is_infinite());
        assert!(state.dissimilarity_at_lag(3).is_finite());
    }
}

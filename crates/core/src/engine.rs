//! Streaming TKCM engine: continuous imputation over a set of streams.
//!
//! The engine owns the streaming window, pushes every arriving tick into it,
//! and — for every series whose value is missing at the current time — runs
//! the TKCM imputer with the reference set selected from the catalog
//! (Section 3: the first `d` ranked candidates whose current value is not
//! missing).  Imputed values are written back into the window so that later
//! imputations can treat them as history, exactly as in Example 1 of the
//! paper where `r2(13:40)` is an imputed value.
//!
//! The engine dispatches every imputation to one of three candidate paths:
//!
//! * **Composed** (`TkcmConfig::pruning`, the default): a signature index
//!   over all series, kept in lock-step with the window, prunes the
//!   candidate space admissibly ([`TkcmImputer::impute_composed`]).  The
//!   only state carried between imputations is a *warm start* per active
//!   reference set: the lags of the previous imputation's `k` anchors, which
//!   seed the pruning threshold.  A lag is a position, not a value, so the
//!   entry needs no per-tick advance and no write-back patching; it is
//!   evicted once no imputation has used it for `2l` ticks.
//! * **Dense incremental** (`pruning` off, `incremental` on): one
//!   [`IncrementalDissimilarity`] state per active reference set, advanced
//!   after every pushed tick (Section 6.2's `O(L·d)` sliding-aggregate
//!   update), patched after every imputed write-back, rebuilt lazily when a
//!   new reference set first appears, and evicted after `2l` unused ticks
//!   (keeping an idle state alive costs one advance per tick ≈ a rebuild
//!   every `l` ticks).  It is faster than the composed path on small
//!   windows.
//! * **Exact** (both flags off): the exhaustive recompute, the oracle the
//!   other two are checked against.

use std::sync::LazyLock;
use std::time::Instant;

use tkcm_timeseries::{Catalog, SeriesId, StreamTick, StreamingWindow, Timestamp, TsError};

use crate::config::TkcmConfig;
use crate::diagnostics::PhaseBreakdown;
use crate::imputer::{ImputationDetail, PruneStats, TkcmImputer};
use crate::incremental::IncrementalDissimilarity;
use crate::signature::SignatureIndex;

/// Fleet-wide pruning totals in the global metrics registry, in the same
/// split as [`PruneStats`] (level-1 run skips and warm-start lags ride as
/// extra paths; `maintained_pruned` is always 0 and has none).  Record-only:
/// the imputation path never reads these back (`obs-read-only` policy).
static PRUNE_TOTALS: LazyLock<[tkcm_obs::Counter; 5]> = LazyLock::new(|| {
    [
        "candidates",
        "shortlisted",
        "pruned",
        "level1_skipped",
        "maintained_lags",
    ]
    .map(|path| tkcm_obs::registry().counter("tkcm_core_prune_total", &[("path", path)]))
});

/// Maintainer and warm-start lifecycle counters (created / evicted),
/// record-only.
static MAINTAINERS_CREATED: LazyLock<tkcm_obs::Counter> =
    LazyLock::new(|| tkcm_obs::registry().counter("tkcm_core_maintainer_created_total", &[]));
static MAINTAINERS_EVICTED: LazyLock<tkcm_obs::Counter> =
    LazyLock::new(|| tkcm_obs::registry().counter("tkcm_core_maintainer_evicted_total", &[]));

/// One imputation performed by the engine at a tick.
#[derive(Clone, Debug, PartialEq)]
pub struct Imputation {
    /// The series that was imputed.
    pub series: SeriesId,
    /// The time point imputed.
    pub time: Timestamp,
    /// The imputed value.
    pub value: f64,
    /// Full detail (anchors, ε, timing).
    pub detail: ImputationDetail,
}

/// Result of processing one tick.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineOutcome {
    /// All imputations performed at this tick (one per missing series).
    pub imputations: Vec<Imputation>,
    /// Series that were missing but could not be imputed because no reference
    /// candidate was alive (the value stays missing in the window).
    pub skipped: Vec<SeriesId>,
}

impl EngineOutcome {
    /// Convenience lookup of the imputed value of a series at this tick.
    pub fn imputed_value(&self, series: SeriesId) -> Option<f64> {
        self.imputations
            .iter()
            .find(|i| i.series == series)
            .map(|i| i.value)
    }

    /// This outcome with every per-imputation phase timing zeroed (see
    /// [`PhaseBreakdown::zeroed_for_compare`]): wall-clock durations are the
    /// one field of an outcome that legitimately differs between runs that
    /// are otherwise bit-identical, so equality assertions compare
    /// `a.timing_stripped() == b.timing_stripped()` instead of hand-zeroing
    /// the breakdowns in every test suite.
    #[must_use]
    pub fn timing_stripped(&self) -> EngineOutcome {
        let mut stripped = self.clone();
        for imputation in &mut stripped.imputations {
            imputation.detail.breakdown = imputation.detail.breakdown.zeroed_for_compare();
        }
        stripped
    }
}

/// One maintained dissimilarity state plus the tick it last served.
/// (`pub(crate)` for the snapshot codec in `persist`.)
pub(crate) struct Maintainer {
    pub(crate) state: IncrementalDissimilarity,
    pub(crate) last_used: usize,
}

/// The composed path's warm start for one reference set: the lags of the
/// previous imputation's anchors (at most `k`, each in `l ..= L − l`) plus
/// the tick it last served.  The lags only order τ-seeding; every `D` is
/// still the exact fold, so a stale entry costs pruning, never bits.
/// (`pub(crate)` for the snapshot codec in `persist`.)
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct WarmStart {
    pub(crate) references: Vec<SeriesId>,
    pub(crate) lags: Vec<u32>,
    pub(crate) last_used: usize,
}

/// Continuous TKCM imputation engine over a fixed set of streams.
pub struct TkcmEngine {
    // Fields are `pub(crate)` so the snapshot codec (`persist`) can persist
    // and restore the full engine state.
    pub(crate) imputer: TkcmImputer,
    pub(crate) window: StreamingWindow,
    pub(crate) catalog: Catalog,
    pub(crate) breakdown: PhaseBreakdown,
    pub(crate) imputation_count: usize,
    pub(crate) tick_count: usize,
    /// Incremental `D` states, one per reference set that recently served an
    /// imputation.  Empty while no imputation has been needed and on the
    /// exact-recompute path.
    pub(crate) maintainers: Vec<Maintainer>,
    /// Signature index over all series, present iff the composed path is
    /// active ([`TkcmEngine::is_composed`]); kept in lock-step with the
    /// window by `advance_tick`/`commit_write_back` and persisted in
    /// snapshots so a recovered engine prunes with bit-identical envelopes.
    pub(crate) signatures: Option<SignatureIndex>,
    /// Warm starts, one per reference set that recently served a composed
    /// imputation; persisted in snapshots so a recovered engine seeds — and
    /// so counts its prunes — exactly like the live one.
    pub(crate) warm_starts: Vec<WarmStart>,
    /// Level-1 run length of the composed path, fixed at construction from
    /// config geometry ([`crate::signature::level1_run_len`] — static per
    /// run, no obs read-back).
    pub(crate) level1_run_len: usize,
    /// Running totals of the per-imputation [`PruneStats`].  Persisted in
    /// snapshots (since format v5) so diagnostics survive a crash — unlike the
    /// phase wall-clock durations, these are exact event counts with no
    /// legitimate reason to reset on recovery.
    pub(crate) prune_totals: PruneStats,
}

/// Builds the signature index iff the configuration *and* the imputer admit
/// pruning: the opt-in flag, the DP sum objective the bound is admissible
/// for, and a decomposable (L2) dissimilarity.
pub(crate) fn signature_for(
    width: usize,
    imputer: &TkcmImputer,
) -> Result<Option<SignatureIndex>, TsError> {
    let config = imputer.config();
    if config.pruning
        && config.selection == crate::selection::SelectionStrategy::DynamicProgramming
        && imputer.supports_incremental()
    {
        Ok(Some(SignatureIndex::new(width, config.window_length)?))
    } else {
        Ok(None)
    }
}

impl TkcmEngine {
    /// Creates an engine for `width` streams.
    ///
    /// The engine's window length is taken from `config.window_length`.
    pub fn new(width: usize, config: TkcmConfig, catalog: Catalog) -> Result<Self, TsError> {
        Self::with_imputer(width, TkcmImputer::new(config)?, catalog)
    }

    /// Creates an engine with a pre-built imputer (custom dissimilarity).
    pub fn with_imputer(
        width: usize,
        imputer: TkcmImputer,
        catalog: Catalog,
    ) -> Result<Self, TsError> {
        if width == 0 {
            return Err(TsError::invalid("width", "need at least one stream"));
        }
        let window = StreamingWindow::new(width, imputer.config().window_length);
        let signatures = signature_for(width, &imputer)?;
        let level1_run_len = crate::signature::level1_run_len(imputer.config().pattern_length);
        Ok(TkcmEngine {
            imputer,
            window,
            catalog,
            breakdown: PhaseBreakdown::default(),
            imputation_count: 0,
            tick_count: 0,
            maintainers: Vec::new(),
            signatures,
            warm_starts: Vec::new(),
            level1_run_len,
            prune_totals: PruneStats::default(),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &TkcmConfig {
        self.imputer.config()
    }

    /// Read access to the streaming window (e.g. for inspecting history).
    pub fn window(&self) -> &StreamingWindow {
        &self.window
    }

    /// The reference catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of ticks processed so far.
    pub fn ticks_processed(&self) -> usize {
        self.tick_count
    }

    /// Number of values imputed so far.
    pub fn imputations_performed(&self) -> usize {
        self.imputation_count
    }

    /// Accumulated phase-timing breakdown over all imputations (Section 7.4),
    /// including the per-tick incremental maintenance time.
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        self.breakdown
    }

    /// Whether the engine maintains *dense* `D` aggregates incrementally
    /// (the configuration flag is on *and* the dissimilarity measure
    /// decomposes *and* the composed path is not active — with pruning on,
    /// the `incremental` flag has no effect; see [`TkcmEngine::is_composed`]).
    pub fn is_incremental(&self) -> bool {
        self.imputer.config().incremental
            && self.imputer.supports_incremental()
            && !self.is_pruned()
    }

    /// Whether signature pruning is active: the `TkcmConfig::pruning`
    /// opt-in, dynamic-programming selection and a decomposable (L2)
    /// dissimilarity.  Pruning always runs the composed path, so this equals
    /// [`TkcmEngine::is_composed`].
    pub fn is_pruned(&self) -> bool {
        self.signatures.is_some()
    }

    /// Whether the *composed* path — signature pruning seeded from a warm
    /// start — is active.  This is the default dispatch; with `pruning` off,
    /// `incremental` selects the dense Section 6.2 path and its absence the
    /// exact recompute.
    pub fn is_composed(&self) -> bool {
        self.is_pruned()
    }

    /// The composed path's level-1 run length (candidate lags per coarse
    /// envelope bound), fixed at construction.
    pub fn level1_run_len(&self) -> usize {
        self.level1_run_len
    }

    /// Running totals of the pruning counters across all imputations so far
    /// (all zero when pruning is off).  `pruned / candidates` is the
    /// `pruned_fraction` the benchmarks report.
    pub fn prune_totals(&self) -> PruneStats {
        self.prune_totals
    }

    /// Number of live incremental `D` states (one per recently used
    /// reference set; 0 on the exact path or before the first imputation).
    pub fn maintainer_count(&self) -> usize {
        self.maintainers.len()
    }

    /// Ticks an incremental state may go unused before it is evicted.  A
    /// rebuild costs about `l` advances, so holding an idle state longer
    /// than `O(l)` ticks is more expensive than rebuilding on demand; `2l`
    /// adds hysteresis for intermittent gaps.
    fn maintainer_ttl(&self) -> usize {
        2 * self.imputer.config().pattern_length
    }

    /// Index of the maintainer for `references`, creating (and rebuilding)
    /// one if this reference set has no live state yet.
    fn maintainer_for(&mut self, references: &[SeriesId]) -> Result<usize, TsError> {
        if let Some(idx) = self
            .maintainers
            .iter()
            .position(|m| m.state.references() == references)
        {
            return Ok(idx);
        }
        let config = self.imputer.config();
        let mut state = IncrementalDissimilarity::new(
            references.to_vec(),
            config.pattern_length,
            config.window_length,
            config.allow_missing_in_patterns,
        )?;
        state.rebuild(&self.window)?;
        self.maintainers.push(Maintainer {
            state,
            last_used: self.tick_count,
        });
        MAINTAINERS_CREATED.inc();
        Ok(self.maintainers.len() - 1)
    }

    /// Index of the warm start for `references`, creating an empty one (a
    /// cold start) if this reference set has no live entry yet, and marking
    /// it used at the current tick.
    fn warm_start_for(&mut self, references: &[SeriesId]) -> usize {
        let idx = match self
            .warm_starts
            .iter()
            .position(|w| w.references == references)
        {
            Some(idx) => idx,
            None => {
                self.warm_starts.push(WarmStart {
                    references: references.to_vec(),
                    lags: Vec::new(),
                    last_used: self.tick_count,
                });
                MAINTAINERS_CREATED.inc();
                self.warm_starts.len() - 1
            }
        };
        self.warm_starts[idx].last_used = self.tick_count;
        idx
    }

    /// Folds one imputation's [`PruneStats`] into the engine totals and the
    /// fleet-wide metrics registry (record-only).  The flight recorder gets
    /// per-batch deltas from the runtime instead of one event per
    /// imputation, which would evict batch context during outage storms.
    fn record_prune_stats(&mut self, stats: &PruneStats) {
        self.prune_totals += *stats;
        PRUNE_TOTALS[0].add(stats.candidates as u64);
        PRUNE_TOTALS[1].add(stats.shortlisted as u64);
        PRUNE_TOTALS[2].add(stats.pruned as u64);
        PRUNE_TOTALS[3].add(stats.level1_skipped as u64);
        PRUNE_TOTALS[4].add(stats.maintained_lags as u64);
    }

    /// Processes one arriving tick: pushes it into the window, advances the
    /// incremental dissimilarity states, imputes every missing series and
    /// writes the imputed values back into the window (patching the states).
    pub fn process_tick(&mut self, tick: &StreamTick) -> Result<EngineOutcome, TsError> {
        self.advance_tick(tick)?;
        let incremental = self.is_incremental();

        let mut outcome = EngineOutcome::default();
        let missing = self.window.currently_missing();
        for target in missing {
            // Reference selection per Section 3: the first d ranked candidates
            // that are alive right now (observed at this tick, or already
            // imputed earlier in this loop).
            let d = self.imputer.config().reference_count;
            let window = &self.window;
            let selection = self.catalog.select_references(target, d, |cand| {
                window
                    .value_recent(cand, 0)
                    .map(|v| v.is_some())
                    .unwrap_or(false)
            });
            if selection.references.is_empty() {
                outcome.skipped.push(target);
                continue;
            }
            let (detail, maintainer) = if self.is_composed() {
                let widx = self.warm_start_for(&selection.references);
                let index = self.signatures.as_ref().ok_or_else(|| {
                    TsError::invalid("signature", "composed path without a signature index")
                })?;
                let (detail, stats) = self.imputer.impute_composed(
                    &self.window,
                    target,
                    &selection.references,
                    index,
                    &mut self.warm_starts[widx].lags,
                    self.level1_run_len,
                )?;
                self.record_prune_stats(&stats);
                (detail, None)
            } else if incremental {
                let start = Instant::now();
                let idx = self.maintainer_for(&selection.references)?;
                self.maintainers[idx].last_used = self.tick_count;
                self.breakdown.maintenance += start.elapsed();
                let detail = self.imputer.impute_maintained(
                    &self.window,
                    target,
                    &selection.references,
                    &self.maintainers[idx].state,
                )?;
                (detail, Some(idx))
            } else {
                let detail = self
                    .imputer
                    .impute(&self.window, target, &selection.references)?;
                (detail, None)
            };
            self.commit_write_back(target, &selection.references, detail.value, maintainer)?;
            self.breakdown.merge(&detail.breakdown);
            outcome.imputations.push(Imputation {
                series: target,
                time: detail.time,
                value: detail.value,
                detail,
            });
        }
        Ok(outcome)
    }

    /// Processes a batch of arriving ticks, in order, and returns one
    /// [`EngineOutcome`] per tick.
    ///
    /// The batch path is **bit-identical** to `N` sequential
    /// [`TkcmEngine::process_tick`] calls: each tick runs through exactly the
    /// same `advance_tick` → impute → `commit_write_back` sequence, so window
    /// contents, maintainer creation/eviction timing and every running sum
    /// come out the same bits either way (the property
    /// `tkcm-runtime/tests/batching.rs` pins).  Batching exists so callers —
    /// the sharded runtime's workers above all — can amortise *their* per-tick
    /// overhead (channel round-trips, WAL writes) across many ticks; the
    /// engine itself has no cheaper-than-per-tick shortcut that could be
    /// taken without breaking that equivalence.
    ///
    /// On an error at tick `i` the engine state reflects the `i` ticks that
    /// already committed — the same state `i` successful `process_tick`
    /// calls followed by one failing call would leave behind.
    pub fn process_batch(&mut self, ticks: &[StreamTick]) -> Result<Vec<EngineOutcome>, TsError> {
        let mut outcomes = Vec::with_capacity(ticks.len());
        for tick in ticks {
            outcomes.push(self.process_tick(tick)?);
        }
        Ok(outcomes)
    }

    /// Pushes a tick into the window and brings the maintained dissimilarity
    /// states up to date (TTL eviction + Section 6.2 advance).  Shared by
    /// [`TkcmEngine::process_tick`] and the WAL replay path so that replayed
    /// ticks mutate the state through exactly the code live ticks do.
    fn advance_tick(&mut self, tick: &StreamTick) -> Result<(), TsError> {
        self.window.push_tick(tick)?;
        self.tick_count += 1;
        if let Some(index) = self.signatures.as_mut() {
            index.on_push(&tick.values)?;
        }
        if self.is_incremental() && !self.maintainers.is_empty() {
            let start = Instant::now();
            let tick_count = self.tick_count;
            let ttl = self.maintainer_ttl();
            let before_eviction = self.maintainers.len();
            self.maintainers
                .retain(|m| tick_count.saturating_sub(m.last_used) <= ttl);
            MAINTAINERS_EVICTED.add((before_eviction - self.maintainers.len()) as u64);
            for m in &mut self.maintainers {
                m.state.advance(&self.window)?;
            }
            self.breakdown.maintenance += start.elapsed();
        }
        if !self.warm_starts.is_empty() {
            // Same TTL as the dense maintainers.  A warm start holds lags,
            // not values, so nothing slides.
            let tick_count = self.tick_count;
            let ttl = self.maintainer_ttl();
            let before_eviction = self.warm_starts.len();
            self.warm_starts
                .retain(|w| tick_count.saturating_sub(w.last_used) <= ttl);
            MAINTAINERS_EVICTED.add((before_eviction - self.warm_starts.len()) as u64);
        }
        Ok(())
    }

    /// Commits one imputed value: ensures the reference set's maintainer or
    /// warm start exists (creating a maintainer rebuilds from the
    /// *pre-write* window, matching where the live path creates it before
    /// imputing), writes the value into the window and patches every
    /// affected maintainer.
    ///
    /// The write-back changes a current-tick slot from missing to imputed;
    /// every state whose reference set contains the target must fold the new
    /// value into its running sums so later imputations at this tick (and
    /// future ticks) see the same window contents as a from-scratch recompute
    /// would.  States whose reference set does not contain the target are
    /// untouched by the write and are skipped — invalidating all of them made
    /// every write-back O(maintainers) even when only one (or none) of the
    /// states could be affected.
    /// `maintainer` is the reference set's already-resolved maintainer index
    /// when the caller just looked it up (the live path, which needed the
    /// state to impute); `None` makes this method resolve it — the replay
    /// path, where ensuring the maintainer exists *before* the write is what
    /// reproduces the live path's creation timing.
    fn commit_write_back(
        &mut self,
        target: SeriesId,
        references: &[SeriesId],
        value: f64,
        maintainer: Option<usize>,
    ) -> Result<(), TsError> {
        let incremental = self.is_incremental();
        if incremental && maintainer.is_none() {
            let start = Instant::now();
            let idx = self.maintainer_for(references)?;
            self.maintainers[idx].last_used = self.tick_count;
            self.breakdown.maintenance += start.elapsed();
        }
        if self.is_composed() {
            // Mirror the live path's creation and TTL timing on WAL replay:
            // the warm start for this reference set is created (empty) or
            // touched.  On the live path this finds the entry `process_tick`
            // already resolved.  Replayed engines do not re-run selection,
            // so their lags stay as they were — which only affects *pruning
            // effectiveness*, never imputed bits (every `D` is exact).
            self.warm_start_for(references);
        }
        self.window.write_imputed(target, 0, value)?;
        if let Some(index) = self.signatures.as_mut() {
            // Engine write-backs always turn a missing current-tick slot
            // into an imputed one (`currently_missing` / WAL replay both
            // target missing slots), so the slot's missing count drops.
            index.on_write(target, 0, value, true);
        }
        if incremental {
            let start = Instant::now();
            for m in &mut self.maintainers {
                if m.state.references().contains(&target) {
                    m.state.on_write(&self.window, target, 0, None)?;
                }
            }
            self.breakdown.maintenance += start.elapsed();
        }
        self.imputation_count += 1;
        Ok(())
    }

    /// Replays one logged tick and its write-backs, reproducing the exact
    /// state transitions of the original [`TkcmEngine::process_tick`] call —
    /// same window bits, same maintainer creation/eviction timing, same
    /// running-sum arithmetic — without re-running pattern extraction or
    /// selection (the logged values are authoritative).
    ///
    /// Entries whose tick time is not ahead of the window are *stale* — they
    /// describe ticks already covered by the snapshot the replay started
    /// from (a crash between snapshot rotation and WAL truncation leaves
    /// such entries behind) — and are skipped; `Ok(false)` reports that.
    pub fn apply_wal_entry(&mut self, entry: &crate::persist::WalEntry) -> Result<bool, TsError> {
        if let Some(now) = self.window.current_time() {
            if entry.tick.time <= now {
                return Ok(false);
            }
        }
        self.advance_tick(&entry.tick)?;
        for wb in &entry.write_backs {
            self.commit_write_back(wb.series, &wb.references, wb.value, None)?;
            // The live path counts imputations through the merged per-
            // imputation breakdown; keep the replayed counter in step (the
            // phase *durations* legitimately differ — they are wall-clock).
            self.breakdown.imputations += 1;
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TkcmConfig;

    fn catalog_for(width: usize) -> Catalog {
        Catalog::ring_neighbours(width)
    }

    fn sine(t: usize, period: f64, shift: f64) -> f64 {
        ((t as f64 - shift) / period * std::f64::consts::TAU).sin()
    }

    fn small_config(window: usize, l: usize, k: usize, d: usize) -> TkcmConfig {
        TkcmConfig::builder()
            .window_length(window)
            .pattern_length(l)
            .anchor_count(k)
            .reference_count(d)
            .build()
            .unwrap()
    }

    #[test]
    fn engine_imputes_missing_block_and_writes_back() {
        let width = 3;
        let period = 32.0;
        let config = small_config(256, 4, 3, 2);
        let mut engine = TkcmEngine::new(width, config, catalog_for(width)).unwrap();

        let total = 256usize;
        let gap_start = 200usize;
        let mut errors = Vec::new();
        for t in 0..total {
            let truth = sine(t, period, 0.0);
            let s0 = if (gap_start..gap_start + 20).contains(&t) {
                None
            } else {
                Some(truth)
            };
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![s0, Some(sine(t, period, 5.0)), Some(sine(t, period, 11.0))],
            );
            let outcome = engine.process_tick(&tick).unwrap();
            if s0.is_none() {
                let imputed = outcome.imputed_value(SeriesId(0)).expect("should impute");
                errors.push((imputed - truth).abs());
                // Write-back: the window now holds the imputed value.
                assert_eq!(
                    engine.window().value_recent(SeriesId(0), 0).unwrap(),
                    Some(imputed)
                );
            } else {
                assert!(outcome.imputations.is_empty());
            }
        }
        assert_eq!(errors.len(), 20);
        let rmse = (errors.iter().map(|e| e * e).sum::<f64>() / errors.len() as f64).sqrt();
        assert!(rmse < 0.1, "rmse = {rmse}");
        assert_eq!(engine.imputations_performed(), 20);
        assert_eq!(engine.ticks_processed(), total);
        assert_eq!(engine.phase_breakdown().imputations, 20);
    }

    #[test]
    fn multiple_series_missing_at_the_same_tick() {
        let width = 4;
        let config = small_config(128, 3, 2, 2);
        let mut engine = TkcmEngine::new(width, config, catalog_for(width)).unwrap();
        for t in 0..100usize {
            let base = sine(t, 25.0, 0.0);
            let missing_tick = t == 99;
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![
                    if missing_tick { None } else { Some(base) },
                    if missing_tick { None } else { Some(base * 2.0) },
                    Some(sine(t, 25.0, 3.0)),
                    Some(sine(t, 25.0, 7.0)),
                ],
            );
            let outcome = engine.process_tick(&tick).unwrap();
            if missing_tick {
                assert_eq!(outcome.imputations.len(), 2);
                assert!(outcome.imputed_value(SeriesId(0)).is_some());
                assert!(outcome.imputed_value(SeriesId(1)).is_some());
                assert!(outcome.skipped.is_empty());
            }
        }
    }

    #[test]
    fn series_without_alive_references_is_skipped() {
        // Catalog where series 0 has only series 1 as candidate, and both are
        // missing at the same tick -> no imputation possible for series 0
        // until series 1 recovers... but series 1 has series 0 as candidate,
        // so both get skipped.
        let mut catalog = Catalog::new();
        catalog
            .set_candidates(SeriesId(0), vec![SeriesId(1)])
            .unwrap();
        catalog
            .set_candidates(SeriesId(1), vec![SeriesId(0)])
            .unwrap();
        let config = small_config(64, 2, 2, 1);
        let mut engine = TkcmEngine::new(2, config, catalog).unwrap();
        for t in 0..20usize {
            let missing = t == 19;
            let v = if missing { None } else { Some(t as f64) };
            let outcome = engine
                .process_tick(&StreamTick::new(Timestamp::new(t as i64), vec![v, v]))
                .unwrap();
            if missing {
                assert_eq!(outcome.skipped.len(), 2);
                assert!(outcome.imputations.is_empty());
            }
        }
    }

    #[test]
    fn imputed_reference_can_serve_later_imputations() {
        // Series 1 goes missing first and is imputed; at a later tick series 0
        // goes missing and uses (previously imputed) series 1 values inside
        // its patterns — the engine must not reject them.
        let width = 3;
        let config = small_config(128, 3, 2, 2);
        let mut catalog = Catalog::new();
        catalog
            .set_candidates(SeriesId(0), vec![SeriesId(1), SeriesId(2)])
            .unwrap();
        catalog
            .set_candidates(SeriesId(1), vec![SeriesId(2), SeriesId(0)])
            .unwrap();
        catalog
            .set_candidates(SeriesId(2), vec![SeriesId(1), SeriesId(0)])
            .unwrap();
        let mut engine = TkcmEngine::new(width, config, catalog).unwrap();
        for t in 0..120usize {
            let base = sine(t, 20.0, 0.0);
            let s1_missing = (60..70).contains(&t);
            let s0_missing = t == 119;
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![
                    if s0_missing { None } else { Some(base) },
                    if s1_missing {
                        None
                    } else {
                        Some(sine(t, 20.0, 4.0))
                    },
                    Some(sine(t, 20.0, 9.0)),
                ],
            );
            let outcome = engine.process_tick(&tick).unwrap();
            if s0_missing {
                assert_eq!(outcome.imputations.len(), 1);
                let imputed = outcome.imputed_value(SeriesId(0)).unwrap();
                assert!((imputed - base).abs() < 0.2, "imputed {imputed} vs {base}");
            }
        }
        assert_eq!(engine.imputations_performed(), 11);
    }

    #[test]
    fn write_back_only_invalidates_maintainers_referencing_the_target() {
        // Two independent pairs: 0 ↔ 1 and 2 ↔ 3.  A maintainer exists for
        // reference set [1] (serving series 0) and one for [3] (serving
        // series 2).  Write-backs into series 2 must leave the [1] state
        // byte-identical to a twin run in which series 2 never goes missing
        // (so no write-back happens at all): the [1] state is a function of
        // series 1 alone, which is identical in both runs.
        let mut catalog = Catalog::new();
        catalog
            .set_candidates(SeriesId(0), vec![SeriesId(1)])
            .unwrap();
        catalog
            .set_candidates(SeriesId(1), vec![SeriesId(0)])
            .unwrap();
        catalog
            .set_candidates(SeriesId(2), vec![SeriesId(3)])
            .unwrap();
        catalog
            .set_candidates(SeriesId(3), vec![SeriesId(2)])
            .unwrap();
        // Pruning replaces maintainers entirely; this test inspects them, so
        // run the PR-2 incremental path explicitly.
        let config = crate::config::TkcmConfigBuilder::from_config(small_config(128, 3, 2, 1))
            .pruning(false)
            .build()
            .unwrap();
        let mut with_writes = TkcmEngine::new(4, config.clone(), catalog.clone()).unwrap();
        let mut without_writes = TkcmEngine::new(4, config, catalog).unwrap();

        let mut imputed_2 = 0usize;
        for t in 0..120usize {
            let base = sine(t, 24.0, 0.0);
            // Series 0 misses every 5th tick from 100 on (creates the [1]
            // maintainer in both runs and keeps it within its idle TTL);
            // series 2 later misses a block only in the first run, producing
            // the unrelated write-backs under test.
            let s0 = if t >= 100 && t % 5 == 0 {
                None
            } else {
                Some(base)
            };
            let s2 = Some(sine(t, 24.0, 3.0));
            let s2_gapped = if (110..118).contains(&t) { None } else { s2 };
            let others = (Some(sine(t, 24.0, 7.0)), Some(sine(t, 24.0, 11.0)));

            let tick_a = StreamTick::new(
                Timestamp::new(t as i64),
                vec![s0, others.0, s2_gapped, others.1],
            );
            let tick_b =
                StreamTick::new(Timestamp::new(t as i64), vec![s0, others.0, s2, others.1]);
            let outcome = with_writes.process_tick(&tick_a).unwrap();
            without_writes.process_tick(&tick_b).unwrap();
            imputed_2 += usize::from(outcome.imputed_value(SeriesId(2)).is_some());

            let state_of = |e: &TkcmEngine| {
                e.maintainers
                    .iter()
                    .find(|m| m.state.references() == [SeriesId(1)])
                    .map(|m| format!("{:?}", m.state))
            };
            assert_eq!(
                state_of(&with_writes),
                state_of(&without_writes),
                "tick {t}: series-2 write-back leaked into the [1] maintainer"
            );
            if t >= 100 {
                assert!(
                    state_of(&with_writes).is_some(),
                    "maintainer [1] evicted early"
                );
            }
        }
        assert_eq!(imputed_2, 8);
    }

    #[test]
    fn process_batch_is_bit_identical_to_sequential_ticks() {
        let width = 3;
        let config = small_config(128, 3, 2, 2);
        let mut per_tick = TkcmEngine::new(width, config.clone(), catalog_for(width)).unwrap();
        let mut batched = TkcmEngine::new(width, config, catalog_for(width)).unwrap();

        let ticks: Vec<StreamTick> = (0..120usize)
            .map(|t| {
                let missing = t > 40 && t % 6 == 0;
                let s0 = if missing {
                    None
                } else {
                    Some(sine(t, 24.0, 0.0))
                };
                StreamTick::new(
                    Timestamp::new(t as i64),
                    vec![s0, Some(sine(t, 24.0, 5.0)), Some(sine(t, 24.0, 11.0))],
                )
            })
            .collect();

        let mut sequential = Vec::with_capacity(ticks.len());
        for tick in &ticks {
            sequential.push(per_tick.process_tick(tick).unwrap());
        }
        // Mixed batch sizes, including single-tick and the full remainder.
        let mut merged = Vec::with_capacity(ticks.len());
        for chunk in [&ticks[..1], &ticks[1..8], &ticks[8..64], &ticks[64..]] {
            merged.extend(batched.process_batch(chunk).unwrap());
        }

        assert_eq!(merged.len(), sequential.len());
        for (t, (a, b)) in sequential.iter().zip(merged.iter()).enumerate() {
            assert_eq!(a.skipped, b.skipped, "tick {t}");
            assert_eq!(a.imputations.len(), b.imputations.len(), "tick {t}");
            for (x, y) in a.imputations.iter().zip(b.imputations.iter()) {
                assert_eq!(x.series, y.series);
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "tick {t}");
                assert_eq!(x.detail.anchors, y.detail.anchors);
            }
        }
        assert_eq!(per_tick.ticks_processed(), batched.ticks_processed());
        assert_eq!(
            per_tick.imputations_performed(),
            batched.imputations_performed()
        );
        assert_eq!(per_tick.maintainer_count(), batched.maintainer_count());
    }

    #[test]
    fn process_batch_error_leaves_the_committed_prefix() {
        let config = small_config(64, 2, 2, 1);
        let mut engine = TkcmEngine::new(2, config, catalog_for(2)).unwrap();
        let good = |t: i64| StreamTick::new(Timestamp::new(t), vec![Some(1.0), Some(2.0)]);
        // Third tick repeats a timestamp: the first two commit, the batch errors.
        let batch = vec![good(0), good(1), good(1)];
        assert!(engine.process_batch(&batch).is_err());
        assert_eq!(engine.ticks_processed(), 2);
        // An empty batch is a no-op.
        assert_eq!(engine.process_batch(&[]).unwrap().len(), 0);
        assert_eq!(engine.ticks_processed(), 2);
    }

    #[test]
    fn pruned_path_matches_exhaustive_and_incremental_bit_for_bit() {
        let width = 3;
        let base = small_config(320, 16, 2, 2);
        let mk = |pruning: bool, incremental: bool| {
            let config = crate::config::TkcmConfigBuilder::from_config(base.clone())
                .pruning(pruning)
                .incremental(incremental)
                .build()
                .unwrap();
            TkcmEngine::new(width, config, catalog_for(width)).unwrap()
        };
        // The four flag corners: (pruning, incremental).  Pruning always
        // runs the composed path, so `incremental` only matters without it.
        let mut composed = mk(true, true);
        let mut pruned = mk(true, false);
        let mut incremental = mk(false, true);
        let mut exhaustive = mk(false, false);
        assert!(composed.is_pruned() && composed.is_composed() && !composed.is_incremental());
        assert!(pruned.is_pruned() && pruned.is_composed() && !pruned.is_incremental());
        assert!(!incremental.is_pruned() && incremental.is_incremental());
        assert!(!exhaustive.is_pruned() && !exhaustive.is_incremental());

        // Period-128 integer sawtooths: candidates one/two periods back match
        // the query exactly (τ = 0), every off-phase candidate has a large
        // envelope gap — the regime the signature index is built for.
        let saw = |t: usize, shift: usize| ((t + shift) % 128) as f64;
        for t in 0..400usize {
            let missing = t > 60 && t % 7 < 2;
            let s0 = if missing { None } else { Some(saw(t, 0)) };
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![s0, Some(saw(t, 31)), Some(saw(t, 67))],
            );
            let m = composed.process_tick(&tick).unwrap();
            let a = pruned.process_tick(&tick).unwrap();
            let b = incremental.process_tick(&tick).unwrap();
            let c = exhaustive.process_tick(&tick).unwrap();
            assert_eq!(a.skipped, b.skipped, "tick {t}");
            assert_eq!(a.skipped, c.skipped, "tick {t}");
            assert_eq!(a.imputations.len(), b.imputations.len(), "tick {t}");
            assert_eq!(a.imputations.len(), c.imputations.len(), "tick {t}");
            // Composed vs exhaustive: fully bit-identical outcomes (both
            // evaluate the exact D of every anchor; bounds only skip losers).
            assert_eq!(
                m.timing_stripped(),
                c.timing_stripped(),
                "tick {t}: composed diverged from exhaustive"
            );
            for ((x, y), z) in a
                .imputations
                .iter()
                .zip(b.imputations.iter())
                .zip(c.imputations.iter())
            {
                // Pruned vs exhaustive: bit-identical (both evaluate the
                // exact D of every anchor; pruning only skips losers).
                assert_eq!(x.value.to_bits(), z.value.to_bits(), "tick {t}");
                assert_eq!(x.detail.anchors, z.detail.anchors, "tick {t}");
                assert_eq!(x.detail.complete, z.detail.complete, "tick {t}");
                // Vs the PR-2 incremental path: that path's running sums are
                // only 1e-9-close to exact (its own equivalence contract),
                // so anchor times must agree but D may differ in low bits.
                let tx: Vec<_> = x.detail.anchors.iter().map(|a| a.time).collect();
                let ty: Vec<_> = y.detail.anchors.iter().map(|a| a.time).collect();
                assert_eq!(tx, ty, "tick {t}");
                assert!((x.value - y.value).abs() <= 1e-9 * (1.0 + x.value.abs()));
            }
        }
        let totals = pruned.prune_totals();
        assert!(totals.candidates > 0);
        assert!(
            totals.pruned > 0,
            "expected some pruning on a periodic signal: {totals:?}"
        );
        let ctotals = composed.prune_totals();
        assert_eq!(ctotals, totals, "pruning ignores the incremental flag");
        assert!(
            ctotals.maintained_lags > 0,
            "composed path should offer warm-start lags: {ctotals:?}"
        );
        assert_eq!(ctotals.maintained_pruned, 0);
        assert!(!composed.warm_starts.is_empty());
        assert_eq!(incremental.prune_totals(), PruneStats::default());
    }

    #[test]
    fn second_outage_tick_starts_warm_with_k_lags() {
        // One outage of 3 ticks on a period-32 sawtooth: the first tick has
        // no warm start for its reference set, every later tick is offered
        // exactly the k anchor lags the previous tick selected.
        let width = 3;
        let k = 3;
        let config = small_config(256, 8, k, 2);
        let mut engine = TkcmEngine::new(width, config, catalog_for(width)).unwrap();
        let saw = |t: usize, shift: usize| ((t + shift) % 32) as f64;
        let mut offered = Vec::new();
        for t in 0..240usize {
            let missing = (200..203).contains(&t);
            let tick = StreamTick::new(
                Timestamp::new(t as i64),
                vec![
                    if missing { None } else { Some(saw(t, 0)) },
                    Some(saw(t, 5)),
                    Some(saw(t, 11)),
                ],
            );
            let before = engine.prune_totals();
            let outcome = engine.process_tick(&tick).unwrap();
            if missing {
                assert_eq!(outcome.imputations.len(), 1);
                assert!(outcome.imputations[0].detail.complete);
                offered.push(
                    engine
                        .prune_totals()
                        .saturating_delta(&before)
                        .maintained_lags,
                );
            }
        }
        assert_eq!(offered, vec![0, k, k]);
        // The warm start outlives the outage by the 2l-tick TTL only.
        assert!(engine.warm_starts.is_empty());
    }

    #[test]
    fn constructor_validation() {
        let config = small_config(64, 2, 2, 1);
        assert!(TkcmEngine::new(0, config.clone(), Catalog::new()).is_err());
        let bad = TkcmConfig {
            pattern_length: 0,
            ..TkcmConfig::default()
        };
        assert!(TkcmEngine::new(2, bad, Catalog::new()).is_err());
        let imputer = TkcmImputer::new(config).unwrap();
        assert!(TkcmEngine::with_imputer(0, imputer, Catalog::new()).is_err());
    }

    #[test]
    fn accessors_expose_state() {
        let config = small_config(64, 2, 2, 1);
        let engine = TkcmEngine::new(2, config.clone(), catalog_for(2)).unwrap();
        assert_eq!(engine.config().window_length, 64);
        assert_eq!(engine.window().width(), 2);
        assert_eq!(engine.catalog().len(), 2);
        assert_eq!(engine.ticks_processed(), 0);
        assert_eq!(engine.imputations_performed(), 0);
    }
}

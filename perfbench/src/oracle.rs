//! The correctness oracle: a sequential exhaustive `TkcmEngine` (pruning
//! and incremental maintenance off) over the whole fleet, compared bit for
//! bit with every outcome the program returned.
//!
//! The replay is split into two segments that run on two threads.  The
//! first segment imputes from the start.  The second starts a fresh
//! exhaustive engine, fast-forwards it through the first segment's ticks by
//! applying the program's own outcomes as write-ahead-log entries
//! (`TkcmEngine::apply_wal_entry`, which re-runs no imputation), and imputes
//! from the split on.  The check is still exact: if every outcome before the
//! split matches — which the first segment verifies — the fast-forwarded
//! state is the exhaustive engine's own state; if one does not, the run is
//! already marked incorrect.

use tkcm_core::{EngineOutcome, TkcmConfig, TkcmEngine, WalEntry};
use tkcm_timeseries::{Catalog, StreamTick};

/// The comparable part of an outcome: imputed `(series, time, value bits)`
/// and skipped series, in the order the engine returned them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bits {
    pub imputed: Vec<(u32, i64, u64)>,
    pub skipped: Vec<u32>,
}

impl Bits {
    pub fn of(outcome: &EngineOutcome) -> Bits {
        Bits {
            imputed: outcome
                .imputations
                .iter()
                .map(|i| (i.series.0, i.time.0, i.value.to_bits()))
                .collect(),
            skipped: outcome.skipped.iter().map(|s| s.0).collect(),
        }
    }
}

/// The exhaustive twin of the benchmarked configuration.
fn exhaustive(config: &TkcmConfig) -> TkcmConfig {
    let mut config = config.clone();
    config.pruning = false;
    config.incremental = false;
    config
}

/// Replays `ticks` (the exact sequence the program processed) through the
/// exhaustive engine and returns its outcome per tick; `None` where the
/// oracle itself failed.  `program` holds the program's outcomes for the
/// same ticks, used to fast-forward the second segment.
pub fn replay(
    width: usize,
    config: &TkcmConfig,
    catalog: &Catalog,
    ticks: &[&StreamTick],
    program: &[EngineOutcome],
) -> Vec<Option<Bits>> {
    let split = balanced_split(program);
    let segment = |from: usize, to: usize| -> Vec<Option<Bits>> {
        let Ok(mut engine) = TkcmEngine::new(width, exhaustive(config), catalog.clone()) else {
            return vec![None; to - from];
        };
        for (tick, outcome) in ticks[..from].iter().zip(program) {
            if engine
                .apply_wal_entry(&WalEntry::from_outcome(tick, outcome))
                .is_err()
            {
                return vec![None; to - from];
            }
        }
        ticks[from..to]
            .iter()
            .map(|tick| engine.process_tick(tick).ok().map(|o| Bits::of(&o)))
            .collect()
    };
    let (mut first, second) = std::thread::scope(|scope| {
        let second = scope.spawn(|| segment(split, ticks.len()));
        (
            segment(0, split),
            second.join().expect("oracle segment panicked"),
        )
    });
    first.extend(second);
    first
}

/// The split point that gives both segments about the same number of
/// imputations — the oracle's cost.
fn balanced_split(program: &[EngineOutcome]) -> usize {
    let total: usize = program.iter().map(|o| o.imputations.len()).sum();
    let mut seen = 0;
    for (i, outcome) in program.iter().enumerate() {
        if 2 * seen >= total {
            return i;
        }
        seen += outcome.imputations.len();
    }
    program.len()
}

/// Counts the ticks whose program outcome differs from the oracle's; a
/// tick the oracle failed on, or never reached, counts as different.
pub fn count_failures(oracle: &[Option<Bits>], program: &[EngineOutcome]) -> usize {
    program
        .iter()
        .enumerate()
        .filter(|(i, outcome)| oracle.get(*i).and_then(Option::as_ref) != Some(&Bits::of(outcome)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkcm_runtime::ShardedEngine;
    use tkcm_timeseries::Timestamp;

    fn small_run() -> (TkcmConfig, Catalog, Vec<StreamTick>, Vec<EngineOutcome>) {
        let width = 6;
        let catalog = Catalog::ring_neighbours(width);
        let config = TkcmConfig::builder()
            .window_length(200)
            .pattern_length(8)
            .anchor_count(3)
            .reference_count(2)
            .build()
            .unwrap();
        let ticks: Vec<StreamTick> = (0..400)
            .map(|t| {
                let values = (0..width)
                    .map(|s| {
                        let v = ((t as f64 + 3.0 * s as f64) / 17.0).sin() + 0.01 * s as f64;
                        (!(t > 220 && t % 9 == s % 9)).then_some(v)
                    })
                    .collect();
                StreamTick::new(Timestamp::new(t as i64), values)
            })
            .collect();
        let mut fleet = ShardedEngine::new(width, config.clone(), catalog.clone(), 1).unwrap();
        let outcomes = fleet.process_batch(&ticks).unwrap();
        (config, catalog, ticks, outcomes)
    }

    #[test]
    fn the_default_path_matches_the_exhaustive_oracle() {
        let (config, catalog, ticks, outcomes) = small_run();
        assert!(outcomes.iter().map(|o| o.imputations.len()).sum::<usize>() > 50);
        let refs: Vec<&StreamTick> = ticks.iter().collect();
        let oracle = replay(6, &config, &catalog, &refs, &outcomes);
        assert_eq!(count_failures(&oracle, &outcomes), 0);
    }

    #[test]
    fn one_flipped_oracle_bit_is_detected() {
        let (config, catalog, ticks, outcomes) = small_run();
        let refs: Vec<&StreamTick> = ticks.iter().collect();
        let oracle = replay(6, &config, &catalog, &refs, &outcomes);
        let imputed: Vec<usize> = (0..oracle.len())
            .filter(|&i| oracle[i].as_ref().is_some_and(|b| !b.imputed.is_empty()))
            .collect();
        // One tick from each oracle segment.
        for at in [imputed[0], imputed[imputed.len() - 1]] {
            let mut flipped = oracle.clone();
            flipped[at].as_mut().unwrap().imputed[0].2 ^= 1;
            assert_eq!(count_failures(&flipped, &outcomes), 1, "tick {at}");
        }
        let mut short = oracle.clone();
        short.pop();
        assert_eq!(count_failures(&short, &outcomes), 1);
    }
}

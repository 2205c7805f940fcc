//! The flight recorder keeps its batch context through an outage storm.
//!
//! The recorder is a process-global ring of 4096 events, so a post-mortem is
//! only as good as what survives in it.  An imputation-dense storm must not
//! flood the ring with per-imputation events: after the storm every
//! `batch_drained` event of the storm is still there, and together they
//! account for every tick and every prune of the storm.
//!
//! This file holds a single test on purpose: integration-test binaries run
//! as their own process, so no other test records into the ring meanwhile.

use tkcm_core::TkcmConfig;
use tkcm_obs::FieldValue;
use tkcm_runtime::ShardedEngine;
use tkcm_timeseries::{Catalog, StreamTick, Timestamp};

const WIDTH: usize = 8;
const TICKS: usize = 1_600;
const BATCH: usize = 16;

/// Sawtooths with a long storm: from tick 200 on, half the fleet is missing
/// at every tick, so there are several imputations per tick — more
/// imputations in total than the recorder has slots.
fn tick_at(t: usize) -> StreamTick {
    let values = (0..WIDTH)
        .map(|s| {
            let in_storm = t >= 200 && (s + t / 7).is_multiple_of(2);
            (!in_storm).then(|| ((t + 11 * s) % 48) as f64)
        })
        .collect();
    StreamTick::new(Timestamp::new(t as i64), values)
}

fn field(fields: &[(&'static str, FieldValue)], name: &str) -> u64 {
    match fields.iter().find(|(key, _)| *key == name) {
        Some((_, FieldValue::U64(v))) => *v,
        other => panic!("batch_drained field {name} missing or not a u64: {other:?}"),
    }
}

#[test]
fn an_imputation_storm_keeps_every_batch_drained_event() {
    let config = TkcmConfig::builder()
        .window_length(256)
        .pattern_length(8)
        .anchor_count(3)
        .reference_count(2)
        .build()
        .unwrap();
    let mut engine = ShardedEngine::new(WIDTH, config, Catalog::ring_neighbours(WIDTH), 2).unwrap();
    let ticks: Vec<StreamTick> = (0..TICKS).map(tick_at).collect();
    let mut imputations = 0;
    for batch in ticks.chunks(BATCH) {
        for outcome in engine.process_batch(batch).unwrap() {
            imputations += outcome.imputations.len();
        }
    }
    let capacity = tkcm_obs::recorder().capacity();
    assert!(
        imputations > capacity,
        "the storm must out-number the ring: {imputations} imputations, {capacity} slots"
    );

    let drained: Vec<_> = tkcm_obs::recorder()
        .events()
        .into_iter()
        .filter(|event| event.kind == "batch_drained")
        .collect();
    assert_eq!(
        drained.len(),
        TICKS / BATCH,
        "batch_drained events were evicted from the flight recorder"
    );
    let ticks_seen: u64 = drained.iter().map(|e| field(&e.fields, "ticks")).sum();
    assert_eq!(ticks_seen, TICKS as u64);
    let pruned: u64 = drained.iter().map(|e| field(&e.fields, "pruned")).sum();
    assert_eq!(pruned, engine.prune_totals().pruned as u64);
    assert!(pruned > 0, "the default composed path should prune");
}

//! The three seeded workloads and their generator.
//!
//! Every workload is a pure function of `(name, seed, seconds)`: the
//! generator produces complete ("true") data, the benchmark removes readings
//! on a fixed outage schedule, and the removed values are kept as ground
//! truth for the quality metrics.  The program under test only ever sees the
//! resulting ticks.

use std::time::Duration;

use tkcm_core::TkcmConfig;
use tkcm_datasets::{FleetConfig, SbrConfig};
use tkcm_runtime::{DurabilityOptions, SyncPolicy};
use tkcm_timeseries::{Catalog, StreamSource, StreamTick};

/// Ticks per day at the generators' 5-minute sampling.
const TICKS_PER_DAY: usize = 288;

/// Length of every injected outage, in ticks.
pub const OUTAGE_LENGTH: usize = 4;

/// Ticks per SUT call in batched ingestion (window fill, restart chunks).
pub const MAX_BATCH: usize = 64;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["paper-window", "restart"];

/// How the timed part drives the engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Loop {
    /// One caller, one tick per `process_tick` call, until the time is up.
    ClosedPerTick,
    /// `cycles` × (ingest `chunk` ticks in [`MAX_BATCH`] batches, crash,
    /// recover, checkpoint).
    Restart { cycles: usize, chunk: usize },
}

/// Restart cycles appended after a plain ingest loop (paper-window), so
/// every workload reports the recovery and checkpoint cost of its own
/// state.
pub const PROBE_CYCLES: usize = 15;

/// Ticks ingested per restart-probe cycle.
pub const PROBE_CHUNK: usize = 16;

/// A generated workload: configuration, ticks and ground truth.
pub struct Workload {
    pub width: usize,
    pub catalog: Catalog,
    pub config: TkcmConfig,
    pub shards: usize,
    pub durability: DurabilityOptions,
    pub timed_loop: Loop,
    /// Set-up ticks: fill the window, all observed.
    pub fill: Vec<StreamTick>,
    /// Ticks the timed part and the restart probe draw from, in order.
    pub stream: Vec<StreamTick>,
    /// `truth[i]` lists `(series index, true value)` for every reading
    /// removed from `stream[i]`.
    pub truth: Vec<Vec<(usize, f64)>>,
    /// Human-readable parameters for the run metadata.
    pub params: Vec<(&'static str, String)>,
}

/// SplitMix64: decorrelates nearby seeds (1, 2, 3, …) into unrelated
/// generator seeds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeds of the data generators.  The data itself is fixed, as a recorded
/// dataset would be — the paper, too, injects missing blocks into fixed
/// datasets — and the benchmark seed draws the outage schedule.  (Drawing
/// the data from the benchmark seed as well moved `rmse` by 20–40 %
/// between seeds, which no bound on it could absorb.)
const SBR_SCENE_SEED: u64 = 2017;
const FLEET_SCENE_SEED: u64 = 2024;

/// A seeded permutation of `0..n` (Fisher–Yates over a SplitMix64 stream).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn config(window: usize, l: usize) -> TkcmConfig {
    // Only the geometry is set: `incremental` and `pruning` keep their
    // defaults, which is the composed path the benchmark exists to measure.
    TkcmConfig::builder()
        .window_length(window)
        .pattern_length(l)
        .anchor_count(5)
        .reference_count(3)
        .build()
        .expect("benchmark configuration is valid")
}

/// Generates workload `name` for `seed`, sized for a timed part of
/// `seconds`.  `None` for an unknown name.
pub fn generate(name: &str, seed: u64, seconds: Duration) -> Option<Workload> {
    let secs = seconds.as_secs_f64().max(1.0);
    match name {
        "paper-window" => Some(paper_window(seed, secs)),
        "restart" => Some(restart(seed, secs)),
        _ => None,
    }
}

/// SBR-like, 10 stations in one catalog component, a 60-day window at
/// l = 72; the timed part rotates 4-tick outages over the stations.
fn paper_window(seed: u64, secs: f64) -> Workload {
    const STATIONS: usize = 10;
    const WINDOW_DAYS: usize = 60;
    // One station goes dark for OUTAGE_LENGTH ticks every EVERY ticks, so
    // each station waits EVERY × STATIONS = 160 ticks between outages —
    // longer than the 2l = 144-tick maintainer lifetime, the paper regime
    // where nearly every outage starts cold.
    const EVERY: usize = 16;
    let window = WINDOW_DAYS * TICKS_PER_DAY;
    // Room for a timed part several times faster than today's engine.
    let stream_days = 30 + (secs * 12.0).ceil() as usize;
    let dataset = SbrConfig {
        stations: STATIONS,
        days: WINDOW_DAYS + stream_days,
        seed: SBR_SCENE_SEED,
        ..SbrConfig::default()
    }
    .generate();
    let mut ticks: Vec<StreamTick> = dataset.to_stream().ticks().collect();
    let mut stream = ticks.split_off(window);
    // The seed draws the order in which the stations go dark (each still
    // exactly once per round) and where in its block an outage starts.
    let order = permutation(STATIONS, mix(seed, 1));
    let phase = (mix(seed, 2) % EVERY as u64) as usize;
    let truth = stream
        .iter_mut()
        .enumerate()
        .map(|(i, tick)| {
            if (i + phase) % EVERY < OUTAGE_LENGTH {
                let series = order[((i + phase) / EVERY) % STATIONS];
                tick.values[series]
                    .take()
                    .map(|v| vec![(series, v)])
                    .unwrap_or_default()
            } else {
                Vec::new()
            }
        })
        .collect();
    Workload {
        width: STATIONS,
        catalog: Catalog::ring_neighbours(STATIONS),
        config: config(window, 72),
        shards: 1,
        durability: DurabilityOptions::default(),
        timed_loop: Loop::ClosedPerTick,
        fill: ticks,
        stream,
        truth,
        params: vec![
            ("data", format!("sbr stations={STATIONS}")),
            ("window_ticks", window.to_string()),
            ("l_k_d", "72,5,3".into()),
            (
                "outages",
                format!("{OUTAGE_LENGTH} ticks every {EVERY}, stations in seeded order"),
            ),
            ("scene_seed", SBR_SCENE_SEED.to_string()),
            ("durability", "default (interval 1024, no fsync)".into()),
            ("shards", "1".into()),
        ],
    }
}

/// Crash/recover cycles over a wide fleet state: 24 clusters × 6 series
/// (one catalog component each) on 2 shards, a 30-day window at l = 12,
/// sparse outages, group commit (fsync every batch).
fn restart(seed: u64, secs: f64) -> Workload {
    const WINDOW_DAYS: usize = 30;
    const EVERY: usize = 3000;
    const CHUNK: usize = 4 * MAX_BATCH;
    /// Cycles per second of `--seconds`, sized so the timed part takes
    /// about that long on a 2-core host.
    const CYCLES_PER_SECOND: f64 = 3.5;
    let window = WINDOW_DAYS * TICKS_PER_DAY;
    let cycles = ((CYCLES_PER_SECOND * secs).round() as usize).max(crate::MIN_RESTART_CYCLES);
    let shape = FleetConfig {
        clusters: 24,
        series_per_cluster: 6,
        days: WINDOW_DAYS + (cycles * CHUNK).div_ceil(TICKS_PER_DAY),
        seed: FLEET_SCENE_SEED,
        // Outages are injected below, where their true values are kept.
        outage_every: usize::MAX / 4,
        outage_length: 1,
        storm: None,
    };
    let fleet = shape.generate();
    let width = shape.width();
    let mut ticks: Vec<StreamTick> = fleet.dataset.to_stream().ticks().collect();
    let mut stream = ticks.split_off(window);
    // Each series loses OUTAGE_LENGTH readings every EVERY ticks, at a
    // seed-drawn phase.
    let phases: Vec<usize> = (0..width)
        .map(|s| (mix(seed, 100 + s as u64) % EVERY as u64) as usize)
        .collect();
    let truth = stream
        .iter_mut()
        .enumerate()
        .map(|(t, tick)| {
            (0..width)
                .filter(|s| (t + phases[*s]) % EVERY < OUTAGE_LENGTH)
                .filter_map(|s| tick.values[s].take().map(|v| (s, v)))
                .collect()
        })
        .collect();
    Workload {
        width,
        catalog: fleet.catalog,
        config: config(window, 12),
        shards: 2,
        durability: DurabilityOptions {
            sync_policy: SyncPolicy::EveryBatch,
            ..DurabilityOptions::default()
        },
        timed_loop: Loop::Restart {
            cycles,
            chunk: CHUNK,
        },
        fill: ticks,
        stream,
        truth,
        params: vec![
            ("data", "fleet clusters=24 series_per_cluster=6".into()),
            ("scene_seed", FLEET_SCENE_SEED.to_string()),
            ("window_ticks", window.to_string()),
            ("l_k_d", "12,5,3".into()),
            (
                "outages",
                format!("{OUTAGE_LENGTH} ticks every {EVERY} per series"),
            ),
            ("cycles", cycles.to_string()),
            ("chunk_ticks", CHUNK.to_string()),
            ("durability", "interval 1024, fsync every batch".into()),
            ("shards", "2".into()),
        ],
    }
}

/// FNV-1a digest over every tick the program would see (time, presence and
/// value bits), fill first.
pub fn digest(workload: &Workload) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: [u8; 8]| {
        for b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for tick in workload.fill.iter().chain(&workload.stream) {
        feed(tick.time.0.to_le_bytes());
        for value in &tick.values {
            feed(value.map_or(u64::MAX - 1, f64::to_bits).to_le_bytes());
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for name in NAMES {
            let secs = Duration::from_secs(1);
            let a = generate(name, 7, secs).unwrap();
            let b = generate(name, 7, secs).unwrap();
            let c = generate(name, 8, secs).unwrap();
            assert_eq!(digest(&a), digest(&b), "{name}");
            assert_ne!(digest(&a), digest(&c), "{name}");
        }
    }

    #[test]
    fn removed_readings_are_missing_and_kept_as_truth() {
        for name in NAMES {
            let w = generate(name, 3, Duration::from_secs(1)).unwrap();
            assert!(w.fill.iter().all(|t| t.values.iter().all(Option::is_some)));
            assert_eq!(w.truth.len(), w.stream.len());
            let removed: usize = w.truth.iter().map(Vec::len).sum();
            assert!(removed > 0, "{name}");
            for (tick, truth) in w.stream.iter().zip(&w.truth) {
                let missing = tick.values.iter().filter(|v| v.is_none()).count();
                assert_eq!(missing, truth.len(), "{name}");
                for (series, value) in truth {
                    assert!(tick.values[*series].is_none() && value.is_finite());
                }
            }
        }
    }
}

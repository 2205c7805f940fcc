//! Drives the program under test: set-up, the timed loop and the restart
//! cycles, through the public API of the default durable fleet
//! (`ShardedEngine::with_durability`).
//!
//! Every SUT call is recorded as a [`Call`] (when it ran, which ticks it
//! carried); the returned outcomes are kept in tick order for the oracle and
//! the quality metrics.  With tracing on, each call additionally records the
//! deltas of what the program exposes about itself ([`LayerReads`]), read
//! immediately around the call; that bookkeeping is timed so the trace can
//! report its own overhead.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tkcm_core::EngineOutcome;
use tkcm_runtime::ShardedEngine;
use tkcm_timeseries::StreamTick;

use crate::workload::{self, Loop, Workload, MAX_BATCH, PROBE_CHUNK, PROBE_CYCLES};

/// What a recorded call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `process_tick` / `process_batch` over `ticks` stream ticks.
    Ingest,
    /// Dropping the engine without a checkpoint (the simulated crash).
    Crash,
    /// `ShardedEngine::recover`.
    Recover,
    /// `ShardedEngine::checkpoint`.
    Checkpoint,
}

/// Cumulative program-side readings, taken before and after a call.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerReads {
    /// `load_stats().critical_path_seconds`.
    pub critical_s: f64,
    /// `load_stats().busy_seconds`.
    pub busy_s: f64,
    pub fsync_ns: u64,
    pub checkpoint_write_ns: u64,
    pub checkpoint_write_count: u64,
    pub wal_records_read: u64,
}

impl LayerReads {
    fn take(engine: Option<&ShardedEngine>) -> LayerReads {
        let (critical_s, busy_s) = engine.map_or((0.0, 0.0), |e| {
            let load = e.load_stats();
            (load.critical_path_seconds, load.busy_seconds)
        });
        let h = obs_handles();
        LayerReads {
            critical_s,
            busy_s,
            fsync_ns: h.fsync.observed_sum(),
            checkpoint_write_ns: h.checkpoint_write.observed_sum(),
            checkpoint_write_count: h.checkpoint_write.observed_count(),
            wal_records_read: h.wal_records_read.value(),
        }
    }

    /// `self − before`, field-wise (engine-local load stats restart at zero
    /// on a recovered engine, hence the saturation).
    fn since(&self, before: &LayerReads) -> LayerReads {
        LayerReads {
            critical_s: (self.critical_s - before.critical_s).max(0.0),
            busy_s: (self.busy_s - before.busy_s).max(0.0),
            fsync_ns: self.fsync_ns.saturating_sub(before.fsync_ns),
            checkpoint_write_ns: self
                .checkpoint_write_ns
                .saturating_sub(before.checkpoint_write_ns),
            checkpoint_write_count: self
                .checkpoint_write_count
                .saturating_sub(before.checkpoint_write_count),
            wal_records_read: self
                .wal_records_read
                .saturating_sub(before.wal_records_read),
        }
    }
}

/// Handles onto the program's own metrics (the names it registers them
/// under); reads only.
pub struct ObsHandles {
    pub fsync: tkcm_obs::Histogram,
    pub checkpoint_write: tkcm_obs::Histogram,
    pub barrier: tkcm_obs::Histogram,
    pub wal_bytes: tkcm_obs::Counter,
    pub wal_records_read: tkcm_obs::Counter,
}

pub fn obs_handles() -> &'static ObsHandles {
    static HANDLES: std::sync::OnceLock<ObsHandles> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        let r = tkcm_obs::registry();
        ObsHandles {
            fsync: r.histogram("tkcm_store_wal_fsync_nanos", &[]),
            checkpoint_write: r.histogram("tkcm_store_checkpoint_write_nanos", &[]),
            barrier: r.histogram("tkcm_runtime_barrier_wait_nanos", &[]),
            wal_bytes: r.counter("tkcm_store_wal_appended_bytes_total", &[]),
            wal_records_read: r.counter("tkcm_store_wal_records_read_total", &[]),
        }
    })
}

/// One recorded SUT call.
#[derive(Clone, Debug)]
pub struct Call {
    pub kind: CallKind,
    /// Index of the first stream tick the call carried.
    pub first: usize,
    /// Stream ticks carried (0 for non-ingest calls).
    pub ticks: usize,
    /// Start and end, relative to the run's epoch.
    pub start: Duration,
    pub end: Duration,
    /// Part of the timed loop (vs the restart probe after it).
    pub timed: bool,
    /// Whether any carried tick had a missing reading.
    pub has_missing: bool,
    /// Layer deltas over the call (tracing only).
    pub reads: Option<LayerReads>,
}

/// Everything one run of a workload produced.
pub struct Run {
    pub setup_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    pub fill_outcomes: Vec<EngineOutcome>,
    /// Outcomes of `stream[..outcomes.len()]`, in tick order.
    pub outcomes: Vec<EngineOutcome>,
    pub calls: Vec<Call>,
    pub recover_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub snapshot_bytes: u64,
    /// Wall clock of the timed part, seconds.
    pub timed_wall_s: f64,
    pub peak_rss_mb: f64,
    /// Ticks whose ingest call returned an error.
    pub failed_ticks: usize,
    /// Restart cycles attempted, and those whose recovery or checkpoint
    /// failed or recovered the wrong state.
    pub recoveries: usize,
    pub failed_recoveries: usize,
    /// Prune totals over the timed part.
    pub prune: tkcm_core::PruneStats,
    /// Time spent reading [`LayerReads`], seconds.
    pub trace_overhead_s: f64,
    /// Load stats over the timed part (critical path, busy), seconds.
    pub critical_s: f64,
    pub busy_s: f64,
    /// Barrier-wait and WAL-fsync histogram samples, and WAL bytes
    /// appended, over the timed part.
    pub barrier: tkcm_obs::HistogramDelta,
    pub fsync: tkcm_obs::HistogramDelta,
    pub wal_bytes: u64,
}

/// Repetitions of the set-up; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Directory for the durable engines' checkpoint files.
pub fn work_dir(workload: &str, seed: u64) -> PathBuf {
    Path::new(".bench_build")
        .join("perfbench")
        .join(format!("{workload}-{seed}-{}", std::process::id()))
}

struct Recorder {
    epoch: Instant,
    trace: bool,
    overhead: Duration,
}

impl Recorder {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn reads(&mut self, engine: Option<&ShardedEngine>) -> Option<LayerReads> {
        if !self.trace {
            return None;
        }
        let started = Instant::now();
        let reads = LayerReads::take(engine);
        self.overhead += started.elapsed();
        Some(reads)
    }

    fn delta(
        &mut self,
        before: Option<LayerReads>,
        engine: Option<&ShardedEngine>,
    ) -> Option<LayerReads> {
        let after = self.reads(engine)?;
        before.map(|b| after.since(&b))
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// One set-up: generate, construct the durable fleet, fill the window.
fn set_up(
    name: &str,
    seed: u64,
    seconds: Duration,
    dir: &Path,
) -> Result<(Workload, ShardedEngine, Vec<EngineOutcome>, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let workload = workload::generate(name, seed, seconds).ok_or("unknown workload")?;
    let generate_s = started.elapsed().as_secs_f64();
    let mut engine = ShardedEngine::with_durability(
        workload.width,
        workload.config.clone(),
        workload.catalog.clone(),
        workload.shards,
        dir,
        workload.durability.clone(),
    )
    .map_err(|e| format!("constructing the fleet: {e}"))?;
    let mut fill = Vec::with_capacity(workload.fill.len());
    for chunk in workload.fill.chunks(MAX_BATCH) {
        fill.extend(
            engine
                .process_batch(chunk)
                .map_err(|e| format!("filling the window: {e}"))?,
        );
    }
    Ok((workload, engine, fill, generate_s))
}

fn has_missing(ticks: &[StreamTick]) -> bool {
    ticks.iter().any(|t| t.values.iter().any(Option::is_none))
}

/// Runs workload `name` for `seed`: set-up ([`SETUP_REPEATS`] times), the
/// timed loop, then (after a plain ingest loop) the restart probe.  Returns
/// the last set-up's workload with the run.
pub fn run(
    name: &str,
    seed: u64,
    seconds: Duration,
    trace: bool,
) -> Result<(Workload, Run), String> {
    let dir = work_dir(name, seed);
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let started = Instant::now();
        let (w, e, fill, gen) = set_up(name, seed, seconds, &dir)?;
        setup_s.push(started.elapsed().as_secs_f64());
        generate_s.push(gen);
        built = Some((w, e, fill));
    }
    let (workload, engine, fill_outcomes) = built.expect("at least one set-up");

    let mut rec = Recorder {
        epoch: Instant::now(),
        trace,
        overhead: Duration::ZERO,
    };
    let mut state = State {
        workload: &workload,
        dir: &dir,
        engine: Some(engine),
        outcomes: Vec::new(),
        calls: Vec::new(),
        recover_ms: Vec::new(),
        checkpoint_ms: Vec::new(),
        snapshot_bytes: 0,
        failed_ticks: 0,
        failed_recoveries: 0,
        recoveries: 0,
    };
    let prune_before = state
        .engine
        .as_ref()
        .map(ShardedEngine::prune_totals)
        .unwrap_or_default();
    let load_before = state.engine.as_ref().map(ShardedEngine::load_stats);
    let obs = obs_handles();
    let (barrier_base, fsync_base) = (obs.barrier.checkpoint(), obs.fsync.checkpoint());
    let wal_bytes_base = obs.wal_bytes.value();
    rec.epoch = Instant::now();
    let timed = match workload.timed_loop {
        Loop::ClosedPerTick => {
            state.closed_per_tick(&mut rec, seconds);
            let timed = state.timed_end(
                &rec,
                &prune_before,
                load_before.as_ref(),
                (&barrier_base, &fsync_base, wal_bytes_base),
            );
            state.probe(&mut rec);
            timed
        }
        Loop::Restart { cycles, chunk } => {
            // Load stats restart with every recovered engine, so the
            // restart workload sums them per cycle (see `restart_cycles`).
            let (p, c, b) = state.restart_cycles(&mut rec, cycles, chunk, true);
            TimedEnd {
                wall_s: rec.now().as_secs_f64(),
                prune: p,
                critical_s: c,
                busy_s: b,
                barrier: obs.barrier.delta_since(&barrier_base),
                fsync: obs.fsync.delta_since(&fsync_base),
                wal_bytes: obs.wal_bytes.value() - wal_bytes_base,
            }
        }
    };
    let peak_rss_mb = peak_rss_mb();
    drop(state.engine.take());
    let _ = std::fs::remove_dir_all(&dir);
    let run = Run {
        setup_s,
        generate_s,
        fill_outcomes,
        outcomes: state.outcomes,
        calls: state.calls,
        recover_ms: state.recover_ms,
        checkpoint_ms: state.checkpoint_ms,
        snapshot_bytes: state.snapshot_bytes,
        timed_wall_s: timed.wall_s,
        peak_rss_mb,
        failed_ticks: state.failed_ticks,
        failed_recoveries: state.failed_recoveries,
        recoveries: state.recoveries,
        prune: timed.prune,
        trace_overhead_s: rec.overhead.as_secs_f64(),
        critical_s: timed.critical_s,
        busy_s: timed.busy_s,
        barrier: timed.barrier,
        fsync: timed.fsync,
        wal_bytes: timed.wal_bytes,
    };
    Ok((workload, run))
}

struct State<'a> {
    workload: &'a Workload,
    dir: &'a Path,
    engine: Option<ShardedEngine>,
    outcomes: Vec<EngineOutcome>,
    calls: Vec<Call>,
    recover_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    snapshot_bytes: u64,
    failed_ticks: usize,
    failed_recoveries: usize,
    recoveries: usize,
}

/// What the program reported over the timed part.
struct TimedEnd {
    wall_s: f64,
    prune: tkcm_core::PruneStats,
    critical_s: f64,
    busy_s: f64,
    barrier: tkcm_obs::HistogramDelta,
    fsync: tkcm_obs::HistogramDelta,
    wal_bytes: u64,
}

impl State<'_> {
    /// Closes the timed part of an ingest loop: wall clock, prune-total
    /// delta, load stats and histogram deltas since it began.
    fn timed_end(
        &self,
        rec: &Recorder,
        prune_before: &tkcm_core::PruneStats,
        load_before: Option<&tkcm_runtime::FleetLoadStats>,
        bases: (
            &tkcm_obs::HistogramCheckpoint,
            &tkcm_obs::HistogramCheckpoint,
            u64,
        ),
    ) -> TimedEnd {
        let wall_s = rec.now().as_secs_f64();
        let obs = obs_handles();
        let (prune, critical_s, busy_s) = match self.engine.as_ref() {
            Some(engine) => {
                let load = engine.load_stats();
                let (c0, b0) =
                    load_before.map_or((0.0, 0.0), |l| (l.critical_path_seconds, l.busy_seconds));
                (
                    engine.prune_totals().saturating_delta(prune_before),
                    load.critical_path_seconds - c0,
                    load.busy_seconds - b0,
                )
            }
            None => Default::default(),
        };
        TimedEnd {
            wall_s,
            prune,
            critical_s,
            busy_s,
            barrier: obs.barrier.delta_since(bases.0),
            fsync: obs.fsync.delta_since(bases.1),
            wal_bytes: obs.wal_bytes.value() - bases.2,
        }
    }

    /// Submits `stream[first..first + n]` as one call; `Err` poisons the
    /// run (the engine refuses further work).
    fn ingest(&mut self, rec: &mut Recorder, first: usize, n: usize, timed: bool) -> bool {
        let Some(engine) = self.engine.as_mut() else {
            return false;
        };
        let ticks = &self.workload.stream[first..first + n];
        let before = rec.reads(Some(engine));
        let start = rec.now();
        let result = if n == 1 {
            engine.process_tick(&ticks[0]).map(|o| vec![o])
        } else {
            engine.process_batch(ticks)
        };
        let end = rec.now();
        let reads = rec.delta(before, self.engine.as_ref());
        match result {
            Ok(outcomes) if outcomes.len() == n => self.outcomes.extend(outcomes),
            _ => {
                self.failed_ticks += n;
                self.engine = None;
                return false;
            }
        }
        self.calls.push(Call {
            kind: CallKind::Ingest,
            first,
            ticks: n,
            start,
            end,
            timed,
            has_missing: has_missing(ticks),
            reads,
        });
        true
    }

    fn closed_per_tick(&mut self, rec: &mut Recorder, seconds: Duration) {
        let floor = crate::MIN_P99_SAMPLES;
        // Leave the restart probe its ticks.
        let end = self
            .workload
            .stream
            .len()
            .saturating_sub(PROBE_CYCLES * PROBE_CHUNK);
        let mut imputed_calls = 0usize;
        let mut next = 0usize;
        while next < end {
            if rec.now() >= seconds
                && imputed_calls >= floor
                && next >= crate::quality_ticks(self.workload)
            {
                break;
            }
            if !self.ingest(rec, next, 1, true) {
                return;
            }
            imputed_calls += usize::from(self.calls.last().is_some_and(|c| c.has_missing));
            next += 1;
        }
    }

    /// The restart probe after an ingest loop: a checkpoint (so every
    /// probe cycle replays the same amount of log), then [`PROBE_CYCLES`]
    /// restart cycles of [`PROBE_CHUNK`] ticks.
    fn probe(&mut self, rec: &mut Recorder) {
        match self.engine.as_mut().map(|e| e.checkpoint(self.dir)) {
            Some(Ok(_)) => {
                self.restart_cycles(rec, PROBE_CYCLES, PROBE_CHUNK, false);
            }
            Some(Err(_)) => {
                self.recoveries += 1;
                self.failed_recoveries += 1;
                self.engine = None;
            }
            None => {}
        }
    }

    /// `cycles` × (ingest `chunk` ticks in [`MAX_BATCH`] batches, crash,
    /// recover, checkpoint), continuing after the ticks already processed.
    /// With `timed`, the cycles are the run's timed part.  Returns the prune-total delta and the summed load stats
    /// over the cycles.
    fn restart_cycles(
        &mut self,
        rec: &mut Recorder,
        cycles: usize,
        chunk: usize,
        timed: bool,
    ) -> (tkcm_core::PruneStats, f64, f64) {
        let mut prune = tkcm_core::PruneStats::default();
        let (mut critical, mut busy) = (0.0, 0.0);
        for _ in 0..cycles {
            let Some(engine) = self.engine.as_ref() else {
                break;
            };
            let prune_before = engine.prune_totals();
            let load_before = engine.load_stats();
            let first = self.outcomes.len();
            if first + chunk > self.workload.stream.len() {
                break;
            }
            for at in (first..first + chunk).step_by(MAX_BATCH) {
                let n = MAX_BATCH.min(first + chunk - at);
                if !self.ingest(rec, at, n, timed) {
                    return (prune, critical, busy);
                }
            }
            let engine = self.engine.take().expect("ingest kept the engine");
            prune += engine.prune_totals().saturating_delta(&prune_before);
            let load = engine.load_stats();
            critical += load.critical_path_seconds - load_before.critical_path_seconds;
            busy += load.busy_seconds - load_before.busy_seconds;
            let expected_ticks = engine.ticks_processed();

            let before = rec.reads(None);
            let start = rec.now();
            drop(engine);
            let end = rec.now();
            let reads = rec.delta(before, None);
            self.push_call(CallKind::Crash, first, start, end, timed, reads);

            self.recoveries += 1;
            let before = rec.reads(None);
            let start = rec.now();
            let recovered = ShardedEngine::recover(self.dir);
            let end = rec.now();
            match recovered {
                Ok(engine) if engine.ticks_processed() == expected_ticks => {
                    self.engine = Some(engine);
                }
                _ => {
                    self.failed_recoveries += 1;
                    return (prune, critical, busy);
                }
            }
            let reads = rec.delta(before, self.engine.as_ref());
            self.recover_ms.push((end - start).as_secs_f64() * 1e3);
            self.push_call(CallKind::Recover, first, start, end, timed, reads);

            let engine = self.engine.as_mut().expect("just recovered");
            let before = rec.reads(Some(engine));
            let start = rec.now();
            let stats = engine.checkpoint(self.dir);
            let end = rec.now();
            let reads = rec.delta(before, self.engine.as_ref());
            match stats {
                Ok(stats) => self.snapshot_bytes = stats.snapshot_bytes(),
                Err(_) => {
                    self.failed_recoveries += 1;
                    self.engine = None;
                    return (prune, critical, busy);
                }
            }
            self.checkpoint_ms.push((end - start).as_secs_f64() * 1e3);
            self.push_call(CallKind::Checkpoint, first, start, end, timed, reads);
        }
        (prune, critical, busy)
    }

    fn push_call(
        &mut self,
        kind: CallKind,
        first: usize,
        start: Duration,
        end: Duration,
        timed: bool,
        reads: Option<LayerReads>,
    ) {
        self.calls.push(Call {
            kind,
            first,
            ticks: 0,
            start,
            end,
            timed,
            has_missing: false,
            reads,
        });
    }
}

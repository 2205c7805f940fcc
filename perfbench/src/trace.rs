//! The traced run's layer ledger, built from outside the program.
//!
//! Every recorded call becomes a root span.  Its children are derived from
//! what the program reports about the call: the critical-path engine time
//! of the shards (`load_stats`), the per-imputation phase breakdowns, the
//! WAL fsync and checkpoint-write histograms.  Costs that no API reports —
//! window push, signature update and tick projection — come from standalone
//! replays of the same ticks through the public layer types
//! ([`LayerReplays`]) and are attributed per tick.  A span's self time is
//! its duration minus its children's; the layers' self times plus the
//! unattributed remainder add up to the timed wall clock.

use std::fmt::Write as _;
use std::time::Instant;

use tkcm_core::{SignatureIndex, TkcmEngine};
use tkcm_timeseries::{FleetPartition, StreamTick, StreamingWindow};

use crate::metrics::{breakdown_mean, Metric, PER_LAYER};
use crate::run::{Call, CallKind, Run};
use crate::stats::{mean, median, percentile, ratio};
use crate::workload::Workload;

/// Layers of the ledger, in report order.
pub const LAYERS: [&str; 4] = ["runtime", "core", "store", "timeseries"];

/// One span: a name (its layer is the prefix before the first dot), times
/// in seconds since the run epoch, the parent's index and the id of the
/// first tick the call carried.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub tick: usize,
}

impl Span {
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Per-tick costs of the layers the program does not time itself, measured
/// by replaying the same ticks through the public layer types, plus the
/// sequential single-engine replay of the default configuration.
pub struct LayerReplays {
    pub push_tick_us: f64,
    pub project_us: f64,
    pub on_push_us: f64,
    pub engine_tick_us: Vec<f64>,
    pub engine_imputed_tick_ms: Vec<f64>,
}

impl LayerReplays {
    /// Replays `fill` and the processed stream ticks.
    pub fn measure(workload: &Workload, processed: usize) -> Result<LayerReplays, String> {
        let ticks: Vec<&StreamTick> = workload
            .fill
            .iter()
            .chain(&workload.stream[..processed])
            .collect();
        let window_length = workload.config.window_length;

        let mut window = StreamingWindow::new(workload.width, window_length);
        let started = Instant::now();
        for tick in &ticks {
            window.push_tick(tick).map_err(|e| e.to_string())?;
        }
        std::hint::black_box(&window);
        let push_tick_us = started.elapsed().as_secs_f64() * 1e6 / ticks.len() as f64;

        let partition = FleetPartition::new(workload.width, &workload.catalog, workload.shards)
            .map_err(|e| e.to_string())?;
        let started = Instant::now();
        let mut projected = 0usize;
        for tick in &ticks {
            for component in 0..partition.component_count() {
                projected += partition
                    .project_component_tick(component, std::hint::black_box(tick))
                    .values
                    .len();
            }
        }
        let project_us = started.elapsed().as_secs_f64() * 1e6 / ticks.len() as f64;
        assert_eq!(projected, ticks.len() * workload.width);

        let mut index =
            SignatureIndex::new(workload.width, window_length).map_err(|e| e.to_string())?;
        let started = Instant::now();
        for tick in &ticks {
            index.on_push(&tick.values).map_err(|e| e.to_string())?;
        }
        std::hint::black_box(&index);
        let on_push_us = started.elapsed().as_secs_f64() * 1e6 / ticks.len() as f64;

        let mut engine = TkcmEngine::new(
            workload.width,
            workload.config.clone(),
            workload.catalog.clone(),
        )
        .map_err(|e| e.to_string())?;
        let mut engine_tick_us = Vec::new();
        let mut engine_imputed_tick_ms = Vec::new();
        for (i, tick) in ticks.iter().enumerate() {
            let started = Instant::now();
            let outcome = engine.process_tick(tick).map_err(|e| e.to_string())?;
            let seconds = started.elapsed().as_secs_f64();
            if i < workload.fill.len() {
                continue;
            }
            if outcome.imputations.is_empty() {
                engine_tick_us.push(seconds * 1e6);
            } else {
                engine_imputed_tick_ms.push(seconds * 1e3);
            }
        }
        Ok(LayerReplays {
            push_tick_us,
            project_us,
            on_push_us,
            engine_tick_us,
            engine_imputed_tick_ms,
        })
    }
}

/// A derived child span: name, seconds, and its own children.
type Child = (&'static str, f64, Vec<(&'static str, f64)>);

/// Builds the span tree of the timed calls.
pub fn spans(workload: &Workload, run: &Run, replays: &LayerReplays) -> Vec<Span> {
    let shards = workload.shards as f64;
    let mut spans = Vec::new();
    for call in run.calls.iter().filter(|c| c.timed) {
        let root = spans.len();
        let (start, end) = (call.start.as_secs_f64(), call.end.as_secs_f64());
        let name = match call.kind {
            CallKind::Ingest if call.ticks == 1 => "runtime.process_tick",
            CallKind::Ingest => "runtime.process_batch",
            CallKind::Crash => "runtime.drop",
            CallKind::Recover => "runtime.recover",
            CallKind::Checkpoint => "runtime.checkpoint",
        };
        spans.push(Span {
            name,
            start,
            end,
            parent: None,
            tick: call.first,
        });
        let Some(reads) = call.reads else { continue };
        let mut children: Vec<Child> = Vec::new();
        if call.kind == CallKind::Ingest {
            // Shard-side work, on the critical path: the engines' compute,
            // split by the phase breakdowns (which sum over all shards, so
            // they are scaled by critical / busy).
            let n = call.ticks as f64;
            let scale = ratio(reads.critical_s, reads.busy_s);
            let phases = phase_seconds(run, call);
            let engine_children = vec![
                ("core.extraction", phases[0] * scale),
                ("core.selection", phases[1] * scale),
                ("core.write_back", phases[2] * scale),
                ("core.maintenance", phases[3] * scale),
                (
                    "timeseries.push_tick",
                    replays.push_tick_us * 1e-6 * n * scale,
                ),
                (
                    "core.signature.on_push",
                    replays.on_push_us * 1e-6 * n * scale,
                ),
            ];
            children.push(("core.engine", reads.critical_s, engine_children));
            children.push((
                "store.wal_fsync",
                reads.fsync_ns as f64 * 1e-9 / shards,
                Vec::new(),
            ));
            children.push((
                "timeseries.project",
                replays.project_us * 1e-6 * n,
                Vec::new(),
            ));
        }
        if reads.checkpoint_write_ns > 0 {
            children.push((
                "store.checkpoint_write",
                reads.checkpoint_write_ns as f64 * 1e-9 / shards,
                Vec::new(),
            ));
        }
        place(&mut spans, root, children, call.first);
    }
    spans
}

/// The four phase durations (extraction, selection, write-back,
/// maintenance) summed over the call's imputations, in seconds.
fn phase_seconds(run: &Run, call: &Call) -> [f64; 4] {
    let mut sums = [0.0; 4];
    for outcome in &run.outcomes[call.first..call.first + call.ticks] {
        for imp in &outcome.imputations {
            let b = &imp.detail.breakdown;
            for (sum, d) in
                sums.iter_mut()
                    .zip([b.extraction, b.selection, b.imputation, b.maintenance])
            {
                *sum += d.as_secs_f64();
            }
        }
    }
    sums
}

/// Lays `children` out back to back inside span `parent` (shrunk
/// proportionally if the estimates overrun it), recursively.
fn place(spans: &mut Vec<Span>, parent: usize, children: Vec<Child>, tick: usize) {
    let (start, end) = (spans[parent].start, spans[parent].end);
    let total: f64 = children.iter().map(|c| c.1.max(0.0)).sum();
    let shrink = if total > end - start {
        (end - start) / total
    } else {
        1.0
    };
    let mut at = start;
    for (name, seconds, grandchildren) in children {
        let seconds = seconds.max(0.0) * shrink;
        if seconds <= 0.0 {
            continue;
        }
        let index = spans.len();
        spans.push(Span {
            name,
            start: at,
            end: at + seconds,
            parent: Some(parent),
            tick,
        });
        at += seconds;
        let nested = grandchildren
            .into_iter()
            .map(|(n, s)| (n, s, Vec::new()))
            .collect();
        place(spans, index, nested, tick);
    }
}

/// Self time per layer plus the unattributed remainder, in seconds.
pub struct Ledger {
    pub wall: f64,
    pub layers: Vec<(&'static str, f64)>,
    pub unattributed: f64,
}

pub fn ledger(spans: &[Span], wall: f64) -> Ledger {
    let mut self_time: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            self_time[parent] -= span.end - span.start;
        }
    }
    let layers: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|layer| {
            let total = spans
                .iter()
                .zip(&self_time)
                .filter(|(s, _)| s.layer() == *layer)
                .map(|(_, t)| *t)
                .sum();
            (*layer, total)
        })
        .collect();
    let attributed: f64 = layers.iter().map(|(_, t)| t).sum();
    Ledger {
        wall,
        layers,
        unattributed: wall - attributed,
    }
}

/// The ledger as a text table (one row per layer, then the remainder and
/// the total).
pub fn ledger_table(workload: &str, ledger: &Ledger) -> String {
    let mut out = format!("ledger {workload}: layer self time over the timed wall clock\n");
    let rows = ledger
        .layers
        .iter()
        .copied()
        .chain([("unattributed", ledger.unattributed)]);
    for (layer, seconds) in rows {
        let _ = writeln!(
            out,
            "  {layer:<13} {seconds:>10.4} s {:>7.2} %",
            100.0 * ratio(seconds, ledger.wall)
        );
    }
    let _ = write!(
        out,
        "  {:<13} {:>10.4} s {:>7.2} %",
        "wall", ledger.wall, 100.0
    );
    out
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": {parent}, \"tick\": {}}}",
            s.name, s.start, s.end, s.tick
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Every per-layer metric of a traced run, in [`PER_LAYER`] order; `tail`
/// is the percentile `runtime.call_latency_ms.tail` reports.
pub fn per_layer(
    workload: &Workload,
    run: &Run,
    replays: &LayerReplays,
    ledger: &Ledger,
    quality_ticks: usize,
    tail: f64,
) -> Vec<Metric> {
    let timed_ingest: Vec<&Call> = run
        .calls
        .iter()
        .filter(|c| c.timed && c.kind == CallKind::Ingest)
        .collect();
    let ingest_wall: f64 = timed_ingest
        .iter()
        .map(|c| (c.end - c.start).as_secs_f64())
        .sum();
    let timed_ticks: usize = timed_ingest.iter().map(|c| c.ticks).sum();
    let reads = |c: &&Call| c.reads.unwrap_or_default();
    let rotation_ms: Vec<f64> = timed_ingest
        .iter()
        .map(reads)
        .filter(|r| r.checkpoint_write_count > 0)
        .map(|r| r.checkpoint_write_ns as f64 * 1e-6)
        .collect();
    let checkpoint_write_ms: Vec<f64> = run
        .calls
        .iter()
        .filter(|c| c.kind == CallKind::Checkpoint)
        .map(|c| c.reads.unwrap_or_default().checkpoint_write_ns as f64 * 1e-6)
        .collect();
    let records_read: Vec<f64> = run
        .calls
        .iter()
        .filter(|c| c.kind == CallKind::Recover)
        .map(|c| c.reads.unwrap_or_default().wal_records_read as f64)
        .collect();
    let latencies: Vec<f64> = crate::metrics::call_latencies(run)
        .into_iter()
        .map(|(l, _)| l)
        .collect();
    let quality = run.outcomes.iter().take(quality_ticks);
    let (mut fallbacks, mut incomplete, mut skipped) = (0usize, 0usize, 0usize);
    for outcome in quality {
        skipped += outcome.skipped.len();
        for imp in &outcome.imputations {
            fallbacks += usize::from(imp.detail.fallback);
            incomplete += usize::from(!imp.detail.complete);
        }
    }
    let p = &run.prune;
    let candidates = p.candidates as f64;
    let layer_fraction = |name: &str| {
        ratio(
            ledger
                .layers
                .iter()
                .find(|(l, _)| *l == name)
                .map_or(0.0, |(_, t)| *t),
            ledger.wall,
        )
    };
    let ms = |ns: u64| ns as f64 * 1e-6;
    let values = [
        median(&run.generate_s),
        replays.push_tick_us,
        replays.project_us,
        replays.on_push_us,
        percentile(&replays.engine_tick_us, 50.0),
        percentile(&replays.engine_imputed_tick_ms, 50.0),
        percentile(&replays.engine_imputed_tick_ms, 99.0),
        breakdown_mean(run, 1e3, |b| b.extraction),
        breakdown_mean(run, 1e3, |b| b.selection),
        breakdown_mean(run, 1e3, |b| b.maintenance),
        breakdown_mean(run, 1e6, |b| b.imputation),
        ratio(p.shortlisted as f64, candidates),
        ratio(p.pruned as f64, candidates),
        ratio(p.level1_skipped as f64, candidates),
        ratio(p.maintained_pruned as f64, candidates),
        ratio(p.maintained_lags as f64, candidates),
        fallbacks as f64,
        incomplete as f64,
        skipped as f64,
        percentile(&latencies, 50.0),
        percentile(&latencies, tail),
        1.0 - ratio(run.critical_s, ingest_wall),
        ratio(run.critical_s, run.busy_s / workload.shards as f64),
        ms(run.barrier.quantile(0.5)),
        ms(run.barrier.quantile(0.99)),
        ms(run.fsync.quantile(0.5)),
        ms(run.fsync.quantile(0.99)),
        ratio(run.wal_bytes as f64, timed_ticks as f64),
        rotation_ms.len() as f64,
        median(&rotation_ms),
        median(&checkpoint_write_ms),
        mean(&records_read),
        ratio(ledger.unattributed, ledger.wall),
        layer_fraction("runtime"),
        layer_fraction("core"),
        layer_fraction("store"),
        layer_fraction("timeseries"),
        ledger.wall / (ledger.wall - run.trace_overhead_s),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            unit: m.unit,
            value,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_self_times_and_remainder_sum_to_wall() {
        let spans = vec![
            Span {
                name: "runtime.process_tick",
                start: 0.0,
                end: 1.0,
                parent: None,
                tick: 0,
            },
            Span {
                name: "core.engine",
                start: 0.0,
                end: 0.6,
                parent: Some(0),
                tick: 0,
            },
            Span {
                name: "core.extraction",
                start: 0.0,
                end: 0.4,
                parent: Some(1),
                tick: 0,
            },
            Span {
                name: "store.wal_fsync",
                start: 0.6,
                end: 0.7,
                parent: Some(0),
                tick: 0,
            },
            Span {
                name: "runtime.recover",
                start: 1.0,
                end: 1.5,
                parent: None,
                tick: 1,
            },
        ];
        let l = ledger(&spans, 2.0);
        let get = |name: &str| l.layers.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!((get("runtime") - 0.8).abs() < 1e-12);
        assert!((get("core") - 0.6).abs() < 1e-12);
        assert!((get("store") - 0.1).abs() < 1e-12);
        assert!((l.unattributed - 0.5).abs() < 1e-12);
        let total: f64 = l.layers.iter().map(|(_, t)| t).sum::<f64>() + l.unattributed;
        assert!((total - l.wall).abs() < 1e-12);
    }

    #[test]
    fn children_that_overrun_their_parent_are_shrunk_to_fit() {
        let mut spans = vec![Span {
            name: "runtime.process_batch",
            start: 1.0,
            end: 2.0,
            parent: None,
            tick: 0,
        }];
        place(
            &mut spans,
            0,
            vec![
                ("core.engine", 1.5, vec![("core.selection", 3.0)]),
                ("store.wal_fsync", 0.5, Vec::new()),
            ],
            0,
        );
        let child_total: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| s.end - s.start)
            .sum();
        assert!((child_total - 1.0).abs() < 1e-12);
        let engine = &spans[1];
        let grandchild = &spans[2];
        assert!(grandchild.end - grandchild.start <= engine.end - engine.start + 1e-12);
        assert!(spans.iter().all(|s| s.start >= 1.0 && s.end <= 2.0 + 1e-12));
    }
}

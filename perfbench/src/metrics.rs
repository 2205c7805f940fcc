//! Metric names, units and directions, the end-to-end metrics of a run, and
//! the JSON result line.
//!
//! The lists here are the contract `BENCHMARK.json` publishes; a test keeps
//! the two in step.

use crate::run::{CallKind, Run};
use crate::stats::{mean, median, percentile};
use crate::workload::Workload;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher_is_better: bool) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
    }
}

/// Every end-to-end metric; each workload reports all of them.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", false),
    e2e("ticks_per_s", "1/s", true),
    e2e("imputed_latency_ms.p50", "ms", false),
    e2e("imputed_latency_ms.tail", "ms", false),
    e2e("recover_ms.p50", "ms", false),
    e2e("checkpoint_ms.p50", "ms", false),
    e2e("rmse", "value", false),
    e2e("mae", "value", false),
    e2e("peak_rss_mb", "MB", false),
    e2e("snapshot_mb", "MB", false),
];

/// A per-layer metric and the end-to-end metric (on a workload) it should
/// move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub target: &'static str,
    pub target_workload: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    target: &'static str,
    target_workload: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better,
        target,
        target_workload,
    }
}

const PW: &str = "paper-window";
const RS: &str = "restart";
const ALL: &str = "all";

/// Every per-layer metric, reported by the traced run of each workload.
pub const PER_LAYER: [PerLayer; 38] = [
    layer("datasets.generate_s", "s", false, "setup_s", ALL),
    layer(
        "timeseries.push_tick_us.mean",
        "us",
        false,
        "ticks_per_s",
        RS,
    ),
    layer("timeseries.project_us.mean", "us", false, "ticks_per_s", RS),
    layer(
        "core.signature.on_push_us.mean",
        "us",
        false,
        "ticks_per_s",
        RS,
    ),
    layer("core.engine.tick_us.p50", "us", false, "ticks_per_s", RS),
    layer(
        "core.engine.imputed_tick_ms.p50",
        "ms",
        false,
        "imputed_latency_ms.p50",
        PW,
    ),
    layer(
        "core.engine.imputed_tick_ms.p99",
        "ms",
        false,
        "imputed_latency_ms.tail",
        PW,
    ),
    layer(
        "core.extraction_ms.mean",
        "ms",
        false,
        "imputed_latency_ms.p50",
        PW,
    ),
    layer(
        "core.selection_ms.mean",
        "ms",
        false,
        "imputed_latency_ms.p50",
        PW,
    ),
    layer("core.maintenance_ms.mean", "ms", false, "ticks_per_s", PW),
    layer("core.write_back_us.mean", "us", false, "ticks_per_s", PW),
    layer(
        "core.prune.exact_fraction",
        "fraction",
        false,
        "imputed_latency_ms.p50",
        PW,
    ),
    layer(
        "core.prune.pruned_fraction",
        "fraction",
        true,
        "imputed_latency_ms.p50",
        PW,
    ),
    layer(
        "core.prune.level1_skipped_fraction",
        "fraction",
        true,
        "imputed_latency_ms.p50",
        PW,
    ),
    layer(
        "core.prune.maintained_pruned_fraction",
        "fraction",
        true,
        "imputed_latency_ms.p50",
        PW,
    ),
    layer(
        "core.prune.maintained_lag_fraction",
        "fraction",
        true,
        "imputed_latency_ms.p50",
        PW,
    ),
    layer("core.fallbacks", "count", false, "rmse", ALL),
    layer("core.incomplete", "count", false, "rmse", ALL),
    layer("core.skipped", "count", false, "rmse", ALL),
    layer(
        "runtime.call_latency_ms.p50",
        "ms",
        false,
        "ticks_per_s",
        PW,
    ),
    layer(
        "runtime.call_latency_ms.tail",
        "ms",
        false,
        "imputed_latency_ms.tail",
        PW,
    ),
    layer(
        "runtime.self_fraction",
        "fraction",
        false,
        "ticks_per_s",
        RS,
    ),
    layer(
        "runtime.shard_imbalance",
        "ratio",
        false,
        "imputed_latency_ms.tail",
        RS,
    ),
    layer(
        "runtime.barrier_wait_ms.p50",
        "ms",
        false,
        "imputed_latency_ms.p50",
        RS,
    ),
    layer(
        "runtime.barrier_wait_ms.p99",
        "ms",
        false,
        "imputed_latency_ms.tail",
        RS,
    ),
    layer(
        "store.wal_fsync_ms.p50",
        "ms",
        false,
        "imputed_latency_ms.p50",
        RS,
    ),
    layer(
        "store.wal_fsync_ms.p99",
        "ms",
        false,
        "imputed_latency_ms.tail",
        RS,
    ),
    layer(
        "store.wal_bytes_per_tick",
        "bytes",
        false,
        "recover_ms.p50",
        RS,
    ),
    layer(
        "store.rotations",
        "count",
        false,
        "imputed_latency_ms.tail",
        PW,
    ),
    layer(
        "store.rotation_ms.p50",
        "ms",
        false,
        "imputed_latency_ms.tail",
        PW,
    ),
    layer(
        "store.checkpoint_write_ms.p50",
        "ms",
        false,
        "checkpoint_ms.p50",
        RS,
    ),
    layer(
        "store.wal_records_read",
        "count",
        false,
        "recover_ms.p50",
        RS,
    ),
    layer(
        "ledger.unattributed_fraction",
        "fraction",
        false,
        "none",
        ALL,
    ),
    layer(
        "ledger.runtime_fraction",
        "fraction",
        false,
        "ticks_per_s",
        RS,
    ),
    layer("ledger.core_fraction", "fraction", false, "ticks_per_s", PW),
    layer(
        "ledger.store_fraction",
        "fraction",
        false,
        "recover_ms.p50",
        RS,
    ),
    layer(
        "ledger.timeseries_fraction",
        "fraction",
        false,
        "ticks_per_s",
        RS,
    ),
    layer("trace.overhead_fraction", "ratio", false, "none", ALL),
];

/// One reported value.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Root-mean-square and mean absolute error of the imputations of the
/// quality ticks against the removed ground truth.
pub fn quality(workload: &Workload, run: &Run, quality_ticks: usize) -> (f64, f64) {
    let (mut sq, mut abs, mut n) = (0.0, 0.0, 0usize);
    for (outcome, truth) in run.outcomes.iter().zip(&workload.truth).take(quality_ticks) {
        for imputation in &outcome.imputations {
            let series = imputation.series.0 as usize;
            if let Some((_, value)) = truth.iter().find(|(s, _)| *s == series) {
                let err = imputation.value - value;
                sq += err * err;
                abs += err.abs();
                n += 1;
            }
        }
    }
    if n == 0 {
        return (0.0, 0.0);
    }
    ((sq / n as f64).sqrt(), abs / n as f64)
}

/// Latency samples of the timed ingest calls, in ms, with whether the
/// call carried a missing reading.  A call is one sample: every tick of a
/// batch shares its latency.
pub fn call_latencies(run: &Run) -> Vec<(f64, bool)> {
    run.calls
        .iter()
        .filter(|c| c.timed && c.kind == CallKind::Ingest)
        .map(|c| ((c.end - c.start).as_secs_f64() * 1e3, c.has_missing))
        .collect()
}

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
/// `tail` is the percentile `imputed_latency_ms.tail` reports.
pub fn end_to_end(workload: &Workload, run: &Run, quality_ticks: usize, tail: f64) -> Vec<Metric> {
    let timed_ingest = || {
        run.calls
            .iter()
            .filter(|c| c.timed && c.kind == CallKind::Ingest)
    };
    let ticks: usize = timed_ingest().map(|c| c.ticks).sum();
    let busy: f64 = timed_ingest()
        .map(|c| (c.end - c.start).as_secs_f64())
        .sum();
    let imputed: Vec<f64> = call_latencies(run)
        .into_iter()
        .filter(|(_, missing)| *missing)
        .map(|(l, _)| l)
        .collect();
    let (rmse, mae) = quality(workload, run, quality_ticks);
    let values = [
        median(&run.setup_s),
        ticks as f64 / busy,
        percentile(&imputed, 50.0),
        percentile(&imputed, tail),
        median(&run.recover_ms),
        median(&run.checkpoint_ms),
        rmse,
        mae,
        run.peak_rss_mb,
        run.snapshot_bytes as f64 / 1e6,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            unit: m.unit,
            value,
        })
        .collect()
}

/// Mean of `f` over the timed imputations' breakdowns, in `scale` units per
/// second.
pub fn breakdown_mean(
    run: &Run,
    scale: f64,
    f: impl Fn(&tkcm_core::PhaseBreakdown) -> std::time::Duration,
) -> f64 {
    let timed_ticks = run
        .calls
        .iter()
        .filter(|c| c.timed && c.kind == CallKind::Ingest)
        .flat_map(|c| c.first..c.first + c.ticks);
    let samples: Vec<f64> = timed_ticks
        .flat_map(|i| run.outcomes[i].imputations.iter())
        .map(|imp| f(&imp.detail.breakdown).as_secs_f64() * scale)
        .collect();
    mean(&samples)
}

/// Formats a number as JSON, with all its digits.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}

/// Escapes a string for JSON.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(valid_name("setup_s") && !valid_name("bad name") && !valid_name(".x"));
    }

    #[test]
    fn metric_counts_stay_within_the_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    }

    #[test]
    fn every_layer_target_is_an_end_to_end_metric_on_a_workload() {
        for m in &PER_LAYER {
            assert!(
                m.target == "none" || END_TO_END.iter().any(|e| e.name == m.target),
                "{} targets {}",
                m.name,
                m.target
            );
            assert!(
                m.target_workload == ALL || crate::workload::NAMES.contains(&m.target_workload),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let listed = json.matches("\"name\"").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + crate::workload::NAMES.len()
        );
        for (name, unit, higher) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.higher_is_better))
            .chain(
                PER_LAYER
                    .iter()
                    .map(|m| (m.name, m.unit, m.higher_is_better)),
            )
        {
            let better = if higher { "higher" } else { "lower" };
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in crate::workload::NAMES {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                unit: "s",
                value: 0.5,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}

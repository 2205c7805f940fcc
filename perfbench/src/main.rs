//! `perfbench`: the repository benchmark of the default TKCM configuration
//! (composed pruning + shortlist maintenance, through the sharded runtime
//! with WAL and group commit).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-window --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run: set up the workload three times (`setup_s` is the median), run
//! the timed part, check every outcome against the exhaustive oracle, and
//! print the metrics.  The last line of standard output is the JSON result
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! carries the run metadata.  `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer metrics and the layer ledger.

#![forbid(unsafe_code)]

mod metrics;
mod oracle;
mod run;
mod stats;
mod trace;
mod workload;

use std::time::Duration;

use tkcm_core::TkcmEngine;
use tkcm_timeseries::{Catalog, StreamTick};

use metrics::{json_number, json_string, result_line};
use workload::{Loop, Workload};

/// Samples a p99 needs so that at least 10 lie beyond it.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Fewest restart cycles: 100 batch samples, enough for a p90 tail and a
/// steady median recovery time.
pub const MIN_RESTART_CYCLES: usize = 25;

/// The stream ticks whose imputations the quality metrics cover: a prefix
/// every run reaches whatever its speed, so `rmse`, `mae` and the quality
/// counts depend on the seed only.
pub fn quality_ticks(workload: &Workload) -> usize {
    match workload.timed_loop {
        // 1000 ticks with an outage reading at 4 in every 16 ticks.
        Loop::ClosedPerTick => 4 * MIN_P99_SAMPLES,
        Loop::Restart { cycles, chunk } => cycles * chunk,
    }
}

/// The percentile the tails report: the highest with at least 10 samples
/// beyond it at the number of imputed-call samples the workload's timed
/// loop guarantees.
pub fn tail_percentile(workload: &Workload) -> f64 {
    let samples = match workload.timed_loop {
        Loop::ClosedPerTick => MIN_P99_SAMPLES,
        // One sample per batch.  A 64-tick batch carries about 12 outage
        // readings; one without any has a probability near e^-12.
        Loop::Restart { cycles, chunk } => cycles * chunk.div_ceil(workload::MAX_BATCH),
    };
    stats::tail_percentile(samples).unwrap_or(50.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(matches!(value.as_str(), "1")),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            workload::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn bench(args: &Args) -> Result<Vec<String>, String> {
    let seconds = Duration::from_secs(args.seconds);
    let (workload, run) = run::run(&args.workload, args.seed, seconds, args.trace)?;
    // The benchmark exists to measure the default, composed path.
    TkcmEngine::new(1, workload.config.clone(), Catalog::new())
        .ok()
        .filter(TkcmEngine::is_composed)
        .ok_or("the benchmarked configuration is not the composed default path")?;
    let mut lines = Vec::new();

    // The oracle replays exactly the ticks the program processed.
    let processed = run.outcomes.len();
    let ticks: Vec<&StreamTick> = workload
        .fill
        .iter()
        .chain(&workload.stream[..processed])
        .collect();
    let program: Vec<_> = run
        .fill_outcomes
        .iter()
        .chain(&run.outcomes)
        .cloned()
        .collect();
    let oracle = oracle::replay(
        workload.width,
        &workload.config,
        &workload.catalog,
        &ticks,
        &program,
    );
    let mismatched = oracle::count_failures(&oracle, &program);
    let attempted = ticks.len() + run.failed_ticks + run.recoveries;
    let failed = mismatched + run.failed_ticks + run.failed_recoveries;
    let quality_ticks = quality_ticks(&workload);
    let complete = processed >= quality_ticks;

    let metrics = if args.trace {
        let replays = trace::LayerReplays::measure(&workload, processed)?;
        let spans = trace::spans(&workload, &run, &replays);
        let ledger = trace::ledger(&spans, run.timed_wall_s);
        let path = run::work_dir(&args.workload, args.seed)
            .with_file_name(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        trace::write_spans(&path, &spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        lines.push(trace::ledger_table(&args.workload, &ledger));
        lines.push(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        ));
        let per_layer = trace::per_layer(
            &workload,
            &run,
            &replays,
            &ledger,
            quality_ticks,
            tail_percentile(&workload),
        );
        for (m, spec) in per_layer.iter().zip(&metrics::PER_LAYER) {
            lines.push(format!(
                "  {:<40} {:>14.6} {:<8} {:<6} target {} on {}",
                m.name,
                m.value,
                m.unit,
                better(spec.higher_is_better),
                spec.target,
                spec.target_workload
            ));
        }
        per_layer
    } else {
        let end_to_end =
            metrics::end_to_end(&workload, &run, quality_ticks, tail_percentile(&workload));
        for (m, spec) in end_to_end.iter().zip(&metrics::END_TO_END) {
            lines.push(format!(
                "  {:<40} {:>14.6} {:<8} {}",
                m.name,
                m.value,
                m.unit,
                better(spec.higher_is_better)
            ));
        }
        end_to_end
    };
    let imputed = metrics::call_latencies(&run)
        .iter()
        .filter(|(_, m)| *m)
        .count();
    lines.push(meta_line(args, &workload, &run, attempted, failed, imputed));
    let correct = failed == 0 && complete;
    if !correct {
        eprintln!(
            "perfbench: INCORRECT — {mismatched} outcome(s) differ from the exhaustive oracle, \
             {} failed call(s), {processed} of {quality_ticks} quality ticks processed",
            run.failed_ticks + run.failed_recoveries
        );
    }
    lines.push(result_line(correct, attempted, failed, &metrics));
    Ok(lines)
}

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The run metadata: host, seed, revision, workload parameters and the
/// sample counts behind the tail percentiles.
fn meta_line(
    args: &Args,
    workload: &Workload,
    run: &run::Run,
    attempted: usize,
    failed: usize,
    imputed_samples: usize,
) -> String {
    let params: Vec<String> = workload
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    let tail = |n: usize| stats::tail_percentile(n).map_or("null".into(), json_number);
    let fields = [
        ("workload", json_string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu_model", json_string(&cpu_model())),
        ("git_revision", json_string(&git_revision())),
        ("obs_recording", tkcm_obs::enabled().to_string()),
        (
            "tick_digest",
            json_string(&format!("{:016x}", workload::digest(workload))),
        ),
        ("params", format!("{{{}}}", params.join(", "))),
        ("timed_wall_s", json_number(run.timed_wall_s)),
        (
            "error_rate",
            json_number(stats::ratio(failed as f64, attempted as f64)),
        ),
        ("imputed_latency_samples", imputed_samples.to_string()),
        ("tail_percentile", json_number(tail_percentile(workload))),
        ("tail_allowed_by_samples", tail(imputed_samples)),
        ("recoveries", run.recoveries.to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"meta\": {{{}}}}}", body.join(", "))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out revision, read from `.git` without running git; the
/// benchmark also runs in plain source trees, where it is unknown.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

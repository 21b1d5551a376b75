//! `perfbench` — the perisec host-time benchmark.
//!
//! One command runs one workload in its own process:
//!
//! ```text
//! perfbench --workload <audio_stream|camera_swarm|camera_sharded|ingest_wire>
//!           [--seed <n>] [--seconds <s>] [--trace <0|1>] [--scale <full|tiny>]
//! ```
//!
//! The seed generates every input (scenarios, link and shard chaos,
//! record payloads); the models train from a fixed seed, because they are
//! part of the system under test, not of its input. With `--trace 0` the
//! run reports the end-to-end metrics with tracing off; with `--trace 1`
//! it reports the per-layer metrics, timed around calls into each
//! crate's public API from this package's own files. Human-readable
//! lines come first; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The process exits
//! non-zero on any correctness miss. See `perfbench/README.md`.

mod fleet;
mod replay;
mod stats;
mod wire;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// The hold-out seed: never used while tuning a change, only to confirm
/// a claim made on other seeds.
pub const HOLDOUT_SEED: u64 = 0x5EED_2023;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
/// `items_per_s` counts each workload's own unit of work: utterances
/// (`audio_stream`), frames (`camera_sharded`), devices (`camera_swarm`),
/// records committed exactly once (`ingest_wire`). Work per round is fixed
/// per seed, so other rates of a workload are constant multiples of it;
/// they are printed, not gated.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.build_us.p50", "us"),
    ("core.build_us.p99", "us"),
    ("core.step_us.p50", "us"),
    ("core.step_us.p99", "us"),
    ("core.step_us.mean", "us"),
    ("core.finish_us.p50", "us"),
    ("core.steps", "count"),
    ("core.windows_per_step", "count"),
    ("core.step_attributed_us", "us"),
    ("core.step_unattributed_us", "us"),
    ("core.executor.busy_share", "ratio"),
    ("core.executor.steals", "count"),
    ("core.executor.idle_parks", "count"),
    ("core.executor.peak_resident", "count"),
    ("core.modeled_p99_ms", "ms"),
    ("core.retained_kib_per_device", "KiB"),
    ("sched.build_us.p50", "us"),
    ("sched.step_us.p50", "us"),
    ("sched.step_us.p99", "us"),
    ("sched.core_util_skew", "ratio"),
    ("workload.render_us.p50", "us"),
    ("devices.mic_capture_us.p50", "us"),
    ("secure_driver.capture_windows_us.p50", "us"),
    ("devices.frame_capture_us.p50", "us"),
    ("ml.mfcc_us.p50", "us"),
    ("ml.stt_us.p50", "us"),
    ("ml.classify_us.p50", "us"),
    ("ml.frame_classify_us.p50", "us"),
    ("relay.handshake_us.p50", "us"),
    ("relay.seal_ns.p50", "ns"),
    ("relay.open_ns.p50", "ns"),
    ("relay.record_rtt_us.p50", "us"),
    ("relay.record_rtt_us.p99", "us"),
    ("ingest.hello_us.p50", "us"),
    ("ingest.attest_us.p50", "us"),
    ("ingest.record_us.p50", "us"),
    ("ingest.record_us.p99", "us"),
    ("ingest.committed", "count"),
    ("ingest.redelivered", "count"),
    ("ingest.stale_epoch_rejects", "count"),
    ("ingest.attest_grants", "count"),
    ("ingest.backpressure_rejects", "count"),
    ("ingest.dark_replies", "count"),
    ("ingest.useful_ratio", "ratio"),
    ("ingest.shard_skew", "ratio"),
    ("trace.untraced_per_s", "1/s"),
    ("trace.traced_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "audio_stream",
    "camera_swarm",
    "camera_sharded",
    "ingest_wire",
];

/// Input size: `Full` is what the benchmark measures; `Tiny` is the
/// seconds-long smoke pass the package's own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            scale: Scale::Full,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad seconds {value}"))?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    }
                }
                "--scale" => {
                    args.scale = match value.as_str() {
                        "full" => Scale::Full,
                        "tiny" => Scale::Tiny,
                        _ => return Err(format!("--scale takes full or tiny, got {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}, got {:?}",
                WORKLOADS.join(", "),
                args.workload
            ));
        }
        Ok(args)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: one device run or one wire record each.
    pub attempted: u64,
    /// Operations that errored, leaked, or lost or duplicated a commit.
    pub failed: u64,
    /// Named whole-run checks; any `false` makes the run incorrect.
    pub checks: Vec<(String, bool)>,
    /// Metric values by name (units come from the catalogs above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines, printed before the JSON line.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// `peak_rss_mib` is read after set-up, the warm-up and this many measured
/// rounds: a fixed amount of work, so a run that fits more rounds into its
/// seconds does not read a higher peak.
pub const RSS_ROUNDS: usize = 2;

/// Runs one set-up and times it in seconds. A workload times the set-up
/// its run needs, then one more after every measured round (dropping the
/// result), and reports their median as `setup_s`: the repeats sample the
/// host across the whole run, as the measured rounds do, not only during
/// its first second.
pub fn time_setup<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let started = std::time::Instant::now();
    let built = build();
    (built, started.elapsed().as_secs_f64())
}

/// Formats a metric value with every digit Rust's shortest round-trip
/// formatting keeps (JSON has no NaN or infinity; those become 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(reason) => {
            eprintln!(
                "perfbench: {reason}\nusage: perfbench --workload <{}> [--seed <n>] [--seconds <s>] \
                 [--trace <0|1>] [--scale <full|tiny>]\ndefault seed {DEFAULT_SEED}; hold-out seed \
                 {HOLDOUT_SEED} (confirm claims on it, never tune on it)",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "ingest_wire" => wire::run(&args),
        kind => fleet::run(kind, &args),
    };
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };

    for line in &outcome.lines {
        println!("{line}");
    }
    for (name, ok) in &outcome.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    let correct = outcome.correct();
    let metrics = catalog
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

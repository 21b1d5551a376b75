//! The three fleet workloads.
//!
//! * `audio_stream` — tens of audio devices, each with many utterances,
//!   direct cloud: host time goes to synthesis, capture and STT; stack
//!   build and ingest are nearly idle (the "bypass" workload for build
//!   and ingest changes).
//! * `camera_swarm` — thousands of single-session cameras with two
//!   one-frame windows each, relaying through one fleet-shared ingest
//!   plane over a lossy, duplicating link with shard crash windows: stack
//!   build, attestation and redelivery dedup dominate; synthesis and MFCC
//!   are bypassed.
//! * `camera_sharded` — a few cameras on long ragged high-fps streams,
//!   each sharded over a two-core TEE pool by the scheduler crate: the
//!   only workload that runs `sched`; per-frame crossings and
//!   classification dominate, build is amortised.
//!
//! An untraced run drives the program's own fleet entry points
//! (`PipelineFleet`, `ShardedFleet`). A traced run drives the same
//! devices through `FleetExecutor` with this file's `DeviceTask`, which
//! times stack build, every `step_scenario` and `finish_scenario`, and
//! then replays the leaf layers (see `replay.rs`).

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use perisec_core::executor::{
    DeviceTask, ExecutorConfig, ExecutorStats, FleetExecutor, QueuedDevice, StepOutcome,
};
use perisec_core::fleet::{DeviceReport, FleetConfig, FleetReport, Modality, PipelineFleet};
use perisec_core::pipeline::{
    CameraPipelineConfig, PipelineConfig, ScenarioProgress, SecureCameraPipeline, SecurePipeline,
    SharedModels,
};
use perisec_core::{IngestHook, PipelineReport, Result as CoreResult, VISION_TA_NAME};
use perisec_ingest::{IngestPlane, IngestPlaneConfig, ShardFaultSpec};
use perisec_ml::Architecture;
use perisec_relay::attest::SessionIngest;
use perisec_relay::tls::{peek_record_type, CLIENT_HELLO};
use perisec_relay::{measurement_of, CloudReport, FaultSpec, ReceivedEvent, ATTEST_SEQ_BASE};
use perisec_sched::pipeline::{ShardedCameraConfig, ShardedScenarioProgress};
use perisec_sched::{ShardedFleet, ShardedVisionPipeline, TeePoolConfig};
use perisec_tz::time::SimDuration;
use perisec_workload::scenario::{CameraScenario, Scenario};

use crate::replay::{replay_audio, replay_camera};
use crate::stats::{fnv1a, mean, median, peak_rss_mib, percentile, rss_mib, summary, us_since};
use crate::{time_setup, Args, Outcome, Scale, RSS_ROUNDS};

/// Models train from a fixed seed: they are the system under test, and
/// the input seed must not change what is being measured.
const MODEL_SEED: u64 = 0xE15;
/// Speech-model training corpus (utterances) and frame-classifier
/// training set (frames) — the E15 settings.
const TRAIN_UTTERANCES: usize = 60;
const TRAIN_FRAMES: usize = 120;
/// Executor worker threads: a fixed count, never sized from the host, so
/// runs on different hosts do the same work.
const WORKERS: usize = 2;
/// Audio batch size (windows per TEE crossing).
const AUDIO_BATCH: usize = 4;
/// Camera batch sizes: single-session swarm cameras and sharded cameras.
const SWARM_BATCH: usize = 4;
const SHARDED_BATCH: usize = 8;
/// Ingest shards behind the camera swarm.
const SWARM_SHARDS: usize = 4;
/// Audio devices the traced run's leaf replay covers (about a second of
/// replay); camera replays cover every device.
const AUDIO_REPLAY_DEVICES: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Audio,
    Swarm,
    Sharded,
}

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    devices: usize,
    /// Utterances per audio device, windows per camera.
    windows: usize,
}

impl Kind {
    fn parse(name: &str) -> Kind {
        match name {
            "audio_stream" => Kind::Audio,
            "camera_swarm" => Kind::Swarm,
            "camera_sharded" => Kind::Sharded,
            other => unreachable!("not a fleet workload: {other}"),
        }
    }

    fn sizes(self, scale: Scale) -> Sizes {
        let (devices, windows) = match (self, scale) {
            (Kind::Audio, Scale::Full) => (48, 16),
            (Kind::Audio, Scale::Tiny) => (2, 2),
            (Kind::Swarm, Scale::Full) => (3000, 2),
            (Kind::Swarm, Scale::Tiny) => (16, 2),
            (Kind::Sharded, Scale::Full) => (4, 160),
            (Kind::Sharded, Scale::Tiny) => (1, 8),
        };
        Sizes { devices, windows }
    }

    /// The workload's unit of work, counted by `items_per_s`.
    fn item(self) -> &'static str {
        match self {
            Kind::Audio => "utterances",
            Kind::Swarm => "devices",
            Kind::Sharded => "frames",
        }
    }
}

/// Everything a fleet round needs, built by the timed set-up.
struct Setup {
    kind: Kind,
    models: SharedModels,
    audio: Vec<Scenario>,
    cameras: Vec<CameraScenario>,
    config: FleetConfig,
    plane: Option<IngestPlaneConfig>,
    link: Option<FaultSpec>,
}

impl Setup {
    /// Training, quantisation, scenario generation and plane
    /// configuration — everything before the first device runs.
    fn build(kind: Kind, seed: u64, sizes: Sizes) -> CoreResult<Setup> {
        let models = SharedModels::deferred(Architecture::Cnn, TRAIN_UTTERANCES, MODEL_SEED)
            .with_vision_spec(TRAIN_FRAMES, MODEL_SEED);
        let camera_pipeline = |batch_windows| CameraPipelineConfig {
            batch_windows,
            train_frames: TRAIN_FRAMES,
            corpus_seed: MODEL_SEED,
            ..CameraPipelineConfig::default()
        };
        let base = FleetConfig {
            workers: WORKERS,
            ..FleetConfig::of(0)
        };
        let setup = match kind {
            Kind::Audio => {
                models.audio()?;
                Setup {
                    kind,
                    audio: Scenario::mega_fleet(
                        sizes.devices,
                        sizes.windows,
                        0.4,
                        SimDuration::from_secs(1),
                        seed,
                    ),
                    cameras: Vec::new(),
                    config: FleetConfig {
                        devices: sizes.devices,
                        pipeline: PipelineConfig {
                            batch_windows: AUDIO_BATCH,
                            train_utterances: TRAIN_UTTERANCES,
                            corpus_seed: MODEL_SEED,
                            ..PipelineConfig::default()
                        },
                        ..base
                    },
                    plane: None,
                    link: None,
                    models,
                }
            }
            Kind::Swarm => {
                models.vision_int8()?;
                Setup {
                    kind,
                    audio: Vec::new(),
                    cameras: CameraScenario::fleet_high_fps(
                        sizes.devices,
                        sizes.windows,
                        1,
                        30,
                        0.4,
                        seed,
                    ),
                    config: FleetConfig {
                        camera_devices: sizes.devices,
                        camera_pipeline: camera_pipeline(SWARM_BATCH),
                        ..base
                    },
                    // Two jittered crash windows per shard inside every
                    // camera's ~70 ms of virtual time.
                    plane: Some(
                        IngestPlaneConfig::new(SWARM_SHARDS, sizes.devices)
                            .accepting(vec![measurement_of(VISION_TA_NAME)])
                            .with_faults(ShardFaultSpec {
                                seed,
                                crashes_per_shard: 2,
                                first_crash_ns: 20_000_000,
                                crash_period_ns: 30_000_000,
                                downtime_ns: 6_000_000,
                            }),
                    ),
                    // The E21 link: 15% loss, 20% duplication.
                    link: Some(FaultSpec {
                        drop_permille: 150,
                        duplicate_permille: 200,
                        ..FaultSpec::none(seed)
                    }),
                    models,
                }
            }
            Kind::Sharded => {
                models.vision_int8()?;
                Setup {
                    kind,
                    audio: Vec::new(),
                    cameras: (0..sizes.devices as u64)
                        .map(|camera| {
                            CameraScenario::ragged_high_fps(
                                sizes.windows,
                                4,
                                20,
                                96_000,
                                0.4,
                                seed ^ camera.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            )
                        })
                        .collect(),
                    config: FleetConfig {
                        camera_devices: sizes.devices,
                        camera_pipeline: camera_pipeline(SHARDED_BATCH),
                        tee_cores: 2,
                        ..base
                    },
                    plane: None,
                    link: None,
                    models,
                }
            }
        };
        Ok(setup)
    }

    fn devices(&self) -> usize {
        self.config.devices + self.config.camera_devices
    }

    /// A fresh plane for one round: sessions, journals and dedup state
    /// must not carry over between rounds.
    fn fresh_plane(&self) -> Option<Arc<IngestPlane>> {
        self.plane.clone().map(IngestPlane::new)
    }

    /// The fleet config of one round, routed through `plane` (and the
    /// lossy link) when given, direct otherwise.
    fn round_config(&self, plane: Option<Arc<dyn SessionIngest>>) -> FleetConfig {
        let routed = plane.is_some();
        FleetConfig {
            ingest: plane,
            faults: if routed { self.link } else { None },
            ..self.config.clone()
        }
    }

    /// One untraced round through the program's fleet entry point.
    fn run_untraced(
        &self,
        plane: Option<Arc<dyn SessionIngest>>,
    ) -> CoreResult<(FleetReport, f64)> {
        let config = self.round_config(plane);
        let started = Instant::now();
        let (report, _stats) = match self.kind {
            Kind::Sharded => ShardedFleet::with_models(config, self.models.clone())?
                .run_mixed_stats(&self.audio, &self.cameras)?,
            _ => PipelineFleet::with_models(config, self.models.clone())
                .run_mixed_stats(&self.audio, &self.cameras)?,
        };
        Ok((report, started.elapsed().as_secs_f64()))
    }

    /// One traced round: the same devices, configs and scenarios as
    /// [`Setup::run_untraced`], driven through the executor with
    /// [`TracedTask`].
    fn run_traced(
        &self,
        plane: Option<Arc<dyn SessionIngest>>,
        sink: &TraceSink,
    ) -> CoreResult<(FleetReport, ExecutorStats, f64)> {
        let config = self.round_config(plane);
        let audio: Vec<Arc<Scenario>> = self.audio.iter().cloned().map(Arc::new).collect();
        let cameras: Vec<Arc<CameraScenario>> =
            self.cameras.iter().cloned().map(Arc::new).collect();
        let mut tasks = Vec::with_capacity(self.devices());
        for device in 0..config.devices {
            let pipeline = config.pipeline.clone();
            let models = self.models.clone();
            tasks.push(traced(
                device,
                Arc::clone(&audio[device % audio.len()]),
                sink,
                move || SecurePipeline::with_models(pipeline, &models),
            ));
        }
        for camera in 0..config.camera_devices {
            let device = config.devices + camera;
            let scenario = Arc::clone(&cameras[camera % cameras.len()]);
            let models = self.models.clone();
            let mut camera_config = config.camera_pipeline.clone();
            if self.kind == Kind::Sharded {
                let mut pool = TeePoolConfig::jetson(config.tee_cores);
                pool.secure_ram_kib = camera_config.secure_ram_kib;
                let sharded = ShardedCameraConfig {
                    camera: camera_config,
                    pool,
                    ..ShardedCameraConfig::default()
                };
                tasks.push(traced(device, scenario, sink, move || {
                    ShardedVisionPipeline::with_models(sharded, &models)
                }));
            } else {
                if let Some(spec) = config.faults {
                    camera_config.faults = Some(spec.for_device(device as u64));
                }
                if let Some(plane) = &config.ingest {
                    camera_config.ingest = Some(IngestHook::new(Arc::clone(plane), device as u64));
                }
                tasks.push(traced(device, scenario, sink, move || {
                    SecureCameraPipeline::with_models(camera_config, &models)
                }));
            }
        }
        let started = Instant::now();
        let (reports, stats) =
            FleetExecutor::new(ExecutorConfig::with_workers(WORKERS)).run(tasks)?;
        Ok((
            FleetReport::new(reports),
            stats,
            started.elapsed().as_secs_f64(),
        ))
    }
}

// ----- the traced device task ---------------------------------------------

/// Host timings of one device run.
#[derive(Debug, Default, Clone)]
struct DeviceTrace {
    device: usize,
    build_us: f64,
    step_us: Vec<f64>,
    finish_us: f64,
    /// Sharded cameras: windows the steal pass moved.
    stolen_windows: u64,
    /// Sharded cameras: max over mean of per-core secure utilisation.
    core_util_skew: Option<f64>,
}

type TraceSink = Arc<Mutex<Vec<DeviceTrace>>>;

/// The begin/step/finish seam the three pipeline types share.
trait Stepped: 'static {
    type Scenario: Send + Sync + 'static;
    type Progress;
    const MODALITY: Modality;
    fn begin(&mut self) -> Self::Progress;
    fn step(
        &mut self,
        scenario: &Self::Scenario,
        progress: &mut Self::Progress,
    ) -> CoreResult<bool>;
    fn finish(
        &mut self,
        scenario: &Self::Scenario,
        progress: Self::Progress,
        trace: &mut DeviceTrace,
    ) -> PipelineReport;
    fn name(scenario: &Self::Scenario) -> String;
}

impl Stepped for SecurePipeline {
    type Scenario = Scenario;
    type Progress = ScenarioProgress;
    const MODALITY: Modality = Modality::Audio;
    fn begin(&mut self) -> ScenarioProgress {
        self.begin_scenario()
    }
    fn step(&mut self, scenario: &Scenario, progress: &mut ScenarioProgress) -> CoreResult<bool> {
        self.step_scenario(scenario, progress)
    }
    fn finish(
        &mut self,
        scenario: &Scenario,
        progress: ScenarioProgress,
        _: &mut DeviceTrace,
    ) -> PipelineReport {
        self.finish_scenario(scenario, progress)
    }
    fn name(scenario: &Scenario) -> String {
        scenario.name.clone()
    }
}

impl Stepped for SecureCameraPipeline {
    type Scenario = CameraScenario;
    type Progress = ScenarioProgress;
    const MODALITY: Modality = Modality::Camera;
    fn begin(&mut self) -> ScenarioProgress {
        self.begin_scenario()
    }
    fn step(
        &mut self,
        scenario: &CameraScenario,
        progress: &mut ScenarioProgress,
    ) -> CoreResult<bool> {
        self.step_scenario(scenario, progress)
    }
    fn finish(
        &mut self,
        scenario: &CameraScenario,
        progress: ScenarioProgress,
        _: &mut DeviceTrace,
    ) -> PipelineReport {
        self.finish_scenario(scenario, progress)
    }
    fn name(scenario: &CameraScenario) -> String {
        scenario.name.clone()
    }
}

impl Stepped for ShardedVisionPipeline {
    type Scenario = CameraScenario;
    type Progress = ShardedScenarioProgress;
    const MODALITY: Modality = Modality::Camera;
    fn begin(&mut self) -> ShardedScenarioProgress {
        self.begin_scenario()
    }
    fn step(
        &mut self,
        scenario: &CameraScenario,
        progress: &mut ShardedScenarioProgress,
    ) -> CoreResult<bool> {
        self.step_scenario(scenario, progress)
    }
    fn finish(
        &mut self,
        scenario: &CameraScenario,
        progress: ShardedScenarioProgress,
        trace: &mut DeviceTrace,
    ) -> PipelineReport {
        let run = self.finish_scenario(scenario, progress);
        trace.stolen_windows = run.stolen_windows;
        let utilisation: Vec<f64> = run.per_core.iter().map(|c| c.utilization).collect();
        let avg = mean(&utilisation);
        if avg > 0.0 {
            trace.core_util_skew = Some(utilisation.iter().copied().fold(0.0, f64::max) / avg);
        }
        run.report
    }
    fn name(scenario: &CameraScenario) -> String {
        scenario.name.clone()
    }
}

/// A device task that times its own build, steps and finish.
struct TracedTask<P: Stepped> {
    scenario: Arc<P::Scenario>,
    pipeline: P,
    progress: Option<P::Progress>,
    trace: DeviceTrace,
    sink: TraceSink,
}

impl<P: Stepped> DeviceTask for TracedTask<P> {
    fn step(&mut self) -> CoreResult<StepOutcome> {
        let mut progress = self.progress.take().expect("task stepped after completion");
        let t = Instant::now();
        let more = self.pipeline.step(&self.scenario, &mut progress)?;
        self.trace.step_us.push(us_since(t));
        if more {
            self.progress = Some(progress);
            return Ok(StepOutcome::Yielded);
        }
        let t = Instant::now();
        let report = self
            .pipeline
            .finish(&self.scenario, progress, &mut self.trace);
        self.trace.finish_us = us_since(t);
        let device = self.trace.device;
        self.sink
            .lock()
            .expect("trace sink poisoned by a panicking worker")
            .push(std::mem::take(&mut self.trace));
        Ok(StepOutcome::Complete(Box::new(DeviceReport {
            device,
            modality: P::MODALITY,
            scenario: P::name(&self.scenario),
            report,
        })))
    }
}

/// Queues one traced device: the stack builds (and begins its scenario)
/// on first schedule, timed as the device's build.
fn traced<P: Stepped>(
    device: usize,
    scenario: Arc<P::Scenario>,
    sink: &TraceSink,
    build: impl FnOnce() -> CoreResult<P> + Send + 'static,
) -> QueuedDevice {
    let sink = Arc::clone(sink);
    QueuedDevice::new(device, move || {
        let t = Instant::now();
        let mut pipeline = build()?;
        let progress = pipeline.begin();
        let trace = DeviceTrace {
            device,
            build_us: us_since(t),
            ..DeviceTrace::default()
        };
        Ok(Box::new(TracedTask {
            scenario,
            pipeline,
            progress: Some(progress),
            trace,
            sink,
        }) as Box<dyn DeviceTask>)
    })
}

// ----- ingest timing --------------------------------------------------------

/// Host timings of the plane's `handle`, by request kind.
#[derive(Debug, Default)]
struct IngestTimes {
    hello_us: Vec<f64>,
    attest_us: Vec<f64>,
    record_us: Vec<f64>,
    dark_replies: u64,
}

/// The fleet-shared plane behind a timer: every `handle` the device TAs
/// make is timed and classified by request kind.
#[derive(Debug)]
struct TimedIngest {
    plane: Arc<IngestPlane>,
    times: Mutex<IngestTimes>,
}

/// Whether a wire request is an attestation request: explicit-sequence
/// records carry their sequence number in clear after the 4-byte frame
/// length and the record type, and attestation uses sequence numbers at
/// or above `ATTEST_SEQ_BASE`.
fn is_attest(request: &[u8]) -> bool {
    request
        .get(5..13)
        .and_then(|seq| seq.try_into().ok())
        .is_some_and(|seq| u64::from_be_bytes(seq) >= ATTEST_SEQ_BASE)
}

impl SessionIngest for TimedIngest {
    fn handle(&self, session: u64, now_ns: u64, request: &[u8]) -> Vec<u8> {
        let t = Instant::now();
        let reply = self.plane.handle(session, now_ns, request);
        let us = us_since(t);
        let mut times = self.times.lock().expect("ingest timer poisoned");
        if peek_record_type(request) == Some(CLIENT_HELLO) {
            times.hello_us.push(us);
        } else if is_attest(request) {
            times.attest_us.push(us);
        } else {
            times.record_us.push(us);
        }
        if reply.is_empty() {
            times.dark_replies += 1;
        }
        reply
    }

    fn session_report(&self, session: u64) -> CloudReport {
        self.plane.session_report(session)
    }

    fn reset_session(&self, session: u64) {
        self.plane.reset_session(session);
    }
}

// ----- correctness ------------------------------------------------------------

/// The reference a round is checked against: every device's cloud events
/// from the untimed warm-up round (the direct, fault-free path for the
/// swarm), and the digest of the fleet's decision stream.
struct Reference {
    events: Vec<Vec<ReceivedEvent>>,
    digest: u64,
}

impl Reference {
    fn of(report: &FleetReport) -> Reference {
        Reference {
            events: report
                .devices()
                .iter()
                .map(|d| d.report.cloud.report.events.clone())
                .collect(),
            digest: fnv1a(report.cloud_decisions_json().as_bytes()),
        }
    }
}

/// Checks one round: every device completed, leaked nothing, sent no
/// payload bytes, and committed exactly the reference's events (a lost or
/// duplicated commit changes the event list). Returns the failed device
/// count and whether the decision digest matched.
fn verify(report: &FleetReport, reference: &Reference) -> (u64, bool) {
    let mut failed = reference.events.len().abs_diff(report.device_count()) as u64;
    for (device, expected) in report.devices().iter().zip(&reference.events) {
        let cloud = &device.report.cloud;
        let payload: usize = cloud.report.events.iter().map(|e| e.audio_bytes).sum();
        if cloud.leaked_sensitive_utterances() > 0
            || payload > 0
            || &cloud.report.events != expected
        {
            failed += 1;
        }
    }
    let digest = fnv1a(report.cloud_decisions_json().as_bytes());
    (failed, digest == reference.digest)
}

fn committed_records(report: &FleetReport) -> u64 {
    report
        .devices()
        .iter()
        .map(|d| d.report.cloud.report.committed_records)
        .sum()
}

fn frames(cameras: &[CameraScenario], devices: usize) -> usize {
    (0..devices)
        .map(|d| cameras[d % cameras.len()].total_frames())
        .sum()
}

// ----- the run ----------------------------------------------------------------

/// Work done and host time spent over a run's measured rounds.
/// Throughput is total work over total time: a round ends when its
/// slowest worker does, and summing over rounds averages that tail
/// instead of sampling it.
#[derive(Debug)]
struct Rates {
    kind: Kind,
    rounds: Vec<f64>,
    secs: f64,
    items: f64,
    devices: f64,
    windows: f64,
    records: f64,
    frames: f64,
}

impl Rates {
    fn new(kind: Kind) -> Rates {
        Rates {
            kind,
            rounds: Vec::new(),
            secs: 0.0,
            items: 0.0,
            devices: 0.0,
            windows: 0.0,
            records: 0.0,
            frames: 0.0,
        }
    }

    fn push(&mut self, report: &FleetReport, frames: usize, secs: f64) {
        let items = match self.kind {
            Kind::Audio => report.total_utterances() as f64,
            Kind::Swarm => report.device_count() as f64,
            Kind::Sharded => frames as f64,
        };
        self.rounds.push(items / secs);
        self.secs += secs;
        self.items += items;
        self.devices += report.device_count() as f64;
        self.windows += report.total_utterances() as f64;
        self.records += committed_records(report) as f64;
        self.frames += frames as f64;
    }

    fn per_s(&self, work: f64) -> f64 {
        work / self.secs.max(f64::MIN_POSITIVE)
    }
}

/// Runs one fleet workload and reports its metrics.
pub fn run(name: &str, args: &Args) -> Outcome {
    let kind = Kind::parse(name);
    let mut out = Outcome::default();
    match run_checked(kind, args, &mut out) {
        Ok(()) => {}
        Err(error) => {
            out.lines.push(format!("error: {error}"));
            out.check("run completed without error", false);
        }
    }
    out
}

fn run_checked(kind: Kind, args: &Args, out: &mut Outcome) -> CoreResult<()> {
    let sizes = kind.sizes(args.scale);
    let build = || Setup::build(kind, args.seed, sizes);
    let (setup, first) = time_setup(build);
    let setup = setup?;
    let mut setup_s = vec![first];
    let devices = setup.devices();
    let frames = frames(&setup.cameras, setup.config.camera_devices);
    out.lines.push(format!(
        "workload {} seed {} scale {:?}: {devices} devices, {} windows each, {WORKERS} workers, trace {}",
        args.workload, args.seed, args.scale, sizes.windows, args.trace as u8
    ));

    // Warm-up and reference: the direct, fault-free path (the swarm's
    // chaos rounds must reproduce its decisions exactly).
    let (warm, _) = setup.run_untraced(None)?;
    let reference = Reference::of(&warm);
    let (warm_failed, _) = verify(&warm, &reference);
    out.attempted += devices as u64;
    out.failed += warm_failed;
    out.lines
        .push(format!("cloud_decisions_fnv1a {:016x}", reference.digest));

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut untraced = Rates::new(kind);
    let mut traced_rates = Rates::new(kind);
    let mut modeled_p99_ms = Vec::new();
    let mut digests_match = true;
    let sink: TraceSink = Arc::new(Mutex::new(Vec::new()));
    let mut executor_stats = Vec::new();
    // The last traced round's plane, its timer, and the fleet's
    // redelivered-record count.
    let mut last_ingest = None;
    let rss_after_warmup = rss_mib();
    let mut round = 0usize;
    loop {
        // A traced run alternates untraced and traced rounds, so the
        // tracing overhead is measured on the same inputs and host state.
        let trace_this = args.trace && round % 2 == 1;
        let plane = setup.fresh_plane();
        let report = if trace_this {
            let timed = plane.as_ref().map(|plane| {
                Arc::new(TimedIngest {
                    plane: Arc::clone(plane),
                    times: Mutex::new(IngestTimes::default()),
                })
            });
            let routed = timed.clone().map(|t| t as Arc<dyn SessionIngest>);
            let (report, stats, secs) = setup.run_traced(routed, &sink)?;
            traced_rates.push(&report, frames, secs);
            executor_stats.push(stats);
            if let Some(timed) = timed {
                last_ingest = Some((timed, report.total_redelivered_records()));
            }
            report
        } else {
            let routed = plane.clone().map(|p| p as Arc<dyn SessionIngest>);
            let (report, secs) = setup.run_untraced(routed)?;
            untraced.push(&report, frames, secs);
            report
        };
        let (failed, digest_ok) = verify(&report, &reference);
        out.attempted += devices as u64;
        out.failed += failed;
        digests_match &= digest_ok;
        modeled_p99_ms.push(report.p99_end_to_end().as_millis_f64());
        if let Some(plane) = &plane {
            if plane.total_committed() != committed_records(&report) {
                out.failed += 1;
            }
        }
        let (again, secs) = time_setup(build);
        again?;
        setup_s.push(secs);
        round += 1;
        if round == RSS_ROUNDS {
            out.metrics.insert("peak_rss_mib", peak_rss_mib());
        }
        let traced_done = !args.trace || !traced_rates.rounds.is_empty();
        if Instant::now() >= deadline && traced_done && round >= RSS_ROUNDS {
            break;
        }
    }
    // Resident memory that device stacks leave behind after they are
    // dropped, per device built in the measured rounds.
    let retained_kib = (rss_mib() - rss_after_warmup) * 1024.0 / (round * devices) as f64;
    out.lines.push(format!(
        "resident memory retained after {} device stacks were built and dropped: {retained_kib:.1} KiB per device",
        round * devices
    ));
    out.check("cloud decisions identical in every round", digests_match);

    let setup_median = median(&setup_s);
    let item = kind.item();
    out.lines.push(format!(
        "setup_s {setup_median:.4} (set-ups: {})",
        summary(&setup_s)
    ));
    let frames_per_s = match kind {
        Kind::Audio => String::new(),
        Kind::Swarm | Kind::Sharded => {
            format!(", frames_per_s {:.1}", untraced.per_s(untraced.frames))
        }
    };
    out.lines.push(format!(
        "{} untraced rounds: items_per_s {:.1} ({item}); derived: devices_per_s {:.1}, windows_per_s {:.1}\
         {frames_per_s}, records_per_s {:.1}; modeled_p99_ms {:.3} (virtual time), ops_failed_ratio {:.6}",
        untraced.rounds.len(),
        untraced.per_s(untraced.items),
        untraced.per_s(untraced.devices),
        untraced.per_s(untraced.windows),
        untraced.per_s(untraced.records),
        median(&modeled_p99_ms),
        out.failed as f64 / out.attempted.max(1) as f64,
    ));
    out.lines.push(format!(
        "per-round {item}_per_s: {}",
        summary(&untraced.rounds)
    ));
    if !args.trace {
        out.metrics.insert("setup_s", setup_median);
        out.metrics
            .insert("items_per_s", untraced.per_s(untraced.items));
        return Ok(());
    }

    // ----- per-layer metrics from the traced rounds -----
    let traces = std::mem::take(&mut *sink.lock().expect("trace sink poisoned"));
    let build: Vec<f64> = traces.iter().map(|t| t.build_us).collect();
    let steps: Vec<f64> = traces
        .iter()
        .flat_map(|t| t.step_us.iter().copied())
        .collect();
    let finish: Vec<f64> = traces.iter().map(|t| t.finish_us).collect();
    let traced_rounds = executor_stats.len() as f64;
    let m = &mut out.metrics;
    m.insert("core.build_us.p50", percentile(&build, 0.5));
    m.insert("core.build_us.p99", percentile(&build, 0.99));
    m.insert("core.step_us.p50", percentile(&steps, 0.5));
    m.insert("core.step_us.p99", percentile(&steps, 0.99));
    m.insert("core.finish_us.p50", percentile(&finish, 0.5));
    let steps_per_round = steps.len() as f64 / traced_rounds;
    let windows_per_round = (devices * sizes.windows) as f64;
    m.insert("core.steps", steps_per_round);
    m.insert(
        "core.windows_per_step",
        windows_per_round / steps_per_round.max(1.0),
    );
    let task_us: f64 = build.iter().chain(&steps).chain(&finish).sum();
    let wall_us: f64 = executor_stats
        .iter()
        .map(|s| s.workers as f64 * s.host_millis * 1000.0)
        .sum();
    m.insert("core.executor.busy_share", task_us / wall_us.max(1.0));
    let per_round = |f: &dyn Fn(&ExecutorStats) -> f64| {
        median(&executor_stats.iter().map(f).collect::<Vec<_>>())
    };
    m.insert(
        "core.executor.steals",
        per_round(&|s| s.steals.len() as f64),
    );
    m.insert(
        "core.executor.idle_parks",
        per_round(&|s| s.idle_parks as f64),
    );
    m.insert(
        "core.executor.peak_resident",
        per_round(&|s| s.peak_resident as f64),
    );
    m.insert("core.modeled_p99_ms", median(&modeled_p99_ms));
    let untraced_rate = untraced.per_s(untraced.items);
    let traced_rate = traced_rates.per_s(traced_rates.items);
    m.insert("trace.untraced_per_s", untraced_rate);
    m.insert("trace.traced_per_s", traced_rate);
    m.insert(
        "trace.overhead_pct",
        (untraced_rate / traced_rate.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
    );

    if kind == Kind::Sharded {
        m.insert("sched.build_us.p50", percentile(&build, 0.5));
        m.insert("sched.step_us.p50", percentile(&steps, 0.5));
        m.insert("sched.step_us.p99", percentile(&steps, 0.99));
        let skew: Vec<f64> = traces.iter().filter_map(|t| t.core_util_skew).collect();
        m.insert("sched.core_util_skew", median(&skew));
        // Printed, not a metric: ShardedFleet runs with work stealing off.
        let stolen: u64 = traces.iter().map(|t| t.stolen_windows).sum();
        out.lines.push(format!(
            "sched stolen windows per traced round: {}",
            stolen as f64 / traced_rounds
        ));
    }

    m.insert("core.retained_kib_per_device", retained_kib);
    if let Some((timed, redelivered)) = &last_ingest {
        let plane = &timed.plane;
        let times = timed.times.lock().expect("ingest timer poisoned");
        let counters = plane.counters();
        let committed = plane.total_committed() as f64;
        let per_shard: Vec<f64> = plane
            .committed_per_shard()
            .iter()
            .map(|&c| c as f64)
            .collect();
        m.insert("ingest.hello_us.p50", percentile(&times.hello_us, 0.5));
        m.insert("ingest.attest_us.p50", percentile(&times.attest_us, 0.5));
        m.insert("ingest.record_us.p50", percentile(&times.record_us, 0.5));
        m.insert("ingest.record_us.p99", percentile(&times.record_us, 0.99));
        m.insert("ingest.committed", committed);
        m.insert("ingest.redelivered", counters.redelivered as f64);
        m.insert(
            "ingest.stale_epoch_rejects",
            counters.stale_epoch_rejects as f64,
        );
        m.insert("ingest.attest_grants", counters.attest_grants as f64);
        m.insert(
            "ingest.backpressure_rejects",
            counters.backpressure_rejects as f64,
        );
        m.insert("ingest.dark_replies", times.dark_replies as f64);
        m.insert(
            "ingest.useful_ratio",
            committed / (times.record_us.len() as f64).max(1.0),
        );
        m.insert(
            "ingest.shard_skew",
            per_shard.iter().copied().fold(0.0, f64::max) / mean(&per_shard).max(f64::MIN_POSITIVE),
        );
        out.lines.push(format!(
            "relay redelivered records (last traced round): {redelivered}"
        ));
    }

    // ----- leaf replay over the same inputs -----
    let replayed_devices = match kind {
        Kind::Audio => devices.min(AUDIO_REPLAY_DEVICES),
        Kind::Swarm | Kind::Sharded => devices,
    };
    // Steps of the replayed devices only, so the step mean and the
    // replayed leaves cover the same batches.
    let replayed_steps: Vec<f64> = traces
        .iter()
        .filter(|t| t.device < replayed_devices)
        .flat_map(|t| t.step_us.iter().copied())
        .collect();
    let step_mean = mean(&replayed_steps);
    let replay_started = Instant::now();
    let attributed = match kind {
        Kind::Audio => {
            let models = setup.models.audio()?;
            let scenarios: Vec<Arc<Scenario>> = setup.audio.iter().cloned().map(Arc::new).collect();
            let leaves = replay_audio(
                &models,
                &scenarios,
                replayed_devices,
                AUDIO_BATCH,
                setup.config.pipeline.period_frames,
            )
            .map_err(|reason| perisec_core::CoreError::Config { reason })?;
            m.insert("workload.render_us.p50", percentile(&leaves.render_us, 0.5));
            m.insert(
                "devices.mic_capture_us.p50",
                percentile(&leaves.mic_us, 0.5),
            );
            m.insert(
                "secure_driver.capture_windows_us.p50",
                percentile(&leaves.capture_windows_us, 0.5),
            );
            m.insert("ml.mfcc_us.p50", percentile(&leaves.mfcc_us, 0.5));
            m.insert("ml.stt_us.p50", percentile(&leaves.stt_us, 0.5));
            m.insert("ml.classify_us.p50", percentile(&leaves.classify_us, 0.5));
            audio_table(&mut out.lines, &leaves, &build, step_mean, sizes);
            leaves.attributed_step_us
        }
        Kind::Swarm | Kind::Sharded => {
            let model = setup.models.vision_int8()?;
            let scenarios: Vec<Arc<CameraScenario>> =
                setup.cameras.iter().cloned().map(Arc::new).collect();
            let batch = setup.config.camera_pipeline.batch_windows;
            let leaves = replay_camera(&model, &scenarios, replayed_devices, batch)
                .map_err(|reason| perisec_core::CoreError::Config { reason })?;
            m.insert(
                "devices.frame_capture_us.p50",
                percentile(&leaves.frame_capture_us, 0.5),
            );
            m.insert(
                "ml.frame_classify_us.p50",
                percentile(&leaves.frame_classify_us, 0.5),
            );
            if kind == Kind::Swarm {
                camera_table(&mut out.lines, &leaves, &build, step_mean);
            }
            leaves.attributed_step_us
        }
    };
    // Unattributed time is defined as the remainder, so the three
    // figures sum by construction.
    let attributed_mean = mean(&attributed);
    m.insert("core.step_us.mean", step_mean);
    m.insert("core.step_attributed_us", attributed_mean);
    m.insert("core.step_unattributed_us", step_mean - attributed_mean);
    out.lines.push(format!(
        "step accounting over {replayed_devices} replayed devices: step mean {step_mean:.1} us = replayed leaves {attributed_mean:.1} us + unattributed {:.1} us (replay took {:.2} s)",
        step_mean - attributed_mean,
        replay_started.elapsed().as_secs_f64(),
    ));
    out.lines.push(format!(
        "tracing overhead: untraced {untraced_rate:.1} {item}/s vs traced {traced_rate:.1} {item}/s ({:+.2}%)",
        (untraced_rate / traced_rate.max(f64::MIN_POSITIVE) - 1.0) * 100.0
    ));
    Ok(())
}

/// One row of the "where host time goes" table: measured figure, the
/// ROADMAP's figure, and a flag when they differ by more than 2x.
fn table_row(lines: &mut Vec<String>, layer: &str, measured_us: f64, roadmap_us: Option<f64>) {
    let (roadmap, verdict) = match roadmap_us {
        Some(r) => {
            let ratio = measured_us / r;
            let verdict = if (0.5..=2.0).contains(&ratio) {
                format!("{ratio:.2}x, agrees")
            } else {
                format!("{ratio:.2}x, DISAGREES")
            };
            (format!("{r:.0}"), verdict)
        }
        None => ("—".to_owned(), "—".to_owned()),
    };
    lines.push(format!(
        "| {layer} | {measured_us:.1} | {roadmap} | {verdict} |"
    ));
}

/// The ROADMAP table for an audio device, normalised to the ROADMAP's
/// two-utterance device: per-utterance leaves times two, per-step figures
/// times the steps a two-utterance device takes at batch 4 (one).
fn audio_table(
    lines: &mut Vec<String>,
    leaves: &crate::replay::AudioLeaves,
    build: &[f64],
    step_mean: f64,
    sizes: Sizes,
) {
    let per_step_windows = AUDIO_BATCH.min(sizes.windows) as f64;
    let capture_per_window = mean(&leaves.capture_windows_us) / per_step_windows;
    let unattributed_per_window = (step_mean - mean(&leaves.attributed_step_us)) / per_step_windows;
    lines.push("where host time goes, audio device (2 utterances, batch 4, int8), us:".to_owned());
    lines.push("| layer | measured | ROADMAP | measured / ROADMAP |".to_owned());
    lines.push("|---|---|---|---|".to_owned());
    table_row(
        lines,
        "stack build (with_models)",
        percentile(build, 0.5),
        Some(235.0),
    );
    table_row(
        lines,
        "synthesis (render_tokens)",
        2.0 * mean(&leaves.render_us),
        Some(6400.0),
    );
    table_row(
        lines,
        "secure capture (capture_windows)",
        2.0 * capture_per_window,
        None,
    );
    table_row(
        lines,
        "STT incl. MFCC",
        2.0 * mean(&leaves.stt_us),
        Some(3800.0),
    );
    table_row(
        lines,
        "classify (int8)",
        2.0 * mean(&leaves.classify_us),
        Some(46.0),
    );
    table_row(
        lines,
        "under no replayed leaf",
        2.0 * unattributed_per_window,
        Some(1800.0),
    );
    lines.push(
        "ROADMAP's 6.4 ms secure-capture stage covered synthesis and the playback push; its \
         1.8 ms 'under no finer span' covered secure capture too."
            .to_owned(),
    );
}

/// The ROADMAP table for a two-window, one-frame camera device.
fn camera_table(
    lines: &mut Vec<String>,
    leaves: &crate::replay::CameraLeaves,
    build: &[f64],
    step_mean: f64,
) {
    lines.push(
        "where host time goes, camera device (2 one-frame windows, batch 4, int8), us:".to_owned(),
    );
    lines.push("| layer | measured | ROADMAP | measured / ROADMAP |".to_owned());
    lines.push("|---|---|---|---|".to_owned());
    table_row(
        lines,
        "stack build (with_models)",
        percentile(build, 0.5),
        Some(92.0),
    );
    table_row(lines, "tee-filter step (total)", step_mean, Some(92.0));
    table_row(
        lines,
        "frame capture (capture_frame), per frame",
        mean(&leaves.frame_capture_us),
        None,
    );
    table_row(
        lines,
        "classify (int8), per call",
        mean(&leaves.frame_classify_us),
        Some(5.6),
    );
    table_row(
        lines,
        "under no replayed leaf, per step",
        step_mean - mean(&leaves.attributed_step_us),
        Some(65.0 + 15.0),
    );
}

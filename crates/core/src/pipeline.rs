//! The end-to-end pipelines: the paper's secure design and its baseline.
//!
//! Both pipelines are assembled from the staged architecture in
//! [`crate::stage`]: a capture stage, a filter stage and a relay stage
//! chained behind the [`crate::stage::PipelineStage`] trait. Scenario
//! events are driven through the stages in batches of
//! [`PipelineConfig::batch_windows`] utterances; for the secure pipeline
//! every batch crosses the TEE boundary exactly once (one SMC, one
//! world-switch round trip, one batched relay record), which is the
//! transition-amortization lever the related work identifies as the key to
//! production throughput on TrustZone-class hardware.
//!
//! The secure design is one generic [`SecureDevice`] per sensor
//! modality: a [`DeviceModality`] supplies only the driver PTA, the
//! filter TA and the scenario/capture types, so the microphone
//! ([`SecurePipeline`]) and camera ([`SecureCameraPipeline`]) devices
//! share every line of build wiring, stepping and reporting.

use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;
use perisec_devices::camera::{CameraSensor, SceneKind};
use perisec_devices::codec::AudioEncoding;
use perisec_devices::mic::Microphone;
use perisec_kernel::i2s_driver::BaselineI2sDriver;
use perisec_kernel::pcm::PcmHwParams;
use perisec_kernel::trace::FunctionTracer;
use perisec_ml::classifier::{Architecture, SensitiveClassifier, TrainConfig};
use perisec_ml::int8::{QuantFrameCnn, QuantSensitiveClassifier};
use perisec_ml::quant::QuantMode;
use perisec_ml::stt::{KeywordStt, SttConfig};
use perisec_ml::vision::{FrameCnn, VisionConfig};
use perisec_optee::{
    Supplicant, TaUuid, TeeClient, TeeCore, TeeParam, TeeParams, TeeSessionHandle,
};
use perisec_relay::cloud::MockCloudService;
use perisec_relay::netsim::{FaultSpec, NetworkFabric};
use perisec_secure_driver::camera::SecureCameraDriver;
use perisec_secure_driver::camera_pta::CameraPta;
use perisec_secure_driver::driver::SecureI2sDriver;
use perisec_secure_driver::pta::I2sPta;
use perisec_telemetry::{DeviceTelemetry, SloSpec, TelemetryConfig, Tracer};
use perisec_tz::platform::Platform;
use perisec_tz::stats::TzStatsSnapshot;
use perisec_tz::time::{SimDuration, SimInstant};
use perisec_workload::corpus::CorpusGenerator;
use perisec_workload::scenario::{CameraScenario, CameraScenarioEvent, Scenario, ScenarioEvent};
use perisec_workload::synth::SpeechSynthesizer;
use perisec_workload::vocab::Vocabulary;

use crate::batcher::BatchControl;
use crate::cloud_channel::RelayRetryConfig;
use crate::filter_ta::{cmd as filter_cmd, default_cloud_host, default_psk, FilterTa};
use crate::ingest::{CloudLedger, IngestHook};
use crate::policy::PrivacyPolicy;
use crate::report::{CloudOutcome, PipelineReport, WorkloadSummary};
use crate::source::{SharedPlayback, SharedSceneQueue};
use crate::stage::{
    CloudRelayStage, KernelCaptureStage, PassthroughFilterStage, PipelineStage, SecureCaptureStage,
    SecureFilterStage, SecureFrameCaptureStage, SecureRelayStage,
};
use crate::vision_ta::VisionTa;
use crate::{CoreError, Result};

/// Deterministic degradation injection for health-plane experiments:
/// once the device's virtual clock passes `after`, every processed
/// window costs an extra `per_window` of virtual time inside the filter
/// stage — the crossing gets slower mid-run, exactly as a thermal
/// throttle or a noisy co-tenant would make it. Pure virtual-time
/// arithmetic, so an injected fault fires the *same* health alerts at
/// the *same* virtual instants at any executor worker count (the E19
/// gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeSpec {
    /// Virtual time (from boot) at which the degradation sets in.
    pub after: SimDuration,
    /// Extra filter-stage cost per window from then on.
    pub per_window: SimDuration,
}

/// Configuration shared by both pipelines.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Classifier architecture hosted by the filter TA.
    pub architecture: Architecture,
    /// Privacy policy installed in the filter TA.
    pub policy: PrivacyPolicy,
    /// Capture period size in frames (10 ms at 16 kHz by default).
    pub period_frames: usize,
    /// Encoding applied by the driver before data leaves its buffers.
    pub encoding: AudioEncoding,
    /// Number of utterances used to train the classifier head.
    pub train_utterances: usize,
    /// Seed for the training corpus.
    pub corpus_seed: u64,
    /// Use the constrained IoT platform instead of the Jetson-class one.
    pub constrained_platform: bool,
    /// Override the secure carve-out size (KiB), if set.
    pub secure_ram_kib: Option<u64>,
    /// Utterances driven through the stages per batch. `1` reproduces the
    /// paper's per-utterance behaviour; larger batches amortize the TEE
    /// boundary: world switches per utterance drop by roughly this factor.
    pub batch_windows: usize,
    /// When set, an [`AdaptiveBatcher`](crate::batcher::AdaptiveBatcher)
    /// picks each TEE crossing's batch size from the remaining queue
    /// depth against this per-utterance latency SLO instead of the fixed
    /// `batch_windows` — the audio counterpart of the sharded vision
    /// pipeline's SLO knob.
    pub latency_slo: Option<SimDuration>,
    /// When set (and `latency_slo` is driving an adaptive batcher), a
    /// tracer-free [`PressureMonitor`](perisec_telemetry::PressureMonitor)
    /// judges the per-window share of each filter crossing against this
    /// objective over fixed virtual windows (`budget ×`
    /// [`BUDGETS_PER_WINDOW`](perisec_telemetry::PressureMonitor::BUDGETS_PER_WINDOW))
    /// and feeds its verdict to the batcher: `Degraded` halves the
    /// batcher's headroom, `Critical` falls back to single-window probes.
    /// The observability→control loop of the health plane; inert without
    /// `latency_slo`.
    pub slo_pressure: Option<SloSpec>,
    /// Deterministic mid-run degradation injection (see [`DegradeSpec`]);
    /// `None` (the default) runs the undisturbed pipeline.
    pub degrade: Option<DegradeSpec>,
    /// Numeric representation of the in-TA classifier: [`QuantMode::Int8`]
    /// (the default) keeps the quantized weights resident and runs the
    /// fused integer kernels; [`QuantMode::F32`] is the accuracy baseline
    /// E16 compares against. Architectures without an int8 form
    /// (Transformer / Hybrid) fall back to f32 transparently.
    pub quant_mode: QuantMode,
    /// Telemetry plane switchboard (off by default). When enabled, the
    /// pipeline, the TEE core and the TAs record virtual-time spans into
    /// one shared tracer; spans read the *simulated* clock, so telemetry
    /// never changes a report.
    pub telemetry: TelemetryConfig,
    /// Deterministic network chaos between the device and the cloud (see
    /// [`FaultSpec`]); `None` (the default) runs a perfect network. The
    /// fault schedule is a pure function of `(seed, device, send
    /// sequence)`, so it replays identically at every worker count.
    pub faults: Option<FaultSpec>,
    /// Retry/backoff policy of the TA-side relay (and of the baseline's
    /// normal-world relay).
    pub retry: RelayRetryConfig,
    /// When set, the pipeline routes its cloud traffic through this
    /// session of a fleet-shared sharded ingest plane instead of a
    /// pipeline-local [`MockCloudService`]: the filter TA attests its
    /// measurement before data flows, and every record is epoch-fenced
    /// against shard restarts. `None` (the default) is the direct path.
    pub ingest: Option<IngestHook>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            architecture: Architecture::Cnn,
            policy: PrivacyPolicy::block_sensitive(),
            period_frames: 160,
            encoding: AudioEncoding::PcmLe16,
            train_utterances: 160,
            corpus_seed: 0xC0FFEE,
            constrained_platform: false,
            secure_ram_kib: None,
            batch_windows: 1,
            latency_slo: None,
            slo_pressure: None,
            degrade: None,
            quant_mode: QuantMode::default(),
            telemetry: TelemetryConfig::default(),
            faults: None,
            retry: RelayRetryConfig::default(),
            ingest: None,
        }
    }
}

/// Configuration of the secure camera pipeline — the vision modality's
/// counterpart of [`PipelineConfig`].
#[derive(Debug, Clone)]
pub struct CameraPipelineConfig {
    /// Privacy policy installed in the vision TA.
    pub policy: PrivacyPolicy,
    /// Frames used to train the frame classifier.
    pub train_frames: usize,
    /// Seed for the synthetic training frames.
    pub corpus_seed: u64,
    /// Use the constrained IoT platform instead of the Jetson-class one.
    pub constrained_platform: bool,
    /// Override the secure carve-out size (KiB), if set.
    pub secure_ram_kib: Option<u64>,
    /// Scene events driven through the stages per batch — the same
    /// TEE-boundary amortization lever as the audio pipeline's.
    pub batch_windows: usize,
    /// Numeric representation of the in-TA frame classifier (see
    /// [`PipelineConfig::quant_mode`]). Int8 by default.
    pub quant_mode: QuantMode,
    /// Deterministic mid-run degradation injection (see [`DegradeSpec`]).
    pub degrade: Option<DegradeSpec>,
    /// Telemetry plane switchboard (see [`PipelineConfig::telemetry`]).
    pub telemetry: TelemetryConfig,
    /// Deterministic network chaos (see [`PipelineConfig::faults`]).
    pub faults: Option<FaultSpec>,
    /// Retry/backoff policy of the vision TA's relay.
    pub retry: RelayRetryConfig,
    /// Sharded-ingest session routing (see [`PipelineConfig::ingest`]).
    pub ingest: Option<IngestHook>,
}

impl Default for CameraPipelineConfig {
    fn default() -> Self {
        CameraPipelineConfig {
            policy: PrivacyPolicy::block_sensitive(),
            train_frames: 120,
            corpus_seed: 0xCAFE,
            constrained_platform: false,
            secure_ram_kib: None,
            batch_windows: 1,
            quant_mode: QuantMode::default(),
            degrade: None,
            telemetry: TelemetryConfig::default(),
            faults: None,
            retry: RelayRetryConfig::default(),
            ingest: None,
        }
    }
}

/// The trained audio-side models (speech-to-text, text classifier, and
/// the vocabulary/synthesizer they were trained against).
#[derive(Debug, Clone)]
pub struct AudioModels {
    /// The keyword speech-to-text model.
    pub stt: Arc<KeywordStt>,
    /// The sensitive-content classifier.
    pub classifier: Arc<SensitiveClassifier>,
    /// The classifier's int8 deployment form, quantized **once** right
    /// after training (present for the CNN architecture; Transformer /
    /// Hybrid stay on the f32 baseline).
    pub classifier_int8: Option<Arc<QuantSensitiveClassifier>>,
    /// The vocabulary both models were trained against.
    pub vocabulary: Vocabulary,
    /// The synthesizer rendering scenario utterances into waveforms.
    pub synth: SpeechSynthesizer,
}

/// One trained model set, shareable across any number of pipelines.
///
/// Training dominates pipeline setup cost; a fleet trains once and hands
/// every device pipeline an [`Arc`] of the same weights. Each modality's
/// models train lazily on first use, so audio-only fleets never pay for
/// the frame classifier and camera-only fleets never pay for the speech
/// models — while a mixed fleet holds **one** model set across both.
#[derive(Clone)]
pub struct SharedModels {
    audio_architecture: Architecture,
    audio_train_utterances: usize,
    audio_corpus_seed: u64,
    audio: Arc<Mutex<Option<AudioModels>>>,
    vision: Arc<Mutex<VisionState>>,
}

/// The shared vision half of a model set: the training spec and, once
/// trained, the weights. Spec and weights live behind one shared lock so
/// every clone of a [`SharedModels`] sees the same spec — there is no
/// per-handle divergence.
struct VisionState {
    train_frames: usize,
    corpus_seed: u64,
    model: Option<Arc<FrameCnn>>,
    /// The int8 deployment form, quantized once from `model` on first
    /// int8-mode use and shared by every camera TA afterwards.
    int8: Option<Arc<QuantFrameCnn>>,
}

impl std::fmt::Debug for SharedModels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedModels")
            .field("architecture", &self.audio_architecture)
            .field("audio_trained", &self.audio.lock().is_some())
            .field("vision_trained", &self.vision.lock().model.is_some())
            .finish()
    }
}

/// Trains the frame classifier on synthetic [`SceneKind`] frames: a
/// balanced schedule over every scene kind, labelled by the threat
/// model's ground truth.
fn train_frame_cnn(train_frames: usize, seed: u64) -> Result<FrameCnn> {
    let mut camera = CameraSensor::smart_home("training-cam", seed)
        .map_err(perisec_kernel::KernelError::from)?;
    camera.start();
    let n = train_frames.max(16);
    let mut examples = Vec::with_capacity(n);
    for i in 0..n {
        let scene = SceneKind::ALL[i % SceneKind::ALL.len()];
        let frame = camera
            .capture_frame(scene)
            .map_err(perisec_kernel::KernelError::from)?;
        examples.push((frame.pixels, scene.is_sensitive()));
    }
    let mut cnn = FrameCnn::new(VisionConfig::smart_home());
    cnn.fit(&examples).map_err(CoreError::from)?;
    Ok(cnn)
}

fn train_audio_models(
    architecture: Architecture,
    train_utterances: usize,
    corpus_seed: u64,
) -> Result<AudioModels> {
    let synth = SpeechSynthesizer::smart_home();
    let vocabulary = synth.vocabulary().clone();
    let stt = KeywordStt::train(&synth.reference_renderings(), SttConfig::default())
        .map_err(CoreError::from)?;
    let mut generator = CorpusGenerator::new(vocabulary.clone(), 0.5, corpus_seed);
    let corpus = generator.generate(train_utterances.max(16));
    // Train the classifier on what it will actually see in the TA: the
    // STT's (imperfect) transcription of the rendered waveform, not the
    // clean corpus tokens. Without this train/serve match, recognition
    // noise pushes neutral utterances across the sensitive threshold
    // and the filter over-drops. Utterances the STT loses entirely
    // fall back to their clean tokens so no label is wasted.
    let examples: Vec<(Vec<usize>, bool)> = corpus
        .iter()
        .map(|utterance| {
            let audio = synth.render_tokens(&utterance.tokens);
            let decoded = stt.transcribe_to_tokens(audio.samples());
            if decoded.is_empty() {
                (utterance.tokens.clone(), utterance.sensitive)
            } else {
                (decoded, utterance.sensitive)
            }
        })
        .collect();
    let mut classifier =
        SensitiveClassifier::new(architecture, TrainConfig::small(vocabulary.len()));
    classifier.fit(&examples).map_err(CoreError::from)?;
    // Train once, quantize once: every int8-mode TA of the fleet shares
    // this one deployment form.
    let classifier_int8 = QuantSensitiveClassifier::from_trained(&classifier).map(Arc::new);
    Ok(AudioModels {
        stt: Arc::new(stt),
        classifier: Arc::new(classifier),
        classifier_int8,
        vocabulary,
        synth,
    })
}

impl SharedModels {
    /// Creates a model set that trains **nothing** until a pipeline of the
    /// matching modality first asks for its models — camera-only fleets
    /// skip speech training, audio-only fleets skip frame training.
    pub fn deferred(architecture: Architecture, train_utterances: usize, corpus_seed: u64) -> Self {
        SharedModels {
            audio_architecture: architecture,
            audio_train_utterances: train_utterances,
            audio_corpus_seed: corpus_seed,
            audio: Arc::new(Mutex::new(None)),
            vision: Arc::new(Mutex::new(VisionState {
                train_frames: 120,
                corpus_seed: corpus_seed ^ 0xF7A3E5,
                model: None,
                int8: None,
            })),
        }
    }

    /// Overrides the frame-classifier training spec (frames and seed).
    /// The spec lives in the shared state, so **every** clone of this
    /// model set sees the change — but it must land before the vision
    /// model first trains: once the weights exist they are never
    /// retrained, and a later spec change has no effect.
    pub fn with_vision_spec(self, train_frames: usize, corpus_seed: u64) -> Self {
        {
            let mut vision = self.vision.lock();
            vision.train_frames = train_frames;
            vision.corpus_seed = corpus_seed;
        }
        self
    }

    /// Trains the in-TA audio models (keyword STT + sensitive-content
    /// classifier) on the synthetic corpus, eagerly.
    ///
    /// # Errors
    ///
    /// Propagates ML training failures.
    pub fn train(
        architecture: Architecture,
        train_utterances: usize,
        corpus_seed: u64,
    ) -> Result<Self> {
        let models = SharedModels::deferred(architecture, train_utterances, corpus_seed);
        models.audio()?;
        Ok(models)
    }

    /// The shared audio models, trained on first use with the
    /// configuration this set was created with; later calls reuse the
    /// cached weights, so every audio device of a fleet shares the same
    /// [`Arc`]s.
    ///
    /// # Errors
    ///
    /// Propagates ML training failures.
    pub fn audio(&self) -> Result<AudioModels> {
        let mut slot = self.audio.lock();
        if let Some(models) = slot.as_ref() {
            return Ok(models.clone());
        }
        let models = train_audio_models(
            self.audio_architecture,
            self.audio_train_utterances,
            self.audio_corpus_seed,
        )?;
        *slot = Some(models.clone());
        Ok(models)
    }

    /// The shared frame classifier, trained on first use with the spec
    /// this set was created with (see [`SharedModels::with_vision_spec`]);
    /// later calls reuse the cached weights, so every camera device of a
    /// fleet shares the same [`Arc`].
    ///
    /// # Errors
    ///
    /// Propagates frame-classifier training failures.
    pub fn vision(&self) -> Result<Arc<FrameCnn>> {
        let mut vision = self.vision.lock();
        if let Some(model) = &vision.model {
            return Ok(Arc::clone(model));
        }
        let model = Arc::new(train_frame_cnn(vision.train_frames, vision.corpus_seed)?);
        vision.model = Some(Arc::clone(&model));
        Ok(model)
    }

    /// The int8 deployment form of the shared frame classifier, quantized
    /// **once** on first use (training the f32 model first if needed);
    /// every int8-mode camera TA of a fleet shares the same [`Arc`].
    ///
    /// # Errors
    ///
    /// Propagates frame-classifier training failures.
    pub fn vision_int8(&self) -> Result<Arc<QuantFrameCnn>> {
        let model = self.vision()?;
        let mut vision = self.vision.lock();
        if let Some(int8) = &vision.int8 {
            return Ok(Arc::clone(int8));
        }
        let int8 = Arc::new(
            QuantFrameCnn::from_trained(&model).expect("vision() returns a trained classifier"),
        );
        vision.int8 = Some(Arc::clone(&int8));
        Ok(int8)
    }

    /// Trains the models a [`PipelineConfig`] asks for.
    ///
    /// # Errors
    ///
    /// Propagates ML training failures.
    pub fn for_config(config: &PipelineConfig) -> Result<Self> {
        SharedModels::train(
            config.architecture,
            config.train_utterances,
            config.corpus_seed,
        )
    }

    /// A deferred model set for a [`PipelineConfig`] (nothing trains
    /// until first use).
    pub fn deferred_for_config(config: &PipelineConfig) -> Self {
        SharedModels::deferred(
            config.architecture,
            config.train_utterances,
            config.corpus_seed,
        )
    }
}

/// Cursor over one scenario replay: which event the stages have consumed
/// up to, plus the stats baseline the final report diffs against. This is
/// the resumable seam the fleet executor's `DeviceTask` state machine is
/// built on — a device run is `begin`, then `step` once per TEE crossing
/// (the natural yield point), then `finish`.
#[derive(Debug)]
pub struct ScenarioProgress {
    stats_before: TzStatsSnapshot,
    next_event: usize,
}

impl ScenarioProgress {
    /// Index of the first event the next step will consume.
    pub fn next_event(&self) -> usize {
        self.next_event
    }
}

/// The accessors the one [`SecureDevice`] path and the fleets need on
/// both modalities' config and scenario types, which carry the same
/// fields under the same names.
pub(crate) mod sealed {
    use super::*;

    pub trait DeviceConfig: Clone + std::fmt::Debug + Send + 'static {
        fn build_platform(&self) -> Platform;
        fn effective_batch(&self) -> usize;
        fn degrade(&self) -> Option<DegradeSpec>;
        /// The telemetry switchboard, network chaos and ingest session.
        fn planes(&self) -> (&TelemetryConfig, Option<FaultSpec>, Option<&IngestHook>);
        fn set_policy(&mut self, policy: PrivacyPolicy);
        /// Attaches a fleet device's planes: the telemetry config always,
        /// the fault spec and ingest session when given.
        fn attach(
            &mut self,
            telemetry: TelemetryConfig,
            faults: Option<FaultSpec>,
            ingest: Option<IngestHook>,
        );
    }

    pub trait DeviceScenario: Clone + Send + Sync + 'static {
        type Event: Clone;
        fn events(&self) -> &[Self::Event];
        fn name(&self) -> &str;
        fn workload(&self) -> (WorkloadSummary, Vec<u64>);
    }

    macro_rules! same_fields {
        ($config:ty, $scenario:ty, $event:ty) => {
            impl DeviceConfig for $config {
                fn build_platform(&self) -> Platform {
                    let mut builder = Platform::builder();
                    if self.constrained_platform {
                        builder = builder
                            .spec(perisec_tz::platform::PlatformSpec::constrained_mcu())
                            .cost_model(perisec_tz::cost::CostModel::constrained_mcu())
                            .power_model(perisec_tz::power::PowerModel::constrained_mcu());
                    }
                    if let Some(kib) = self.secure_ram_kib {
                        builder = builder.secure_ram_kib(kib);
                    }
                    builder.build()
                }
                fn effective_batch(&self) -> usize {
                    self.batch_windows.max(1)
                }
                fn degrade(&self) -> Option<DegradeSpec> {
                    self.degrade
                }
                fn planes(&self) -> (&TelemetryConfig, Option<FaultSpec>, Option<&IngestHook>) {
                    (&self.telemetry, self.faults, self.ingest.as_ref())
                }
                fn set_policy(&mut self, policy: PrivacyPolicy) {
                    self.policy = policy;
                }
                fn attach(
                    &mut self,
                    telemetry: TelemetryConfig,
                    faults: Option<FaultSpec>,
                    ingest: Option<IngestHook>,
                ) {
                    self.telemetry = telemetry;
                    self.faults = faults.or(self.faults);
                    self.ingest = ingest.or(self.ingest.take());
                }
            }

            impl DeviceScenario for $scenario {
                type Event = $event;
                fn events(&self) -> &[$event] {
                    &self.events
                }
                fn name(&self) -> &str {
                    &self.name
                }
                fn workload(&self) -> (WorkloadSummary, Vec<u64>) {
                    let summary = WorkloadSummary {
                        utterances: self.len(),
                        sensitive_utterances: self.sensitive_count(),
                    };
                    (summary, self.sensitive_ids())
                }
            }
        };
    }

    same_fields!(PipelineConfig, Scenario, ScenarioEvent);
    same_fields!(CameraPipelineConfig, CameraScenario, CameraScenarioEvent);
}

use sealed::{DeviceConfig, DeviceScenario};

/// What differs between the sensor modalities of a [`SecureDevice`]:
/// the config, scenario and capture types, the driver PTA and filter TA,
/// and the report's name. Platform, network fabric, TEE boot, client
/// session, filter/relay stages and batch policy are one shared path.
pub trait DeviceModality: Sized + 'static {
    /// The device's pipeline configuration.
    type Config: DeviceConfig;
    /// The scenario a device of this modality replays.
    type Scenario: DeviceScenario;
    /// The normal-world capture stage feeding the secure driver.
    type Capture: PipelineStage<
        Input = Vec<<Self::Scenario as DeviceScenario>::Event>,
        Output = crate::stage::PreparedBatch,
    >;
    /// The fleet report's modality tag.
    const MODALITY: crate::fleet::Modality;
    /// The report's pipeline name.
    const PIPELINE: &'static str;
    /// The filter TA's name (its UUID derives from it).
    const TA_NAME: &'static str;
    /// The filter TA's `SET_POLICY` command.
    const SET_POLICY: u32;

    /// The model set a self-trained device builds from.
    fn models(config: &Self::Config) -> Result<SharedModels>;

    /// Registers the driver's PTA and the filter TA on `core`, starts the
    /// driver, and returns the capture stage feeding it plus the PTA.
    fn install(
        core: &Arc<TeeCore>,
        platform: &Platform,
        config: &Self::Config,
        models: &SharedModels,
    ) -> Result<(Self::Capture, TaUuid)>;

    /// The latency SLO and its pressure objective, if the config has them.
    fn latency_slo(config: &Self::Config) -> (Option<SimDuration>, Option<SloSpec>);

    /// This modality's fleet devices (an index range) and their config.
    fn fleet_devices(fleet: &crate::fleet::FleetConfig) -> (Range<usize>, &Self::Config);
}

/// The microphone modality: secure I2S driver, I2S PTA, in-TA speech
/// filter ([`FilterTa`]).
#[derive(Debug, Clone, Copy)]
pub struct Audio;

/// The camera modality: secure camera driver, camera PTA, in-TA frame
/// classifier ([`VisionTa`]) relaying verdicts, never pixels.
#[derive(Debug, Clone, Copy)]
pub struct Camera;

impl DeviceModality for Audio {
    type Config = PipelineConfig;
    type Scenario = Scenario;
    type Capture = SecureCaptureStage;
    const MODALITY: crate::fleet::Modality = crate::fleet::Modality::Audio;
    const PIPELINE: &'static str = "secure";
    const TA_NAME: &'static str = crate::filter_ta::FILTER_TA_NAME;
    const SET_POLICY: u32 = filter_cmd::SET_POLICY;

    fn models(config: &PipelineConfig) -> Result<SharedModels> {
        SharedModels::for_config(config)
    }

    fn install(
        core: &Arc<TeeCore>,
        platform: &Platform,
        config: &PipelineConfig,
        models: &SharedModels,
    ) -> Result<(SecureCaptureStage, TaUuid)> {
        let audio = models.audio()?;
        let playback = SharedPlayback::new();
        let mic = Microphone::speech_mic("secure-i2s-mic", playback.source())
            .map_err(perisec_kernel::KernelError::from)?;
        let secure_driver = SecureI2sDriver::new(platform.clone(), mic);
        let i2s_pta = core
            .register_pta(Box::new(I2sPta::new(secure_driver)))
            .map_err(CoreError::from)?;
        let mut filter = FilterTa::new(
            i2s_pta,
            crate::filter_ta::FilterTaModels {
                stt: Arc::clone(&audio.stt),
                classifier: Arc::clone(&audio.classifier),
                classifier_int8: match config.quant_mode {
                    QuantMode::Int8 => audio.classifier_int8.clone(),
                    QuantMode::F32 => None,
                },
            },
            config.quant_mode,
            audio.vocabulary.clone(),
            config.policy,
            default_cloud_host(),
            default_psk(),
            config.encoding,
        )
        .with_retry(config.retry);
        if config.ingest.is_some() {
            // Plane-routed relay: the TA attests its own measurement
            // before the shard will accept records.
            filter = filter.with_ingest(perisec_relay::measurement_of(Self::TA_NAME));
        }
        core.register_ta(Box::new(filter))
            .map_err(CoreError::from)?;

        // Configure and start the secure driver through its PTA.
        let encoding_code = match config.encoding {
            AudioEncoding::PcmLe16 => 0,
            AudioEncoding::MuLaw => 1,
        };
        let mut p = TeeParams::new().with(
            0,
            TeeParam::ValueInput {
                a: config.period_frames as u64,
                b: encoding_code,
            },
        );
        core.invoke_pta(i2s_pta, perisec_secure_driver::pta::cmd::CONFIGURE, &mut p)
            .map_err(CoreError::from)?;
        core.invoke_pta(
            i2s_pta,
            perisec_secure_driver::pta::cmd::START,
            &mut TeeParams::new(),
        )
        .map_err(CoreError::from)?;

        let capture = SecureCaptureStage::new(
            platform.clone(),
            playback,
            audio.synth.clone(),
            config.period_frames,
        );
        Ok((capture, i2s_pta))
    }

    fn latency_slo(config: &PipelineConfig) -> (Option<SimDuration>, Option<SloSpec>) {
        (config.latency_slo, config.slo_pressure)
    }

    fn fleet_devices(fleet: &crate::fleet::FleetConfig) -> (Range<usize>, &PipelineConfig) {
        (0..fleet.devices, &fleet.pipeline)
    }
}

impl DeviceModality for Camera {
    type Config = CameraPipelineConfig;
    type Scenario = CameraScenario;
    type Capture = SecureFrameCaptureStage;
    const MODALITY: crate::fleet::Modality = crate::fleet::Modality::Camera;
    const PIPELINE: &'static str = "secure-camera";
    const TA_NAME: &'static str = crate::vision_ta::VISION_TA_NAME;
    const SET_POLICY: u32 = crate::vision_ta::cmd::SET_POLICY;

    /// A deferred set whose frame classifier trains on this config's
    /// `train_frames` / `corpus_seed` (no speech models ever train).
    fn models(config: &CameraPipelineConfig) -> Result<SharedModels> {
        Ok(
            SharedModels::deferred(Architecture::Cnn, 16, config.corpus_seed)
                .with_vision_spec(config.train_frames, config.corpus_seed),
        )
    }

    /// The frame classifier trains in the model set on first camera use,
    /// with the **set's** vision spec ([`SharedModels::with_vision_spec`]);
    /// int8 mode reuses the set's quantized form.
    fn install(
        core: &Arc<TeeCore>,
        platform: &Platform,
        config: &CameraPipelineConfig,
        models: &SharedModels,
    ) -> Result<(SecureFrameCaptureStage, TaUuid)> {
        Camera::install_session(core, platform, config, models, false)
    }

    fn latency_slo(_: &CameraPipelineConfig) -> (Option<SimDuration>, Option<SloSpec>) {
        (None, None)
    }

    fn fleet_devices(fleet: &crate::fleet::FleetConfig) -> (Range<usize>, &CameraPipelineConfig) {
        (
            fleet.devices..fleet.devices + fleet.camera_devices,
            &fleet.camera_pipeline,
        )
    }
}

impl Camera {
    /// [`DeviceModality::install`] for a single-session camera and for
    /// every shard of a sharded one. With `shared_weights` the vision TA's
    /// model bytes are charged to the carve-out once per content key, so
    /// the co-resident sessions of a secure-core pool share one copy.
    ///
    /// # Errors
    ///
    /// Fails if the frame classifier cannot be trained or a TEE component
    /// cannot be registered.
    pub fn install_session(
        core: &Arc<TeeCore>,
        platform: &Platform,
        config: &CameraPipelineConfig,
        models: &SharedModels,
        shared_weights: bool,
    ) -> Result<(SecureFrameCaptureStage, TaUuid)> {
        let vision = models.vision()?;
        let vision_int8 = match config.quant_mode {
            QuantMode::Int8 => Some(models.vision_int8()?),
            QuantMode::F32 => None,
        };
        // The weights' content key: sessions holding the same `Arc` share
        // one allocation — of the *quantized* bytes in int8 mode.
        let (model_key, model_bytes) = match &vision_int8 {
            Some(int8) => (Arc::as_ptr(int8) as u64, int8.memory_bytes()),
            None => (Arc::as_ptr(&vision) as u64, vision.memory_bytes_f32()),
        };
        let scenes = SharedSceneQueue::new();
        let sensor = CameraSensor::smart_home("secure-camera", 0x5EC2)
            .map_err(perisec_kernel::KernelError::from)?;
        let camera_driver = SecureCameraDriver::new(platform.clone(), sensor, scenes.source());
        let camera_pta = core
            .register_pta(Box::new(CameraPta::new(camera_driver)))
            .map_err(CoreError::from)?;
        let mut vision_ta = VisionTa::new(
            camera_pta,
            vision,
            vision_int8,
            config.quant_mode,
            config.policy,
            default_cloud_host(),
            default_psk(),
        )
        .with_retry(config.retry);
        if config.ingest.is_some() {
            vision_ta = vision_ta.with_ingest(perisec_relay::measurement_of(Self::TA_NAME));
        }
        if shared_weights {
            core.register_ta_shared(Box::new(vision_ta), model_key, model_bytes)
        } else {
            core.register_ta(Box::new(vision_ta))
        }
        .map_err(CoreError::from)?;

        // Configure and start the secure camera driver through its PTA.
        for command in [
            perisec_secure_driver::camera_pta::cmd::CONFIGURE,
            perisec_secure_driver::camera_pta::cmd::START,
        ] {
            core.invoke_pta(camera_pta, command, &mut TeeParams::new())
                .map_err(CoreError::from)?;
        }
        Ok((
            SecureFrameCaptureStage::new(platform.clone(), scenes),
            camera_pta,
        ))
    }
}

/// The paper's proposed design for one sensor: secure driver in the TEE,
/// PTA bridge, in-TA ML filter, relay through the supplicant to the cloud
/// — assembled as capture → filter → relay stages. One build and run path
/// serves every [`DeviceModality`]; see [`SecurePipeline`] (microphone)
/// and [`SecureCameraPipeline`] (camera).
pub struct SecureDevice<M: DeviceModality> {
    config: M::Config,
    platform: Platform,
    client: TeeClient,
    session: TeeSessionHandle,
    cloud: Arc<MockCloudService>,
    ledger: CloudLedger,
    fabric: NetworkFabric,
    core: Arc<TeeCore>,
    pta: TaUuid,
    capture: M::Capture,
    filter: SecureFilterStage,
    relay: SecureRelayStage,
    batches: BatchControl,
    tracer: Tracer,
}

/// The secure microphone pipeline: secure I2S driver, I2S PTA, in-TA
/// speech filter.
pub type SecurePipeline = SecureDevice<Audio>;

/// The secure *camera* pipeline: secure camera driver, camera PTA, in-TA
/// frame classification, verdict-only relay — the vision modality on the
/// very same capture → filter → relay path as the audio pipeline.
pub type SecureCameraPipeline = SecureDevice<Camera>;

impl<M: DeviceModality> std::fmt::Debug for SecureDevice<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureDevice")
            .field("pipeline", &M::PIPELINE)
            .field("config", &self.config)
            .finish()
    }
}

impl<M: DeviceModality> SecureDevice<M> {
    /// Builds the full secure stack, training a fresh model set.
    ///
    /// # Errors
    ///
    /// Fails if the models cannot be trained or a TEE component cannot be
    /// registered (e.g. the secure carve-out is too small for the model).
    pub fn new(config: M::Config) -> Result<Self> {
        let models = M::models(&config)?;
        SecureDevice::with_models(config, &models)
    }

    /// Builds the full secure stack around an existing model set — the
    /// fleet path: the models are shared by reference, not retrained.
    ///
    /// # Errors
    ///
    /// Fails if the models cannot be trained or a TEE component cannot be
    /// registered (e.g. the secure carve-out is too small for the model).
    pub fn with_models(config: M::Config, models: &SharedModels) -> Result<Self> {
        let platform = config.build_platform();

        // Normal world: supplicant + network fabric + cloud endpoint. A
        // config routed through a sharded ingest plane registers the
        // plane's session endpoint under the cloud hostname instead of a
        // local mock cloud, so the TA dials the same host either way.
        let (telemetry, faults, ingest) = config.planes();
        let fabric = NetworkFabric::new().with_faults(faults);
        let cloud = MockCloudService::new(default_psk());
        let ledger = match ingest {
            Some(hook) => {
                fabric.register_service(
                    MockCloudService::HOST,
                    hook.endpoint(platform.clock().clone()),
                );
                CloudLedger::Plane(hook.clone())
            }
            None => {
                fabric.register_service(MockCloudService::HOST, cloud.clone());
                CloudLedger::Direct(Arc::clone(&cloud))
            }
        };
        let supplicant = Arc::new(Supplicant::new());
        supplicant.set_net_backend(Arc::new(fabric.clone()));

        // Secure world: TEE core, secure driver PTA, filter TA.
        let core = TeeCore::boot(platform.clone(), supplicant);
        // One tracer over the device's virtual clock, shared by the
        // pipeline stages (below) and the TEE core / TAs (via set_tracer).
        let tracer = Tracer::new(platform.clock().clone(), telemetry);
        core.set_tracer(tracer.clone());
        let (capture, pta) = M::install(&core, &platform, &config, models)?;

        // Normal world client session to the filter TA.
        let client = TeeClient::connect(Arc::clone(&core));
        let (session, _) = client
            .open_session(TaUuid::from_name(M::TA_NAME), TeeParams::new())
            .map_err(CoreError::from)?;

        let filter = SecureFilterStage::new(platform.clone(), client.clone(), session);
        let (latency_slo, slo_pressure) = M::latency_slo(&config);
        let batches = BatchControl::new(
            platform.cost(),
            config.effective_batch(),
            latency_slo,
            slo_pressure,
        );
        Ok(SecureDevice {
            config,
            platform,
            client,
            session,
            cloud,
            ledger,
            fabric,
            core,
            pta,
            capture,
            filter,
            relay: SecureRelayStage::new(),
            batches,
            tracer,
        })
    }

    /// The device's telemetry tracer — disabled (recording nothing)
    /// unless the config's telemetry switchboard enabled it.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Drains the telemetry accumulated so far — per-span histograms and
    /// counters, plus the retained span events when span capture is on.
    /// The fleet harness calls this once per completed device.
    pub fn take_telemetry(&self) -> DeviceTelemetry {
        self.tracer.take()
    }

    /// The simulated platform (for inspecting stats and energy directly).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The mock cloud (for inspecting what it received). Empty when the
    /// config routes through an ingest plane — the plane's session
    /// ledger receives the records instead, and the scenario report's
    /// cloud outcome reads from whichever of the two is live.
    pub fn cloud(&self) -> &Arc<MockCloudService> {
        &self.cloud
    }

    /// The TEE core (for footprint reports).
    pub fn tee_core(&self) -> &Arc<TeeCore> {
        &self.core
    }

    /// The UUID of the secure driver's PTA.
    pub fn pta(&self) -> TaUuid {
        self.pta
    }

    /// The configured batch size.
    pub fn batch_windows(&self) -> usize {
        self.config.effective_batch()
    }

    /// The pressure monitor's current verdict, when the config wired one
    /// ([`PipelineConfig::slo_pressure`] alongside `latency_slo`).
    pub fn pressure_state(&self) -> Option<perisec_telemetry::HealthState> {
        self.batches.pressure_state()
    }

    /// Installs a new privacy policy in the filter TA.
    ///
    /// # Errors
    ///
    /// Propagates TEE invocation failures.
    pub fn set_policy(&mut self, policy: PrivacyPolicy) -> Result<()> {
        self.client
            .invoke(&self.session, M::SET_POLICY, policy.to_params())
            .map_err(CoreError::from)?;
        self.config.set_policy(policy);
        Ok(())
    }

    /// Starts a resumable scenario replay (see
    /// [`SecureDevice::step_scenario`]): resets the cloud ledger and
    /// snapshots the TEE counters the final report diffs against.
    pub fn begin_scenario(&mut self) -> ScenarioProgress {
        self.ledger.reset();
        ScenarioProgress {
            stats_before: self.platform.stats().snapshot(),
            next_event: 0,
        }
    }

    /// Drives **one** batch — one TEE crossing — of the scenario through
    /// the capture → filter → relay stages and advances the cursor; the
    /// batch size is the fixed `batch_windows` unless the config carries a
    /// latency SLO, in which case the adaptive batcher picks it from the
    /// remaining queue depth. Returns whether events remain. This is the
    /// fleet executor's yield point: a `DeviceTask` calls it once per
    /// executor step, so thousands of devices interleave at TEE-crossing
    /// granularity on a bounded worker pool.
    ///
    /// # Errors
    ///
    /// Propagates TEE and relay failures.
    pub fn step_scenario(
        &mut self,
        scenario: &M::Scenario,
        progress: &mut ScenarioProgress,
    ) -> Result<bool> {
        let events = scenario.events();
        if progress.next_event >= events.len() {
            return Ok(false);
        }
        let batch = self.batches.next_batch(events.len() - progress.next_event);
        let chunk = events[progress.next_event..progress.next_event + batch].to_vec();
        self.tracer.count("pipeline.windows", batch as u64);
        // Each stage runs under a span named after it; the filter stage's
        // span encloses the whole TEE crossing (smc.call, TA inference,
        // tee.rpc), so a chrome-trace dump shows the full nesting.
        let prepared = {
            let _span = self.tracer.span(self.capture.name());
            self.capture.process(chunk)?
        };
        let clock = self.platform.clock();
        let filter_start = clock.now();
        let filtered = {
            let _span = self.tracer.span(self.filter.name());
            let filtered = self.filter.process(prepared)?;
            // Injected degradation lands inside the filter span, so the
            // slowdown shows exactly where the health plane's SLO watches.
            if let Some(spec) = self.config.degrade() {
                if clock.now().duration_since(SimInstant::EPOCH) >= spec.after {
                    clock.advance(spec.per_window * batch as u64);
                }
            }
            filtered
        };
        let backlog = self
            .batches
            .observe(&filtered, batch, filter_start, clock.now());
        {
            let _span = self.tracer.span(self.relay.name());
            self.relay.process(filtered)?;
        }
        progress.next_event += batch;
        let more = progress.next_event < events.len();
        if !more && backlog {
            // The scenario ended with unacked records still buffered in
            // the TA: a blocking drain retires them.
            self.filter.drain_relay()?;
        }
        Ok(more)
    }

    /// Assembles the report of a stepped-to-completion scenario replay.
    pub fn finish_scenario(
        &mut self,
        scenario: &M::Scenario,
        progress: ScenarioProgress,
    ) -> PipelineReport {
        let latency = self.relay.take_breakdown();
        let stats_after = self.platform.stats().snapshot();
        let (workload, sensitive_ids) = scenario.workload();
        PipelineReport {
            pipeline: M::PIPELINE.to_owned(),
            workload,
            latency,
            cloud: CloudOutcome {
                report: self.ledger.report(),
                sensitive_ids,
            },
            tz: stats_after.delta_since(&progress.stats_before),
            energy: self.platform.energy_report(),
            virtual_time: self
                .platform
                .clock()
                .now()
                .duration_since(SimInstant::EPOCH),
            bytes_to_cloud: self.fabric.stats().bytes_sent,
        }
    }

    /// Replays a scenario end to end — batch by batch through the
    /// capture → filter → relay stages — and reports on it.
    ///
    /// # Errors
    ///
    /// Propagates TEE and relay failures.
    pub fn run_scenario(&mut self, scenario: &M::Scenario) -> Result<PipelineReport> {
        let mut progress = self.begin_scenario();
        while self.step_scenario(scenario, &mut progress)? {}
        Ok(self.finish_scenario(scenario, progress))
    }
}

/// The paper's baseline: the driver stays in the untrusted kernel and the
/// unfiltered capture is shipped to the cloud by a normal-world
/// application — the same three-stage shape, with a passthrough filter.
pub struct BaselinePipeline {
    config: PipelineConfig,
    platform: Platform,
    cloud: Arc<MockCloudService>,
    fabric: NetworkFabric,
    capture: KernelCaptureStage,
    filter: PassthroughFilterStage,
    relay: CloudRelayStage,
}

impl std::fmt::Debug for BaselinePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselinePipeline")
            .field("batch_windows", &self.config.batch_windows)
            .finish()
    }
}

impl BaselinePipeline {
    /// Builds the baseline stack: kernel driver, network fabric, cloud.
    ///
    /// # Errors
    ///
    /// Propagates kernel-substrate failures.
    pub fn new(config: PipelineConfig) -> Result<Self> {
        let platform = config.build_platform();
        let fabric = NetworkFabric::new().with_faults(config.faults);
        let cloud = MockCloudService::new(default_psk());
        fabric.register_service(MockCloudService::HOST, cloud.clone());

        let playback = SharedPlayback::new();
        let mic = Microphone::speech_mic("kernel-i2s-mic", playback.source())
            .map_err(perisec_kernel::KernelError::from)?;
        let tracer = FunctionTracer::new();
        let mut driver = BaselineI2sDriver::new(platform.clone(), mic, tracer);
        driver.probe()?;
        driver.configure(PcmHwParams {
            period_frames: config.period_frames,
            ..PcmHwParams::voice_default()
        })?;
        driver.start()?;

        let capture = KernelCaptureStage::new(
            platform.clone(),
            playback,
            SpeechSynthesizer::smart_home(),
            driver,
            config.period_frames,
        );
        let relay = CloudRelayStage::new(
            platform.clone(),
            fabric.clone(),
            MockCloudService::HOST,
            default_psk(),
            config.encoding,
        )
        .with_retry(config.retry);
        Ok(BaselinePipeline {
            config,
            platform,
            cloud,
            fabric,
            capture,
            filter: PassthroughFilterStage,
            relay,
        })
    }

    /// The simulated platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The mock cloud.
    pub fn cloud(&self) -> &Arc<MockCloudService> {
        &self.cloud
    }

    /// Replays a scenario: every utterance is captured by the in-kernel
    /// driver and forwarded to the cloud without any filtering.
    ///
    /// # Errors
    ///
    /// Propagates kernel and relay failures.
    pub fn run_scenario(&mut self, scenario: &Scenario) -> Result<PipelineReport> {
        self.cloud.reset();
        let stats_before = self.platform.stats().snapshot();
        let batch = self.config.effective_batch();
        for chunk in scenario.events.chunks(batch) {
            let captured = self.capture.process(chunk.to_vec())?;
            let passed = self.filter.process(captured)?;
            self.relay.process(passed)?;
        }
        let latency = self.relay.take_breakdown();
        let stats_after = self.platform.stats().snapshot();
        Ok(PipelineReport {
            pipeline: "baseline".to_owned(),
            workload: WorkloadSummary {
                utterances: scenario.len(),
                sensitive_utterances: scenario.sensitive_count(),
            },
            latency,
            cloud: CloudOutcome {
                report: self.cloud.report(),
                sensitive_ids: scenario.sensitive_ids(),
            },
            tz: stats_after.delta_since(&stats_before),
            energy: self.platform.energy_report(),
            virtual_time: self
                .platform
                .clock()
                .now()
                .duration_since(SimInstant::EPOCH),
            bytes_to_cloud: self.fabric.stats().bytes_sent,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FilterMode;
    use perisec_tz::time::SimDuration;

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            train_utterances: 60,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn secure_pipeline_blocks_most_sensitive_utterances() {
        let mut pipeline = SecurePipeline::new(small_config()).unwrap();
        let scenario = Scenario::mixed(12, 0.5, SimDuration::from_secs(5), 77);
        let report = pipeline.run_scenario(&scenario).unwrap();

        assert_eq!(report.workload.utterances, 12);
        assert!(report.workload.sensitive_utterances > 0);
        // The filter must stop the majority of sensitive content.
        assert!(
            report.cloud.leakage_rate() < 0.5,
            "leakage rate {:.2}",
            report.cloud.leakage_rate()
        );
        // Non-sensitive content still flows: at least one utterance reached
        // the cloud, all of it encrypted.
        assert!(report.cloud.received_utterances() >= 1);
        assert!(report.cloud.report.events.iter().all(|e| e.encrypted));
        // TEE mechanics were exercised.
        assert!(report.tz.smc_calls >= 12);
        assert!(report.tz.world_switches >= 24);
        assert!(report.tz.supplicant_rpcs > 0);
        assert!(report.latency.ml > SimDuration::ZERO);
        assert!(report.energy.total_mj > 0.0);
    }

    #[test]
    fn baseline_pipeline_leaks_everything() {
        let mut pipeline = BaselinePipeline::new(small_config()).unwrap();
        let scenario = Scenario::mixed(8, 0.5, SimDuration::from_secs(5), 78);
        let report = pipeline.run_scenario(&scenario).unwrap();
        assert_eq!(report.cloud.received_utterances(), 8);
        assert!((report.cloud.leakage_rate() - 1.0).abs() < 1e-9);
        // The baseline never enters the secure world.
        assert_eq!(report.tz.world_switches, 0);
        assert_eq!(report.tz.smc_calls, 0);
        assert!(report.latency.ml.is_zero());
    }

    #[test]
    fn secure_pipeline_is_slower_per_utterance_than_baseline() {
        let scenario = Scenario::mixed(6, 0.5, SimDuration::from_secs(5), 79);
        let mut secure = SecurePipeline::new(small_config()).unwrap();
        let mut baseline = BaselinePipeline::new(small_config()).unwrap();
        let secure_report = secure.run_scenario(&scenario).unwrap();
        let baseline_report = baseline.run_scenario(&scenario).unwrap();
        assert!(
            secure_report.latency.mean_end_to_end() > baseline_report.latency.mean_end_to_end(),
            "secure {} vs baseline {}",
            secure_report.latency.mean_end_to_end(),
            baseline_report.latency.mean_end_to_end()
        );
    }

    #[test]
    fn allow_all_policy_forwards_sensitive_content() {
        let mut pipeline = SecurePipeline::new(PipelineConfig {
            policy: PrivacyPolicy {
                mode: FilterMode::AllowAll,
                threshold: 0.5,
                lexical_guard: false,
            },
            train_utterances: 60,
            ..PipelineConfig::default()
        })
        .unwrap();
        let scenario = Scenario::mixed(8, 1.0, SimDuration::from_secs(5), 80);
        let report = pipeline.run_scenario(&scenario).unwrap();
        assert!(report.cloud.leakage_rate() > 0.5);
        // Switching the policy at runtime changes behaviour.
        pipeline
            .set_policy(PrivacyPolicy::block_sensitive())
            .unwrap();
        let report2 = pipeline.run_scenario(&scenario).unwrap();
        assert!(report2.cloud.leakage_rate() < report.cloud.leakage_rate());
    }

    #[test]
    fn process_window_command_still_serves_single_windows() {
        // The per-window TA command is no longer on the pipelines' path
        // (they batch), but its parameter contract is public API; drive it
        // directly through a client session. The playback queue is empty,
        // so the window is silence: empty transcript, probability zero,
        // Forward decision, nothing relayed.
        let pipeline = SecurePipeline::new(small_config()).unwrap();
        let client = TeeClient::connect(Arc::clone(pipeline.tee_core()));
        let (session, _) = client
            .open_session(
                TaUuid::from_name(crate::filter_ta::FILTER_TA_NAME),
                TeeParams::new(),
            )
            .unwrap();
        let params = TeeParams::new().with(0, TeeParam::ValueInput { a: 42, b: 2 });
        let out = client
            .invoke(&session, filter_cmd::PROCESS_WINDOW, params)
            .unwrap();
        let (wire_ns, _cpu_ns) = out.get(1).as_values().unwrap();
        assert_eq!(wire_ns, 2 * 10_000_000, "two 10 ms periods on the wire");
        let (ml_ns, _relay_ns) = out.get(2).as_values().unwrap();
        assert!(ml_ns > 0);
        let (decision_code, probability_milli) = out.get(3).as_values().unwrap();
        assert_eq!(
            crate::policy::FilterDecision::from_code(decision_code),
            Some(crate::policy::FilterDecision::Forward)
        );
        assert_eq!(probability_milli, 0);
        assert!(pipeline.cloud().report().events.is_empty());
        // Zero periods are still rejected at the command boundary.
        let bad = TeeParams::new().with(0, TeeParam::ValueInput { a: 1, b: 0 });
        assert!(client
            .invoke(&session, filter_cmd::PROCESS_WINDOW, bad)
            .is_err());
    }

    #[test]
    fn batched_baseline_latency_excludes_scenario_spacing() {
        // Events are 5 s apart; with batching the capture stage advances
        // the clock between events of one chunk, which must not leak into
        // the reported per-utterance processing latency.
        let scenario = Scenario::mixed(6, 0.5, SimDuration::from_secs(5), 83);
        let mut batched = BaselinePipeline::new(PipelineConfig {
            train_utterances: 60,
            batch_windows: 3,
            ..PipelineConfig::default()
        })
        .unwrap();
        let report = batched.run_scenario(&scenario).unwrap();
        for (i, latency) in report.latency.per_utterance().iter().enumerate() {
            assert!(
                *latency < SimDuration::from_secs(1),
                "utterance {i} latency {latency} absorbed scenario spacing"
            );
        }
    }

    #[test]
    fn tiny_secure_ram_rejects_the_model() {
        let result = SecurePipeline::new(PipelineConfig {
            secure_ram_kib: Some(96),
            train_utterances: 30,
            ..PipelineConfig::default()
        });
        assert!(result.is_err());
    }

    #[test]
    fn shared_models_build_many_pipelines_without_retraining() {
        let config = small_config();
        let models = SharedModels::for_config(&config).unwrap();
        let scenario = Scenario::mixed(4, 0.5, SimDuration::from_secs(2), 81);
        let mut first = SecurePipeline::with_models(config.clone(), &models).unwrap();
        let mut second = SecurePipeline::with_models(config, &models).unwrap();
        let a = first.run_scenario(&scenario).unwrap();
        let b = second.run_scenario(&scenario).unwrap();
        // Same models, same scenario: identical privacy outcomes.
        assert_eq!(
            a.cloud.report.received_dialog_ids(),
            b.cloud.report.received_dialog_ids()
        );
        // The weights really are shared, not copied: the cached copy in
        // the model set plus one clone per live pipeline's filter TA.
        let audio = models.audio().unwrap();
        assert!(Arc::strong_count(&audio.classifier) >= 3);
    }

    #[test]
    fn camera_pipeline_relays_verdicts_never_pixels() {
        use perisec_workload::scenario::CameraScenario;
        let mut pipeline = SecureCameraPipeline::new(CameraPipelineConfig::default()).unwrap();
        let scenario = CameraScenario::mixed_scenes(12, 0.5, SimDuration::from_secs(4), 0xCA11);
        assert!(scenario.sensitive_count() > 0);
        let report = pipeline.run_scenario(&scenario).unwrap();

        assert_eq!(report.workload.utterances, 12);
        // No sensitive scene leaks, while non-sensitive verdicts flow.
        assert_eq!(report.cloud.leaked_sensitive_utterances(), 0);
        assert!(
            report.cloud.received_utterances()
                >= (scenario.len() - scenario.sensitive_count()) * 9 / 10
        );
        // Nothing that reached the cloud carries payload bytes: verdict
        // records only, all encrypted.
        for event in &report.cloud.report.events {
            assert_eq!(event.audio_bytes, 0);
            assert!(event.encrypted);
            assert!(event
                .text
                .as_deref()
                .unwrap_or("")
                .contains("frame-verdict"));
        }
        // TEE mechanics were exercised.
        assert!(report.tz.smc_calls >= 12);
        assert!(report.tz.secure_irqs >= 24, "two frames per scene event");
        assert!(report.latency.ml > SimDuration::ZERO);
    }

    #[test]
    fn camera_pipeline_batching_amortizes_the_boundary() {
        use perisec_workload::scenario::CameraScenario;
        // Deferred: this test runs only camera pipelines, so no speech
        // models need to train.
        let models = SharedModels::deferred_for_config(&small_config());
        let scenario = CameraScenario::mixed_scenes(8, 0.5, SimDuration::from_secs(2), 0xCA12);
        let mut unbatched =
            SecureCameraPipeline::with_models(CameraPipelineConfig::default(), &models).unwrap();
        let mut batched = SecureCameraPipeline::with_models(
            CameraPipelineConfig {
                batch_windows: 4,
                ..CameraPipelineConfig::default()
            },
            &models,
        )
        .unwrap();
        let a = unbatched.run_scenario(&scenario).unwrap();
        let b = batched.run_scenario(&scenario).unwrap();
        assert_eq!(
            a.cloud.report.received_dialog_ids(),
            b.cloud.report.received_dialog_ids()
        );
        assert_eq!(b.tz.smc_calls, 2);
        assert!(b.tz.world_switches < a.tz.world_switches);
    }

    #[test]
    fn camera_allow_all_policy_forwards_sensitive_verdicts() {
        use perisec_workload::scenario::CameraScenario;
        let mut pipeline = SecureCameraPipeline::new(CameraPipelineConfig {
            policy: PrivacyPolicy::allow_all(),
            ..CameraPipelineConfig::default()
        })
        .unwrap();
        let scenario = CameraScenario::mixed_scenes(6, 1.0, SimDuration::from_secs(2), 0xCA13);
        let report = pipeline.run_scenario(&scenario).unwrap();
        assert!(report.cloud.leakage_rate() > 0.5);
        // Even leaked verdicts carry no pixels — the leak is metadata only.
        assert!(report
            .cloud
            .report
            .events
            .iter()
            .all(|e| e.audio_bytes == 0));
        // Switching to blocking at runtime stops the verdict flow.
        pipeline
            .set_policy(PrivacyPolicy::block_sensitive())
            .unwrap();
        let report2 = pipeline.run_scenario(&scenario).unwrap();
        assert_eq!(report2.cloud.leaked_sensitive_utterances(), 0);
    }

    #[test]
    fn audio_latency_slo_drives_adaptive_batching() {
        let models = SharedModels::for_config(&small_config()).unwrap();
        let scenario = Scenario::mixed(12, 0.5, SimDuration::from_secs(1), 84);
        let mut fixed = SecurePipeline::with_models(small_config(), &models).unwrap();
        let mut adaptive = SecurePipeline::with_models(
            PipelineConfig {
                // A generous SLO: after the batch-of-one probe the
                // batcher grows the crossings well past one window.
                latency_slo: Some(SimDuration::from_secs(1)),
                ..small_config()
            },
            &models,
        )
        .unwrap();
        let a = fixed.run_scenario(&scenario).unwrap();
        let b = adaptive.run_scenario(&scenario).unwrap();
        // Same models, same scenario: identical cloud outcomes — the SLO
        // knob only changes how the work is chunked across crossings.
        assert_eq!(
            a.cloud.report.received_dialog_ids(),
            b.cloud.report.received_dialog_ids()
        );
        // The adaptive run amortized the boundary: strictly fewer SMCs
        // than one per utterance (batch 1 fixed pays one per utterance).
        assert_eq!(a.tz.smc_calls, 12);
        assert!(
            b.tz.smc_calls < a.tz.smc_calls,
            "adaptive run used {} SMCs vs {} fixed",
            b.tz.smc_calls,
            a.tz.smc_calls
        );
        // A tight SLO keeps batches at one — the probe behaviour.
        let mut tight = SecurePipeline::with_models(
            PipelineConfig {
                latency_slo: Some(SimDuration::from_nanos(1)),
                ..small_config()
            },
            &models,
        )
        .unwrap();
        let c = tight.run_scenario(&scenario).unwrap();
        assert_eq!(c.tz.smc_calls, 12);
        assert_eq!(
            c.cloud.report.received_dialog_ids(),
            a.cloud.report.received_dialog_ids()
        );
    }

    #[test]
    fn slo_pressure_shrinks_batches_without_changing_outcomes() {
        let models = SharedModels::for_config(&small_config()).unwrap();
        let scenario = Scenario::mixed(12, 0.5, SimDuration::from_secs(1), 85);
        let base = PipelineConfig {
            latency_slo: Some(SimDuration::from_secs(1)),
            ..small_config()
        };
        let mut unpressured = SecurePipeline::with_models(base.clone(), &models).unwrap();
        // An unattainable pressure objective: every crossing breaches, so
        // the monitor demotes toward Critical and the batcher falls back
        // to single-window probes.
        let mut pressured = SecurePipeline::with_models(
            PipelineConfig {
                slo_pressure: Some(perisec_telemetry::SloSpec::p95(
                    "service",
                    SimDuration::from_nanos(1),
                )),
                ..base.clone()
            },
            &models,
        )
        .unwrap();
        assert_eq!(
            pressured.pressure_state(),
            Some(perisec_telemetry::HealthState::Healthy)
        );
        let a = unpressured.run_scenario(&scenario).unwrap();
        let b = pressured.run_scenario(&scenario).unwrap();
        // Pressure only re-chunks the work — privacy outcomes match.
        assert_eq!(
            a.cloud.report.received_dialog_ids(),
            b.cloud.report.received_dialog_ids()
        );
        // The clipped batcher never pays fewer crossings than the free
        // one (Degraded halves headroom, Critical forces probes).
        assert!(
            b.tz.smc_calls >= a.tz.smc_calls,
            "pressured run used {} SMCs vs {} unpressured",
            b.tz.smc_calls,
            a.tz.smc_calls
        );
        assert_ne!(
            pressured.pressure_state(),
            Some(perisec_telemetry::HealthState::Healthy),
            "the unattainable objective must have tripped the monitor"
        );
        // Pressure without latency_slo is inert: no batcher, no monitor.
        let inert = SecurePipeline::with_models(
            PipelineConfig {
                slo_pressure: Some(perisec_telemetry::SloSpec::p95(
                    "service",
                    SimDuration::from_nanos(1),
                )),
                ..small_config()
            },
            &models,
        )
        .unwrap();
        assert_eq!(inert.pressure_state(), None);
    }

    #[test]
    fn injected_degradation_slows_the_run_deterministically() {
        let models = SharedModels::for_config(&small_config()).unwrap();
        let scenario = Scenario::mixed(8, 0.5, SimDuration::from_secs(1), 86);
        let degrade = DegradeSpec {
            after: SimDuration::from_secs(3),
            per_window: SimDuration::from_millis(10),
        };
        let mut clean = SecurePipeline::with_models(small_config(), &models).unwrap();
        let mut degraded = SecurePipeline::with_models(
            PipelineConfig {
                degrade: Some(degrade),
                ..small_config()
            },
            &models,
        )
        .unwrap();
        let a = clean.run_scenario(&scenario).unwrap();
        let b = degraded.run_scenario(&scenario).unwrap();
        // The fault is an environmental slowdown: privacy outcomes are
        // untouched, virtual time grows.
        assert_eq!(
            a.cloud.report.received_dialog_ids(),
            b.cloud.report.received_dialog_ids()
        );
        assert!(
            b.virtual_time > a.virtual_time,
            "degraded {} vs clean {}",
            b.virtual_time,
            a.virtual_time
        );
        // A far-future onset never fires: byte-identical virtual time.
        let mut dormant = SecurePipeline::with_models(
            PipelineConfig {
                degrade: Some(DegradeSpec {
                    after: SimDuration::from_secs(1_000_000),
                    per_window: SimDuration::from_millis(10),
                }),
                ..small_config()
            },
            &models,
        )
        .unwrap();
        let c = dormant.run_scenario(&scenario).unwrap();
        assert_eq!(c.virtual_time, a.virtual_time);
    }

    #[test]
    fn batched_secure_pipeline_matches_unbatched_outcomes() {
        let models = SharedModels::for_config(&small_config()).unwrap();
        let scenario = Scenario::mixed(8, 0.5, SimDuration::from_secs(2), 82);
        let mut unbatched = SecurePipeline::with_models(small_config(), &models).unwrap();
        let mut batched = SecurePipeline::with_models(
            PipelineConfig {
                batch_windows: 4,
                ..small_config()
            },
            &models,
        )
        .unwrap();
        let a = unbatched.run_scenario(&scenario).unwrap();
        let b = batched.run_scenario(&scenario).unwrap();
        assert_eq!(
            a.cloud.report.received_dialog_ids(),
            b.cloud.report.received_dialog_ids()
        );
        assert_eq!(
            a.cloud.leaked_sensitive_utterances(),
            b.cloud.leaked_sensitive_utterances()
        );
        // 8 utterances in batches of 4: two SMCs instead of eight.
        assert_eq!(b.tz.smc_calls, 2);
        assert!(b.tz.world_switches < a.tz.world_switches);
    }
}

//! Layer replay: the traced run re-drives the leaf calls of a device step
//! — synthesis, microphone and secure-driver capture, MFCC, STT and
//! classification for audio; frame capture and frame classification for
//! cameras — over the same generated inputs, through each crate's public
//! API, one batch ("step") at a time. The replayed leaf time of a batch is
//! what the traced `step_scenario` spent in those layers; the rest of the
//! step (TEE crossings, codecs, sealing, relay, stage glue) is the step's
//! unattributed time.

use std::sync::Arc;
use std::time::Instant;

use perisec_core::pipeline::AudioModels;
use perisec_core::SharedPlayback;
use perisec_devices::codec::AudioEncoding;
use perisec_devices::{AudioFormat, CameraSensor, Microphone};
use perisec_ml::{FeaturePlan, MfccConfig, MfccExtractor, QuantFrameCnn};
use perisec_secure_driver::SecureI2sDriver;
use perisec_tz::platform::Platform;
use perisec_workload::scenario::{CameraScenario, Scenario};

use crate::stats::us_since;

/// Leaf timings of an audio replay, in microseconds.
#[derive(Debug, Default)]
pub struct AudioLeaves {
    /// `SpeechSynthesizer::render_tokens`, per utterance.
    pub render_us: Vec<f64>,
    /// `Microphone::capture` over one window's periods, per window.
    pub mic_us: Vec<f64>,
    /// `SecureI2sDriver::capture_windows`, per batch.
    pub capture_windows_us: Vec<f64>,
    /// `MfccExtractor::extract_into` over the whole window, per window.
    /// The STT front end computes MFCCs over speech segments only, inside
    /// its own call, so this is not added to the attributed sum.
    pub mfcc_us: Vec<f64>,
    /// `KeywordStt::transcribe_to_tokens_int8_with`, per window.
    pub stt_us: Vec<f64>,
    /// `QuantSensitiveClassifier::predict_with`, per classified window.
    pub classify_us: Vec<f64>,
    /// Render + capture_windows + STT + classify, per batch.
    pub attributed_step_us: Vec<f64>,
}

/// Leaf timings of a camera replay, in microseconds.
#[derive(Debug, Default)]
pub struct CameraLeaves {
    /// `CameraSensor::capture_frame`, per frame.
    pub frame_capture_us: Vec<f64>,
    /// `QuantFrameCnn::predict_with`, per frame.
    pub frame_classify_us: Vec<f64>,
    /// Frame capture + classification, per batch.
    pub attributed_step_us: Vec<f64>,
}

fn describe(error: impl std::fmt::Display) -> String {
    error.to_string()
}

/// Replays the audio leaves of devices `0..devices` (device `d` runs
/// `scenarios[d % len]`) in batches of `batch`.
pub fn replay_audio(
    models: &AudioModels,
    scenarios: &[Arc<Scenario>],
    devices: usize,
    batch: usize,
    period_frames: usize,
) -> Result<AudioLeaves, String> {
    let format = AudioFormat::speech_16khz_mono();
    let driver_feed = SharedPlayback::new();
    let mic_feed = SharedPlayback::new();
    let mic =
        Microphone::speech_mic("replay-driver-mic", driver_feed.source()).map_err(describe)?;
    let mut driver = SecureI2sDriver::new(Platform::builder().build(), mic);
    driver
        .configure(period_frames, AudioEncoding::PcmLe16)
        .map_err(describe)?;
    driver.start().map_err(describe)?;
    let mut mic = Microphone::speech_mic("replay-mic", mic_feed.source()).map_err(describe)?;
    mic.power_on();
    mic.start_capture().map_err(describe)?;
    let extractor = MfccExtractor::new(MfccConfig::speech_16khz());
    let int8 = models
        .classifier_int8
        .as_ref()
        .ok_or("the CNN classifier has no int8 form")?;
    let mut plan = FeaturePlan::new();
    let mut leaves = AudioLeaves::default();
    for device in 0..devices {
        let scenario = &scenarios[device % scenarios.len()];
        for chunk in scenario.events.chunks(batch.max(1)) {
            driver_feed.clear();
            mic_feed.clear();
            let mut attributed = 0.0;
            let mut periods = Vec::with_capacity(chunk.len());
            for event in chunk {
                let t = Instant::now();
                let audio =
                    std::hint::black_box(models.synth.render_tokens(&event.utterance.tokens));
                let us = us_since(t);
                leaves.render_us.push(us);
                attributed += us;
                let window = audio.frames().div_ceil(period_frames).max(1);
                driver_feed.push_padded(audio.samples(), window * period_frames);
                mic_feed.push_padded(audio.samples(), window * period_frames);
                periods.push(window);
            }
            for &window in &periods {
                let t = Instant::now();
                for _ in 0..window {
                    std::hint::black_box(mic.capture(period_frames).map_err(describe)?);
                }
                leaves.mic_us.push(us_since(t));
            }
            let t = Instant::now();
            let (captures, _) = driver.capture_windows(&periods).map_err(describe)?;
            let us = us_since(t);
            leaves.capture_windows_us.push(us);
            attributed += us;
            for capture in &captures {
                let audio = AudioEncoding::PcmLe16.decode(&capture.encoded, format);
                let t = Instant::now();
                std::hint::black_box(extractor.extract_into(audio.samples(), &mut plan));
                leaves.mfcc_us.push(us_since(t));
                let t = Instant::now();
                let tokens = models
                    .stt
                    .transcribe_to_tokens_int8_with(audio.samples(), &mut plan);
                let us = us_since(t);
                leaves.stt_us.push(us);
                attributed += us;
                if !tokens.is_empty() {
                    let t = Instant::now();
                    std::hint::black_box(int8.predict_with(&tokens, &mut plan).map_err(describe)?);
                    let us = us_since(t);
                    leaves.classify_us.push(us);
                    attributed += us;
                }
            }
            leaves.attributed_step_us.push(attributed);
        }
    }
    Ok(leaves)
}

/// Replays the camera leaves of devices `0..devices` in batches of
/// `batch`.
pub fn replay_camera(
    model: &QuantFrameCnn,
    scenarios: &[Arc<CameraScenario>],
    devices: usize,
    batch: usize,
) -> Result<CameraLeaves, String> {
    let mut sensor = CameraSensor::smart_home("replay-camera", 0x5EC0).map_err(describe)?;
    sensor.start();
    let mut plan = FeaturePlan::new();
    let mut leaves = CameraLeaves::default();
    for device in 0..devices {
        let scenario = &scenarios[device % scenarios.len()];
        for chunk in scenario.events.chunks(batch.max(1)) {
            let mut attributed = 0.0;
            for event in chunk {
                for _ in 0..event.frames.max(1) {
                    let t = Instant::now();
                    let frame = sensor.capture_frame(event.scene).map_err(describe)?;
                    let us = us_since(t);
                    leaves.frame_capture_us.push(us);
                    attributed += us;
                    let t = Instant::now();
                    std::hint::black_box(
                        model
                            .predict_with(&frame.pixels, &mut plan)
                            .map_err(describe)?,
                    );
                    let us = us_since(t);
                    leaves.frame_classify_us.push(us);
                    attributed += us;
                }
            }
            leaves.attributed_step_us.push(attributed);
        }
    }
    Ok(leaves)
}

//! Oracle for the bulk secure capture path.
//!
//! The secure driver moves audio as slices: the I2S controller takes and
//! hands out whole runs of its FIFO, the shared playback queue fills a
//! transfer with two slice copies, and each period is captured straight
//! onto the end of its window. This file keeps the per-sample path it
//! replaced — a `VecDeque` pushed and popped one word at a time, a fresh
//! `Vec` per bus transfer and per drain, one `AudioBuffer` per period
//! appended to the window — and checks that both paths produce the same
//! encoded windows, capture reports, driver and microphone statistics,
//! overrun counters and platform clock, counters and energy.

use std::collections::VecDeque;

use perisec_core::SharedPlayback;
use perisec_devices::audio::{AudioBuffer, AudioFormat};
use perisec_devices::codec::{mulaw_encode, AudioEncoding};
use perisec_devices::dma::DmaChannel;
use perisec_devices::i2s::{I2sConfig, I2sController, I2sRole};
use perisec_devices::mic::{MicStats, Microphone};
use perisec_devices::signal::{SignalSource, SineSource, WhiteNoiseSource};
use perisec_secure_driver::driver::{SecureDriverStats, WindowCapture};
use perisec_secure_driver::{SecureCaptureReport, SecureI2sDriver};
use perisec_tz::platform::Platform;
use perisec_tz::power::Component;
use perisec_tz::secure_mem::SecureBuf;
use perisec_tz::time::SimDuration;
use perisec_tz::world::World;

/// Deterministic pseudo-random words (a 64-bit LCG), so every case is
/// reproducible without a seeded RNG crate in the test.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn samples(&mut self, count: usize) -> Vec<i16> {
        (0..count).map(|_| self.next() as i16).collect()
    }
}

/// The per-sample I2S controller.
struct RefController {
    depth: usize,
    fifo: VecDeque<i16>,
    overrun_samples: u64,
    received_samples: u64,
}

impl RefController {
    fn new(depth: usize) -> Self {
        RefController {
            depth,
            fifo: VecDeque::with_capacity(depth),
            overrun_samples: 0,
            received_samples: 0,
        }
    }

    fn receive(&mut self, samples: &[i16]) -> usize {
        let mut accepted = 0;
        for &s in samples {
            if self.fifo.len() < self.depth {
                self.fifo.push_back(s);
                accepted += 1;
            } else {
                self.overrun_samples += 1;
            }
        }
        self.received_samples += accepted as u64;
        accepted
    }

    fn drain(&mut self, max: usize) -> Vec<i16> {
        let n = max.min(self.fifo.len());
        self.fifo.drain(..n).collect()
    }
}

/// The per-sample playback queue: what `SharedPlayback` and its source
/// did one word at a time.
#[derive(Default)]
struct RefPlayback {
    queue: VecDeque<i16>,
}

impl RefPlayback {
    fn push_padded(&mut self, samples: &[i16], total_samples: usize) {
        self.queue.extend(samples.iter().copied());
        for _ in samples.len()..total_samples {
            self.queue.push_back(0);
        }
    }

    fn next_samples(&mut self, count: usize) -> Vec<i16> {
        let n = count.min(self.queue.len());
        let mut out: Vec<i16> = self.queue.drain(..n).collect();
        out.resize(count, 0);
        out
    }
}

/// Where the reference microphone's words come from.
enum RefSource {
    Queue(RefPlayback),
    Signal(Box<dyn SignalSource>),
}

impl RefSource {
    fn next_samples(&mut self, count: usize) -> Vec<i16> {
        match self {
            RefSource::Queue(queue) => queue.next_samples(count),
            RefSource::Signal(source) => source.next_samples(count),
        }
    }
}

/// The per-sample microphone: one `Vec` per bus transfer and per drain.
struct RefMic {
    config: I2sConfig,
    source: RefSource,
    controller: RefController,
    stats: MicStats,
}

impl RefMic {
    fn new(config: I2sConfig, source: RefSource) -> Self {
        RefMic {
            config,
            source,
            controller: RefController::new(config.fifo_depth),
            stats: MicStats::default(),
        }
    }

    fn capture(&mut self, frames: usize) -> (AudioBuffer, SimDuration) {
        let format = self.config.format;
        let channels = format.channels as usize;
        let chunk_frames = self.config.fifo_depth / channels;
        let mut samples = Vec::with_capacity(frames * channels);
        let mut elapsed = SimDuration::ZERO;
        let mut remaining = frames;
        while remaining > 0 {
            let n = remaining.min(chunk_frames.max(1));
            let produced = self.source.next_samples(n * channels);
            self.controller.receive(&produced);
            elapsed += format.duration_of_frames(n);
            samples.extend_from_slice(&self.controller.drain(n * channels));
            remaining -= n;
        }
        self.stats.frames_captured += frames as u64;
        self.stats.chunks += 1;
        self.stats.overrun_samples = self.controller.overrun_samples;
        (AudioBuffer::new(format, samples), elapsed)
    }
}

/// The per-sample PCM encoder.
fn ref_encode(encoding: AudioEncoding, audio: &AudioBuffer) -> Vec<u8> {
    match encoding {
        AudioEncoding::PcmLe16 => {
            let mut out = Vec::new();
            for &s in audio.samples() {
                out.extend_from_slice(&s.to_le_bytes());
            }
            out
        }
        AudioEncoding::MuLaw => mulaw_encode(audio.samples()),
    }
}

/// The secure driver's capture path as it was: a per-period
/// `AudioBuffer` appended to the window, with the same per-period charges.
struct RefDriver {
    platform: Platform,
    mic: RefMic,
    dma: DmaChannel,
    period_frames: usize,
    encoding: AudioEncoding,
    io: SecureBuf,
    stats: SecureDriverStats,
}

impl RefDriver {
    /// Mirrors `SecureI2sDriver::configure` followed by `start`.
    fn started(
        platform: Platform,
        mic: RefMic,
        period_frames: usize,
        encoding: AudioEncoding,
    ) -> Self {
        let period_bytes = period_frames * mic.config.format.bytes_per_frame();
        let io = platform.secure_ram().alloc(period_bytes * 2).unwrap();
        let pages = io.len().div_ceil(4096);
        platform.charge_cpu(
            World::Secure,
            platform.cost().secure_page_alloc * pages as u64,
        );
        platform.charge_cpu(World::Secure, SimDuration::from_micros(40));
        platform.charge_cpu(World::Secure, SimDuration::from_micros(20));
        RefDriver {
            platform,
            mic,
            dma: DmaChannel::default(),
            period_frames,
            encoding,
            io,
            stats: SecureDriverStats::default(),
        }
    }

    fn capture_periods(&mut self, periods: usize) -> (Vec<u8>, SecureCaptureReport) {
        let format = self.mic.config.format;
        let mut report = SecureCaptureReport {
            periods,
            ..SecureCaptureReport::default()
        };
        let mut audio = AudioBuffer::silence(format, 0);
        let cpu_before = self.platform.clock().now();
        for _ in 0..periods {
            let (chunk, wire) = self.mic.capture(self.period_frames);
            report.wire_time += wire;
            self.platform
                .record_device_busy(Component::Microphone, wire);
            self.platform
                .record_device_busy(Component::I2sController, wire);
            let transfer = self
                .dma
                .transfer(chunk.samples(), self.io.as_mut_slice())
                .unwrap();
            self.platform
                .record_device_busy(Component::DmaEngine, transfer.bus_time);
            self.platform.stats().record_secure_irq();
            report.secure_irqs += 1;
            self.platform
                .charge_cpu(World::Secure, self.platform.cost().secure_irq_entry);
            self.platform
                .charge_cpu(World::Secure, SimDuration::from_micros(5));
            self.platform
                .charge_compute(World::Secure, (chunk.byte_len() as u64) / 2);
            audio.append(&chunk);
        }
        let encoded = ref_encode(self.encoding, &audio);
        report.encoded_bytes = encoded.len();
        report.cpu_time = self.platform.clock().elapsed_since(cpu_before);
        self.stats.frames_captured += audio.frames() as u64;
        self.stats.periods += periods as u64;
        self.stats.secure_irqs += report.secure_irqs;
        self.stats.bytes_delivered += encoded.len() as u64;
        (encoded, report)
    }

    fn capture_windows(&mut self, windows: &[usize]) -> (Vec<WindowCapture>, SecureCaptureReport) {
        let mut captures = Vec::new();
        let mut total = SecureCaptureReport::default();
        for &periods in windows {
            let (encoded, report) = self.capture_periods(periods);
            total.wire_time += report.wire_time;
            total.cpu_time += report.cpu_time;
            total.periods += report.periods;
            total.encoded_bytes += report.encoded_bytes;
            total.secure_irqs += report.secure_irqs;
            captures.push(WindowCapture { encoded, report });
        }
        (captures, total)
    }
}

/// A started driver under test plus its reference twin, on two fresh but
/// identical platforms.
struct Pair {
    driver: SecureI2sDriver,
    platform: Platform,
    reference: RefDriver,
    /// The queue feeding the driver's microphone, when the case plays
    /// audio through `SharedPlayback`; the reference keeps its own copy.
    playback: Option<SharedPlayback>,
}

impl Pair {
    fn new(
        config: I2sConfig,
        source: Box<dyn SignalSource>,
        ref_source: RefSource,
        period_frames: usize,
        encoding: AudioEncoding,
    ) -> Self {
        let platform = Platform::jetson_agx_xavier();
        let mic = Microphone::new("oracle-mic", config, source).unwrap();
        let mut driver = SecureI2sDriver::new(platform.clone(), mic);
        driver.configure(period_frames, encoding).unwrap();
        driver.start().unwrap();
        let reference = RefDriver::started(
            Platform::jetson_agx_xavier(),
            RefMic::new(config, ref_source),
            period_frames,
            encoding,
        );
        Pair {
            driver,
            platform,
            reference,
            playback: None,
        }
    }

    /// A pair whose microphones play queued audio.
    fn playing(config: I2sConfig, period_frames: usize, encoding: AudioEncoding) -> Self {
        let playback = SharedPlayback::new();
        let mut pair = Pair::new(
            config,
            playback.source(),
            RefSource::Queue(RefPlayback::default()),
            period_frames,
            encoding,
        );
        pair.playback = Some(playback);
        pair
    }

    /// A pair whose microphones hear two identical signal sources.
    fn hearing(
        config: I2sConfig,
        source: impl Fn() -> Box<dyn SignalSource>,
        period_frames: usize,
        encoding: AudioEncoding,
    ) -> Self {
        Pair::new(
            config,
            source(),
            RefSource::Signal(source()),
            period_frames,
            encoding,
        )
    }

    /// Queues `samples` padded to `total` on both sides.
    fn push_padded(&mut self, samples: &[i16], total: usize) {
        self.playback
            .as_ref()
            .expect("a playing pair")
            .push_padded(samples, total);
        match &mut self.reference.mic.source {
            RefSource::Queue(queue) => queue.push_padded(samples, total),
            RefSource::Signal(_) => unreachable!("a playing pair has a queue"),
        }
    }

    /// Captures one batch on both sides and checks everything observable.
    fn capture_and_compare(&mut self, windows: &[usize]) {
        let (captures, total) = self.driver.capture_windows(windows).unwrap();
        let (ref_captures, ref_total) = self.reference.capture_windows(windows);
        assert_eq!(captures.len(), ref_captures.len());
        for (i, (got, want)) in captures.iter().zip(&ref_captures).enumerate() {
            assert_eq!(got.encoded, want.encoded, "window {i}: encoded bytes");
            assert_eq!(got.report, want.report, "window {i}: capture report");
        }
        assert_eq!(total, ref_total, "batch report");

        assert_eq!(self.driver.stats(), self.reference.stats, "driver stats");
        // Mic stats carry the controller's overrun counter.
        assert_eq!(
            self.driver.mic_mut().stats(),
            self.reference.mic.stats,
            "mic stats"
        );
        let reference = &self.reference.platform;
        assert_eq!(
            self.platform.clock().now(),
            reference.clock().now(),
            "clock"
        );
        assert_eq!(
            self.platform.stats().snapshot(),
            reference.stats().snapshot(),
            "platform counters"
        );
        assert_eq!(
            self.platform.energy_report(),
            reference.energy_report(),
            "energy"
        );
    }
}

/// Plays batches of utterances through a pair the way the secure capture
/// stage does: each batch clears the queue, then queues each utterance
/// padded to its whole-period window.
fn play_batches(pair: &mut Pair, period_frames: usize, channels: usize, rng: &mut Lcg) {
    for batch in 0..6 {
        pair.playback.as_ref().unwrap().clear();
        if let RefSource::Queue(queue) = &mut pair.reference.mic.source {
            queue.queue.clear();
        }
        let mut windows = Vec::new();
        for _ in 0..1 + batch % 4 {
            let frames = 1 + rng.below(6 * period_frames);
            let periods = frames.div_ceil(period_frames);
            let utterance = rng.samples(frames * channels);
            pair.push_padded(&utterance, periods * period_frames * channels);
            windows.push(periods);
        }
        pair.capture_and_compare(&windows);
    }
}

#[test]
fn queued_speech_matches_the_per_sample_path() {
    let config = I2sConfig::microphone_default();
    let mut pair = Pair::playing(config, 160, AudioEncoding::PcmLe16);
    play_batches(&mut pair, 160, 1, &mut Lcg(1));
}

#[test]
fn playback_shorter_than_the_window_reads_a_silence_tail() {
    let config = I2sConfig::microphone_default();
    let mut pair = Pair::playing(config, 160, AudioEncoding::PcmLe16);
    let mut rng = Lcg(2);
    // 2.5 periods of audio, then 4-period windows: the tail and every
    // later window read silence once the queue runs dry.
    let utterance = rng.samples(400);
    pair.push_padded(&utterance, 400);
    pair.capture_and_compare(&[4, 3]);
    pair.push_padded(&rng.samples(10), 10);
    pair.capture_and_compare(&[1]);
}

#[test]
fn stereo_capture_matches_the_per_sample_path() {
    let config = I2sConfig {
        format: AudioFormat::hifi_48khz_stereo(),
        role: I2sRole::Master,
        fifo_depth: 64,
    };
    let mut pair = Pair::playing(config, 480, AudioEncoding::PcmLe16);
    play_batches(&mut pair, 480, 2, &mut Lcg(3));
    let mut pair = Pair::hearing(
        config,
        || Box::new(WhiteNoiseSource::new(7, 0.7)),
        480,
        AudioEncoding::PcmLe16,
    );
    pair.capture_and_compare(&[3, 1, 2]);
}

#[test]
fn mulaw_capture_matches_the_per_sample_path() {
    let config = I2sConfig::microphone_default();
    let mut pair = Pair::playing(config, 160, AudioEncoding::MuLaw);
    play_batches(&mut pair, 160, 1, &mut Lcg(4));
    let mut pair = Pair::hearing(
        config,
        || Box::new(SineSource::new(440.0, 16_000, 0.6)),
        160,
        AudioEncoding::MuLaw,
    );
    pair.capture_and_compare(&[2, 5]);
}

#[test]
fn overflowing_fifo_drops_the_same_words() {
    // A one-word FIFO on a stereo link: every one-frame chunk brings two
    // words, so the second of each is an overrun, at every period.
    let config = I2sConfig {
        format: AudioFormat::hifi_48khz_stereo(),
        role: I2sRole::Master,
        fifo_depth: 1,
    };
    let mut pair = Pair::playing(config, 48, AudioEncoding::PcmLe16);
    play_batches(&mut pair, 48, 2, &mut Lcg(5));
    assert!(pair.driver.mic_mut().stats().overrun_samples > 0);
    // An odd-depth FIFO with odd periods.
    let config = I2sConfig {
        fifo_depth: 37,
        ..I2sConfig::microphone_default()
    };
    let mut pair = Pair::playing(config, 101, AudioEncoding::MuLaw);
    play_batches(&mut pair, 101, 1, &mut Lcg(6));
}

#[test]
fn controller_matches_the_per_sample_fifo_across_overruns_and_wraps() {
    for depth in [1usize, 7, 64] {
        let mut config = I2sConfig::microphone_default();
        config.fifo_depth = depth;
        let mut controller = I2sController::new(config).unwrap();
        controller.enable();
        let mut reference = RefController::new(depth);
        let mut rng = Lcg(depth as u64);
        for step in 0..2_000 {
            if rng.below(2) == 0 {
                // Often more words than free slots: the excess overruns.
                let count = rng.below(2 * depth + 2);
                let words = rng.samples(count);
                assert_eq!(
                    controller.receive(&words),
                    reference.receive(&words),
                    "step {step}: accepted words"
                );
            } else {
                // Partial drains move the ring's head, so later receives
                // wrap and `as_slices` splits.
                let max = rng.below(depth + 2);
                let mut drained = vec![-1];
                let n = controller.drain_into(max, &mut drained);
                let want = reference.drain(max);
                assert_eq!(n, want.len(), "step {step}: drained count");
                assert_eq!(drained[0], -1, "drain_into appends");
                assert_eq!(&drained[1..], want.as_slice(), "step {step}: drained words");
            }
            assert_eq!(controller.fifo_level(), reference.fifo.len());
            assert_eq!(controller.overrun_samples(), reference.overrun_samples);
            assert_eq!(controller.received_samples(), reference.received_samples);
        }
        assert!(reference.overrun_samples > 0, "depth {depth}: no overrun");
    }
}

#[test]
fn shared_playback_fill_matches_the_per_sample_queue_across_wraps() {
    let playback = SharedPlayback::new();
    let mut source = playback.source();
    let mut reference = RefPlayback::default();
    let mut rng = Lcg(9);
    for step in 0..2_000 {
        match rng.below(3) {
            0 => {
                let count = rng.below(300);
                let samples = rng.samples(count);
                let total = samples.len() + rng.below(50);
                playback.push_padded(&samples, total);
                reference.push_padded(&samples, total);
            }
            1 => {
                // Partial reads leave the queue's head mid-ring, so the
                // next pushes wrap and the read after them splits.
                let mut out = vec![i16::MIN; rng.below(200)];
                source.fill(&mut out);
                assert_eq!(out, reference.next_samples(out.len()), "step {step}: fill");
            }
            _ => {
                let count = rng.below(200);
                assert_eq!(
                    source.next_samples(count),
                    reference.next_samples(count),
                    "step {step}: next_samples"
                );
            }
        }
        assert_eq!(playback.remaining(), reference.queue.len());
    }
}

#[test]
fn dma_transfer_writes_the_per_sample_bytes() {
    let mut rng = Lcg(11);
    let samples = rng.samples(333);
    let mut dst = vec![0xAA; 700];
    DmaChannel::default().transfer(&samples, &mut dst).unwrap();
    let audio = AudioBuffer::new(AudioFormat::speech_16khz_mono(), samples);
    assert_eq!(
        &dst[..666],
        ref_encode(AudioEncoding::PcmLe16, &audio).as_slice()
    );
    assert!(dst[666..].iter().all(|&b| b == 0xAA));
}

//! Signal sources that feed the microphone model.
//!
//! The microphone does not know where its analog signal comes from; a
//! [`SignalSource`] provides the next chunk of samples. The workload crate
//! implements a source that renders labelled synthetic speech; this module
//! provides the basic sources used in unit tests and microbenchmarks.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A producer of mono 16-bit PCM samples.
///
/// Implementations must be deterministic for a fixed construction (the
/// experiments rely on reproducible runs), and are expected to be infinite:
/// a source never "runs out", it keeps producing (silence if nothing else).
pub trait SignalSource: Send {
    /// Produces the next `count` samples.
    fn next_samples(&mut self, count: usize) -> Vec<i16>;

    /// Overwrites `out` with the next `out.len()` samples: the same
    /// samples [`SignalSource::next_samples`] would return, without the
    /// allocation when a source overrides it. The default delegates to
    /// `next_samples`.
    fn fill(&mut self, out: &mut [i16]) {
        out.copy_from_slice(&self.next_samples(out.len()));
    }

    /// A short human-readable description of the source.
    fn describe(&self) -> String {
        "signal source".to_owned()
    }
}

/// A source that produces digital silence.
#[derive(Debug, Clone, Copy, Default)]
pub struct SilenceSource;

impl SignalSource for SilenceSource {
    fn next_samples(&mut self, count: usize) -> Vec<i16> {
        vec![0i16; count]
    }

    fn describe(&self) -> String {
        "silence".to_owned()
    }
}

/// A pure sine tone.
#[derive(Debug, Clone)]
pub struct SineSource {
    freq_hz: f64,
    sample_rate_hz: f64,
    amplitude: f64,
    phase: f64,
}

impl SineSource {
    /// Creates a tone of `freq_hz` at `sample_rate_hz`, with `amplitude` in
    /// `[0, 1]` of full scale.
    pub fn new(freq_hz: f64, sample_rate_hz: u32, amplitude: f64) -> Self {
        SineSource {
            freq_hz,
            sample_rate_hz: sample_rate_hz as f64,
            amplitude: amplitude.clamp(0.0, 1.0),
            phase: 0.0,
        }
    }
}

impl SignalSource for SineSource {
    fn next_samples(&mut self, count: usize) -> Vec<i16> {
        let mut out = Vec::with_capacity(count);
        let step = 2.0 * std::f64::consts::PI * self.freq_hz / self.sample_rate_hz;
        for _ in 0..count {
            let v = (self.phase.sin() * self.amplitude * i16::MAX as f64) as i16;
            out.push(v);
            self.phase += step;
            if self.phase > 2.0 * std::f64::consts::PI {
                self.phase -= 2.0 * std::f64::consts::PI;
            }
        }
        out
    }

    fn describe(&self) -> String {
        format!("sine {}Hz", self.freq_hz)
    }
}

/// Uniform white noise with a fixed seed.
#[derive(Debug, Clone)]
pub struct WhiteNoiseSource {
    rng: SmallRng,
    amplitude: f64,
}

impl WhiteNoiseSource {
    /// Creates a noise source with the given seed and amplitude in `[0, 1]`.
    pub fn new(seed: u64, amplitude: f64) -> Self {
        WhiteNoiseSource {
            rng: SmallRng::seed_from_u64(seed),
            amplitude: amplitude.clamp(0.0, 1.0),
        }
    }
}

impl SignalSource for WhiteNoiseSource {
    fn next_samples(&mut self, count: usize) -> Vec<i16> {
        let scale = self.amplitude * i16::MAX as f64;
        (0..count)
            .map(|_| (self.rng.gen_range(-1.0..=1.0) * scale) as i16)
            .collect()
    }

    fn describe(&self) -> String {
        format!("white noise (amplitude {:.2})", self.amplitude)
    }
}

/// A source that plays back a fixed sample buffer and then loops silence.
///
/// The workload crate uses this to feed pre-rendered utterances into the
/// microphone.
#[derive(Debug, Clone)]
pub struct PlaybackSource {
    samples: Vec<i16>,
    position: usize,
    label: String,
}

impl PlaybackSource {
    /// Creates a playback source over `samples`.
    pub fn new(samples: Vec<i16>, label: impl Into<String>) -> Self {
        PlaybackSource {
            samples,
            position: 0,
            label: label.into(),
        }
    }

    /// Samples remaining before the source starts producing silence.
    pub fn remaining(&self) -> usize {
        self.samples.len() - self.position
    }

    /// Whether the recorded material has been fully played back.
    pub fn exhausted(&self) -> bool {
        self.position >= self.samples.len()
    }
}

impl SignalSource for PlaybackSource {
    fn next_samples(&mut self, count: usize) -> Vec<i16> {
        let available = self.remaining().min(count);
        let mut out = self.samples[self.position..self.position + available].to_vec();
        self.position += available;
        out.resize(count, 0);
        out
    }

    fn describe(&self) -> String {
        format!("playback '{}' ({} samples)", self.label, self.samples.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silence_is_all_zeros() {
        let mut s = SilenceSource;
        assert!(s.next_samples(100).iter().all(|&v| v == 0));
        assert_eq!(s.next_samples(0).len(), 0);
    }

    #[test]
    fn sine_has_expected_period() {
        // 1 kHz at 16 kHz: one period every 16 samples.
        let mut s = SineSource::new(1_000.0, 16_000, 0.9);
        let samples = s.next_samples(16_000);
        assert_eq!(samples.len(), 16_000);
        // Sign changes ~2 per period => ~2000 zero crossings in one second.
        let crossings = samples
            .windows(2)
            .filter(|w| (w[0] >= 0) != (w[1] >= 0))
            .count();
        assert!((1900..2100).contains(&crossings), "crossings = {crossings}");
        let peak = samples.iter().map(|&v| v.unsigned_abs()).max().unwrap();
        assert!(peak > (0.85 * i16::MAX as f64) as u16);
    }

    #[test]
    fn noise_is_deterministic_for_a_seed() {
        let mut a = WhiteNoiseSource::new(7, 0.5);
        let mut b = WhiteNoiseSource::new(7, 0.5);
        assert_eq!(a.next_samples(256), b.next_samples(256));
        let mut c = WhiteNoiseSource::new(8, 0.5);
        assert_ne!(a.next_samples(256), c.next_samples(256));
    }

    #[test]
    fn playback_pads_with_silence_when_exhausted() {
        let mut p = PlaybackSource::new(vec![1, 2, 3], "clip");
        assert_eq!(p.next_samples(2), vec![1, 2]);
        assert!(!p.exhausted());
        assert_eq!(p.next_samples(4), vec![3, 0, 0, 0]);
        assert!(p.exhausted());
        assert_eq!(p.next_samples(2), vec![0, 0]);
    }

    #[test]
    fn describe_mentions_the_source_kind() {
        assert!(SineSource::new(440.0, 16_000, 1.0)
            .describe()
            .contains("sine"));
        assert!(WhiteNoiseSource::new(1, 0.1).describe().contains("noise"));
        assert!(PlaybackSource::new(vec![], "x")
            .describe()
            .contains("playback"));
    }
}

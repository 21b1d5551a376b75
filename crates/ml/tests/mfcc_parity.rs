//! Real-input MFCC front end against the complex-FFT oracle.
//!
//! The extractor packs each real frame into a half-length complex FFT and
//! recovers the power bins with a split pass; the keyword STT then
//! computes one cepstrum per speech segment from the mean log-mel
//! spectrum. The reference below is the front end it replaced, kept
//! verbatim in arithmetic: a full-length radix-2 complex FFT over a
//! zero imaginary half, per-frame DCT, and a recognizer that re-extracts
//! every segment slice and averages its voiced frames' MFCC vectors. The
//! two differ only by f32 rounding, so the properties check
//!
//! * power bins: each bin within `POWER_TOLERANCE` of the frame's total
//!   power;
//! * cepstra: each coefficient within `CEPSTRUM_TOLERANCE` (absolute,
//!   plus the same fraction of the coefficient's magnitude);
//! * decisions: both matchers of the real-input recognizer emit exactly
//!   the reference recognizer's token streams.
//!
//! They live in the ml crate so the `cargo test -p perisec-ml` CI fast
//! lane runs them before the full suite.

use std::sync::OnceLock;

use proptest::prelude::*;

use perisec_ml::mfcc::{MfccConfig, MfccExtractor};
use perisec_ml::plan::FeaturePlan;
use perisec_ml::stt::{KeywordStt, SttConfig};

/// A power bin may differ from the oracle's by this fraction of the
/// frame's total power: f32 rounding through two FFT shapes. The worst
/// case seen over these properties is ≈4e-7 (quiet tones).
const POWER_TOLERANCE: f64 = 1e-6;
/// A cepstral coefficient may differ from the oracle's by this much,
/// absolute, plus this fraction of its magnitude. The log amplifies the
/// power-bin rounding in mel channels far from a tone, whose energy is a
/// millionth of the frame's; the worst case seen is ≈2e-3 there and
/// ≈4e-6 on broadband frames.
const CEPSTRUM_TOLERANCE: f64 = 1e-2;

fn hz_to_mel(hz: f64) -> f64 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

fn mel_to_hz(mel: f64) -> f64 {
    700.0 * (10f64.powf(mel / 2595.0) - 1.0)
}

/// The complex-FFT MFCC extractor the real-input one replaced.
struct RefExtractor {
    config: MfccConfig,
    window: Vec<f32>,
    filterbank: Vec<Vec<(usize, f32)>>,
    swaps: Vec<(u32, u32)>,
    twiddles: Vec<(f32, f32)>,
    /// DCT-II basis, row-major `n_coeffs x n_mels`.
    dct: Vec<f32>,
}

impl RefExtractor {
    fn new(config: MfccConfig) -> Self {
        let n = config.frame_len;
        let window = (0..n)
            .map(|i| {
                let hamming =
                    0.54 - 0.46 * (2.0 * std::f64::consts::PI * i as f64 / (n - 1) as f64).cos();
                (hamming / i16::MAX as f64) as f32
            })
            .collect();
        let n_bins = n / 2;
        let f_max = config.sample_rate_hz as f64 / 2.0;
        let mel_max = hz_to_mel(f_max);
        let mel_points: Vec<f64> = (0..config.n_mels + 2)
            .map(|i| mel_to_hz(mel_max * i as f64 / (config.n_mels + 1) as f64))
            .collect();
        let bin_of = |hz: f64| -> usize { ((hz / f_max) * (n_bins as f64 - 1.0)).round() as usize };
        let mut filterbank = Vec::with_capacity(config.n_mels);
        for m in 1..=config.n_mels {
            let left = bin_of(mel_points[m - 1]);
            let centre = bin_of(mel_points[m]).max(left + 1);
            let right = bin_of(mel_points[m + 1])
                .max(centre + 1)
                .min(n_bins - 1)
                .max(centre + 1);
            let mut taps = Vec::new();
            for b in left..=right.min(n_bins - 1) {
                let w = if b <= centre {
                    (b - left) as f64 / (centre - left) as f64
                } else {
                    (right - b) as f64 / (right - centre) as f64
                };
                if w > 0.0 {
                    taps.push((b, w as f32));
                }
            }
            filterbank.push(taps);
        }
        let mut swaps = Vec::new();
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                swaps.push((i as u32, j as u32));
            }
        }
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut len = 2usize;
        while len <= n {
            for k in 0..len / 2 {
                let angle = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
                twiddles.push((angle.cos() as f32, angle.sin() as f32));
            }
            len <<= 1;
        }
        let dct = (0..config.n_coeffs)
            .flat_map(|c| {
                (0..config.n_mels).map(move |m| {
                    (std::f64::consts::PI * c as f64 * (m as f64 + 0.5) / config.n_mels as f64)
                        .cos() as f32
                })
            })
            .collect();
        RefExtractor {
            config,
            window,
            filterbank,
            swaps,
            twiddles,
            dct,
        }
    }

    fn fft(&self, re: &mut [f32], im: &mut [f32]) {
        let n = re.len();
        for &(i, j) in &self.swaps {
            re.swap(i as usize, j as usize);
            im.swap(i as usize, j as usize);
        }
        let mut len = 2usize;
        let mut stage_offset = 0usize;
        while len <= n {
            let half = len / 2;
            let twiddles = &self.twiddles[stage_offset..stage_offset + half];
            let mut i = 0;
            while i < n {
                for (k, &(w_re, w_im)) in twiddles.iter().enumerate() {
                    let even_re = re[i + k];
                    let even_im = im[i + k];
                    let odd_re = re[i + k + half] * w_re - im[i + k + half] * w_im;
                    let odd_im = re[i + k + half] * w_im + im[i + k + half] * w_re;
                    re[i + k] = even_re + odd_re;
                    im[i + k] = even_im + odd_im;
                    re[i + k + half] = even_re - odd_re;
                    im[i + k + half] = even_im - odd_im;
                }
                i += len;
            }
            stage_offset += half;
            len <<= 1;
        }
    }

    fn power(&self, frame: &[i16]) -> Vec<f32> {
        let mut re: Vec<f32> = frame
            .iter()
            .zip(&self.window)
            .map(|(&s, &w)| s as f32 * w)
            .collect();
        let mut im = vec![0.0f32; re.len()];
        self.fft(&mut re, &mut im);
        (0..re.len() / 2)
            .map(|b| re[b] * re[b] + im[b] * im[b])
            .collect()
    }

    fn frame_count(&self, samples: usize) -> usize {
        if samples < self.config.frame_len {
            0
        } else {
            (samples - self.config.frame_len) / self.config.hop_len + 1
        }
    }

    fn frame<'a>(&self, samples: &'a [i16], f: usize) -> &'a [i16] {
        &samples[f * self.config.hop_len..f * self.config.hop_len + self.config.frame_len]
    }

    fn extract(&self, samples: &[i16]) -> Vec<Vec<f32>> {
        (0..self.frame_count(samples.len()))
            .map(|f| {
                let power = self.power(self.frame(samples, f));
                let log_mel: Vec<f32> = self
                    .filterbank
                    .iter()
                    .map(|taps| {
                        let e: f32 = taps.iter().map(|&(b, w)| power[b] * w).sum();
                        (e + 1e-10).ln()
                    })
                    .collect();
                self.dct
                    .chunks_exact(self.config.n_mels)
                    .map(|basis| {
                        let mut acc = 0.0f32;
                        for (&lm, &b) in log_mel.iter().zip(basis) {
                            acc += lm * b;
                        }
                        acc
                    })
                    .collect()
            })
            .collect()
    }

    fn frame_energies(&self, samples: &[i16]) -> Vec<f64> {
        let full_scale = i16::MAX as f64 * i16::MAX as f64;
        (0..self.frame_count(samples.len()))
            .map(|f| {
                let frame = self.frame(samples, f);
                let sum_sq: i64 = frame.iter().map(|&s| i64::from(s) * i64::from(s)).sum();
                (sum_sq as f64 / (full_scale * frame.len() as f64)).sqrt()
            })
            .collect()
    }

    /// Mean MFCC vector over the voiced frames (all frames if none).
    fn voiced_mean(&self, samples: &[i16], vad_threshold: f64) -> Vec<f32> {
        let features = self.extract(samples);
        let energies = self.frame_energies(samples);
        let mut mean = vec![0.0f32; self.config.n_coeffs];
        let mut voiced = 0usize;
        for (row, &energy) in features.iter().zip(&energies) {
            if energy > vad_threshold {
                for (acc, &v) in mean.iter_mut().zip(row) {
                    *acc += v;
                }
                voiced += 1;
            }
        }
        if voiced == 0 {
            for row in &features {
                for (acc, &v) in mean.iter_mut().zip(row) {
                    *acc += v;
                }
            }
            voiced = features.len().max(1);
        }
        for v in &mut mean {
            *v /= voiced as f32;
        }
        mean
    }
}

/// The recognizer the segment-cepstrum STT replaced: VAD segments are
/// re-extracted as sample slices and matched in f32 by cosine.
struct RefStt {
    config: SttConfig,
    extractor: RefExtractor,
    templates: Vec<Vec<f32>>,
}

impl RefStt {
    fn train(words: &[(String, Vec<i16>)], config: SttConfig) -> Self {
        let extractor = RefExtractor::new(config.mfcc);
        let templates = words
            .iter()
            .map(|(_, samples)| extractor.voiced_mean(samples, config.vad_threshold))
            .collect();
        RefStt {
            config,
            extractor,
            templates,
        }
    }

    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    fn transcribe_to_tokens(&self, samples: &[i16]) -> Vec<usize> {
        let energies = self.extractor.frame_energies(samples);
        let mut segments = Vec::new();
        let mut start: Option<usize> = None;
        for (i, &e) in energies.iter().enumerate() {
            match (e > self.config.vad_threshold, start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    if i - s >= self.config.min_segment_frames {
                        segments.push((s, i));
                    }
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            if energies.len() - s >= self.config.min_segment_frames {
                segments.push((s, energies.len()));
            }
        }
        let (hop, frame_len) = (self.config.mfcc.hop_len, self.config.mfcc.frame_len);
        segments
            .iter()
            .filter_map(|&(s, e)| {
                let slice = &samples[s * hop..(e * hop + frame_len).min(samples.len())];
                let mean = self.extractor.voiced_mean(slice, self.config.vad_threshold);
                self.templates
                    .iter()
                    .enumerate()
                    .map(|(token, template)| (token, Self::cosine(&mean, template)))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            })
            .filter(|&(_, similarity)| similarity >= self.config.confidence_floor)
            .map(|(token, _)| token)
            .collect()
    }
}

fn tone(freq: f64, phase: f64, amplitude: f64, len: usize) -> Vec<i16> {
    (0..len)
        .map(|i| {
            ((2.0 * std::f64::consts::PI * freq * i as f64 / 16_000.0 + phase).sin()
                * amplitude
                * i16::MAX as f64) as i16
        })
        .collect()
}

/// Centre frequency of every mel filter of the speech configuration.
fn mel_centres() -> Vec<f64> {
    let config = MfccConfig::speech_16khz();
    let mel_max = hz_to_mel(config.sample_rate_hz as f64 / 2.0);
    (1..=config.n_mels)
        .map(|m| mel_to_hz(mel_max * m as f64 / (config.n_mels + 1) as f64))
        .collect()
}

fn check_power(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} bins vs {}", got.len(), want.len()));
    }
    let total: f64 = want.iter().map(|&p| f64::from(p)).sum();
    for (bin, (&g, &w)) in got.iter().zip(want).enumerate() {
        if (f64::from(g) - f64::from(w)).abs() > POWER_TOLERANCE * total {
            return Err(format!("bin {bin}: {g} vs oracle {w} (total {total})"));
        }
    }
    Ok(())
}

fn check_cepstra(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} coefficients vs {}", got.len(), want.len()));
    }
    for (c, (&g, &w)) in got.iter().zip(want).enumerate() {
        let bound = CEPSTRUM_TOLERANCE * (1.0 + f64::from(w).abs());
        if (f64::from(g) - f64::from(w)).abs() > bound {
            return Err(format!("coefficient {c}: {g} vs oracle {w}"));
        }
    }
    Ok(())
}

/// Checks every frame's power bins and cepstrum of `samples`.
fn check_signal(ex: &MfccExtractor, oracle: &RefExtractor, samples: &[i16]) -> Result<(), String> {
    let features = ex.extract(samples);
    let want = oracle.extract(samples);
    if features.rows() != want.len() {
        return Err(format!("{} frames vs {}", features.rows(), want.len()));
    }
    for (f, want_row) in want.iter().enumerate() {
        let frame = oracle.frame(samples, f);
        check_power(&ex.power_spectrum(frame), &oracle.power(frame))
            .map_err(|e| format!("frame {f} power: {e}"))?;
        check_cepstra(features.row(f), want_row).map_err(|e| format!("frame {f} mfcc: {e}"))?;
    }
    Ok(())
}

fn extractors() -> &'static (MfccExtractor, RefExtractor) {
    static EXTRACTORS: OnceLock<(MfccExtractor, RefExtractor)> = OnceLock::new();
    EXTRACTORS.get_or_init(|| {
        let config = MfccConfig::speech_16khz();
        (MfccExtractor::new(config), RefExtractor::new(config))
    })
}

/// Renders a "word" as a dual-tone signature (the workload crate's
/// scheme) for the decision property.
fn render_word(index: usize, duration_samples: usize) -> Vec<i16> {
    let rate = 16_000.0;
    let f1 = 300.0 + 150.0 * (index % 13) as f64;
    let f2 = 1_200.0 + 240.0 * (index % 7) as f64;
    (0..duration_samples)
        .map(|i| {
            let t = i as f64 / rate;
            let envelope = (std::f64::consts::PI * i as f64 / duration_samples as f64).sin();
            let v = 0.45 * (2.0 * std::f64::consts::PI * f1 * t).sin()
                + 0.35 * (2.0 * std::f64::consts::PI * f2 * t).sin();
            (v * envelope * 0.8 * i16::MAX as f64) as i16
        })
        .collect()
}

/// One trained recognizer pair shared by every decision case.
fn recognizers() -> &'static (KeywordStt, RefStt) {
    static STT: OnceLock<(KeywordStt, RefStt)> = OnceLock::new();
    STT.get_or_init(|| {
        let vocab: Vec<(String, Vec<i16>)> = (0..12)
            .map(|i| (format!("word{i}"), render_word(i, 4_000)))
            .collect();
        (
            KeywordStt::train(&vocab, SttConfig::default()).expect("stt trains"),
            RefStt::train(&vocab, SttConfig::default()),
        )
    })
}

proptest! {
    /// Random i16 frames (full-scale broadband noise, two frames per
    /// case): power bins and cepstra match the oracle.
    #[test]
    fn random_frames_match_the_complex_fft_oracle(
        samples in proptest::collection::vec(any::<i16>(), 768..769),
    ) {
        let (ex, oracle) = extractors();
        check_signal(ex, oracle, &samples)?;
    }

    /// A tone at every mel filter's centre frequency, at a random level
    /// and phase: power bins and cepstra match the oracle.
    #[test]
    fn tones_at_every_mel_centre_match_the_complex_fft_oracle(
        amplitude in 0.01f64..0.95,
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let (ex, oracle) = extractors();
        for freq in mel_centres() {
            check_signal(ex, oracle, &tone(freq, phase, amplitude, 512))
                .map_err(|e| format!("{freq:.0} Hz: {e}"))?;
        }
    }

    /// Random utterances (word choices, lengths, pauses): the f32 and
    /// int8 matchers over segment cepstra emit exactly the token streams
    /// of the reference recognizer.
    #[test]
    fn segment_cepstra_keep_the_reference_decisions(
        word_seeds in proptest::collection::vec(any::<u64>(), 0..4),
        pause in 1_200usize..2_400,
    ) {
        let (stt, oracle) = recognizers();
        let mut samples = Vec::new();
        for &seed in &word_seeds {
            let duration = 3_200 + (seed % 5) as usize * 400;
            samples.extend(std::iter::repeat_n(0i16, pause));
            samples.extend(render_word((seed % 12) as usize, duration));
        }
        samples.extend(std::iter::repeat_n(0i16, pause));
        let want = oracle.transcribe_to_tokens(&samples);
        let mut plan = FeaturePlan::new();
        prop_assert_eq!(&stt.transcribe_to_tokens_with(&samples, &mut plan), &want);
        prop_assert_eq!(&stt.transcribe_to_tokens_int8_with(&samples, &mut plan), &want);
    }
}

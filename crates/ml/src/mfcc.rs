//! Audio feature extraction: framing, FFT, mel filterbank, MFCC.
//!
//! The keyword speech-to-text model ([`crate::stt`]) operates on
//! mel-frequency cepstral coefficients, the standard front-end of small
//! speech recognizers. Everything — including the FFT — is implemented
//! here.
//!
//! The pipeline runs in **f32 with precomputed tables**: the Hamming
//! window (pre-scaled by the i16 full-scale), every FFT twiddle factor
//! (split re/im tables per stage, so the butterfly loop has no dependent
//! rotation recurrence, let alone trigonometry), the mel filterbank taps
//! and the DCT-II basis. Constants are computed once in f64 and rounded
//! to f32; the per-frame arithmetic is pure single-precision. Frame
//! energies for VAD are the one exception: the sums of squared i16
//! samples are **exact i64 integers**, with a single f64 divide and
//! square root per frame at the end.
//!
//! The FFT is a **real-input** transform. A `frame_len`-sample real frame
//! goes in as a `frame_len / 2`-point complex FFT — even samples in the
//! real part, odd samples in the imaginary part, windowed and
//! bit-reversed while packing — and a split pass with one post-twiddle
//! per bin recovers the power bins `0..frame_len / 2` that the mel
//! filterbank reads. The butterflies never run over an all-zero
//! imaginary half, and the first two stages (twiddles 1 and −i) run
//! without a multiply.
//!
//! The compute charges that the filter TA bills to virtual time
//! ([`crate::stt::KeywordStt::mfcc_flops_for`] and its siblings) model
//! the cost of a straightforward front end on the device. They are a
//! fixed cost model, not a count of the host work done here, so a faster
//! host algorithm leaves every simulated latency unchanged.

use serde::{Deserialize, Serialize};

use crate::plan::FeaturePlan;
use crate::tensor::Matrix;

/// Configuration of the MFCC front-end.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MfccConfig {
    /// Sample rate of the input audio.
    pub sample_rate_hz: u32,
    /// Analysis frame length in samples (a power of two, at least 4).
    pub frame_len: usize,
    /// Hop between frames in samples.
    pub hop_len: usize,
    /// Number of mel filterbank channels.
    pub n_mels: usize,
    /// Number of cepstral coefficients to keep.
    pub n_coeffs: usize,
}

impl MfccConfig {
    /// Standard 16 kHz speech configuration: 32 ms frames, 16 ms hop,
    /// 40 mel channels, 20 coefficients. The channel count is chosen so
    /// that neighbouring synthetic word signatures land in distinct mel
    /// bins across the whole 0-8 kHz band (20 channels blur the upper
    /// formants together and the keyword STT's substitution rate soars).
    pub fn speech_16khz() -> Self {
        MfccConfig {
            sample_rate_hz: 16_000,
            frame_len: 512,
            hop_len: 256,
            n_mels: 40,
            n_coeffs: 20,
        }
    }
}

impl Default for MfccConfig {
    fn default() -> Self {
        MfccConfig::speech_16khz()
    }
}

/// The bit-reversal permutation of `0..n` (`n` a power of two).
fn bit_reversal(n: usize) -> Vec<u32> {
    let bits = n.trailing_zeros();
    (0..n as u32)
        .map(|i| {
            if bits == 0 {
                0
            } else {
                i.reverse_bits() >> (32 - bits)
            }
        })
        .collect()
}

/// The butterfly stages of one radix-2 complex FFT size, over split
/// re/im buffers whose input is already in bit-reversed order (the
/// real-input packing writes it that way). The twiddles of every stage of
/// length 8 and up are tabulated, so the hot loop performs no `sin`/`cos`
/// and no incremental rotation; the stages of length 2 and 4 use the
/// trivial twiddles 1 and −i and run fused, without a multiply, and the
/// tabulated stages run in fused pairs.
#[derive(Debug, Clone)]
struct FftPlan {
    n: usize,
    /// Twiddle cosines of the stages of length 8, 16, .., `n`: stage
    /// `len` holds `len / 2` entries, flattened stage after stage.
    twiddle_re: Vec<f32>,
    /// Twiddle sines, laid out like `twiddle_re`.
    twiddle_im: Vec<f32>,
}

impl FftPlan {
    fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "fft length must be a power of two");
        let mut twiddle_re = Vec::new();
        let mut twiddle_im = Vec::new();
        let mut len = 8usize;
        while len <= n {
            for k in 0..len / 2 {
                let angle = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
                twiddle_re.push(angle.cos() as f32);
                twiddle_im.push(angle.sin() as f32);
            }
            len <<= 1;
        }
        FftPlan {
            n,
            twiddle_re,
            twiddle_im,
        }
    }

    /// Runs the butterfly stages in place over bit-reversed input.
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ from the planned length.
    fn butterflies(&self, re: &mut [f32], im: &mut [f32]) {
        let n = self.n;
        assert_eq!(re.len(), n, "fft buffer does not match the plan");
        assert_eq!(im.len(), n, "fft buffer does not match the plan");
        if n == 2 {
            let (r0, r1) = (re[0], re[1]);
            let (i0, i1) = (im[0], im[1]);
            re[0] = r0 + r1;
            re[1] = r0 - r1;
            im[0] = i0 + i1;
            im[1] = i0 - i1;
        }
        // Stages of length 2 and 4, fused: the length-4 stage multiplies
        // its odd half by 1 and −i, i.e. (r, i) -> (i, -r).
        for (r, i) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
            let (r0, r1, r2, r3) = (r[0] + r[1], r[0] - r[1], r[2] + r[3], r[2] - r[3]);
            let (i0, i1, i2, i3) = (i[0] + i[1], i[0] - i[1], i[2] + i[3], i[2] - i[3]);
            r[0] = r0 + r2;
            i[0] = i0 + i2;
            r[2] = r0 - r2;
            i[2] = i0 - i2;
            r[1] = r1 + i3;
            i[1] = i1 - r3;
            r[3] = r1 - i3;
            i[3] = i1 + r3;
        }
        let mut len = 8usize;
        let mut offset = 0usize;
        // Stages `len` and `2 len` fused into one pass over each group of
        // `2 len` values: quarters a, b, c, d take a <- a + w1 b and
        // c <- c + w1 d (stage `len`), then a <- a + w2 c and b <- b + w3 d
        // (stage `2 len`), so each value is loaded and stored once per
        // two stages.
        while 2 * len <= n {
            let half = len / 2;
            let (w1_re, w1_im) = (
                &self.twiddle_re[offset..offset + half],
                &self.twiddle_im[offset..offset + half],
            );
            let (w2_re, w2_im) = (
                &self.twiddle_re[offset + half..offset + half + len],
                &self.twiddle_im[offset + half..offset + half + len],
            );
            for (r, i) in re
                .chunks_exact_mut(2 * len)
                .zip(im.chunks_exact_mut(2 * len))
            {
                let (r_ab, r_cd) = r.split_at_mut(len);
                let (i_ab, i_cd) = i.split_at_mut(len);
                let ((ra, rb), (rc, rd)) = (r_ab.split_at_mut(half), r_cd.split_at_mut(half));
                let ((ia, ib), (ic, id)) = (i_ab.split_at_mut(half), i_cd.split_at_mut(half));
                for k in 0..half {
                    let (c1, s1) = (w1_re[k], w1_im[k]);
                    let (c2, s2) = (w2_re[k], w2_im[k]);
                    let (c3, s3) = (w2_re[k + half], w2_im[k + half]);
                    let (tb_re, tb_im) = (rb[k] * c1 - ib[k] * s1, rb[k] * s1 + ib[k] * c1);
                    let (td_re, td_im) = (rd[k] * c1 - id[k] * s1, rd[k] * s1 + id[k] * c1);
                    let (a_re, a_im) = (ra[k] + tb_re, ia[k] + tb_im);
                    let (b_re, b_im) = (ra[k] - tb_re, ia[k] - tb_im);
                    let (c_re, c_im) = (rc[k] + td_re, ic[k] + td_im);
                    let (d_re, d_im) = (rc[k] - td_re, ic[k] - td_im);
                    let (tc_re, tc_im) = (c_re * c2 - c_im * s2, c_re * s2 + c_im * c2);
                    let (te_re, te_im) = (d_re * c3 - d_im * s3, d_re * s3 + d_im * c3);
                    ra[k] = a_re + tc_re;
                    ia[k] = a_im + tc_im;
                    rc[k] = a_re - tc_re;
                    ic[k] = a_im - tc_im;
                    rb[k] = b_re + te_re;
                    ib[k] = b_im + te_im;
                    rd[k] = b_re - te_re;
                    id[k] = b_im - te_im;
                }
            }
            offset += half + len;
            len <<= 2;
        }
        // An odd number of tabulated stages leaves the last one single.
        if len <= n {
            let half = len / 2;
            let w_re = &self.twiddle_re[offset..offset + half];
            let w_im = &self.twiddle_im[offset..offset + half];
            let (r_lo, r_hi) = re.split_at_mut(half);
            let (i_lo, i_hi) = im.split_at_mut(half);
            for ((((lr, li), hr), hi), (&c, &s)) in r_lo
                .iter_mut()
                .zip(i_lo.iter_mut())
                .zip(r_hi.iter_mut())
                .zip(i_hi.iter_mut())
                .zip(w_re.iter().zip(w_im))
            {
                let odd_re = *hr * c - *hi * s;
                let odd_im = *hr * s + *hi * c;
                *hr = *lr - odd_re;
                *hi = *li - odd_im;
                *lr += odd_re;
                *li += odd_im;
            }
        }
    }
}

/// The real-input FFT of one windowed `frame_len`-sample frame, as a
/// `frame_len / 2`-point complex FFT plus a split pass.
#[derive(Debug, Clone)]
struct RealFft {
    /// Complex slot `i` takes frame samples `source[i]` (real part) and
    /// `source[i] + 1` (imaginary part): `source[i]` is twice the
    /// bit-reversal of `i`, so packing leaves the input in the order the
    /// butterflies expect.
    source: Vec<u32>,
    /// The window at `source[i]`, pre-divided by the i16 full scale.
    window_even: Vec<f32>,
    /// The window at `source[i] + 1`, pre-divided by the i16 full scale.
    window_odd: Vec<f32>,
    half: FftPlan,
    /// `cos(-2πk / frame_len)` for `k` in `0..frame_len / 2`: the split
    /// pass's post-twiddles.
    post_re: Vec<f32>,
    /// `sin(-2πk / frame_len)`, laid out like `post_re`.
    post_im: Vec<f32>,
}

impl RealFft {
    /// Plans the transform of `window.len()`-sample frames; `window`
    /// already carries the sample normalization.
    fn new(window: &[f32]) -> Self {
        let n = window.len();
        assert!(
            n >= 4 && n.is_power_of_two(),
            "real fft length must be a power of two, at least 4"
        );
        let m = n / 2;
        let source: Vec<u32> = bit_reversal(m).into_iter().map(|k| 2 * k).collect();
        let (post_re, post_im) = (0..m)
            .map(|k| {
                let angle = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                (angle.cos() as f32, angle.sin() as f32)
            })
            .unzip();
        RealFft {
            window_even: source.iter().map(|&s| window[s as usize]).collect(),
            window_odd: source.iter().map(|&s| window[s as usize + 1]).collect(),
            source,
            half: FftPlan::new(m),
            post_re,
            post_im,
        }
    }

    /// The power spectrum `|X[k]|^2`, `k` in `0..frame_len / 2`, of the
    /// windowed `frame` into `power`; `re`/`im` are scratch.
    fn power_into(
        &self,
        frame: &[i16],
        re: &mut Vec<f32>,
        im: &mut Vec<f32>,
        power: &mut Vec<f32>,
    ) {
        let m = self.source.len();
        let frame = &frame[..2 * m];
        re.clear();
        re.resize(m, 0.0);
        im.clear();
        im.resize(m, 0.0);
        for (((r, i), &source), (&w_even, &w_odd)) in re
            .iter_mut()
            .zip(im.iter_mut())
            .zip(&self.source)
            .zip(self.window_even.iter().zip(&self.window_odd))
        {
            let s = source as usize;
            *r = f32::from(frame[s]) * w_even;
            *i = f32::from(frame[s + 1]) * w_odd;
        }
        self.half.butterflies(re, im);
        // Split: with Z the packed FFT and Y[k] = Z[m - k] (`yr`, `yi`),
        // the even samples' spectrum is E = (Z + conj Y) / 2, the odd
        // samples' is O = (Z - conj Y) / 2i, and X[k] = E[k] +
        // e^{-2πik/n} O[k]. Bin 0 pairs Z[0] with itself.
        power.clear();
        power.resize(m, 0.0);
        power[0] = (re[0] + im[0]) * (re[0] + im[0]);
        for (((((p, &zr), &zi), (&yr, &yi)), &c), &s) in power[1..]
            .iter_mut()
            .zip(&re[1..])
            .zip(&im[1..])
            .zip(re[1..].iter().rev().zip(im[1..].iter().rev()))
            .zip(&self.post_re[1..])
            .zip(&self.post_im[1..])
        {
            let (even_re, even_im) = (0.5 * (zr + yr), 0.5 * (zi - yi));
            let (odd_re, odd_im) = (0.5 * (zi + yi), 0.5 * (yr - zr));
            let x_re = even_re + c * odd_re - s * odd_im;
            let x_im = even_im + c * odd_im + s * odd_re;
            *p = x_re * x_re + x_im * x_im;
        }
    }
}

/// One triangular mel filter: its weights over the contiguous FFT bins
/// `start..start + weights.len()`.
#[derive(Debug, Clone)]
struct MelFilter {
    start: usize,
    weights: Vec<f32>,
}

impl MelFilter {
    fn energy(&self, power: &[f32]) -> f32 {
        power[self.start..self.start + self.weights.len()]
            .iter()
            .zip(&self.weights)
            .map(|(&p, &w)| p * w)
            .sum()
    }
}

fn hz_to_mel(hz: f64) -> f64 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

fn mel_to_hz(mel: f64) -> f64 {
    700.0 * (10f64.powf(mel / 2595.0) - 1.0)
}

/// The MFCC front-end.
///
/// Construction precomputes every constant of the pipeline — the
/// pre-scaled Hamming window, the mel filterbank taps, the real-input FFT
/// plan (packing order, butterfly and post-twiddle tables) and the DCT-II
/// basis — so extraction touches no trigonometry and runs entirely in
/// f32. Paired with a [`FeaturePlan`]'s scratch buffers
/// ([`MfccExtractor::extract_into`]), a warm extractor processes frames
/// with **zero** heap allocations.
#[derive(Debug, Clone)]
pub struct MfccExtractor {
    config: MfccConfig,
    fft: RealFft,
    filterbank: Vec<MelFilter>,
    /// DCT-II basis, row-major `n_mels x n_coeffs` (transposed, so one
    /// log-mel value scales one contiguous row into every coefficient).
    dct: Vec<f32>,
}

impl MfccExtractor {
    /// Builds the extractor (precomputes the Hamming window, the FFT
    /// tables, the mel filterbank and the DCT basis).
    ///
    /// # Panics
    ///
    /// Panics if `frame_len` is not a power of two or is below 4, or if
    /// `hop_len` is zero.
    pub fn new(config: MfccConfig) -> Self {
        assert!(
            config.frame_len.is_power_of_two(),
            "frame_len must be a power of two"
        );
        assert!(config.frame_len >= 4, "frame_len must be at least 4");
        assert!(config.hop_len > 0, "hop_len must be non-zero");
        let window: Vec<f32> = (0..config.frame_len)
            .map(|i| {
                let hamming = 0.54
                    - 0.46
                        * (2.0 * std::f64::consts::PI * i as f64 / (config.frame_len - 1) as f64)
                            .cos();
                (hamming / i16::MAX as f64) as f32
            })
            .collect();
        // Triangular mel filters over the FFT bins.
        let n_bins = config.frame_len / 2;
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
            // Every bin strictly between `left` and `right` has a
            // positive weight, so the taps are contiguous.
            let mut filter = MelFilter {
                start: left + 1,
                weights: Vec::new(),
            };
            for b in left + 1..right.min(n_bins) {
                let w = if b <= centre {
                    (b - left) as f64 / (centre - left) as f64
                } else {
                    (right - b) as f64 / (right - centre) as f64
                };
                filter.weights.push(w as f32);
            }
            filterbank.push(filter);
        }
        let dct = (0..config.n_mels)
            .flat_map(|m| {
                (0..config.n_coeffs).map(move |c| {
                    (std::f64::consts::PI * c as f64 * (m as f64 + 0.5) / config.n_mels as f64)
                        .cos() as f32
                })
            })
            .collect();
        MfccExtractor {
            config,
            fft: RealFft::new(&window),
            filterbank,
            dct,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> MfccConfig {
        self.config
    }

    /// Number of frames that `samples.len()` samples produce.
    pub fn frame_count(&self, samples: usize) -> usize {
        if samples < self.config.frame_len {
            0
        } else {
            (samples - self.config.frame_len) / self.config.hop_len + 1
        }
    }

    /// Frame `f` of `samples`.
    fn frame<'a>(&self, samples: &'a [i16], f: usize) -> &'a [i16] {
        let start = f * self.config.hop_len;
        &samples[start..start + self.config.frame_len]
    }

    /// Per-frame RMS energy (used for voice-activity segmentation).
    pub fn frame_energies(&self, samples: &[i16]) -> Vec<f64> {
        let mut out = Vec::new();
        self.frame_energies_into(samples, &mut out);
        out
    }

    /// [`MfccExtractor::frame_energies`] into a caller-owned buffer —
    /// allocation-free once the buffer is warm. The per-frame sum of
    /// squared samples is an exact i64 integer; only the final
    /// normalization and square root touch floating point.
    pub fn frame_energies_into(&self, samples: &[i16], out: &mut Vec<f64>) {
        let frames = self.frame_count(samples.len());
        let full_scale = i16::MAX as f64 * i16::MAX as f64;
        out.clear();
        out.extend((0..frames).map(|f| {
            let frame = self.frame(samples, f);
            // A squared i16 fits an i32 exactly; the sum needs i64.
            let sum_sq: i64 = frame
                .iter()
                .map(|&s| i64::from(i32::from(s) * i32::from(s)))
                .sum();
            (sum_sq as f64 / (full_scale * frame.len() as f64)).sqrt()
        }));
    }

    /// The windowed power spectrum of one frame: bins `0..frame_len / 2`,
    /// the input of the mel filterbank.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is shorter than `frame_len`.
    pub fn power_spectrum(&self, frame: &[i16]) -> Vec<f32> {
        let mut plan = FeaturePlan::new();
        self.fft
            .power_into(frame, &mut plan.fft_re, &mut plan.fft_im, &mut plan.power);
        plan.power
    }

    /// Adds the log mel energies of `frame` into `plan.log_mel`.
    fn accumulate_log_mel(&self, frame: &[i16], plan: &mut FeaturePlan) {
        self.fft
            .power_into(frame, &mut plan.fft_re, &mut plan.fft_im, &mut plan.power);
        for (acc, filter) in plan.log_mel.iter_mut().zip(&self.filterbank) {
            *acc += (filter.energy(&plan.power) + 1e-10).ln();
        }
    }

    /// DCT-II of `log_mel` into `out` (`n_coeffs` values) via the
    /// precomputed basis. Each coefficient sums over the mel channels in
    /// order; walking the basis by channel updates every coefficient in
    /// one pass.
    fn dct_into(&self, log_mel: &[f32], out: &mut [f32]) {
        out.fill(0.0);
        let n_coeffs = self.config.n_coeffs;
        for (&lm, basis) in log_mel.iter().zip(self.dct.chunks_exact(n_coeffs.max(1))) {
            for (acc, &b) in out.iter_mut().zip(basis) {
                *acc += lm * b;
            }
        }
    }

    /// Extracts MFCC features: one row per frame, `n_coeffs` columns.
    /// Returns an empty (0-row) matrix for audio shorter than one frame.
    pub fn extract(&self, samples: &[i16]) -> Matrix {
        let mut plan = FeaturePlan::new();
        let frames = self.extract_into(samples, &mut plan);
        Matrix::from_vec(frames, self.config.n_coeffs, plan.mfcc)
            .expect("extract_into produced a full feature grid")
    }

    /// Extracts MFCC features into the plan's scratch: on return,
    /// `plan.mfcc` holds the features row-major (`frames x n_coeffs`) and
    /// the frame count is returned. The arithmetic is identical to
    /// [`MfccExtractor::extract`]; the difference is that a warm plan
    /// makes the call allocation-free — the per-frame FFT, power, mel and
    /// DCT buffers are all reused.
    pub fn extract_into(&self, samples: &[i16], plan: &mut FeaturePlan) -> usize {
        let frames = self.frame_count(samples.len());
        let n_coeffs = self.config.n_coeffs;
        plan.mfcc.clear();
        plan.mfcc.resize(frames * n_coeffs, 0.0);
        for f in 0..frames {
            plan.log_mel.clear();
            plan.log_mel.resize(self.config.n_mels, 0.0);
            self.accumulate_log_mel(self.frame(samples, f), plan);
            self.dct_into(
                &plan.log_mel,
                &mut plan.mfcc[f * n_coeffs..(f + 1) * n_coeffs],
            );
        }
        frames
    }

    /// The cepstrum of the mean log-mel spectrum over `frames` (frame
    /// indices into `samples`), appended to `plan.cepstra` as `n_coeffs`
    /// values — zeros when `frames` is empty. Each frame's spectrum is
    /// computed once and the DCT runs once; since the DCT is linear, this
    /// is the mean of the frames' MFCC vectors in real arithmetic.
    pub(crate) fn mean_cepstrum_into(
        &self,
        samples: &[i16],
        frames: impl IntoIterator<Item = usize>,
        plan: &mut FeaturePlan,
    ) {
        plan.log_mel.clear();
        plan.log_mel.resize(self.config.n_mels, 0.0);
        let mut count = 0usize;
        for f in frames {
            self.accumulate_log_mel(self.frame(samples, f), plan);
            count += 1;
        }
        let row = plan.cepstra.len();
        plan.cepstra.resize(row + self.config.n_coeffs, 0.0);
        if count > 0 {
            for v in &mut plan.log_mel {
                *v /= count as f32;
            }
            self.dct_into(&plan.log_mel, &mut plan.cepstra[row..]);
        }
    }

    /// Mean MFCC vector over all frames (zero vector if no frames).
    pub fn mean_vector(&self, samples: &[i16]) -> Vec<f32> {
        let mut plan = FeaturePlan::new();
        self.mean_cepstrum_into(samples, 0..self.frame_count(samples.len()), &mut plan);
        plan.cepstra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(freq: f64, len: usize, rate: f64, amplitude: f64) -> Vec<i16> {
        (0..len)
            .map(|i| {
                ((2.0 * std::f64::consts::PI * freq * i as f64 / rate).sin()
                    * amplitude
                    * i16::MAX as f64) as i16
            })
            .collect()
    }

    #[test]
    fn fft_of_pure_tone_peaks_at_the_right_bin() {
        let n = 512usize;
        let rate = 16_000.0;
        let freq = 1_000.0;
        let ex = MfccExtractor::new(MfccConfig::speech_16khz());
        let power = ex.power_spectrum(&tone(freq, n, rate, 0.9));
        assert_eq!(power.len(), n / 2);
        let peak_bin = power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let expected_bin = (freq / rate * n as f64).round() as usize;
        assert!(
            (peak_bin as i64 - expected_bin as i64).abs() <= 1,
            "peak at bin {peak_bin}, expected {expected_bin}"
        );
    }

    /// The f64 DFT of `input`: `(re, im)` per bin.
    fn dft_f64(input: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let n = input.len();
        // Angles repeat modulo n: one table, no trigonometry in the loop.
        let table: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let angle = -2.0 * std::f64::consts::PI * i as f64 / n as f64;
                (angle.cos(), angle.sin())
            })
            .collect();
        (0..n)
            .map(|bin| {
                input
                    .iter()
                    .enumerate()
                    .fold((0.0, 0.0), |(acc_re, acc_im), (i, &(x_re, x_im))| {
                        let (c, s) = table[bin * i % n];
                        (acc_re + x_re * c - x_im * s, acc_im + x_re * s + x_im * c)
                    })
            })
            .collect()
    }

    #[test]
    fn planned_fft_matches_an_f64_reference() {
        // The tabulated-twiddle f32 FFTs against a straightforward f64
        // DFT, at every power-of-two length up to 4096: per-bin error
        // stays at single-precision noise level relative to the signal.
        let signal = |n: usize, i: usize| {
            (2.0 * std::f64::consts::PI * 13.0 * i as f64 / n as f64).sin() * 0.7
                + (2.0 * std::f64::consts::PI * 57.0 * i as f64 / n as f64).cos() * 0.2
                + ((i * 7919 % 61) as f64 / 61.0 - 0.5) * 0.1
        };
        for n in (0..=12).map(|bits| 1usize << bits) {
            // The complex butterflies, over bit-reversed complex input.
            let input: Vec<(f64, f64)> = (0..n)
                .map(|i| (signal(n, i), signal(n, n - 1 - i) * 0.5))
                .collect();
            let rev = bit_reversal(n);
            let mut re: Vec<f32> = rev.iter().map(|&j| input[j as usize].0 as f32).collect();
            let mut im: Vec<f32> = rev.iter().map(|&j| input[j as usize].1 as f32).collect();
            FftPlan::new(n).butterflies(&mut re, &mut im);
            let tolerance = 2e-6 * n as f64;
            for (bin, &(want_re, want_im)) in dft_f64(&input).iter().enumerate() {
                assert!(
                    (re[bin] as f64 - want_re).abs() < tolerance
                        && (im[bin] as f64 - want_im).abs() < tolerance,
                    "n {n} bin {bin}: ({}, {}) vs f64 ({want_re}, {want_im})",
                    re[bin],
                    im[bin]
                );
            }
            // The real-input path: a unit window, i16 samples.
            if n < 4 {
                continue;
            }
            let samples: Vec<i16> = (0..n)
                .map(|i| (signal(n, i) * 0.9 * i16::MAX as f64) as i16)
                .collect();
            let scaled: Vec<(f64, f64)> = samples
                .iter()
                .map(|&s| (s as f64 / i16::MAX as f64, 0.0))
                .collect();
            let fft = RealFft::new(&vec![(1.0 / i16::MAX as f64) as f32; n]);
            let (mut re, mut im, mut power) = (Vec::new(), Vec::new(), Vec::new());
            fft.power_into(&samples, &mut re, &mut im, &mut power);
            let want = dft_f64(&scaled);
            let total: f64 = want.iter().map(|&(r, i)| r * r + i * i).sum();
            assert_eq!(power.len(), n / 2);
            for (bin, (&got, &(want_re, want_im))) in power.iter().zip(&want).enumerate() {
                let want = want_re * want_re + want_im * want_im;
                assert!(
                    (got as f64 - want).abs() <= 1e-6 * total,
                    "real n {n} bin {bin}: {got} vs f64 {want} (total {total})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "frame_len must be at least 4")]
    fn frame_len_two_is_rejected() {
        MfccExtractor::new(MfccConfig {
            frame_len: 2,
            hop_len: 1,
            ..MfccConfig::speech_16khz()
        });
    }

    #[test]
    #[should_panic(expected = "frame_len must be at least 4")]
    fn frame_len_one_is_rejected() {
        MfccExtractor::new(MfccConfig {
            frame_len: 1,
            hop_len: 1,
            ..MfccConfig::speech_16khz()
        });
    }

    #[test]
    fn planned_extraction_reuses_scratch_and_matches() {
        let ex = MfccExtractor::new(MfccConfig::speech_16khz());
        let mut plan = crate::plan::FeaturePlan::new();
        for freq in [300.0, 1_000.0, 2_400.0] {
            let samples = tone(freq, 4_096, 16_000.0, 0.7);
            let frames = ex.extract_into(&samples, &mut plan);
            let reference = ex.extract(&samples);
            assert_eq!(frames, reference.rows());
            assert_eq!(plan.mfcc, reference.data());
            let mut energies = Vec::new();
            ex.frame_energies_into(&samples, &mut energies);
            assert_eq!(energies, ex.frame_energies(&samples));
        }
    }

    #[test]
    fn frame_count_and_short_audio() {
        let ex = MfccExtractor::new(MfccConfig::speech_16khz());
        assert_eq!(ex.frame_count(100), 0);
        assert_eq!(ex.frame_count(512), 1);
        assert_eq!(ex.frame_count(512 + 256), 2);
        assert_eq!(ex.extract(&[0i16; 100]).rows(), 0);
        assert_eq!(
            ex.mean_vector(&[0i16; 100]).len(),
            MfccConfig::speech_16khz().n_coeffs
        );
    }

    #[test]
    fn different_tones_have_different_mfcc_signatures() {
        let ex = MfccExtractor::new(MfccConfig::speech_16khz());
        let low = ex.mean_vector(&tone(300.0, 4_096, 16_000.0, 0.7));
        let high = ex.mean_vector(&tone(3_000.0, 4_096, 16_000.0, 0.7));
        let same_low = ex.mean_vector(&tone(300.0, 4_096, 16_000.0, 0.7));
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        assert!(dist(&low, &high) > 5.0 * dist(&low, &same_low).max(1e-3));
    }

    #[test]
    fn energies_reflect_amplitude() {
        let ex = MfccExtractor::new(MfccConfig::speech_16khz());
        let loud = tone(500.0, 2_048, 16_000.0, 0.8);
        let soft = tone(500.0, 2_048, 16_000.0, 0.05);
        let quiet = vec![0i16; 2_048];
        let e_loud: f64 = ex.frame_energies(&loud).iter().sum();
        let e_soft: f64 = ex.frame_energies(&soft).iter().sum();
        let e_quiet: f64 = ex.frame_energies(&quiet).iter().sum();
        assert!(e_loud > e_soft);
        assert!(e_soft > e_quiet);
        assert!(e_quiet < 1e-9);
    }

    #[test]
    fn mfcc_is_amplitude_robust_but_frequency_sensitive() {
        // The log compression makes MFCC far more sensitive to spectral
        // shape than to level, which is what the template matcher needs.
        let ex = MfccExtractor::new(MfccConfig::speech_16khz());
        let ref_tone = ex.mean_vector(&tone(800.0, 4_096, 16_000.0, 0.8));
        let quieter = ex.mean_vector(&tone(800.0, 4_096, 16_000.0, 0.4));
        let other = ex.mean_vector(&tone(2_400.0, 4_096, 16_000.0, 0.8));
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        assert!(dist(&ref_tone, &quieter) < dist(&ref_tone, &other));
    }
}

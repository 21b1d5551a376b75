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
//! Frame energies square each sample once: every frame starts and ends
//! on a multiple of a *grain* that divides the hop, so a frame's sum of
//! squares is the difference of two exact i64 prefix sums taken at grain
//! boundaries, whatever the hop.
//!
//! **Dispatch.** An extractor picks its kernels once, when it is built:
//! on x86-64 hosts where `is_x86_feature_detected!("avx2")` holds, the
//! pack (one 32-bit gather per even/odd sample pair), the butterflies (8
//! lanes, or 4 for a stage with 4 twiddles, and the length-2/4 stages on
//! shuffles), the split pass (the mirrored `Y[m - k]` operands come from
//! a reversed `vpermps` load), the mel filterbank (transposed so 8
//! filters run in 8 lanes, one gather per tap) and the frame-energy sums
//! run in the AVX2 forms of the private `x86` module, which holds every
//! `unsafe` of the front end. Elsewhere the scalar code runs; it is also
//! the oracle. Each lane performs the same IEEE `mul`/`add`/`sub`, in the
//! same order, as the scalar code — no FMA, no reassociation, and the
//! `ln` stays scalar — so both forms give **bit-identical** power bins,
//! log-mel values, cepstra, energies and therefore tokens, which the
//! unit tests check with `to_bits`.
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
        self.pack(frame, re, im);
        self.half.butterflies(re, im);
        self.split_power(re, im, power);
    }

    /// Windows `frame` into the packed complex input, in bit-reversed
    /// order.
    fn pack(&self, frame: &[i16], re: &mut Vec<f32>, im: &mut Vec<f32>) {
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
    }

    /// The split pass: the power bins of the real frame from its packed
    /// FFT `re`/`im`.
    ///
    /// With Z the packed FFT and Y[k] = Z[m - k], the even samples'
    /// spectrum is E = (Z + conj Y) / 2, the odd samples' is
    /// O = (Z - conj Y) / 2i, and X[k] = E[k] + e^{-2πik/n} O[k]. Bin 0
    /// pairs Z[0] with itself.
    fn split_power(&self, re: &[f32], im: &[f32], power: &mut Vec<f32>) {
        let m = self.source.len();
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
            *p = split_bin(zr, zi, yr, yi, c, s);
        }
    }
}

/// One bin of the split pass: `|X[k]|^2` from `Z[k]` (`zr`, `zi`),
/// `Y[k] = Z[m - k]` (`yr`, `yi`) and the post-twiddle (`c`, `s`). The
/// AVX2 split pass runs this exact operation sequence lane-wise and calls
/// it for its tail.
#[inline(always)]
fn split_bin(zr: f32, zi: f32, yr: f32, yi: f32, c: f32, s: f32) -> f32 {
    let (even_re, even_im) = (0.5 * (zr + yr), 0.5 * (zi - yi));
    let (odd_re, odd_im) = (0.5 * (zi + yi), 0.5 * (yr - zr));
    let x_re = even_re + c * odd_re - s * odd_im;
    let x_im = even_im + c * odd_im + s * odd_re;
    x_re * x_re + x_im * x_im
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

/// The log of one mel energy, floored away from `ln(0)`.
#[inline(always)]
fn log_energy(energy: f32) -> f32 {
    (energy + 1e-10).ln()
}

/// The exact sum of the squared samples of `block`: a squared i16 fits
/// an i32, the sum needs i64.
fn sum_squares(block: &[i16]) -> i64 {
    block
        .iter()
        .map(|&s| i64::from(i32::from(s) * i32::from(s)))
        .sum()
}

/// Which form of the front-end kernels an extractor runs: the pack,
/// butterflies and split pass of the FFT, the mel filterbank and the
/// frame-energy sums. Chosen once, when the extractor is built.
#[derive(Debug, Clone)]
enum Kernels {
    /// The scalar code: the fallback on every host, and the oracle the
    /// wide forms are tested bit-identical against.
    Portable,
    /// The AVX2 forms; holding one proves the host supports AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2(x86::Avx2Kernels),
}

impl Kernels {
    /// The widest form this host runs.
    fn detect(filterbank: &[MelFilter]) -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = x86::Avx2Kernels::detect(filterbank) {
            return Kernels::Avx2(avx2);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = filterbank;
        Kernels::Portable
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
    /// The kernel form every frame runs, detected at construction.
    kernels: Kernels,
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
            kernels: Kernels::detect(&filterbank),
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
        let mut plan = FeaturePlan::new();
        self.frame_energies_into(samples, &mut plan);
        plan.energies
    }

    /// [`MfccExtractor::frame_energies`] into the plan's scratch —
    /// allocation-free once the plan is warm. Returns the energies, one
    /// per frame.
    ///
    /// Every frame start and end falls on a multiple of the *grain*, the
    /// largest power of two that divides `hop_len` (at most
    /// `frame_len`). Each sample is squared once, into an exact i64
    /// running sum taken at every grain boundary; a frame's sum of
    /// squares is the difference of two of those prefixes. Only the
    /// final normalization and square root touch floating point.
    pub fn frame_energies_into<'p>(&self, samples: &[i16], plan: &'p mut FeaturePlan) -> &'p [f64] {
        let frames = self.frame_count(samples.len());
        let out = &mut plan.energies;
        out.clear();
        if frames == 0 {
            return out;
        }
        let (frame_len, hop_len) = (self.config.frame_len, self.config.hop_len);
        let grain = (1usize << hop_len.trailing_zeros()).min(frame_len);
        // The prefixes go into `out` as i64 bit patterns: there is at
        // least one per frame, and frame `f` reads only prefixes at
        // index `f` or later, so it can overwrite slot `f` in place.
        let covered = &samples[..(frames - 1) * hop_len + frame_len];
        out.reserve_exact(covered.len() / grain + 1);
        out.push(f64::from_bits(0));
        let mut total = 0i64;
        for block in covered.chunks_exact(grain) {
            total += match &self.kernels {
                Kernels::Portable => sum_squares(block),
                #[cfg(target_arch = "x86_64")]
                Kernels::Avx2(avx2) => avx2.sum_squares(block),
            };
            out.push(f64::from_bits(total as u64));
        }
        let full_scale = i16::MAX as f64 * i16::MAX as f64;
        let (per_hop, per_frame) = (hop_len / grain, frame_len / grain);
        let prefix = |out: &[f64], i: usize| out[i].to_bits() as i64;
        for f in 0..frames {
            let sum_sq = prefix(out, f * per_hop + per_frame) - prefix(out, f * per_hop);
            out[f] = (sum_sq as f64 / (full_scale * frame_len as f64)).sqrt();
        }
        out.truncate(frames);
        out
    }

    /// The windowed power spectrum of one frame: bins `0..frame_len / 2`,
    /// the input of the mel filterbank.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is shorter than `frame_len`.
    pub fn power_spectrum(&self, frame: &[i16]) -> Vec<f32> {
        let mut plan = FeaturePlan::new();
        self.power_into(frame, &mut plan);
        plan.power
    }

    /// The power spectrum of `frame` into `plan.power`.
    fn power_into(&self, frame: &[i16], plan: &mut FeaturePlan) {
        let (re, im, power) = (&mut plan.fft_re, &mut plan.fft_im, &mut plan.power);
        match &self.kernels {
            Kernels::Portable => self.fft.power_into(frame, re, im, power),
            #[cfg(target_arch = "x86_64")]
            Kernels::Avx2(avx2) => avx2.power_into(&self.fft, frame, re, im, power),
        }
    }

    /// Adds the log mel energies of `frame` into `plan.log_mel`.
    fn accumulate_log_mel(&self, frame: &[i16], plan: &mut FeaturePlan) {
        self.power_into(frame, plan);
        match &self.kernels {
            Kernels::Portable => {
                for (acc, filter) in plan.log_mel.iter_mut().zip(&self.filterbank) {
                    *acc += log_energy(filter.energy(&plan.power));
                }
            }
            #[cfg(target_arch = "x86_64")]
            Kernels::Avx2(avx2) => avx2.accumulate_log_mel(&plan.power, &mut plan.log_mel),
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

/// The AVX2 forms of the front-end kernels, runtime-dispatched through
/// [`Kernels`]: every `unsafe` of the module is here.
///
/// Each lane performs the same IEEE single-precision `mul`, `add` and
/// `sub` operations, in the same order, as the scalar code it replaces —
/// no FMA, no reassociation — so every power bin, log-mel value and
/// cepstrum is **bit-identical** to the portable path, and the frame
/// energies are exact integer sums in either form. The `ln` stays scalar.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::*;

    use super::{log_energy, split_bin, FftPlan, MelFilter, RealFft};

    /// The AVX2 kernels of one extractor. Only [`Avx2Kernels::detect`]
    /// builds one, after checking that the host supports AVX2, so
    /// holding one is the proof every `unsafe` block below relies on.
    #[derive(Debug, Clone)]
    pub(super) struct Avx2Kernels {
        mel: MelLanes,
    }

    /// The mel filterbank transposed for 8 lanes: filters `8 g..8 g + 8`
    /// form group `g`, and tap row `t` of a group holds each filter's
    /// `t`-th bin index and weight. Groups are zero-padded to their
    /// widest filter; padding reads bin 0 with weight 0.
    #[derive(Debug, Clone)]
    struct MelLanes {
        n_mels: usize,
        /// One past the highest bin any tap reads.
        bins: usize,
        /// Tap rows per group.
        widths: Vec<usize>,
        /// Bin index per tap row and lane, row after row.
        index: Vec<i32>,
        /// Weight per tap row and lane, laid out like `index`.
        weight: Vec<f32>,
    }

    impl MelLanes {
        fn new(filterbank: &[MelFilter]) -> Self {
            let mut lanes = MelLanes {
                n_mels: filterbank.len(),
                bins: 0,
                widths: Vec::new(),
                index: Vec::new(),
                weight: Vec::new(),
            };
            for group in filterbank.chunks(8) {
                let width = group.iter().map(|f| f.weights.len()).max().unwrap_or(0);
                for t in 0..width {
                    for lane in 0..8 {
                        let tap = group
                            .get(lane)
                            .and_then(|f| f.weights.get(t).map(|&w| (f.start + t, w)));
                        let (bin, w) = tap.unwrap_or((0, 0.0));
                        lanes.bins = lanes.bins.max(bin + 1);
                        lanes.index.push(bin as i32);
                        lanes.weight.push(w);
                    }
                }
                lanes.widths.push(width);
            }
            lanes
        }
    }

    impl Avx2Kernels {
        /// The AVX2 kernels for `filterbank`, or `None` if the host lacks
        /// AVX2. Runs the feature check once per extractor.
        pub(super) fn detect(filterbank: &[MelFilter]) -> Option<Self> {
            std::arch::is_x86_feature_detected!("avx2").then(|| Avx2Kernels {
                mel: MelLanes::new(filterbank),
            })
        }

        /// AVX2 [`RealFft::power_into`].
        pub(super) fn power_into(
            &self,
            fft: &RealFft,
            frame: &[i16],
            re: &mut Vec<f32>,
            im: &mut Vec<f32>,
            power: &mut Vec<f32>,
        ) {
            let m = fft.source.len();
            let frame = &frame[..2 * m];
            for buf in [&mut *re, &mut *im, &mut *power] {
                if buf.len() != m {
                    buf.clear();
                    buf.resize(m, 0.0);
                }
            }
            // SAFETY: `self` exists only if AVX2 was detected. `frame`
            // holds `2 m` samples, so the 32-bit gather of the pair at
            // any `source` index (at most `2 m - 2`) stays inside it, and
            // `re`, `im` and `power` hold `m` values each: the lengths
            // `power_avx2` requires. `RealFft::new` builds every table of
            // `fft` `m` long and its butterfly plan for `m` points.
            unsafe { power_avx2(fft, frame, re, im, power) }
        }

        /// AVX2 mel filterbank and log: adds `ln(energy + 1e-10)` of
        /// every filter over `power` into `log_mel`.
        pub(super) fn accumulate_log_mel(&self, power: &[f32], log_mel: &mut [f32]) {
            assert_eq!(
                log_mel.len(),
                self.mel.n_mels,
                "one log-mel slot per filter"
            );
            assert!(
                self.mel.bins <= power.len(),
                "filter taps beyond the power bins"
            );
            let mut sums = [0.0f32; 8];
            let mut row = 0usize;
            for (group, &width) in self.mel.widths.iter().enumerate() {
                // SAFETY: `self` exists only if AVX2 was detected; every
                // tap index is below `power.len()` (asserted above), and
                // rows `row..row + width` lie within `index`/`weight`,
                // which hold 8 entries for each of the groups' rows.
                unsafe { mel_group_avx2(&self.mel, row, width, power, &mut sums) };
                row += width;
                for (acc, &energy) in log_mel[8 * group..].iter_mut().zip(&sums) {
                    *acc += log_energy(energy);
                }
            }
        }

        /// AVX2 [`super::sum_squares`].
        pub(super) fn sum_squares(&self, block: &[i16]) -> i64 {
            // SAFETY: `self` exists only if AVX2 was detected;
            // `sum_squares_avx2` reads only within `block`.
            unsafe { sum_squares_avx2(block) }
        }
    }

    /// Pack, butterflies and split pass of [`RealFft::power_into`].
    ///
    /// # Safety
    ///
    /// AVX2 must be available; `frame.len() == 2 m` and `re`, `im`,
    /// `power` hold `m` values, for `m = fft.source.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn power_avx2(
        fft: &RealFft,
        frame: &[i16],
        re: &mut [f32],
        im: &mut [f32],
        power: &mut [f32],
    ) {
        let m = fft.source.len();
        // Pack: one 32-bit gather fetches the (even, odd) sample pair at
        // `source[i]`; the two i16 halves convert exactly to f32.
        let base = frame.as_ptr().cast::<i32>();
        let mut i = 0usize;
        while i + 8 <= m {
            let source = _mm256_loadu_si256(fft.source.as_ptr().add(i).cast());
            let pair = _mm256_i32gather_epi32::<2>(base, source);
            let even = _mm256_cvtepi32_ps(_mm256_srai_epi32::<16>(_mm256_slli_epi32::<16>(pair)));
            let odd = _mm256_cvtepi32_ps(_mm256_srai_epi32::<16>(pair));
            let w_even = _mm256_loadu_ps(fft.window_even.as_ptr().add(i));
            let w_odd = _mm256_loadu_ps(fft.window_odd.as_ptr().add(i));
            _mm256_storeu_ps(re.as_mut_ptr().add(i), _mm256_mul_ps(even, w_even));
            _mm256_storeu_ps(im.as_mut_ptr().add(i), _mm256_mul_ps(odd, w_odd));
            i += 8;
        }
        for i in i..m {
            let s = fft.source[i] as usize;
            re[i] = f32::from(frame[s]) * fft.window_even[i];
            im[i] = f32::from(frame[s + 1]) * fft.window_odd[i];
        }
        butterflies_avx2(&fft.half, re, im);
        // Split pass; `Y[k..k + 8]` is `Z[m - k - 7..m - k + 1]` reversed.
        power[0] = (re[0] + im[0]) * (re[0] + im[0]);
        let reverse = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
        let half = _mm256_set1_ps(0.5);
        let mut k = 1usize;
        while k + 8 <= m {
            let zr = _mm256_loadu_ps(re.as_ptr().add(k));
            let zi = _mm256_loadu_ps(im.as_ptr().add(k));
            let yr = _mm256_permutevar8x32_ps(_mm256_loadu_ps(re.as_ptr().add(m - k - 7)), reverse);
            let yi = _mm256_permutevar8x32_ps(_mm256_loadu_ps(im.as_ptr().add(m - k - 7)), reverse);
            let c = _mm256_loadu_ps(fft.post_re.as_ptr().add(k));
            let s = _mm256_loadu_ps(fft.post_im.as_ptr().add(k));
            let even_re = _mm256_mul_ps(half, _mm256_add_ps(zr, yr));
            let even_im = _mm256_mul_ps(half, _mm256_sub_ps(zi, yi));
            let odd_re = _mm256_mul_ps(half, _mm256_add_ps(zi, yi));
            let odd_im = _mm256_mul_ps(half, _mm256_sub_ps(yr, zr));
            let x_re = _mm256_sub_ps(
                _mm256_add_ps(even_re, _mm256_mul_ps(c, odd_re)),
                _mm256_mul_ps(s, odd_im),
            );
            let x_im = _mm256_add_ps(
                _mm256_add_ps(even_im, _mm256_mul_ps(c, odd_im)),
                _mm256_mul_ps(s, odd_re),
            );
            let p = _mm256_add_ps(_mm256_mul_ps(x_re, x_re), _mm256_mul_ps(x_im, x_im));
            _mm256_storeu_ps(power.as_mut_ptr().add(k), p);
            k += 8;
        }
        for k in k..m {
            power[k] = split_bin(
                re[k],
                im[k],
                re[m - k],
                im[m - k],
                fft.post_re[k],
                fft.post_im[k],
            );
        }
    }

    /// AVX2 [`FftPlan::butterflies`]: the fused length-2/4 stages on
    /// shuffles, then the tabulated stages 8 lanes wide (4 where a stage
    /// has only 4 twiddles).
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `re.len() == im.len() == plan.n`.
    #[target_feature(enable = "avx2")]
    unsafe fn butterflies_avx2(plan: &FftPlan, re: &mut [f32], im: &mut [f32]) {
        let n = plan.n;
        if n < 8 {
            plan.butterflies(re, im);
            return;
        }
        // Stages of length 2 and 4, two 4-value groups per vector (one
        // per 128-bit half, which is what `shuffle_ps` permutes within).
        for g in (0..n).step_by(8) {
            let (rp, ip) = (re.as_mut_ptr().add(g), im.as_mut_ptr().add(g));
            let (r, i) = (_mm256_loadu_ps(rp), _mm256_loadu_ps(ip));
            // (x0, x1, x2, x3) -> (x0 + x1, x0 - x1, x2 + x3, x2 - x3).
            let (r_lo, r_hi) = (
                _mm256_shuffle_ps::<0xA0>(r, r),
                _mm256_shuffle_ps::<0xF5>(r, r),
            );
            let (i_lo, i_hi) = (
                _mm256_shuffle_ps::<0xA0>(i, i),
                _mm256_shuffle_ps::<0xF5>(i, i),
            );
            let r = _mm256_blend_ps::<0xAA>(_mm256_add_ps(r_lo, r_hi), _mm256_sub_ps(r_lo, r_hi));
            let i = _mm256_blend_ps::<0xAA>(_mm256_add_ps(i_lo, i_hi), _mm256_sub_ps(i_lo, i_hi));
            // r' = (r0 + r2, r1 + i3, r0 - r2, r1 - i3),
            // i' = (i0 + i2, i1 - r3, i0 - i2, i1 + r3).
            let (r01, i01) = (
                _mm256_shuffle_ps::<0x44>(r, r),
                _mm256_shuffle_ps::<0x44>(i, i),
            );
            let (r23, i23) = (
                _mm256_shuffle_ps::<0xEE>(r, r),
                _mm256_shuffle_ps::<0xEE>(i, i),
            );
            let r_other = _mm256_blend_ps::<0xAA>(r23, i23);
            let i_other = _mm256_blend_ps::<0xAA>(i23, r23);
            let r =
                _mm256_blend_ps::<0xCC>(_mm256_add_ps(r01, r_other), _mm256_sub_ps(r01, r_other));
            let i =
                _mm256_blend_ps::<0x66>(_mm256_add_ps(i01, i_other), _mm256_sub_ps(i01, i_other));
            _mm256_storeu_ps(rp, r);
            _mm256_storeu_ps(ip, i);
        }
        let (mut len, mut offset) = (8usize, 0usize);
        while 2 * len <= n {
            let half = len / 2;
            let w1 = (
                &plan.twiddle_re[offset..offset + half],
                &plan.twiddle_im[offset..offset + half],
            );
            let w2 = (
                &plan.twiddle_re[offset + half..offset + half + len],
                &plan.twiddle_im[offset + half..offset + half + len],
            );
            if half >= 8 {
                stage_pair_x8(re, im, len, w1, w2);
            } else {
                stage_pair_x4(re, im, len, w1, w2);
            }
            offset += half + len;
            len <<= 2;
        }
        if len <= n {
            let half = len / 2;
            let w = (
                &plan.twiddle_re[offset..offset + half],
                &plan.twiddle_im[offset..offset + half],
            );
            if half >= 8 {
                last_stage_x8(re, im, w);
            } else {
                last_stage_x4(re, im, w);
            }
        }
    }

    /// One width of the tabulated butterfly stages: the loop bodies of
    /// [`FftPlan::butterflies`], lane by lane, over `$v` vectors of
    /// `$lanes` bins.
    macro_rules! tabulated_stages {
        ($pair:ident, $last:ident, $lanes:literal, $v:ty,
         $load:ident, $store:ident, $add:ident, $sub:ident, $mul:ident) => {
            /// Stages `len` and `2 len` fused, as in
            /// [`FftPlan::butterflies`].
            ///
            /// # Safety
            ///
            /// AVX2 must be available; `re.len() == im.len()` is a
            /// multiple of `2 len`, `len / 2` a multiple of the lane
            /// count, `w1` holds `len / 2` and `w2` holds `len` twiddles.
            #[target_feature(enable = "avx2")]
            unsafe fn $pair(
                re: &mut [f32],
                im: &mut [f32],
                len: usize,
                (w1_re, w1_im): (&[f32], &[f32]),
                (w2_re, w2_im): (&[f32], &[f32]),
            ) {
                let half = len / 2;
                let (rp, ip) = (re.as_mut_ptr(), im.as_mut_ptr());
                for group in (0..re.len()).step_by(2 * len) {
                    for k in (0..half).step_by($lanes) {
                        let (a, b) = (group + k, group + half + k);
                        let (c, d) = (group + len + k, group + len + half + k);
                        let (c1, s1) = ($load(w1_re.as_ptr().add(k)), $load(w1_im.as_ptr().add(k)));
                        let (c2, s2) = ($load(w2_re.as_ptr().add(k)), $load(w2_im.as_ptr().add(k)));
                        let (c3, s3) = (
                            $load(w2_re.as_ptr().add(k + half)),
                            $load(w2_im.as_ptr().add(k + half)),
                        );
                        let (ra, ia): ($v, $v) = ($load(rp.add(a)), $load(ip.add(a)));
                        let (rb, ib) = ($load(rp.add(b)), $load(ip.add(b)));
                        let (rc, ic) = ($load(rp.add(c)), $load(ip.add(c)));
                        let (rd, id) = ($load(rp.add(d)), $load(ip.add(d)));
                        let tb_re = $sub($mul(rb, c1), $mul(ib, s1));
                        let tb_im = $add($mul(rb, s1), $mul(ib, c1));
                        let td_re = $sub($mul(rd, c1), $mul(id, s1));
                        let td_im = $add($mul(rd, s1), $mul(id, c1));
                        let (a_re, a_im) = ($add(ra, tb_re), $add(ia, tb_im));
                        let (b_re, b_im) = ($sub(ra, tb_re), $sub(ia, tb_im));
                        let (c_re, c_im) = ($add(rc, td_re), $add(ic, td_im));
                        let (d_re, d_im) = ($sub(rc, td_re), $sub(ic, td_im));
                        let tc_re = $sub($mul(c_re, c2), $mul(c_im, s2));
                        let tc_im = $add($mul(c_re, s2), $mul(c_im, c2));
                        let te_re = $sub($mul(d_re, c3), $mul(d_im, s3));
                        let te_im = $add($mul(d_re, s3), $mul(d_im, c3));
                        $store(rp.add(a), $add(a_re, tc_re));
                        $store(ip.add(a), $add(a_im, tc_im));
                        $store(rp.add(c), $sub(a_re, tc_re));
                        $store(ip.add(c), $sub(a_im, tc_im));
                        $store(rp.add(b), $add(b_re, te_re));
                        $store(ip.add(b), $add(b_im, te_im));
                        $store(rp.add(d), $sub(b_re, te_re));
                        $store(ip.add(d), $sub(b_im, te_im));
                    }
                }
            }

            /// The single last stage over the whole buffer, as in
            /// [`FftPlan::butterflies`].
            ///
            /// # Safety
            ///
            /// AVX2 must be available; `re.len() == im.len()` is twice
            /// the twiddle count, which is a multiple of the lane count.
            #[target_feature(enable = "avx2")]
            unsafe fn $last(re: &mut [f32], im: &mut [f32], (w_re, w_im): (&[f32], &[f32])) {
                let half = w_re.len();
                let (rp, ip) = (re.as_mut_ptr(), im.as_mut_ptr());
                for k in (0..half).step_by($lanes) {
                    let (c, s) = ($load(w_re.as_ptr().add(k)), $load(w_im.as_ptr().add(k)));
                    let (lr, li): ($v, $v) = ($load(rp.add(k)), $load(ip.add(k)));
                    let (hr, hi) = ($load(rp.add(half + k)), $load(ip.add(half + k)));
                    let odd_re = $sub($mul(hr, c), $mul(hi, s));
                    let odd_im = $add($mul(hr, s), $mul(hi, c));
                    $store(rp.add(half + k), $sub(lr, odd_re));
                    $store(ip.add(half + k), $sub(li, odd_im));
                    $store(rp.add(k), $add(lr, odd_re));
                    $store(ip.add(k), $add(li, odd_im));
                }
            }
        };
    }

    tabulated_stages!(
        stage_pair_x8,
        last_stage_x8,
        8,
        __m256,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_add_ps,
        _mm256_sub_ps,
        _mm256_mul_ps
    );
    tabulated_stages!(
        stage_pair_x4,
        last_stage_x4,
        4,
        __m128,
        _mm_loadu_ps,
        _mm_storeu_ps,
        _mm_add_ps,
        _mm_sub_ps,
        _mm_mul_ps
    );

    /// The energies of the 8 filters of one [`MelLanes`] group, taps
    /// `row..row + width`, into `sums` — each lane the scalar
    /// [`MelFilter::energy`] sum, tap after tap (a padded tap adds
    /// `p * 0 = +0`, which leaves the non-negative sums unchanged).
    ///
    /// # Safety
    ///
    /// AVX2 must be available, every index of the group's taps must be
    /// below `power.len()`, and rows `row..row + width` must exist.
    #[target_feature(enable = "avx2")]
    unsafe fn mel_group_avx2(
        mel: &MelLanes,
        row: usize,
        width: usize,
        power: &[f32],
        sums: &mut [f32; 8],
    ) {
        let mut acc = _mm256_setzero_ps();
        for t in row..row + width {
            let index = _mm256_loadu_si256(mel.index.as_ptr().add(8 * t).cast());
            let p = _mm256_i32gather_ps::<4>(power.as_ptr(), index);
            let w = _mm256_loadu_ps(mel.weight.as_ptr().add(8 * t));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(p, w));
        }
        _mm256_storeu_ps(sums.as_mut_ptr(), acc);
    }

    /// The exact sum of squared samples: `vpmaddwd` squares 16 samples
    /// into 8 pair sums, each at most 2^31 and so exact as a u32, which
    /// widen to u64 lanes before accumulating.
    ///
    /// # Safety
    ///
    /// AVX2 must be available.
    #[target_feature(enable = "avx2")]
    unsafe fn sum_squares_avx2(block: &[i16]) -> i64 {
        let low = _mm256_set1_epi64x(0xFFFF_FFFF);
        let mut acc = _mm256_setzero_si256();
        let mut chunks = block.chunks_exact(16);
        for chunk in &mut chunks {
            let v = _mm256_loadu_si256(chunk.as_ptr().cast());
            let pairs = _mm256_madd_epi16(v, v);
            acc = _mm256_add_epi64(acc, _mm256_and_si256(pairs, low));
            acc = _mm256_add_epi64(acc, _mm256_srli_epi64::<32>(pairs));
        }
        let mut lanes = [0i64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
        lanes.iter().sum::<i64>() + super::sum_squares(chunks.remainder())
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
            let energies = ex.frame_energies_into(&samples, &mut plan).to_vec();
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

    impl MfccExtractor {
        /// This extractor on the portable kernels.
        fn portable(&self) -> Self {
            MfccExtractor {
                kernels: Kernels::Portable,
                ..self.clone()
            }
        }
    }

    /// The extractor for `config` on the host's widest kernels, and the
    /// same extractor on the portable ones. On a host without AVX2 both
    /// are portable and the bit-identity tests below compare the
    /// portable path with itself.
    fn both_forms(config: MfccConfig) -> (MfccExtractor, MfccExtractor) {
        let wide = MfccExtractor::new(config);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            matches!(wide.kernels, Kernels::Avx2(_)),
            std::arch::is_x86_feature_detected!("avx2"),
            "an AVX2 host must get the AVX2 kernels"
        );
        let portable = wide.portable();
        (wide, portable)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The per-frame sum of squares, frame by frame: the oracle of the
    /// prefix-sum frame energies.
    fn frame_energies_oracle(ex: &MfccExtractor, samples: &[i16]) -> Vec<f64> {
        let full_scale = i16::MAX as f64 * i16::MAX as f64;
        (0..ex.frame_count(samples.len()))
            .map(|f| {
                let frame = ex.frame(samples, f);
                (sum_squares(frame) as f64 / (full_scale * frame.len() as f64)).sqrt()
            })
            .collect()
    }

    /// Every kernel output of both forms on `samples`, bit for bit:
    /// each frame's power spectrum and log-mel sum, `extract`, the
    /// segment cepstrum over every frame and over the odd frames, and the
    /// frame energies (also against the per-frame oracle).
    fn assert_forms_agree(config: MfccConfig, samples: &[i16]) {
        let (wide, portable) = both_forms(config);
        let mut plans = (FeaturePlan::new(), FeaturePlan::new());
        for f in 0..wide.frame_count(samples.len()) {
            let frame = wide.frame(samples, f);
            assert_eq!(
                bits(&wide.power_spectrum(frame)),
                bits(&portable.power_spectrum(frame)),
                "power spectrum of frame {f}"
            );
            for (ex, plan) in [(&wide, &mut plans.0), (&portable, &mut plans.1)] {
                plan.log_mel.clear();
                plan.log_mel.resize(config.n_mels, 0.0);
                ex.accumulate_log_mel(frame, plan);
            }
            assert_eq!(
                bits(&plans.0.log_mel),
                bits(&plans.1.log_mel),
                "log mel of frame {f}"
            );
        }
        assert_eq!(
            bits(wide.extract(samples).data()),
            bits(portable.extract(samples).data())
        );
        assert_eq!(
            bits(&wide.mean_vector(samples)),
            bits(&portable.mean_vector(samples))
        );
        let odd = |ex: &MfccExtractor| {
            let mut plan = FeaturePlan::new();
            let frames = ex.frame_count(samples.len());
            ex.mean_cepstrum_into(samples, (1..frames).step_by(2), &mut plan);
            plan.cepstra
        };
        assert_eq!(bits(&odd(&wide)), bits(&odd(&portable)));
        let oracle: Vec<u64> = frame_energies_oracle(&wide, samples)
            .iter()
            .map(|e| e.to_bits())
            .collect();
        for ex in [&wide, &portable] {
            let energies: Vec<u64> = ex
                .frame_energies(samples)
                .iter()
                .map(|e| e.to_bits())
                .collect();
            assert_eq!(energies, oracle, "frame energies");
        }
    }

    #[test]
    fn forms_agree_on_tones_at_every_mel_centre() {
        let config = MfccConfig::speech_16khz();
        let ex = MfccExtractor::new(config);
        let bin_hz = config.sample_rate_hz as f64 / config.frame_len as f64;
        for filter in &ex.filterbank {
            let peak = filter
                .weights
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(filter.start, |(t, _)| filter.start + t);
            for amplitude in [0.9, 0.01] {
                let samples = tone(peak as f64 * bin_hz, 2_048, 16_000.0, amplitude);
                assert_forms_agree(config, &samples);
            }
        }
    }

    #[test]
    fn forms_agree_on_silence_and_full_scale() {
        let config = MfccConfig::speech_16khz();
        assert_forms_agree(config, &[0i16; 1_536]);
        assert_forms_agree(config, &[i16::MIN; 1_536]);
        assert_forms_agree(config, &[i16::MAX; 1_536]);
        let alternating: Vec<i16> = (0..1_536)
            .map(|i| if i % 2 == 0 { i16::MIN } else { i16::MAX })
            .collect();
        assert_forms_agree(config, &alternating);
    }

    #[test]
    fn forms_agree_at_every_fft_size() {
        // Sizes 4..4096 cover the portable fallback below 8 points, the
        // 4-lane stage pair, an odd stage left single, and longer runs.
        for log2 in 2..=12 {
            let frame_len = 1usize << log2;
            let config = MfccConfig {
                frame_len,
                hop_len: frame_len / 2,
                ..MfccConfig::speech_16khz()
            };
            let (wide, portable) = both_forms(config);
            let samples: Vec<i16> = (0..frame_len)
                .map(|i| ((i * 7919 + 13) % 65_536) as u16 as i16)
                .collect();
            assert_eq!(
                bits(&wide.power_spectrum(&samples)),
                bits(&portable.power_spectrum(&samples)),
                "frame_len {frame_len}"
            );
        }
    }

    proptest::proptest! {
        /// Random i16 audio: the two forms agree on every kernel output,
        /// bit for bit.
        #[test]
        fn forms_agree_on_random_frames(
            samples in proptest::collection::vec(proptest::prelude::any::<i16>(), 512..1_400),
        ) {
            assert_forms_agree(MfccConfig::speech_16khz(), &samples);
        }

        /// Frame energies at any hop (grain 1 up to the frame length, and
        /// hops past it) and any length: both forms equal the per-frame
        /// oracle, bit for bit.
        #[test]
        fn frame_energies_match_the_per_frame_oracle(
            samples in proptest::collection::vec(proptest::prelude::any::<i16>(), 0..700),
            frame_bits in 2usize..8,
            hop_len in 1usize..300,
        ) {
            let config = MfccConfig {
                frame_len: 1 << frame_bits,
                hop_len,
                ..MfccConfig::speech_16khz()
            };
            let (wide, portable) = both_forms(config);
            let oracle: Vec<u64> = frame_energies_oracle(&wide, &samples)
                .iter()
                .map(|e| e.to_bits())
                .collect();
            for ex in [&wide, &portable] {
                let got: Vec<u64> = ex.frame_energies(&samples).iter().map(|e| e.to_bits()).collect();
                proptest::prop_assert_eq!(&got, &oracle);
            }
        }
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

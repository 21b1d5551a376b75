//! Per-word waveform synthesis.
//!
//! Each vocabulary word renders to a distinct, deterministic dual-tone
//! signature with a smooth amplitude envelope; utterances are words
//! separated by short silences. The signatures are chosen so that the MFCC
//! template matcher in `perisec-ml` can recover the word sequence from the
//! PCM stream — giving the repository an end-to-end audio → transcript →
//! classification path without real recordings.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use perisec_devices::audio::{AudioBuffer, AudioFormat};

use crate::vocab::Vocabulary;

/// Synthesis parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Output sample rate.
    pub sample_rate_hz: u32,
    /// Duration of one word, in milliseconds.
    pub word_ms: u64,
    /// Silence between words, in milliseconds.
    pub gap_ms: u64,
    /// Peak amplitude as a fraction of full scale.
    pub amplitude: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            sample_rate_hz: 16_000,
            word_ms: 250,
            gap_ms: 120,
            amplitude: 0.8,
        }
    }
}

/// The deterministic speech synthesizer.
///
/// A word's PCM depends only on its token id and the [`SynthConfig`], so
/// each vocabulary word is rendered once, on first use, into a word table
/// that every clone shares: a fleet whose devices clone one synthesizer
/// renders each word once, and an utterance is slice copies of cached
/// words between silences. Tokens outside the vocabulary have no table
/// cell and render through the per-sample formula on every call.
#[derive(Clone)]
pub struct SpeechSynthesizer {
    vocabulary: Vocabulary,
    config: SynthConfig,
    /// One lazily filled rendering per vocabulary token.
    words: Arc<[OnceLock<Box<[i16]>>]>,
}

impl std::fmt::Debug for SpeechSynthesizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeechSynthesizer")
            .field("vocabulary", &self.vocabulary)
            .field("config", &self.config)
            .field("rendered_words", &self.rendered_words())
            .finish()
    }
}

impl SpeechSynthesizer {
    /// Creates a synthesizer over `vocabulary`. No word is rendered until
    /// it is first used.
    pub fn new(vocabulary: Vocabulary, config: SynthConfig) -> Self {
        let words = (0..vocabulary.len()).map(|_| OnceLock::new()).collect();
        SpeechSynthesizer {
            vocabulary,
            config,
            words,
        }
    }

    /// Synthesizer with the default smart-home vocabulary and parameters.
    pub fn smart_home() -> Self {
        SpeechSynthesizer::new(Vocabulary::smart_home(), SynthConfig::default())
    }

    /// The vocabulary in use.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// The synthesis configuration.
    pub fn config(&self) -> SynthConfig {
        self.config
    }

    /// Output audio format.
    pub fn format(&self) -> AudioFormat {
        AudioFormat {
            sample_rate_hz: self.config.sample_rate_hz,
            channels: 1,
            bits_per_sample: 16,
        }
    }

    /// How many vocabulary words the shared word table holds so far.
    pub fn rendered_words(&self) -> usize {
        self.words
            .iter()
            .filter(|cell| cell.get().is_some())
            .count()
    }

    fn gap_samples(&self) -> usize {
        (self.config.sample_rate_hz as u64 * self.config.gap_ms / 1000) as usize
    }

    /// A word's PCM: the table's cell for vocabulary tokens (filled on
    /// first use), a fresh rendering for any other token.
    fn word(&self, token: usize) -> Cow<'_, [i16]> {
        match self.words.get(token) {
            Some(cell) => Cow::Borrowed(
                cell.get_or_init(|| synthesize_word(&self.config, token).into_boxed_slice()),
            ),
            None => Cow::Owned(synthesize_word(&self.config, token)),
        }
    }

    /// Renders a single word (by token id) to PCM.
    pub fn render_word(&self, token: usize) -> Vec<i16> {
        self.word(token).into_owned()
    }

    /// Renders a token sequence to a full utterance (leading, inter-word
    /// and trailing silences included).
    pub fn render_tokens(&self, tokens: &[usize]) -> AudioBuffer {
        let gap = self.gap_samples();
        let mut samples =
            Vec::with_capacity(gap + tokens.len() * (word_samples(&self.config) + gap));
        samples.resize(gap, 0i16);
        for &token in tokens {
            samples.extend_from_slice(&self.word(token));
            samples.resize(samples.len() + gap, 0i16);
        }
        AudioBuffer::new(self.format(), samples)
    }

    /// Renders an utterance given by its words.
    ///
    /// Unknown words are skipped.
    pub fn render_words(&self, words: &[&str]) -> AudioBuffer {
        let tokens: Vec<usize> = words
            .iter()
            .filter_map(|w| self.vocabulary.token_of(w))
            .collect();
        self.render_tokens(&tokens)
    }

    /// Reference renderings of every vocabulary word, in token order — the
    /// training set for the keyword STT.
    pub fn reference_renderings(&self) -> Vec<(String, Vec<i16>)> {
        self.vocabulary
            .words()
            .iter()
            .enumerate()
            .map(|(token, word)| (word.text.clone(), self.render_word(token)))
            .collect()
    }
}

fn word_samples(config: &SynthConfig) -> usize {
    (config.sample_rate_hz as u64 * config.word_ms / 1000) as usize
}

/// The per-sample word formula: fills the word table, and renders tokens
/// outside the vocabulary.
fn synthesize_word(config: &SynthConfig, token: usize) -> Vec<i16> {
    let rate = config.sample_rate_hz as f64;
    let n = word_samples(config);
    // Two formant-like tones derived from the token id; co-prime moduli
    // keep the (f1, f2) pairs distinct across the vocabulary. The
    // frequencies are spaced *geometrically*: the STT's mel filterbank
    // has log-frequency resolution, so linear spacing packs the upper
    // signatures into one mel channel and neighbouring tokens collide.
    let f1 = 280.0 * 1.17f64.powi((token % 13) as i32);
    let f2 = 1_150.0 * 1.14f64.powi((token % 7) as i32);
    let f3 = 2_600.0 + 90.0 * (token % 5) as f64;
    (0..n)
        .map(|i| {
            let t = i as f64 / rate;
            let envelope = (std::f64::consts::PI * i as f64 / n as f64).sin();
            let v = 0.45 * (2.0 * std::f64::consts::PI * f1 * t).sin()
                + 0.35 * (2.0 * std::f64::consts::PI * f2 * t).sin()
                + 0.10 * (2.0 * std::f64::consts::PI * f3 * t).sin();
            (v * envelope * config.amplitude * i16::MAX as f64) as i16
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_deterministic_and_word_specific() {
        let synth = SpeechSynthesizer::smart_home();
        let a = synth.render_word(3);
        let b = synth.render_word(3);
        let c = synth.render_word(4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 4_000);
    }

    #[test]
    fn utterance_length_matches_word_count() {
        let synth = SpeechSynthesizer::smart_home();
        let two = synth.render_tokens(&[1, 2]);
        let three = synth.render_tokens(&[1, 2, 3]);
        assert!(three.frames() > two.frames());
        // 2 words * 250 ms + 3 gaps * 120 ms = 860 ms
        assert_eq!(two.frames(), (0.86 * 16_000.0) as usize);
        assert!(two.rms() > 0.05);
    }

    #[test]
    fn render_words_skips_unknown_words() {
        let synth = SpeechSynthesizer::smart_home();
        let known = synth.render_words(&["lights", "kitchen"]);
        let with_unknown = synth.render_words(&["lights", "zzz-not-a-word", "kitchen"]);
        assert_eq!(known.frames(), with_unknown.frames());
    }

    #[test]
    fn reference_renderings_cover_the_vocabulary() {
        let synth = SpeechSynthesizer::smart_home();
        let refs = synth.reference_renderings();
        assert_eq!(refs.len(), synth.vocabulary().len());
        assert_eq!(refs[0].0, synth.vocabulary().word(0).unwrap().text);
    }

    #[test]
    fn stt_round_trip_recovers_most_words() {
        // End-to-end check: synthesize -> transcribe with the ml crate's STT.
        use perisec_ml::stt::{KeywordStt, SttConfig};
        let synth = SpeechSynthesizer::smart_home();
        let stt = KeywordStt::train(&synth.reference_renderings(), SttConfig::default()).unwrap();
        let tokens = vec![5usize, 20, 40, 10];
        let audio = synth.render_tokens(&tokens);
        let recovered = stt.transcribe_to_tokens(audio.samples());
        let matching = recovered.iter().filter(|t| tokens.contains(t)).count();
        assert!(
            matching >= 3,
            "only {matching}/4 words recovered: {recovered:?} vs {tokens:?}"
        );
    }
}

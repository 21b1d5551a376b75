//! Bit-exact PCM oracle for the synthesizer's shared word table.
//!
//! The reference below is a test-local copy of the per-sample word formula,
//! evaluated afresh for every word. The synthesizer renders each vocabulary
//! word once into a table its clones share; the table must reproduce the
//! formula sample for sample, for single words and for whole utterances.

use perisec_workload::synth::{SpeechSynthesizer, SynthConfig};

/// The per-sample formula, evaluated afresh on every call.
fn reference_word(config: &SynthConfig, token: usize) -> Vec<i16> {
    let rate = config.sample_rate_hz as f64;
    let n = (config.sample_rate_hz as u64 * config.word_ms / 1000) as usize;
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

/// The reference utterance: a leading silence, then each word followed by
/// a silence.
fn reference_utterance(config: &SynthConfig, tokens: &[usize]) -> Vec<i16> {
    let gap = vec![0i16; (config.sample_rate_hz as u64 * config.gap_ms / 1000) as usize];
    let mut samples = gap.clone();
    for &token in tokens {
        samples.extend(reference_word(config, token));
        samples.extend_from_slice(&gap);
    }
    samples
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SpeechSynthesizer>();
};

#[test]
fn words_match_the_per_sample_formula() {
    let synth = SpeechSynthesizer::smart_home();
    let config = synth.config();
    let vocabulary = synth.vocabulary().len();
    for token in 0..vocabulary {
        // Twice: the first call fills the cell, the second reads it.
        for _ in 0..2 {
            assert_eq!(
                synth.render_word(token),
                reference_word(&config, token),
                "token {token}"
            );
        }
    }
    assert_eq!(synth.rendered_words(), vocabulary);

    let out_of_vocabulary = vocabulary + 7;
    assert_eq!(
        synth.render_word(out_of_vocabulary),
        reference_word(&config, out_of_vocabulary)
    );
    assert_eq!(synth.rendered_words(), vocabulary);
}

#[test]
fn utterances_match_the_per_sample_formula() {
    let config = SynthConfig {
        sample_rate_hz: 8_000,
        word_ms: 180,
        gap_ms: 45,
        amplitude: 0.6,
    };
    let synth = SpeechSynthesizer::new(perisec_workload::Vocabulary::smart_home(), config);
    let vocabulary = synth.vocabulary().len();
    let utterances: [&[usize]; 5] = [
        &[],
        &[3],
        &[5, 20, 40, 10],
        &[9, 9, 9],
        &[1, vocabulary + 3, 2],
    ];
    for tokens in utterances {
        let audio = synth.render_tokens(tokens);
        assert_eq!(audio.format(), synth.format());
        assert_eq!(
            audio.samples(),
            reference_utterance(&config, tokens).as_slice(),
            "tokens {tokens:?}"
        );
    }
    let known = synth.render_words(&["lights", "kitchen"]);
    let tokens: Vec<usize> = ["lights", "kitchen"]
        .iter()
        .map(|w| synth.vocabulary().token_of(w).unwrap())
        .collect();
    assert_eq!(
        known.samples(),
        reference_utterance(&config, &tokens).as_slice()
    );
}

#[test]
fn clones_share_one_word_table() {
    let synth = SpeechSynthesizer::smart_home();
    let clone = synth.clone();
    assert_eq!(synth.rendered_words(), 0);

    clone.render_tokens(&[4, 11, 4]);
    assert_eq!(synth.rendered_words(), 2);
    assert_eq!(clone.rendered_words(), 2);

    let references = synth.reference_renderings();
    assert_eq!(clone.rendered_words(), synth.vocabulary().len());
    for (token, (_, pcm)) in references.iter().enumerate() {
        assert_eq!(pcm, &reference_word(&synth.config(), token));
    }

    // A fresh synthesizer starts with an empty table of its own.
    assert_eq!(SpeechSynthesizer::smart_home().rendered_words(), 0);
}

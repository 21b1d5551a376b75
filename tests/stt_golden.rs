//! Golden STT token streams: the FNV-1a-64 of the keyword recognizer's
//! token streams over every utterance of the `audio_stream` benchmark
//! fleet (`Scenario::mega_fleet(48, 16, 0.4, 1 s, seed)`), for the default
//! seed and the hold-out seed.
//!
//! Each utterance is rendered by the trained models' synthesizer and
//! transcribed through both template matchers (f32 and int8), which must
//! agree token for token. The hashes were recorded on the complex-FFT
//! front end that recomputed every segment's frames, so a front-end
//! rewrite that flips a single recognized word anywhere in the fleet
//! fails here. A deliberate behaviour change must re-record them and say
//! so.

use perisec::core::pipeline::SharedModels;
use perisec::ml::classifier::Architecture;
use perisec::ml::plan::FeaturePlan;
use perisec::tz::time::SimDuration;
use perisec::workload::scenario::Scenario;

/// The benchmark's model seed; the recognizer itself trains on the
/// synthesizer's reference renderings and does not depend on it.
const MODEL_SEED: u64 = 0xE15;

/// FNV-1a, 64-bit, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The hash of every utterance's token stream, each token as a
/// little-endian u32 and each utterance closed by `u32::MAX`.
fn token_stream_hash(seed: u64) -> String {
    let models = SharedModels::deferred(Architecture::Cnn, 16, MODEL_SEED)
        .audio()
        .expect("audio models train");
    let mut plan = FeaturePlan::new();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut windows = 0;
    for scenario in Scenario::mega_fleet(48, 16, 0.4, SimDuration::from_secs(1), seed) {
        for event in &scenario.events {
            let audio = models.synth.render_tokens(&event.utterance.tokens);
            let tokens = models
                .stt
                .transcribe_to_tokens_with(audio.samples(), &mut plan);
            let tokens_int8 = models
                .stt
                .transcribe_to_tokens_int8_with(audio.samples(), &mut plan);
            assert_eq!(tokens, tokens_int8, "matchers diverged on seed {seed}");
            for token in tokens {
                hash = fnv1a(hash, &(token as u32).to_le_bytes());
            }
            hash = fnv1a(hash, &u32::MAX.to_le_bytes());
            windows += 1;
        }
    }
    assert_eq!(windows, 48 * 16);
    format!("{hash:016x}")
}

#[test]
fn token_streams_of_the_default_seed_are_pinned() {
    assert_eq!(token_stream_hash(1), "404544a127351e83");
}

#[test]
fn token_streams_of_the_hold_out_seed_are_pinned() {
    assert_eq!(token_stream_hash(1_592_598_563), "88c89755ce32e933");
}

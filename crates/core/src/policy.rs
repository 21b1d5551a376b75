//! The privacy policy applied by the filter TA.

use serde::{Deserialize, Serialize};

/// What the filter does with content it deems sensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterMode {
    /// Drop sensitive utterances entirely (the paper's default: sensitive
    /// data is "filtered out of the data stream").
    BlockSensitive,
    /// Forward sensitive utterances with the sensitive words removed.
    RedactSensitive,
    /// Forward everything (equivalent to no filter; used as an ablation).
    AllowAll,
    /// Forward nothing (maximum privacy, zero utility; used as an
    /// ablation).
    BlockAll,
}

impl std::fmt::Display for FilterMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FilterMode::BlockSensitive => "block-sensitive",
            FilterMode::RedactSensitive => "redact-sensitive",
            FilterMode::AllowAll => "allow-all",
            FilterMode::BlockAll => "block-all",
        };
        write!(f, "{s}")
    }
}

/// What the filter decided for one utterance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterDecision {
    /// Forward the utterance unchanged.
    Forward,
    /// Forward a redacted version.
    ForwardRedacted,
    /// Do not forward anything.
    Drop,
}

impl FilterDecision {
    /// Stable numeric code used on the TA parameter interface.
    pub fn code(self) -> u64 {
        match self {
            FilterDecision::Forward => 0,
            FilterDecision::ForwardRedacted => 2,
            FilterDecision::Drop => 1,
        }
    }

    /// Parses a numeric code back into a decision.
    pub fn from_code(code: u64) -> Option<FilterDecision> {
        match code {
            0 => Some(FilterDecision::Forward),
            1 => Some(FilterDecision::Drop),
            2 => Some(FilterDecision::ForwardRedacted),
            _ => None,
        }
    }
}

/// The privacy policy evaluated inside the TA.
///
/// The filter applies **defense in depth**: the trained classifier scores
/// each transcript, and — when [`PrivacyPolicy::lexical_guard`] is on —
/// any transcript containing a word from a sensitive vocabulary category
/// is treated as sensitive regardless of the classifier's score. The
/// guard gives deterministic recall on known-sensitive vocabulary (the
/// classifier can never "miss" a bank keyword), while the classifier
/// generalizes to combinations the lexicon alone would pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrivacyPolicy {
    /// What to do with sensitive content.
    pub mode: FilterMode,
    /// Probability above which the classifier's verdict counts as
    /// sensitive.
    pub threshold: f32,
    /// Whether a recognized sensitive-category word forces the sensitive
    /// verdict independent of the classifier.
    pub lexical_guard: bool,
}

/// Bit set in the encoded mode value when the lexical guard is enabled.
const GUARD_BIT: u64 = 0x8;

impl PrivacyPolicy {
    /// The paper's default: block anything the filter deems sensitive
    /// (classifier or lexicon).
    pub fn block_sensitive() -> Self {
        PrivacyPolicy {
            mode: FilterMode::BlockSensitive,
            threshold: 0.5,
            lexical_guard: true,
        }
    }

    /// Forward everything (the unprotected behaviour).
    pub fn allow_all() -> Self {
        PrivacyPolicy {
            mode: FilterMode::AllowAll,
            threshold: 0.5,
            lexical_guard: false,
        }
    }

    /// Redact sensitive words but keep the rest of the utterance.
    pub fn redact_sensitive() -> Self {
        PrivacyPolicy {
            mode: FilterMode::RedactSensitive,
            threshold: 0.5,
            lexical_guard: true,
        }
    }

    /// Like [`PrivacyPolicy::block_sensitive`], but relying on the
    /// classifier alone — the ablation the architecture-comparison
    /// experiments measure.
    pub fn classifier_only(mode: FilterMode, threshold: f32) -> Self {
        PrivacyPolicy {
            mode,
            threshold,
            lexical_guard: false,
        }
    }

    /// Decides what to do given the classifier's sensitive probability
    /// (no lexicon input; see [`PrivacyPolicy::decide_with_lexicon`]).
    pub fn decide(&self, sensitive_probability: f32) -> FilterDecision {
        self.decide_with_lexicon(sensitive_probability, false)
    }

    /// Decides what to do given the classifier's probability and whether
    /// the transcript contained a sensitive-category vocabulary word.
    pub fn decide_with_lexicon(
        &self,
        sensitive_probability: f32,
        lexical_hit: bool,
    ) -> FilterDecision {
        let sensitive =
            sensitive_probability >= self.threshold || (self.lexical_guard && lexical_hit);
        match (self.mode, sensitive) {
            (FilterMode::AllowAll, _) => FilterDecision::Forward,
            (FilterMode::BlockAll, _) => FilterDecision::Drop,
            (_, false) => FilterDecision::Forward,
            (FilterMode::BlockSensitive, true) => FilterDecision::Drop,
            (FilterMode::RedactSensitive, true) => FilterDecision::ForwardRedacted,
        }
    }

    /// Encodes the policy as two values for the TA parameter interface
    /// (the lexical-guard flag rides in a high bit of the mode value).
    pub fn to_values(&self) -> (u64, u64) {
        let mode = match self.mode {
            FilterMode::BlockSensitive => 0,
            FilterMode::RedactSensitive => 1,
            FilterMode::AllowAll => 2,
            FilterMode::BlockAll => 3,
        };
        let guard = if self.lexical_guard { GUARD_BIT } else { 0 };
        (mode | guard, (self.threshold * 1000.0) as u64)
    }

    /// The parameters of a filter TA's `SET_POLICY` command installing
    /// this policy.
    pub fn to_params(&self) -> perisec_optee::TeeParams {
        let (a, b) = self.to_values();
        perisec_optee::TeeParams::new().with(0, perisec_optee::TeeParam::ValueInput { a, b })
    }

    /// Decodes a policy from the TA parameter interface.
    pub fn from_values(mode: u64, threshold_milli: u64) -> Option<Self> {
        let lexical_guard = mode & GUARD_BIT != 0;
        let mode = match mode & !GUARD_BIT {
            0 => FilterMode::BlockSensitive,
            1 => FilterMode::RedactSensitive,
            2 => FilterMode::AllowAll,
            3 => FilterMode::BlockAll,
            _ => return None,
        };
        Some(PrivacyPolicy {
            mode,
            threshold: (threshold_milli as f32 / 1000.0).clamp(0.0, 1.0),
            lexical_guard,
        })
    }
}

impl Default for PrivacyPolicy {
    fn default() -> Self {
        PrivacyPolicy::block_sensitive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_sensitive_drops_only_above_threshold() {
        let p = PrivacyPolicy::block_sensitive();
        assert_eq!(p.decide(0.9), FilterDecision::Drop);
        assert_eq!(p.decide(0.1), FilterDecision::Forward);
        assert_eq!(p.decide(0.5), FilterDecision::Drop);
    }

    #[test]
    fn ablation_modes() {
        assert_eq!(
            PrivacyPolicy::allow_all().decide(0.99),
            FilterDecision::Forward
        );
        let block_all = PrivacyPolicy {
            mode: FilterMode::BlockAll,
            threshold: 0.5,
            lexical_guard: true,
        };
        assert_eq!(block_all.decide(0.01), FilterDecision::Drop);
        assert_eq!(
            PrivacyPolicy::redact_sensitive().decide(0.9),
            FilterDecision::ForwardRedacted
        );
        assert_eq!(
            PrivacyPolicy::redact_sensitive().decide(0.1),
            FilterDecision::Forward
        );
    }

    #[test]
    fn value_and_code_round_trips() {
        for policy in [
            PrivacyPolicy::block_sensitive(),
            PrivacyPolicy::redact_sensitive(),
            PrivacyPolicy::allow_all(),
            PrivacyPolicy {
                mode: FilterMode::BlockAll,
                threshold: 0.73,
                lexical_guard: false,
            },
        ] {
            let (m, t) = policy.to_values();
            let decoded = PrivacyPolicy::from_values(m, t).unwrap();
            assert_eq!(decoded.mode, policy.mode);
            assert_eq!(decoded.lexical_guard, policy.lexical_guard);
            assert!((decoded.threshold - policy.threshold).abs() < 0.001);
        }
        // 7 is not a mode even after masking off the guard bit; 9 decodes
        // as redact-sensitive with the guard bit set.
        assert!(PrivacyPolicy::from_values(7, 500).is_none());
        assert_eq!(
            PrivacyPolicy::from_values(9, 500).unwrap(),
            PrivacyPolicy {
                mode: FilterMode::RedactSensitive,
                threshold: 0.5,
                lexical_guard: true
            }
        );
        for d in [
            FilterDecision::Forward,
            FilterDecision::Drop,
            FilterDecision::ForwardRedacted,
        ] {
            assert_eq!(FilterDecision::from_code(d.code()), Some(d));
        }
        assert!(FilterDecision::from_code(99).is_none());
    }
}

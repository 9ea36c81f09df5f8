//! Edge-cloud speculative decoding over character-level n-gram models.
//!
//! The paper's edge-cloud pattern: a lightweight *draft* model on the edge
//! proposes `k` tokens; the heavyweight *target* model in the cloud verifies
//! the whole proposal in one batched pass, accepting the longest matching
//! prefix. With a good draft, the expensive model runs far less than once
//! per token while the output is provably identical to the target's own
//! greedy decoding.

use std::collections::HashMap;

/// A character-level n-gram language model with backoff (greedy decoding).
#[derive(Debug, Clone)]
pub struct NgramModel {
    order: usize,
    counts: HashMap<String, HashMap<char, u32>>,
}

impl NgramModel {
    /// Train an order-`order` model on a corpus (order = context length).
    ///
    /// # Panics
    ///
    /// Panics if `order == 0` or the corpus is shorter than `order + 1`.
    pub fn train(corpus: &str, order: usize) -> Self {
        assert!(order > 0, "order must be positive");
        let chars: Vec<char> = corpus.chars().collect();
        assert!(chars.len() > order, "corpus shorter than order");
        let mut counts: HashMap<String, HashMap<char, u32>> = HashMap::new();
        for n in 1..=order {
            for window in chars.windows(n + 1) {
                let ctx: String = window[..n].iter().collect();
                let next = window[n];
                *counts.entry(ctx).or_default().entry(next).or_insert(0) += 1;
            }
        }
        NgramModel { order, counts }
    }

    /// Greedy next-character prediction with backoff to shorter contexts.
    /// Ties break lexicographically (deterministic). `None` when even the
    /// unigram-like shortest context is unseen.
    pub(crate) fn predict(&self, context: &str) -> Option<char> {
        let chars: Vec<char> = context.chars().collect();
        for n in (1..=self.order.min(chars.len())).rev() {
            let ctx: String = chars[chars.len() - n..].iter().collect();
            if let Some(nexts) = self.counts.get(&ctx) {
                return nexts
                    .iter()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                    .map(|(&c, _)| c);
            }
        }
        None
    }

    /// Greedy-decode `n` characters from a prompt.
    pub fn generate(&self, prompt: &str, n: usize) -> String {
        let mut text = prompt.to_string();
        for _ in 0..n {
            match self.predict(&text) {
                Some(c) => text.push(c),
                None => break,
            }
        }
        text[prompt.len()..].to_string()
    }
}

/// Statistics of one speculative-decoding run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculativeReport {
    /// Characters generated.
    pub tokens: usize,
    /// Batched verification passes of the target model.
    pub target_calls: usize,
    /// Draft-model predictions made.
    pub draft_calls: usize,
    /// Fraction of drafted tokens accepted.
    pub acceptance_rate: f64,
}

impl SpeculativeReport {
    /// Target-model invocations per generated token (< 1 is the win).
    pub fn target_calls_per_token(&self) -> f64 {
        if self.tokens == 0 {
            0.0
        } else {
            self.target_calls as f64 / self.tokens as f64
        }
    }
}

/// Greedy speculative decoding: draft proposes `lookahead` characters, the
/// target verifies the proposal and accepts the longest prefix matching its
/// own greedy choices, then contributes one corrected character.
///
/// The output is exactly the target model's greedy decode (the acceptance
/// rule compares against the target's argmax at every position).
pub fn speculative_generate(
    draft: &NgramModel,
    target: &NgramModel,
    prompt: &str,
    n: usize,
    lookahead: usize,
) -> (String, SpeculativeReport) {
    assert!(lookahead > 0, "lookahead must be positive");
    let mut text = prompt.to_string();
    let mut generated = 0usize;
    let mut target_calls = 0usize;
    let mut draft_calls = 0usize;
    let mut drafted_total = 0usize;
    let mut accepted_total = 0usize;

    while generated < n {
        // Draft proposes up to `lookahead` characters.
        let mut proposal = Vec::new();
        let mut draft_text = text.clone();
        for _ in 0..lookahead.min(n - generated) {
            draft_calls += 1;
            match draft.predict(&draft_text) {
                Some(c) => {
                    proposal.push(c);
                    draft_text.push(c);
                }
                None => break,
            }
        }
        drafted_total += proposal.len();

        // One batched target verification pass over the proposal positions.
        target_calls += 1;
        let mut verify_text = text.clone();
        let mut accepted = 0usize;
        let mut correction: Option<char> = None;
        for (i, &c) in proposal.iter().enumerate() {
            let target_choice = target.predict(&verify_text);
            match target_choice {
                Some(tc) if tc == c => {
                    verify_text.push(c);
                    accepted += 1;
                }
                other => {
                    correction = other;
                    let _ = i;
                    break;
                }
            }
        }
        accepted_total += accepted;
        text = verify_text;
        generated += accepted;

        if generated >= n {
            break;
        }
        // Target contributes one character: the correction (if the draft
        // diverged) or its next greedy choice (if the proposal ran out).
        let next = match correction {
            Some(c) => Some(c),
            None => target.predict(&text),
        };
        match next {
            Some(c) => {
                text.push(c);
                generated += 1;
            }
            None => break,
        }
    }

    let report = SpeculativeReport {
        tokens: generated,
        target_calls,
        draft_calls,
        acceptance_rate: if drafted_total == 0 {
            0.0
        } else {
            accepted_total as f64 / drafted_total as f64
        },
    };
    (text[prompt.len()..].to_string(), report)
}

/// A small corpus for demos and tests (robot mission log flavored).
pub fn demo_corpus() -> &'static str {
    "the quadruped robot moves through the disaster zone and the operator \
     sends text instructions while the robot processes visual data and \
     sensor readings to generate context aware responses in real time and \
     the edge handles low latency predictions while the cloud refines the \
     model as needed and the robot moves to the next zone and reports the \
     status to the operator who reviews the data and sends the next command \
     to the robot in the zone"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models() -> (NgramModel, NgramModel) {
        let corpus = demo_corpus();
        (NgramModel::train(corpus, 2), NgramModel::train(corpus, 5))
    }

    #[test]
    fn ngram_predicts_from_corpus() {
        let (_, target) = models();
        // "the robot" continues plausibly.
        let next = target.predict("the robo");
        assert_eq!(next, Some('t'));
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, target) = models();
        let a = target.generate("the robot", 30);
        let b = target.generate("the robot", 30);
        assert_eq!(a, b);
        assert_eq!(a.chars().count(), 30);
    }

    #[test]
    fn speculative_output_matches_target_greedy() {
        let (draft, target) = models();
        let prompt = "the operator";
        let plain = target.generate(prompt, 60);
        let (spec, _) = speculative_generate(&draft, &target, prompt, 60, 4);
        assert_eq!(spec, plain, "speculative decoding diverged from target");
    }

    #[test]
    fn speculative_saves_target_calls() {
        let (draft, target) = models();
        let (out, report) = speculative_generate(&draft, &target, "the robot", 80, 4);
        assert_eq!(out.chars().count(), report.tokens);
        assert!(
            report.target_calls_per_token() < 0.8,
            "target calls/token {}",
            report.target_calls_per_token()
        );
        assert!(
            report.acceptance_rate > 0.3,
            "acceptance {}",
            report.acceptance_rate
        );
    }

    #[test]
    fn longer_lookahead_fewer_target_calls() {
        let (draft, target) = models();
        let (_, short) = speculative_generate(&draft, &target, "the robot", 60, 2);
        let (_, long) = speculative_generate(&draft, &target, "the robot", 60, 6);
        assert!(long.target_calls <= short.target_calls);
    }

    #[test]
    fn weak_draft_still_correct() {
        let corpus = demo_corpus();
        // Order-1 draft: poor proposals, exactness must still hold.
        let draft = NgramModel::train(corpus, 1);
        let target = NgramModel::train(corpus, 5);
        let plain = target.generate("the edge", 50);
        let (spec, report) = speculative_generate(&draft, &target, "the edge", 50, 4);
        assert_eq!(spec, plain);
        // And a weak draft means lower acceptance.
        assert!(report.acceptance_rate < 0.95);
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn zero_order_panics() {
        let _ = NgramModel::train("abc", 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use sensact_math::rng::StdRng;

    /// The exactness guarantee holds for every prompt position, length
    /// and lookahead: speculative output == target greedy output.
    #[test]
    fn prop_speculative_exactness() {
        let mut rng = StdRng::seed_from_u64(0x5BEC01);
        let corpus = demo_corpus();
        let chars: Vec<char> = corpus.chars().collect();
        let target = NgramModel::train(corpus, 5);
        let drafts: Vec<NgramModel> = (1..4).map(|o| NgramModel::train(corpus, o)).collect();
        for _ in 0..48 {
            let start = rng.random_range(0..300usize);
            let len = rng.random_range(1..60usize);
            let lookahead = rng.random_range(1..8usize);
            let draft_order = rng.random_range(1..4usize);
            if start + 8 >= chars.len() {
                continue;
            }
            let prompt: String = chars[start..start + 8].iter().collect();
            let draft = &drafts[draft_order - 1];
            let plain = target.generate(&prompt, len);
            let (spec, report) = speculative_generate(draft, &target, &prompt, len, lookahead);
            assert_eq!(spec, plain);
            assert!(report.target_calls <= report.tokens.max(1) + 1);
            assert!((0.0..=1.0).contains(&report.acceptance_rate));
        }
    }
}

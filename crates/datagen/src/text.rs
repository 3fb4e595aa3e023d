//! Text corpora: Zipf-worded documents and labeled documents.

use crate::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated vocabulary: `word(rank)` strings with Zipf popularity.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    words: Vec<String>,
    cdf: Vec<f64>,
}

impl Vocabulary {
    /// Build a vocabulary of `size` words with Zipf exponent `theta`.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize, theta: f64) -> Self {
        assert!(size > 0, "vocabulary must be non-empty");
        let words = (0..size).map(|i| format!("w{i:06}")).collect();
        let mut cdf = Vec::with_capacity(size);
        let mut acc = 0.0;
        for k in 1..=size {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Vocabulary { words, cdf }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the vocabulary is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Sample one word.
    pub fn sample<'a>(&'a self, rng: &mut StdRng) -> &'a str {
        let u: f64 = rng.gen();
        let idx = match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => i.min(self.words.len() - 1),
        };
        &self.words[idx]
    }
}

/// Generate a document corpus totalling roughly `scale.bytes` bytes,
/// split into documents of ~`doc_words` words.
pub fn documents(seed: u64, scale: Scale, doc_words: usize) -> Vec<String> {
    let vocab = Vocabulary::new(20_000, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut docs = Vec::new();
    let mut bytes: u64 = 0;
    while bytes < scale.bytes {
        let mut doc = String::with_capacity(doc_words * 8);
        for i in 0..doc_words.max(1) {
            if i > 0 {
                doc.push(' ');
            }
            doc.push_str(vocab.sample(&mut rng));
        }
        bytes += doc.len() as u64 + 1;
        docs.push(doc);
    }
    docs
}

/// A labeled document for classifier training/testing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledDoc {
    /// Class label (e.g. spam / ham, category id).
    pub label: u32,
    /// Document text.
    pub text: String,
}

impl dc_mapreduce::ByteSize for LabeledDoc {
    fn byte_size(&self) -> usize {
        4 + self.text.len() + 4
    }
}

/// Generate labeled documents over `classes` classes, where each class
/// has its own skewed sub-vocabulary (so classifiers have signal).
pub fn labeled_documents(
    seed: u64,
    scale: Scale,
    classes: u32,
    doc_words: usize,
) -> Vec<LabeledDoc> {
    assert!(classes > 0, "need at least one class");
    let mut rng = StdRng::seed_from_u64(seed);
    // Shared background vocabulary plus a per-class topical one.
    let background = Vocabulary::new(8_000, 1.0);
    let topical: Vec<Vocabulary> = (0..classes).map(|_| Vocabulary::new(500, 0.8)).collect();
    let mut docs = Vec::new();
    let mut bytes: u64 = 0;
    while bytes < scale.bytes {
        let label = rng.gen_range(0..classes);
        let mut text = String::with_capacity(doc_words * 8);
        for i in 0..doc_words.max(1) {
            if i > 0 {
                text.push(' ');
            }
            if rng.gen_bool(0.4) {
                // Topical words are disambiguated per class by prefixing.
                text.push_str(&format!(
                    "c{label}{}",
                    topical[label as usize].sample(&mut rng)
                ));
            } else {
                text.push_str(background.sample(&mut rng));
            }
        }
        bytes += text.len() as u64 + 1;
        docs.push(LabeledDoc { label, text });
    }
    docs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_hit_byte_target() {
        let docs = documents(1, Scale::bytes(64 << 10), 100);
        // Separators count toward the byte target, so allow one byte per doc.
        let total: usize = docs.iter().map(|d| d.len() + 1).sum();
        assert!(total >= 64 << 10);
        assert!(total < (64 << 10) * 2, "should not wildly overshoot");
    }

    #[test]
    fn documents_are_deterministic() {
        let a = documents(7, Scale::bytes(8 << 10), 50);
        let b = documents(7, Scale::bytes(8 << 10), 50);
        assert_eq!(a, b);
        let c = documents(8, Scale::bytes(8 << 10), 50);
        assert_ne!(a, c);
    }

    #[test]
    fn vocabulary_is_zipfian() {
        let vocab = Vocabulary::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0usize; 1000];
        for _ in 0..50_000 {
            let w = vocab.sample(&mut rng);
            let rank: usize = w[1..].parse().unwrap();
            counts[rank] += 1;
        }
        assert!(counts[0] > counts[100] && counts[100] > 0);
    }

    #[test]
    fn labeled_docs_have_class_signal() {
        let docs = labeled_documents(5, Scale::bytes(32 << 10), 3, 60);
        assert!(docs.iter().any(|d| d.label == 0));
        assert!(docs.iter().any(|d| d.label == 2));
        // Class-0 docs contain c0-prefixed topical words.
        let d0 = docs.iter().find(|d| d.label == 0).unwrap();
        assert!(d0.text.split(' ').any(|w| w.starts_with("c0")));
    }

    #[test]
    #[should_panic]
    fn labeled_docs_require_classes() {
        labeled_documents(1, Scale::tiny(), 0, 10);
    }
}

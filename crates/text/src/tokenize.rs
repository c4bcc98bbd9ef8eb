//! A small text tokenizer for the examples and data generators.
//!
//! The paper extracts "frequent words" from tweets as user tokens; for
//! the reproduction we need a deterministic tokenizer that lowercases,
//! splits on non-alphanumeric boundaries, and optionally drops stopwords
//! and very short fragments.

/// Configurable tokenizer.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    min_len: usize,
    stopwords: Vec<String>,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Tokenizer {
            min_len: 2,
            stopwords: DEFAULT_STOPWORDS.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// A minimal English stopword list — enough to keep the examples' token
/// sets meaningful without pulling in an IR dependency.
const DEFAULT_STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has", "he", "in", "is", "it",
    "its", "of", "on", "or", "that", "the", "to", "was", "we", "were", "will", "with",
];

impl Tokenizer {
    /// A tokenizer with no stopword removal and no length floor.
    pub fn raw() -> Self {
        Tokenizer {
            min_len: 1,
            stopwords: Vec::new(),
        }
    }

    /// Tokenizes text into lowercase alphanumeric terms.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|s| !s.is_empty())
            .map(|s| s.to_lowercase())
            .filter(|s| s.chars().count() >= self.min_len)
            .filter(|s| !self.stopwords.iter().any(|w| w == s))
            .collect()
    }
}

/// Tokenizes with the default settings (stopwords removed, length ≥ 2).
pub fn tokenize(text: &str) -> Vec<String> {
    Tokenizer::default().tokenize(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_and_lowercases() {
        let toks = tokenize("Starbucks Mocha, COFFEE!");
        assert_eq!(toks, vec!["starbucks", "mocha", "coffee"]);
    }

    #[test]
    fn removes_stopwords_and_short_tokens() {
        let toks = tokenize("the best tea in NYC is at x");
        assert_eq!(toks, vec!["best", "tea", "nyc"]);
    }

    #[test]
    fn raw_keeps_everything() {
        let toks = Tokenizer::raw().tokenize("a b the");
        assert_eq!(toks, vec!["a", "b", "the"]);
    }

    #[test]
    fn unicode_boundaries() {
        let toks = tokenize("café-au-lait ☕ déjà");
        assert_eq!(toks, vec!["café", "au", "lait", "déjà"]);
    }

    #[test]
    fn numbers_are_tokens() {
        assert_eq!(tokenize("route 66 cafe"), vec!["route", "66", "cafe"]);
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("  ,.;  ").is_empty());
    }
}

//! String-interning dictionary mapping tokens to dense [`TokenId`]s.

use crate::TokenId;
use std::collections::HashMap;

/// A bidirectional token dictionary.
///
/// Index construction interns every distinct token string once; all
/// downstream structures (token sets, inverted lists, signatures) work
/// with the dense [`TokenId`] space `0..len()`.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    by_name: HashMap<String, TokenId>,
    names: Vec<String>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Number of distinct tokens interned so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no token has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interns a token, returning its id (existing id if already known).
    pub fn intern(&mut self, token: &str) -> TokenId {
        if let Some(&id) = self.by_name.get(token) {
            return id;
        }
        let id =
            TokenId(u32::try_from(self.names.len()).expect("more than u32::MAX distinct tokens"));
        self.names.push(token.to_owned());
        self.by_name.insert(token.to_owned(), id);
        id
    }

    /// Interns a batch of tokens, returning their ids in input order
    /// (duplicates map to the same id).
    pub fn intern_all<'a, I: IntoIterator<Item = &'a str>>(&mut self, tokens: I) -> Vec<TokenId> {
        tokens.into_iter().map(|t| self.intern(t)).collect()
    }

    /// Looks up a token's id without interning.
    pub fn get(&self, token: &str) -> Option<TokenId> {
        self.by_name.get(token).copied()
    }

    /// The string for an id, if the id was issued by this dictionary.
    pub fn name(&self, id: TokenId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Iterates `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TokenId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (TokenId(i as u32), s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("coffee");
        let b = d.intern("coffee");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("mocha"), TokenId(0));
        assert_eq!(d.intern("coffee"), TokenId(1));
        assert_eq!(d.intern("starbucks"), TokenId(2));
        assert_eq!(d.intern("coffee"), TokenId(1));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn lookup_both_directions() {
        let mut d = Dictionary::new();
        let id = d.intern("tea");
        assert_eq!(d.get("tea"), Some(id));
        assert_eq!(d.get("ice"), None);
        assert_eq!(d.name(id), Some("tea"));
        assert_eq!(d.name(TokenId(99)), None);
    }

    #[test]
    fn intern_all_preserves_order() {
        let mut d = Dictionary::new();
        let ids = d.intern_all(["a", "b", "a", "c"]);
        assert_eq!(ids, vec![TokenId(0), TokenId(1), TokenId(0), TokenId(2)]);
    }

    #[test]
    fn iter_enumerates_in_id_order() {
        let mut d = Dictionary::new();
        d.intern_all(["x", "y"]);
        let pairs: Vec<(TokenId, &str)> = d.iter().collect();
        assert_eq!(pairs, vec![(TokenId(0), "x"), (TokenId(1), "y")]);
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.get("anything"), None);
    }
}

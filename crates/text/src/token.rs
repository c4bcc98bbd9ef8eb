//! Token ids and token sets.

/// A dense token identifier assigned by a [`crate::Dictionary`].
///
/// `u32` comfortably covers real vocabularies (the paper's Twitter
/// dataset has well under 2^32 distinct tokens) while halving the memory
/// of posting lists compared to `usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub u32);

impl TokenId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for TokenId {
    fn from(v: u32) -> Self {
        TokenId(v)
    }
}

/// A sorted, deduplicated set of token ids — the `o.T` / `q.T` of the
/// paper's data and query model.
///
/// Keeping the ids sorted makes intersection/union a linear merge, which
/// the weighted similarity functions and the verifier rely on.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct TokenSet {
    ids: Vec<TokenId>,
}

impl TokenSet {
    /// The empty token set.
    pub fn empty() -> Self {
        TokenSet { ids: Vec::new() }
    }

    /// Builds a token set from arbitrary ids (sorts and deduplicates).
    pub fn from_ids<I: IntoIterator<Item = TokenId>>(ids: I) -> Self {
        let mut v: Vec<TokenId> = ids.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        TokenSet { ids: v }
    }

    /// Builds a token set from ids already known to be sorted and unique.
    ///
    /// Used on hot paths (index construction); validated in debug builds.
    pub fn from_sorted_unique(ids: Vec<TokenId>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not sorted/unique");
        TokenSet { ids }
    }

    /// Number of tokens.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, t: TokenId) -> bool {
        self.ids.binary_search(&t).is_ok()
    }

    /// The tokens in ascending id order.
    #[inline]
    pub fn ids(&self) -> &[TokenId] {
        &self.ids
    }

    /// Heap bytes owned by this set. **Capacity**-based: a `Vec` owns
    /// its whole growth-doubled allocation, not just the initialized
    /// prefix, so length-based accounting undercounts live sets whose
    /// capacity exceeds their length (e.g. after `from_ids` deduped).
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<TokenId>()
    }

    /// Iterates over the token ids.
    pub fn iter(&self) -> impl Iterator<Item = TokenId> + '_ {
        self.ids.iter().copied()
    }

    /// Linear-merge intersection with another set.
    pub fn intersection<'a>(&'a self, other: &'a TokenSet) -> impl Iterator<Item = TokenId> + 'a {
        MergeIntersect {
            a: &self.ids,
            b: &other.ids,
            i: 0,
            j: 0,
        }
    }

    /// Number of common tokens.
    pub fn intersection_size(&self, other: &TokenSet) -> usize {
        self.intersection(other).count()
    }

    /// Union size `|a| + |b| − |a ∩ b|`.
    pub fn union_size(&self, other: &TokenSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }
}

impl FromIterator<TokenId> for TokenSet {
    fn from_iter<I: IntoIterator<Item = TokenId>>(iter: I) -> Self {
        TokenSet::from_ids(iter)
    }
}

struct MergeIntersect<'a> {
    a: &'a [TokenId],
    b: &'a [TokenId],
    i: usize,
    j: usize,
}

impl<'a> Iterator for MergeIntersect<'a> {
    type Item = TokenId;

    fn next(&mut self) -> Option<TokenId> {
        while self.i < self.a.len() && self.j < self.b.len() {
            let (x, y) = (self.a[self.i], self.b[self.j]);
            match x.cmp(&y) {
                std::cmp::Ordering::Less => self.i += 1,
                std::cmp::Ordering::Greater => self.j += 1,
                std::cmp::Ordering::Equal => {
                    self.i += 1;
                    self.j += 1;
                    return Some(x);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ids: &[u32]) -> TokenSet {
        TokenSet::from_ids(ids.iter().map(|&i| TokenId(i)))
    }

    #[test]
    fn from_ids_sorts_and_dedups() {
        let s = ts(&[5, 1, 3, 1, 5]);
        assert_eq!(s.ids(), &[TokenId(1), TokenId(3), TokenId(5)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn contains_and_empty() {
        let s = ts(&[2, 4]);
        assert!(s.contains(TokenId(2)));
        assert!(!s.contains(TokenId(3)));
        assert!(!s.is_empty());
        assert!(TokenSet::empty().is_empty());
        assert!(!TokenSet::empty().contains(TokenId(0)));
    }

    #[test]
    fn intersection_merge() {
        let a = ts(&[1, 2, 3, 5, 8]);
        let b = ts(&[2, 3, 4, 8, 9]);
        let got: Vec<TokenId> = a.intersection(&b).collect();
        assert_eq!(got, vec![TokenId(2), TokenId(3), TokenId(8)]);
        assert_eq!(a.intersection_size(&b), 3);
        assert_eq!(a.union_size(&b), 7);
    }

    #[test]
    fn intersection_with_empty() {
        let a = ts(&[1, 2]);
        let e = TokenSet::empty();
        assert_eq!(a.intersection_size(&e), 0);
        assert_eq!(a.union_size(&e), 2);
    }

    #[test]
    fn paper_figure1_sets() {
        // q.T = {t1,t2,t3}; o1.T = {t1,t2}: intersection {t1,t2}, union 3.
        let q = ts(&[1, 2, 3]);
        let o1 = ts(&[1, 2]);
        assert_eq!(q.intersection_size(&o1), 2);
        assert_eq!(q.union_size(&o1), 3);
    }

    #[test]
    fn heap_bytes_is_capacity_based() {
        // from_ids dedups after collecting, so capacity can exceed len;
        // the heap report must cover the full allocation.
        let s = ts(&[5, 1, 3, 1, 5, 3, 1]);
        assert_eq!(s.len(), 3);
        assert!(s.heap_bytes() >= s.len() * std::mem::size_of::<TokenId>());
        assert_eq!(TokenSet::empty().heap_bytes(), 0);
    }

    #[test]
    fn from_iterator() {
        let s: TokenSet = [TokenId(9), TokenId(1), TokenId(9)].into_iter().collect();
        assert_eq!(s.ids(), &[TokenId(1), TokenId(9)]);
    }

    #[test]
    fn token_id_conversions() {
        let t: TokenId = 7u32.into();
        assert_eq!(t, TokenId(7));
        assert_eq!(t.index(), 7);
    }
}

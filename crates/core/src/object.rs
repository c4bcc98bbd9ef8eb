//! The spatio-textual object (ROI) data model of Section 2.1.

use seal_geom::Rect;
use seal_text::TokenSet;

/// A dense object identifier: the object's row in the
/// [`ObjectStore`](crate::ObjectStore).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for ObjectId {
    fn from(v: u32) -> Self {
        ObjectId(v)
    }
}

/// A region-of-interest object `o = (R, T)`: an MBR region plus a token
/// set (Section 2.1's data model).
#[derive(Debug, Clone, PartialEq)]
pub struct RoiObject {
    /// The spatial information `o.R` (an MBR).
    pub region: Rect,
    /// The textual information `o.T` (a token-id set).
    pub tokens: TokenSet,
}

impl RoiObject {
    /// Convenience constructor.
    pub fn new(region: Rect, tokens: TokenSet) -> Self {
        RoiObject { region, tokens }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_text::TokenId;

    #[test]
    fn object_id_roundtrip() {
        let id: ObjectId = 5u32.into();
        assert_eq!(id.index(), 5);
        assert_eq!(id, ObjectId(5));
    }

    #[test]
    fn roi_object_holds_both_sides() {
        let o = RoiObject::new(
            Rect::new(0.0, 0.0, 10.0, 10.0).unwrap(),
            TokenSet::from_ids([TokenId(1), TokenId(2)]),
        );
        assert_eq!(o.region.area(), 100.0);
        assert_eq!(o.tokens.len(), 2);
    }
}

//! Axis-aligned rectangles (MBRs) and overlap-based spatial similarity.

use crate::point::check_coordinate;
use crate::{GeomError, Point, Result};

/// An axis-aligned rectangle (`min ≤ max` on both axes).
///
/// This is the MBR representation of the paper's regions `o.R` / `q.R`
/// ("We use the well-known minimum bounding rectangle (MBR) to represent
/// region o.R through the bottom-left point and top-right point",
/// Section 2.1). Degenerate rectangles (points, segments) are valid: the
/// MBR of a single geotagged tweet is a point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from its bottom-left `(min_x, min_y)` and
    /// top-right `(max_x, max_y)` corners.
    ///
    /// Every coordinate lies within ±[`crate::MAX_COORDINATE`], so the
    /// width, height, area, MBR and every area sum of two rects stay
    /// finite.
    ///
    /// # Errors
    /// * [`GeomError::NonFiniteCoordinate`] for NaN / infinite inputs.
    /// * [`GeomError::CoordinateOutOfRange`] past ±[`crate::MAX_COORDINATE`].
    /// * [`GeomError::InvertedRect`] if `min > max` on either axis.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Result<Self> {
        for v in [min_x, min_y, max_x, max_y] {
            check_coordinate(v)?;
        }
        if min_x > max_x || min_y > max_y {
            return Err(GeomError::InvertedRect {
                min_x,
                min_y,
                max_x,
                max_y,
            });
        }
        Ok(Rect {
            min: Point::raw(min_x, min_y),
            max: Point::raw(max_x, max_y),
        })
    }

    /// A rectangle centred at `(cx, cy)` with the given width and height.
    pub fn centered(cx: f64, cy: f64, width: f64, height: f64) -> Result<Self> {
        Rect::new(
            cx - width / 2.0,
            cy - height / 2.0,
            cx + width / 2.0,
            cy + height / 2.0,
        )
    }

    /// The degenerate rectangle containing exactly one point.
    ///
    /// # Errors
    /// As [`Rect::new`], for a point built past its checks.
    pub fn point(p: Point) -> Result<Self> {
        Rect::new(p.x, p.y, p.x, p.y)
    }

    /// Bottom-left corner.
    #[inline]
    pub fn min(&self) -> Point {
        self.min
    }

    /// Top-right corner.
    #[inline]
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width (`max.x - min.x`), never negative.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (`max.y - min.y`), never negative.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area `|R|`. Zero for degenerate rectangles.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::raw(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// True if the rectangles share any point (boundary touch counts).
    ///
    /// Boundary-touching rectangles have zero intersection *area*, so the
    /// similarity functions treat them as non-overlapping; `intersects`
    /// is the cheap test used by tree traversals and grid assignment.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// True if the rectangles share a region of positive area.
    #[inline]
    pub fn overlaps_positively(&self, other: &Rect) -> bool {
        self.min.x < other.max.x
            && other.min.x < self.max.x
            && self.min.y < other.max.y
            && other.min.y < self.max.y
    }

    /// True if `other` lies entirely inside `self` (boundaries included).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
    }

    /// The intersection rectangle, if the two rectangles intersect at all.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min: self.min.max(&other.min),
            max: self.max.min(&other.max),
        })
    }

    /// Intersection area `|a ∩ b|` (Section 2.1's overlap). Zero when the
    /// rectangles are disjoint or touch only along a boundary.
    #[inline]
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        let w = (self.max.x.min(other.max.x) - self.min.x.max(other.min.x)).max(0.0);
        let h = (self.max.y.min(other.max.y) - self.min.y.max(other.min.y)).max(0.0);
        w * h
    }

    /// Union area `|a ∪ b| = |a| + |b| − |a ∩ b|` (Definition 1).
    #[inline]
    pub fn union_area(&self, other: &Rect) -> f64 {
        self.area() + other.area() - self.intersection_area(other)
    }

    /// The MBR of the two rectangles (set-union of extents, not the
    /// geometric union — this is what R-tree node MBRs grow by).
    #[inline]
    pub fn mbr_with(&self, other: &Rect) -> Rect {
        Rect {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// The MBR of a non-empty iterator of rectangles.
    pub fn mbr_of<'a, I: IntoIterator<Item = &'a Rect>>(rects: I) -> Option<Rect> {
        let mut it = rects.into_iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, r| acc.mbr_with(r)))
    }

    /// Translates the rectangle by `(dx, dy)`.
    pub fn translated(&self, dx: f64, dy: f64) -> Result<Rect> {
        Rect::new(
            self.min.x + dx,
            self.min.y + dy,
            self.max.x + dx,
            self.max.y + dy,
        )
    }

    /// Scales the rectangle about its centre by the given factor.
    pub fn scaled(&self, factor: f64) -> Result<Rect> {
        let c = self.center();
        Rect::centered(c.x, c.y, self.width() * factor, self.height() * factor)
    }

    /// Spatial Jaccard similarity `|a∩b| / |a∪b|` (Definition 1).
    ///
    /// Degenerate-vs-degenerate comparisons (both areas zero) return 1.0
    /// when the rectangles are equal and 0.0 otherwise, which keeps
    /// reflexivity (`simR(a,a)=1`) without dividing by zero.
    pub fn jaccard(&self, other: &Rect) -> f64 {
        let union = self.union_area(other);
        if union <= 0.0 {
            // Both degenerate: identical rects are perfectly similar.
            return if self == other { 1.0 } else { 0.0 };
        }
        self.intersection_area(other) / union
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d).unwrap()
    }

    #[test]
    fn new_validates() {
        assert!(Rect::new(0.0, 0.0, -1.0, 1.0).is_err());
        assert!(Rect::new(0.0, 2.0, 1.0, 1.0).is_err());
        assert!(Rect::new(f64::NAN, 0.0, 1.0, 1.0).is_err());
        assert!(Rect::point(Point::raw(0.0, f64::INFINITY)).is_err());
        // The overflowing extent of a height-∞ rect is refused up front.
        assert_eq!(
            Rect::new(0.0, -1e308, 1.0, 1e308),
            Err(GeomError::CoordinateOutOfRange { value: -1e308 })
        );
        let m = crate::MAX_COORDINATE;
        let widest = Rect::new(-m, -m, m, m).unwrap();
        assert_eq!(widest.jaccard(&widest), 1.0);
        assert!(Rect::new(m, 0.0, m, 1.0)
            .unwrap()
            .translated(m, 0.0)
            .is_err());
        assert!(
            Rect::new(0.0, 0.0, 0.0, 0.0).is_ok(),
            "points are valid MBRs"
        );
    }

    #[test]
    fn area_width_height() {
        let x = r(1.0, 2.0, 4.0, 10.0);
        assert_eq!(x.width(), 3.0);
        assert_eq!(x.height(), 8.0);
        assert_eq!(x.area(), 24.0);
        assert_eq!(x.center(), Point::raw(2.5, 6.0));
    }

    #[test]
    fn paper_figure1_example_o1_q() {
        // Figure 1: q.R = [60,40]x[120,100] (the query rectangle spans
        // x in [60,120], y in [40,100]); o1.R overlaps it producing
        // |q∩o1| = 1000 and |q∪o1| = 4400 => simR = 0.2272...
        // We reconstruct compatible rectangles: q is 60x60 = 3600,
        // o1 must have area 1800 with overlap 1000:
        let q = r(60.0, 40.0, 120.0, 100.0);
        let o1 = r(10.0, 80.0, 100.0, 100.0); // 90 x 20 = 1800
        assert_eq!(q.intersection_area(&o1), 40.0 * 20.0);
        assert_eq!(q.union_area(&o1), 3600.0 + 1800.0 - 800.0);
        let sim = q.jaccard(&o1);
        assert!((sim - 800.0 / 4600.0).abs() < 1e-12);
    }

    #[test]
    fn intersection_geometry() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        let b = r(5.0, 5.0, 15.0, 15.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, r(5.0, 5.0, 10.0, 10.0));
        assert_eq!(a.intersection_area(&b), 25.0);
        let c = r(20.0, 20.0, 30.0, 30.0);
        assert!(a.intersection(&c).is_none());
        assert_eq!(a.intersection_area(&c), 0.0);
    }

    #[test]
    fn boundary_touch_has_zero_area_but_intersects() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        let b = r(10.0, 0.0, 20.0, 10.0);
        assert!(a.intersects(&b));
        assert!(!a.overlaps_positively(&b));
        assert_eq!(a.intersection_area(&b), 0.0);
        assert_eq!(a.jaccard(&b), 0.0);
    }

    #[test]
    fn containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(2.0, 2.0, 8.0, 8.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer));
    }

    #[test]
    fn mbr() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(4.0, 4.0, 6.0, 6.0);
        let m = a.mbr_with(&b);
        assert_eq!(m, r(0.0, 0.0, 6.0, 6.0));
        let all = Rect::mbr_of([&a, &b]).unwrap();
        assert_eq!(all, m);
        assert!(Rect::mbr_of(std::iter::empty::<&Rect>()).is_none());
    }

    #[test]
    fn jaccard_properties() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        let b = r(5.0, 0.0, 15.0, 10.0);
        assert_eq!(a.jaccard(&a), 1.0);
        assert_eq!(a.jaccard(&b), b.jaccard(&a));
        // overlap 50, union 150 => 1/3
        assert!((a.jaccard(&b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_similarity() {
        let p = Rect::point(Point::raw(3.0, 3.0)).unwrap();
        let q = Rect::point(Point::raw(4.0, 4.0)).unwrap();
        assert_eq!(p.jaccard(&p), 1.0);
        assert_eq!(p.jaccard(&q), 0.0);
        // Degenerate vs non-degenerate: zero intersection area.
        let big = r(0.0, 0.0, 10.0, 10.0);
        assert_eq!(big.jaccard(&p), 0.0);
    }

    #[test]
    fn translate_and_scale() {
        let a = r(0.0, 0.0, 2.0, 4.0);
        let t = a.translated(1.0, -1.0).unwrap();
        assert_eq!(t, r(1.0, -1.0, 3.0, 3.0));
        let s = a.scaled(2.0).unwrap();
        assert_eq!(s.width(), 4.0);
        assert_eq!(s.height(), 8.0);
        assert_eq!(s.center(), a.center());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::MAX_COORDINATE;
    use proptest::prelude::*;

    /// A coordinate anywhere in the accepted range: a sign, a binary
    /// magnitude from 2⁻¹⁰ up to the bound (clamped to it) or zero.
    fn coordinate() -> impl Strategy<Value = f64> {
        let top = MAX_COORDINATE.log2() as i32;
        (0u8..2, -11i32..=top, 1.0f64..2.0).prop_map(|(sign, exp, mantissa)| {
            let magnitude = match exp {
                -11 => 0.0,
                e => (mantissa * 2f64.powi(e)).min(MAX_COORDINATE),
            };
            if sign == 0 {
                magnitude
            } else {
                -magnitude
            }
        })
    }

    fn rect() -> impl Strategy<Value = Rect> {
        (coordinate(), coordinate(), coordinate(), coordinate())
            .prop_map(|(a, b, c, d)| Rect::new(a.min(c), b.min(d), a.max(c), b.max(d)).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Within the accepted range no area, union or MBR overflows,
        /// every similarity is a number in `[0, 1]`, and a positive-area
        /// rect is exactly similar to itself.
        #[test]
        fn accepted_rects_keep_every_area_finite(a in rect(), b in rect()) {
            let m = a.mbr_with(&b);
            for v in [a.area(), b.area(), a.intersection_area(&b), a.union_area(&b), m.area()] {
                prop_assert!(v.is_finite() && v >= 0.0, "{v} for {a:?}, {b:?}");
            }
            let j = a.jaccard(&b);
            prop_assert!((0.0..=1.0).contains(&j), "jaccard {j} for {a:?}, {b:?}");
            for r in [a, b, m] {
                prop_assert!(r.area() <= 0.0 || r.jaccard(&r) == 1.0, "jaccard(r, r) for {r:?}");
            }
        }
    }
}

//! 2-D points.

use crate::{GeomError, Result, MAX_COORDINATE};

/// A point in the planar data space.
///
/// SEAL's data space is the MBR of all object regions (Section 4.1); we
/// keep coordinates as `f64` "map units" (the paper uses metres-scale
/// units, e.g. the 120×120 running example of Figure 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point, validating that both coordinates are finite
    /// and at most [`MAX_COORDINATE`] in magnitude.
    ///
    /// # Errors
    /// * [`GeomError::NonFiniteCoordinate`] on NaN or infinity.
    /// * [`GeomError::CoordinateOutOfRange`] past ±[`MAX_COORDINATE`].
    pub fn new(x: f64, y: f64) -> Result<Self> {
        for v in [x, y] {
            check_coordinate(v)?;
        }
        Ok(Point { x, y })
    }

    /// Creates a point without validation. Useful in hot paths where the
    /// inputs were already validated (e.g. grid cell corners derived from
    /// a validated [`crate::Rect`]); the caller keeps both coordinates
    /// within ±[`MAX_COORDINATE`].
    #[inline]
    pub const fn raw(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(&self, other: &Point) -> Point {
        Point::raw(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(&self, other: &Point) -> Point {
        Point::raw(self.x.max(other.x), self.y.max(other.y))
    }
}

/// One coordinate as every public constructor of [`Point`] and
/// [`crate::Rect`] accepts it: finite, magnitude at most
/// [`MAX_COORDINATE`]. One comparison, which NaN and ±∞ also fail.
#[inline]
pub(crate) fn check_coordinate(v: f64) -> Result<()> {
    if v.abs() <= MAX_COORDINATE {
        return Ok(());
    }
    Err(if v.is_finite() {
        GeomError::CoordinateOutOfRange { value: v }
    } else {
        GeomError::NonFiniteCoordinate { value: v }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_nan_and_infinity() {
        assert!(Point::new(f64::NAN, 0.0).is_err());
        assert!(Point::new(0.0, f64::INFINITY).is_err());
        assert!(Point::new(0.0, f64::NEG_INFINITY).is_err());
        assert!(Point::new(1.5, -2.5).is_ok());
        assert!(Point::new(MAX_COORDINATE, -MAX_COORDINATE).is_ok());
        for v in [1e308, -1e308, MAX_COORDINATE * 2.0] {
            assert_eq!(
                Point::new(0.0, v),
                Err(GeomError::CoordinateOutOfRange { value: v })
            );
        }
    }

    #[test]
    fn min_max_are_componentwise() {
        let a = Point::raw(1.0, 9.0);
        let b = Point::raw(5.0, 2.0);
        assert_eq!(a.min(&b), Point::raw(1.0, 2.0));
        assert_eq!(a.max(&b), Point::raw(5.0, 9.0));
    }
}

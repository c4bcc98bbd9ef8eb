//! Error type for geometry construction and grid partitioning.

use std::fmt;

/// Errors raised by geometry constructors.
///
/// SEAL's search structures are built once over millions of objects, so
/// rather than panicking deep inside index construction we surface
/// malformed inputs (NaN coordinates, inverted rectangles, zero-sized
/// grids) as typed errors the caller can report with context.
#[derive(Debug, Clone, PartialEq)]
pub enum GeomError {
    /// A coordinate was NaN or infinite.
    NonFiniteCoordinate {
        /// The offending value.
        value: f64,
    },
    /// A finite coordinate's magnitude exceeded [`crate::MAX_COORDINATE`].
    CoordinateOutOfRange {
        /// The offending value.
        value: f64,
    },
    /// `min > max` on some axis when building a [`crate::Rect`].
    InvertedRect {
        /// Minimum corner x.
        min_x: f64,
        /// Minimum corner y.
        min_y: f64,
        /// Maximum corner x.
        max_x: f64,
        /// Maximum corner y.
        max_y: f64,
    },
    /// A grid was requested with zero cells per side.
    ZeroGridSide,
    /// A grid was requested over a degenerate (zero width or height) space.
    DegenerateSpace {
        /// Width of the offending space rectangle.
        width: f64,
        /// Height of the offending space rectangle.
        height: f64,
    },
    /// A grid-tree level exceeded [`crate::MAX_TREE_LEVEL`].
    LevelOutOfRange {
        /// The requested level.
        level: u8,
    },
    /// Cell coordinates lay outside the `2^level × 2^level` range.
    CellOutOfRange {
        /// Level of the cell.
        level: u8,
        /// X index of the cell.
        ix: u32,
        /// Y index of the cell.
        iy: u32,
    },
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::NonFiniteCoordinate { value } => {
                write!(f, "non-finite coordinate: {value}")
            }
            GeomError::CoordinateOutOfRange { value } => write!(
                f,
                "coordinate {value:e} exceeds the supported magnitude {:e}",
                crate::MAX_COORDINATE
            ),
            GeomError::InvertedRect {
                min_x,
                min_y,
                max_x,
                max_y,
            } => write!(
                f,
                "inverted rectangle: min=({min_x:e},{min_y:e}) max=({max_x:e},{max_y:e})"
            ),
            GeomError::ZeroGridSide => write!(f, "grid must have at least 1 cell per side"),
            GeomError::DegenerateSpace { width, height } => {
                write!(f, "grid space is degenerate: {width:e} x {height:e}")
            }
            GeomError::LevelOutOfRange { level } => {
                write!(f, "grid-tree level {level} exceeds the supported maximum")
            }
            GeomError::CellOutOfRange { level, ix, iy } => {
                write!(f, "cell ({ix},{iy}) out of range for level {level}")
            }
        }
    }
}

impl std::error::Error for GeomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GeomError::NonFiniteCoordinate { value: f64::NAN };
        assert!(e.to_string().contains("non-finite"));
        let e = GeomError::CoordinateOutOfRange { value: 1e308 };
        assert!(e.to_string().contains("exceeds"));
        let e = GeomError::InvertedRect {
            min_x: 1.0,
            min_y: 0.0,
            max_x: 0.0,
            max_y: 2.0,
        };
        assert!(e.to_string().contains("inverted"));
        let e = GeomError::ZeroGridSide;
        assert!(e.to_string().contains("at least 1"));
        let e = GeomError::DegenerateSpace {
            width: 0.0,
            height: 3.0,
        };
        assert!(e.to_string().contains("degenerate"));
        let e = GeomError::LevelOutOfRange { level: 40 };
        assert!(e.to_string().contains("level 40"));
        let e = GeomError::CellOutOfRange {
            level: 2,
            ix: 9,
            iy: 0,
        };
        assert!(e.to_string().contains("(9,0)"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: std::error::Error>(_e: E) {}
        takes_err(GeomError::ZeroGridSide);
    }
}

//! Tensor containers and the tiled data layout of the SOCC'17 accelerator.
//!
//! The accelerator described in the paper organizes feature maps into 4x4
//! **tiles** stored in row-major tile order (paper Fig. 2); grouping rows
//! of tiles into **stripes** that fit the on-FPGA SRAM banks is the
//! striping planner's job in `zskip-core`. This crate provides:
//!
//! * [`Tensor`]: a dense CHW tensor over any element type,
//! * [`Tile`]: one 4x4 tile (16 values, one SRAM word),
//! * [`TiledFeatureMap`]: a feature map re-laid-out as row-major tiles.
//!
//! # Example
//!
//! ```
//! use zskip_tensor::{Tensor, TiledFeatureMap};
//!
//! let t = Tensor::from_fn(3, 8, 8, |c, y, x| (c * 100 + y * 8 + x) as i32);
//! let tiled = TiledFeatureMap::from_tensor(&t);
//! let back = tiled.to_tensor();
//! assert_eq!(t, back);
//! ```

pub mod shape;
pub mod tensor;
pub mod tile;
pub mod tiled;

pub use shape::Shape;
pub use tensor::Tensor;
pub use tile::{dydx_to_offset, offset_to_dydx, Tile, TILE_DIM, TILE_ELEMS};
pub use tiled::TiledFeatureMap;

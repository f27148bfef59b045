//! Space-filling curves.
//!
//! Data-mapping-based spatial indices map 2-D points to 1-D values and index
//! the mapped order (paper §II). ELSI's map-and-sort applicability condition
//! builds on exactly these mappings. Two curves are provided:
//!
//! * [`morton`] — the Z-order curve used by the ZM index,
//! * [`hilbert`] — the Hilbert curve used by HRR bulk loading and RSMI.

pub mod convert;
pub mod hilbert;
pub mod morton;

pub use hilbert::{hilbert_decode, hilbert_encode, hilbert_of, hilbert_to_unit, HILBERT_ORDER};
pub use morton::{
    morton_cell, morton_decode, morton_encode, morton_of, morton_to_unit, MORTON_BITS,
};

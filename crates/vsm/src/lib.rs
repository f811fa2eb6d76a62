//! # cafc-vsm
//!
//! The vector-space model underlying the CAFC form-page model (§2.1 of the
//! paper): sparse term vectors, the location-aware TF-IDF weighting of
//! Equation 1, the cosine similarity of Equation 2, and the centroid
//! computation of Equation 4.
//!
//! The crate is generic over *which* text went into a vector — the core
//! crate builds one vector per feature space (page contents PC, form
//! contents FC) and combines their similarities with Equation 3.
//!
//! ```
//! use cafc_text::TermDict;
//! use cafc_vsm::{CountsBuilder, DocumentFrequencies};
//!
//! let mut dict = TermDict::new();
//! let flight = dict.intern("flight");
//! let hotel = dict.intern("hotel");
//!
//! // Two tiny "documents" as weighted term counts.
//! let mut a = CountsBuilder::new();
//! a.add(flight, 1.0);
//! a.add(flight, 1.0);
//! let mut b = CountsBuilder::new();
//! b.add(flight, 1.0);
//! b.add(hotel, 1.0);
//!
//! let mut df = DocumentFrequencies::new();
//! df.add_counts(&a);
//! df.add_counts(&b);
//!
//! let va = a.tf_idf(&df);
//! let vb = b.tf_idf(&df);
//! let sim = va.cosine(&vb);
//! assert!((0.0..=1.0).contains(&sim));
//! ```

#![warn(missing_docs)]

pub mod counts;
pub mod df;
pub mod schemes;
pub mod sparse;

pub use counts::CountsBuilder;
pub use df::DocumentFrequencies;
pub use schemes::{weigh, IdfScheme, TfScheme};
pub use sparse::SparseVector;

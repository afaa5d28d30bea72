//! A quantized machine-learning workload running on the IMC macro.
//!
//! The paper motivates reconfigurable bit-precision with machine-learning
//! inference ("the limited bit-precision architecture can result in
//! unnecessary use of hardware"). This crate provides that workload: a
//! nearest-prototype classifier whose dot products run **in-memory** —
//! multiplications via the macro's bit-parallel MULT at a configurable
//! precision, partial products accumulated with in-memory ADDs where lane
//! widths allow.
//!
//! It demonstrates exactly the trade the paper sells: at 8-bit precision
//! the classifier is as accurate as floating point on the synthetic task;
//! dropping to 4- or 2-bit cuts cycles and energy while accuracy degrades
//! gracefully.
//!
//! # Examples
//!
//! ```
//! use bpimc_nn::{dataset::Dataset, classifier::PrototypeClassifier};
//! use bpimc_core::Precision;
//!
//! let data = Dataset::synthetic_blobs(4, 8, 50, 42);
//! let mut clf = PrototypeClassifier::fit(&data, Precision::P8);
//! let report = clf.evaluate(&data);
//! assert!(report.accuracy > 0.9);
//! ```

pub mod classifier;
pub mod dataset;
pub(crate) mod quant;

pub use classifier::{
    chunks_per_class, classify_bindings, classify_from_outputs, classify_program,
    classify_quantized, dot_program, imc_dot, prototype_norms, EvalReport, PrototypeClassifier,
};
pub use dataset::Dataset;

//! Behavioral 28 nm MOSFET models for the bpimc circuit-level experiments.
//!
//! The paper evaluates its bit-line computing circuits with post-layout SPICE
//! in a 28 nm CMOS process. No SPICE ecosystem exists for Rust, so this crate
//! provides the substitute substrate: a compact, *behavioral* transistor
//! model adequate for the quantities the paper reports —
//!
//! * drain current vs gate/drain bias across strong inversion, velocity
//!   saturation and sub-threshold (a smoothed alpha-power law, see
//!   [`model::Mosfet::id`]),
//! * process corners ([`Corner`]: NN/SS/FF/SF/FS) shifting threshold voltage
//!   and transconductance of NMOS/PMOS independently,
//! * threshold flavors ([`VtFlavor`]: RVT/LVT/HVT) — the paper's BL boosting
//!   circuit uses LVT devices for P0/N0/N1,
//! * local VT mismatch via the Pelgrom law ([`MismatchModel`]), which drives the
//!   Monte-Carlo delay distributions of the paper's Fig. 2,
//! * supply / temperature dependence ([`Env`]).
//!
//! Absolute currents are calibrated to typical published 28 nm HKMG values
//! (cell read current ~40 uA at 0.9 V); the workspace's experiments rely on
//! *ratios and shapes* (corner spreads, WLUD vs boosted discharge, tails),
//! which the model reproduces mechanistically rather than by table lookup.
//!
//! # Examples
//!
//! ```
//! use bpimc_device::{Env, Mosfet, VtFlavor};
//!
//! let env = Env::nominal(); // 0.9 V, 25 C, NN corner
//! let access = Mosfet::nmos(VtFlavor::Rvt, 90.0, 30.0);
//! let i_on = access.id(0.9, 0.9, &env);
//! let i_weak = access.id(0.55, 0.9, &env); // WLUD-style under-driven gate
//! assert!(i_on > 5.0 * i_weak);
//! ```

pub(crate) mod env;
pub(crate) mod fastmath;
pub(crate) mod mismatch;
pub(crate) mod model;
pub(crate) mod params;
pub(crate) mod types;

pub use env::Env;
pub use mismatch::MismatchModel;
pub use model::{MosParams, MosParamsLanes, Mosfet};
pub use types::{Corner, DeviceKind, VtFlavor};

//! Electrical models of the paper's SRAM cell and bit-line computing path.
//!
//! Everything here is assembled from [`bpimc_circuit`] netlists and simulated
//! with real transients — this is the substitute for the paper's post-layout
//! SPICE runs. The crate covers:
//!
//! * the 6T bit-cell ([`sram6t`]) with per-device mismatch sampling,
//! * the BL boosting circuit of Fig. 3 ([`boost`]): LVT P0 sensing the BL
//!   sag, mirror node, LVT N0/N1 pull-down stack — the positive-feedback
//!   accelerator that finishes the discharge the short WL pulse starts,
//! * the single-ended sense amplifier model (`senseamp`),
//! * the complete dual-WL bit-line computing test-bench ([`blbench`]) in all
//!   three schemes the paper compares: conventional full static WL, WLUD,
//!   and the proposed short WL + BL boost,
//! * read-disturb margin and BL computing delay Monte-Carlo with
//!   failure-rate extrapolation ([`disturb`]) at the paper's 2.5e-5
//!   operating points (WLUD at ~0.55 V, short pulse at ~140 ps).
//!
//! # Examples
//!
//! Compare the nominal (no-mismatch) BL computing delay of WLUD vs the
//! proposed scheme, as in the paper's Fig. 7(a):
//!
//! ```no_run
//! use bpimc_cell::blbench::{BlComputeBench, WlScheme};
//! use bpimc_device::Env;
//!
//! let wlud = BlComputeBench::new(128, Env::nominal(), WlScheme::Wlud { v_wl: 0.55 });
//! let prop = BlComputeBench::new(128, Env::nominal(), WlScheme::short_boost_140ps());
//! let d_wlud = wlud.nominal_delay(false, true).unwrap();
//! let d_prop = prop.nominal_delay(false, true).unwrap();
//! assert!(d_prop < d_wlud);
//! ```

pub mod blbench;
pub mod boost;
pub mod disturb;
pub(crate) mod senseamp;
pub mod sram6t;

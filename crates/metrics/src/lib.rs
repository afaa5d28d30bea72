//! Timing, energy, area and efficiency models of the macro.
//!
//! The paper's evaluation quantities are produced here:
//!
//! * [`DelayScaling`] — the voltage/corner scaling law shared by all delay
//!   models, fitted to the paper's published operating points (2.25 GHz at
//!   1.0 V, 372 MHz at 0.6 V);
//! * [`ComponentDelays`] — the cycle-delay component breakdown of Fig. 8 (left):
//!   BL precharge 60 ps, WL activation 140 ps, BL sensing 130 ps, 16-bit
//!   adder logic 222 ps, write-back 51 ps at 0.9 V;
//! * [`fa_timing`] — critical path of the transmission-gate carry-select FA
//!   vs a logic-gate ripple FA (Fig. 7(b): 1.8-2.2x);
//! * [`FrequencyModel`] — maximum clock frequency vs supply (Fig. 8 right);
//! * [`energy`] + [`calibrate`] — per-operation energy from executor
//!   activity logs, with component coefficients calibrated against the
//!   paper's Table II by Nelder-Mead;
//! * [`TopsModel`] — TOPS/W for ADD and MULT vs voltage (Fig. 8 right,
//!   Table III);
//! * [`AreaModel`] — transistor-count area model reproducing the 5.2 % overhead
//!   claim.

pub(crate) mod area;
pub mod calibrate;
pub(crate) mod delay;
pub mod energy;
pub mod fa_timing;
pub(crate) mod freq;
pub(crate) mod scaling;
pub(crate) mod tops;

pub use area::AreaModel;
pub use calibrate::{paper_calibrated_params, CalibrationReport, PAPER_TABLE2};
pub use delay::ComponentDelays;
pub use energy::{EnergyParams, Table2Op};
pub use freq::FrequencyModel;
pub use scaling::DelayScaling;
pub use tops::TopsModel;

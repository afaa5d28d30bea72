//! A small nonlinear transient circuit solver for the bpimc workspace.
//!
//! This is the "SPICE-lite" substrate the reproduction uses in place of the
//! paper's post-layout SPICE runs. It is deliberately scoped to what the
//! experiments need:
//!
//! * lumped node capacitances, resistors, ideal voltage sources with
//!   DC / pulse / piece-wise-linear waveforms ([`wave::Waveform`]),
//! * MOSFETs from [`bpimc_device`] with automatic source/drain orientation,
//!   so bidirectional pass devices (the 6T access transistors) conduct
//!   correctly in both directions,
//! * an explicit Heun (RK2) integrator with per-step voltage-change guarding
//!   and automatic sub-stepping (see [`SimOptions`]),
//! * recorded node traces with threshold-crossing measurements
//!   ([`trace::Trace`]) — the "delay from WL rise to SA trip" numbers the
//!   paper reports all come from these,
//! * an embarrassingly-parallel Monte-Carlo runner ([`mc::montecarlo`]).
//!
//! Circuits in this workspace are tens of nodes, so an explicit integrator
//! with femtofarad node caps and sub-picosecond steps is both simple and
//! plenty fast; there is no sparse-matrix machinery because there is nothing
//! sparse to solve.
//!
//! # Examples
//!
//! An RC discharge sanity check (the solver is validated against the
//! closed-form solution in its tests):
//!
//! ```
//! use bpimc_circuit::{Circuit, SimOptions, Waveform};
//!
//! let mut ckt = Circuit::new(bpimc_device::Env::nominal());
//! let vdd = ckt.add_source("vdd", Waveform::dc(0.9));
//! let out = ckt.add_node("out", 10e-15, 0.9); // 10 fF, starts at 0.9 V
//! let gnd = ckt.gnd();
//! ckt.add_resistor(out, gnd, 10_000.0); // 10 kOhm to ground
//! let _ = vdd;
//! let trace = ckt.run(&SimOptions::for_window(2e-9));
//! // tau = 100 ps, so after 2 ns the node is fully discharged.
//! assert!(trace.last_voltage(out) < 0.01);
//! ```

pub(crate) mod batch;
pub(crate) mod error;
pub mod mc;
pub(crate) mod netlist;
pub(crate) mod sim;
pub(crate) mod trace;
pub(crate) mod wave;

pub use batch::BatchSim;
pub use error::CircuitError;
pub use netlist::{Circuit, NodeId};
pub use sim::SimOptions;
pub use trace::{Crossing, Edge, Trace};
pub use wave::Waveform;

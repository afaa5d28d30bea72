//! Recorded node waveforms and measurements on them.

use crate::error::CircuitError;
use crate::netlist::NodeId;

/// Edge direction for threshold-crossing measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// First crossing from below to at-or-above the level.
    Rising,
    /// First crossing from above to at-or-below the level.
    Falling,
}

/// A threshold crossing of one node: `node` passing `level` in direction
/// `edge`, searched at or after `t_from`.
///
/// This is the one crossing rule of the crate. [`Trace::cross_time`]
/// measures with it, and `BatchSim::run_until` stops a lane at the
/// first stored row where it holds — so a trace cut there is a prefix of
/// the full trace that already contains the crossing, and measures the
/// same time bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// The watched node.
    pub node: NodeId,
    /// The threshold, volts.
    pub level: f64,
    /// Which direction counts.
    pub edge: Edge,
    /// Stored rows before this time are ignored, seconds.
    pub t_from: f64,
}

impl Crossing {
    /// Whether the step between stored rows `k - 1` and `k` of `trace`
    /// crosses: both rows at or after `t_from` (stored times ascend, so
    /// checking row `k - 1` suffices), the level passed in the edge's
    /// direction.
    fn at(&self, trace: &Trace, k: usize) -> bool {
        if trace.times[k - 1] < self.t_from {
            return false;
        }
        let (vp, v) = (trace.volts[k - 1][self.node.0], trace.volts[k][self.node.0]);
        match self.edge {
            Edge::Rising => vp < self.level && v >= self.level,
            Edge::Falling => vp > self.level && v <= self.level,
        }
    }

    /// Whether the newest stored row of `trace` completes a crossing (the
    /// integrator's stop test, applied as each row is stored).
    pub(crate) fn ends(&self, trace: &Trace) -> bool {
        trace.len() >= 2 && self.at(trace, trace.len() - 1)
    }

    /// The time of the first crossing in `trace`, linearly interpolated
    /// between the two stored rows that straddle the level.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NoCrossing`] when the crossing never happens
    /// in the recorded window.
    pub fn time_in(&self, trace: &Trace) -> Result<f64, CircuitError> {
        let Some(k) = (1..trace.len()).find(|&k| self.at(trace, k)) else {
            return Err(CircuitError::NoCrossing {
                node: trace.names[self.node.0].clone(),
                level: self.level,
            });
        };
        let (tp, t) = (trace.times[k - 1], trace.times[k]);
        let (vp, v) = (trace.volts[k - 1][self.node.0], trace.volts[k][self.node.0]);
        let frac = if (v - vp).abs() < 1e-18 {
            0.0
        } else {
            (self.level - vp) / (v - vp)
        };
        Ok(tp + frac * (t - tp))
    }
}

/// The result of a transient run: time points and per-node voltages.
///
/// Provides the measurement primitives every experiment is built from:
/// voltage lookup at a time, first threshold crossing, min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    names: Vec<String>,
    times: Vec<f64>,
    /// `volts[k]` is the snapshot at `times[k]` (node-indexed).
    volts: Vec<Vec<f64>>,
}

impl Trace {
    pub(crate) fn new(names: Vec<String>) -> Self {
        Self {
            names,
            times: Vec::new(),
            volts: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, t: f64, v: &[f64]) {
        self.times.push(t);
        self.volts.push(v.to_vec());
    }

    /// Number of stored time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no samples were stored.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The stored time points (seconds).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The node voltage at stored index `k`.
    pub fn voltage_at_index(&self, node: NodeId, k: usize) -> f64 {
        self.volts[k][node.0]
    }

    /// The final voltage of `node`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn last_voltage(&self, node: NodeId) -> f64 {
        self.volts.last().expect("trace has samples")[node.0]
    }

    /// Linearly interpolated voltage of `node` at time `t`, or `None` if `t`
    /// lies outside the recorded window.
    pub fn voltage_at(&self, node: NodeId, t: f64) -> Option<f64> {
        if self.times.is_empty() || t < self.times[0] || t > *self.times.last().unwrap() {
            return None;
        }
        let idx = self.times.partition_point(|&x| x < t);
        if idx == 0 {
            return Some(self.volts[0][node.0]);
        }
        let (t0, t1) = (
            self.times[idx - 1],
            self.times[idx.min(self.times.len() - 1)],
        );
        let (v0, v1) = (
            self.volts[idx - 1][node.0],
            self.volts[idx.min(self.times.len() - 1)][node.0],
        );
        if t1 <= t0 {
            return Some(v1);
        }
        Some(v0 + (v1 - v0) * (t - t0) / (t1 - t0))
    }

    /// The first time `node` crosses `level` in the given direction at or
    /// after `t_from`, linearly interpolated between stored samples
    /// ([`Crossing::time_in`] with these fields).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NoCrossing`] when the crossing never happens
    /// in the recorded window.
    pub fn cross_time(
        &self,
        node: NodeId,
        level: f64,
        edge: Edge,
        t_from: f64,
    ) -> Result<f64, CircuitError> {
        Crossing {
            node,
            level,
            edge,
            t_from,
        }
        .time_in(self)
    }

    /// The minimum voltage of `node` over `[t_from, t_to]`.
    pub fn min_in(&self, node: NodeId, t_from: f64, t_to: f64) -> f64 {
        self.window_fold(node, t_from, t_to, f64::INFINITY, f64::min)
    }

    /// The maximum voltage of `node` over `[t_from, t_to]`.
    pub fn max_in(&self, node: NodeId, t_from: f64, t_to: f64) -> f64 {
        self.window_fold(node, t_from, t_to, f64::NEG_INFINITY, f64::max)
    }

    fn window_fold(
        &self,
        node: NodeId,
        t_from: f64,
        t_to: f64,
        init: f64,
        f: fn(f64, f64) -> f64,
    ) -> f64 {
        let mut acc = init;
        for (k, &t) in self.times.iter().enumerate() {
            if t >= t_from && t <= t_to {
                acc = f(acc, self.volts[k][node.0]);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_trace() -> (Trace, NodeId) {
        // A node ramping 0 -> 1 V over 10 ns in 1 ns steps.
        let mut tr = Trace::new(vec!["gnd".into(), "x".into()]);
        for k in 0..=10 {
            let t = k as f64 * 1e-9;
            tr.push(t, &[0.0, k as f64 * 0.1]);
        }
        (tr, NodeId(1))
    }

    #[test]
    fn interpolated_lookup() {
        let (tr, x) = ramp_trace();
        let v = tr.voltage_at(x, 2.5e-9).unwrap();
        assert!((v - 0.25).abs() < 1e-12);
        assert_eq!(tr.voltage_at(x, -1.0), None);
        assert_eq!(tr.voltage_at(x, 11e-9), None);
    }

    #[test]
    fn rising_cross_interpolates() {
        let (tr, x) = ramp_trace();
        let t = tr.cross_time(x, 0.45, Edge::Rising, 0.0).unwrap();
        assert!((t - 4.5e-9).abs() < 1e-12);
    }

    #[test]
    fn falling_cross_on_ramp_fails() {
        let (tr, x) = ramp_trace();
        let err = tr.cross_time(x, 0.45, Edge::Falling, 0.0).unwrap_err();
        assert!(matches!(err, CircuitError::NoCrossing { .. }));
    }

    #[test]
    fn cross_respects_t_from() {
        let (tr, x) = ramp_trace();
        // Starting the search after the crossing point finds nothing.
        assert!(tr.cross_time(x, 0.45, Edge::Rising, 5e-9).is_err());
    }

    #[test]
    fn min_max_windows() {
        let (tr, x) = ramp_trace();
        assert_eq!(tr.min_in(x, 2e-9, 8e-9), 0.2);
        assert_eq!(tr.max_in(x, 2e-9, 8e-9), 0.8);
    }
}

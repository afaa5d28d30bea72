//! Circuit construction: nodes, sources and elements.

use crate::sim::{SimOptions, Transient};
use crate::trace::Trace;
use crate::wave::Waveform;
use bpimc_device::{Env, Mosfet};

/// Opaque handle to a circuit node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

/// How a node is determined during simulation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum NodeKind {
    /// Integrated state node with a lumped capacitance to ground (farads).
    State { cap: f64 },
    /// Ideal source; voltage follows the waveform exactly.
    Driven { wave: Waveform },
    /// The ground reference (always 0 V).
    Ground,
}

/// A MOSFET instance bound to circuit nodes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MosInst {
    pub(crate) dev: Mosfet,
    pub(crate) d: NodeId,
    pub(crate) g: NodeId,
    pub(crate) s: NodeId,
}

/// A netlist under construction plus the environment it will simulate in.
///
/// See the crate-level docs for a full example.
#[derive(Debug, Clone)]
pub struct Circuit {
    env: Env,
    pub(crate) names: Vec<String>,
    pub(crate) kinds: Vec<NodeKind>,
    pub(crate) v0: Vec<f64>,
    pub(crate) resistors: Vec<(NodeId, NodeId, f64)>,
    pub(crate) mosfets: Vec<MosInst>,
}

impl Circuit {
    /// Creates an empty circuit (with only the ground node) for `env`.
    pub fn new(env: Env) -> Self {
        Self {
            env,
            names: vec!["gnd".to_string()],
            kinds: vec![NodeKind::Ground],
            v0: vec![0.0],
            resistors: Vec::new(),
            mosfets: Vec::new(),
        }
    }

    /// The operating environment.
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// The ground node (0 V).
    pub fn gnd(&self) -> NodeId {
        NodeId(0)
    }

    /// Adds a state node with lumped capacitance `cap` (farads) and initial
    /// voltage `v0` (volts). Returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not positive (every state node needs capacitance
    /// for the explicit integrator to be meaningful).
    pub fn add_node(&mut self, name: &str, cap: f64, v0: f64) -> NodeId {
        assert!(cap > 0.0, "state node `{name}` needs positive capacitance");
        let id = NodeId(self.names.len());
        self.names.push(name.to_string());
        self.kinds.push(NodeKind::State { cap });
        self.v0.push(v0);
        id
    }

    /// Adds an ideal voltage source node following `wave`.
    pub fn add_source(&mut self, name: &str, wave: Waveform) -> NodeId {
        let id = NodeId(self.names.len());
        let v0 = wave.at(0.0);
        self.names.push(name.to_string());
        self.kinds.push(NodeKind::Driven { wave });
        self.v0.push(v0);
        id
    }

    /// Adds a resistor of `ohms` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not positive.
    pub fn add_resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) {
        assert!(ohms > 0.0, "resistance must be positive");
        self.resistors.push((a, b, ohms));
    }

    /// Adds a MOSFET with drain `d`, gate `g`, source `s`.
    ///
    /// Orientation is determined at runtime from terminal voltages so pass
    /// devices conduct in both directions; the `d`/`s` labels are only for
    /// readability. The device's gate capacitance is automatically lumped
    /// onto the gate node if it is a state node, and drain/source diffusion
    /// capacitance onto state drain/source nodes.
    pub fn add_mosfet(&mut self, dev: Mosfet, d: NodeId, g: NodeId, s: NodeId) {
        if let NodeKind::State { cap } = &mut self.kinds[g.0] {
            *cap += dev.gate_cap();
        }
        for t in [d, s] {
            if let NodeKind::State { cap } = &mut self.kinds[t.0] {
                *cap += dev.drain_cap();
            }
        }
        self.mosfets.push(MosInst { dev, d, g, s });
    }

    /// Number of nodes including ground.
    pub(crate) fn node_count(&self) -> usize {
        self.names.len()
    }

    /// The lumped capacitance of a state node, if it is one.
    pub fn node_cap(&self, node: NodeId) -> Option<f64> {
        match &self.kinds[node.0] {
            NodeKind::State { cap } => Some(*cap),
            _ => None,
        }
    }

    /// Runs a transient simulation and returns the recorded traces.
    pub fn run(&self, opts: &SimOptions) -> Trace {
        Transient::new(self, opts).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpimc_device::VtFlavor;

    #[test]
    fn node_bookkeeping() {
        let mut c = Circuit::new(Env::nominal());
        let n = c.add_node("bl", 10e-15, 0.9);
        assert_eq!(c.node_cap(n), Some(10e-15));
        assert_eq!(c.node_cap(c.gnd()), None);
        assert_eq!(c.node_count(), 2);
    }

    #[test]
    fn mosfet_loads_its_terminals() {
        let mut c = Circuit::new(Env::nominal());
        let d = c.add_node("d", 1e-15, 0.0);
        let g = c.add_node("g", 1e-15, 0.0);
        let m = Mosfet::nmos(VtFlavor::Rvt, 200.0, 30.0);
        let cap_g_before = c.node_cap(g).unwrap();
        c.add_mosfet(m, d, g, c.gnd());
        assert!(c.node_cap(g).unwrap() > cap_g_before);
        assert!(c.node_cap(d).unwrap() > 1e-15);
    }

    #[test]
    #[should_panic(expected = "positive capacitance")]
    fn zero_cap_node_rejected() {
        let mut c = Circuit::new(Env::nominal());
        let _ = c.add_node("x", 0.0, 0.0);
    }
}

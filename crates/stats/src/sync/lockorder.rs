//! Runtime lock-order (acquisition-order) analysis for named shim locks.
//!
//! Every *named* [`crate::sync::Mutex`]/[`crate::sync::RwLock`] acquisition
//! in a debug or `model` build pushes onto a per-thread held-lock stack; a
//! nested acquisition records a `held → acquired` edge in one global
//! acquisition-order graph. A cycle in that graph means two code paths
//! take the same pair of locks in opposite orders — a potential deadlock —
//! and is reported from a **single benign run**, no unlucky interleaving
//! required.
//!
//! Edges are keyed by the *static lock name*, not the instance: two
//! instances sharing a name (every `Conn`'s session lock, say) are one
//! node, so holding two of them at once shows up as a self-cycle — exactly
//! the instance-order hazard that pattern carries.
//!
//! Release builds without the `model` feature compile the recording hooks
//! to nothing; the inspection API below still exists (and reports an empty
//! graph) so callers need no `cfg` of their own.
//!
//! # Examples
//!
//! ```
//! use bpimc_stats::sync::{lockorder, Mutex};
//!
//! let a = Mutex::named("doc.a", 1);
//! let b = Mutex::named("doc.b", 2);
//! let ga = a.lock();
//! let gb = b.lock(); // records doc.a → doc.b
//! drop(gb);
//! drop(ga);
//! // Consistent ordering: no cycle among these two locks.
//! assert!(lockorder::cycles_among(&["doc.a", "doc.b"]).is_empty());
//! ```

use std::collections::BTreeMap;

#[cfg(any(debug_assertions, feature = "model"))]
mod active {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::{Mutex as StdMutex, OnceLock};

    thread_local! {
        /// Names of the locks this thread currently holds, oldest first.
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    /// `from → {to}`: `to` was acquired while `from` was held.
    static GRAPH: OnceLock<StdMutex<BTreeMap<&'static str, BTreeSet<&'static str>>>> =
        OnceLock::new();

    fn graph() -> &'static StdMutex<BTreeMap<&'static str, BTreeSet<&'static str>>> {
        GRAPH.get_or_init(|| StdMutex::new(BTreeMap::new()))
    }

    pub(super) fn on_acquire(name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if !held.is_empty() {
                // Only nested acquisitions create ordering constraints; the
                // common un-nested case never touches the global graph.
                let mut g = graph()
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                for &from in held.iter() {
                    g.entry(from).or_default().insert(name);
                }
            }
            held.push(name);
        });
    }

    pub(super) fn on_release(name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&n| n == name) {
                held.remove(pos);
            }
        });
    }

    pub(super) fn edges() -> Vec<(&'static str, &'static str)> {
        let g = graph()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        g.iter()
            .flat_map(|(&from, tos)| tos.iter().map(move |&to| (from, to)))
            .collect()
    }
}

/// Recording hook: a named lock was acquired on this thread.
#[inline]
pub(crate) fn on_acquire(name: Option<&'static str>) {
    #[cfg(any(debug_assertions, feature = "model"))]
    if let Some(name) = name {
        active::on_acquire(name);
    }
    #[cfg(not(any(debug_assertions, feature = "model")))]
    let _ = name;
}

/// Recording hook: a named lock was released on this thread.
#[inline]
pub(crate) fn on_release(name: Option<&'static str>) {
    #[cfg(any(debug_assertions, feature = "model"))]
    if let Some(name) = name {
        active::on_release(name);
    }
    #[cfg(not(any(debug_assertions, feature = "model")))]
    let _ = name;
}

/// All acquisition-order edges recorded so far in this process, sorted.
/// Empty in release builds without the `model` feature.
pub(crate) fn edges() -> Vec<(&'static str, &'static str)> {
    #[cfg(any(debug_assertions, feature = "model"))]
    {
        active::edges()
    }
    #[cfg(not(any(debug_assertions, feature = "model")))]
    {
        Vec::new()
    }
}

/// Every cycle in the recorded acquisition-order graph, as sorted node
/// lists (one per strongly connected component with a cycle). Empty means
/// every observed pair of locks was always taken in one consistent order.
pub(crate) fn cycles() -> Vec<Vec<&'static str>> {
    cycles_in(&edges())
}

/// Every recorded lock-order cycle touching any of `names` — lets suites
/// with intentionally-cyclic self-test locks coexist in one test process
/// with suites asserting their subsystem is clean.
pub fn cycles_among(names: &[&str]) -> Vec<Vec<&'static str>> {
    cycles()
        .into_iter()
        .filter(|cycle| cycle.iter().any(|n| names.contains(n)))
        .collect()
}

/// Panics with the offending cycle(s) if any recorded lock order involving
/// `prefix`-named locks is cyclic. Call at the end of an integration test
/// that exercised the subsystem (`assert_acyclic("server.")`).
pub fn assert_acyclic(prefix: &str) {
    let offending: Vec<Vec<&'static str>> = cycles()
        .into_iter()
        .filter(|cycle| cycle.iter().any(|n| n.starts_with(prefix)))
        .collect();
    assert!(
        offending.is_empty(),
        "lock-order cycle(s) among '{prefix}*' locks: {offending:?}\nedges: {:?}",
        edges()
    );
}

/// Finds cyclic strongly connected components in an edge list (Tarjan).
/// A single node counts only with a self-edge.
fn cycles_in(edges: &[(&'static str, &'static str)]) -> Vec<Vec<&'static str>> {
    let mut adj: BTreeMap<&'static str, Vec<&'static str>> = BTreeMap::new();
    for &(from, to) in edges {
        adj.entry(from).or_default().push(to);
        adj.entry(to).or_default();
    }
    let nodes: Vec<&'static str> = adj.keys().copied().collect();
    let index_of: BTreeMap<&'static str, usize> =
        nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();

    struct Tarjan<'a> {
        adj: &'a BTreeMap<&'static str, Vec<&'static str>>,
        index_of: &'a BTreeMap<&'static str, usize>,
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        sccs: Vec<Vec<usize>>,
    }
    impl Tarjan<'_> {
        fn strongconnect(&mut self, v: usize, nodes: &[&'static str]) {
            self.index[v] = Some(self.next);
            self.low[v] = self.next;
            self.next += 1;
            self.stack.push(v);
            self.on_stack[v] = true;
            for to in &self.adj[nodes[v]] {
                let w = self.index_of[to];
                match self.index[w] {
                    None => {
                        self.strongconnect(w, nodes);
                        self.low[v] = self.low[v].min(self.low[w]);
                    }
                    Some(wi) if self.on_stack[w] => {
                        self.low[v] = self.low[v].min(wi);
                    }
                    Some(_) => {}
                }
            }
            if self.low[v] == self.index[v].expect("set above") {
                let mut scc = Vec::new();
                loop {
                    let w = self.stack.pop().expect("stack non-empty");
                    self.on_stack[w] = false;
                    scc.push(w);
                    if w == v {
                        break;
                    }
                }
                self.sccs.push(scc);
            }
        }
    }

    let n = nodes.len();
    let mut t = Tarjan {
        adj: &adj,
        index_of: &index_of,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        sccs: Vec::new(),
    };
    for v in 0..n {
        if t.index[v].is_none() {
            t.strongconnect(v, &nodes);
        }
    }
    let mut out = Vec::new();
    for scc in t.sccs {
        let cyclic = scc.len() > 1 || adj[nodes[scc[0]]].iter().any(|&to| to == nodes[scc[0]]);
        if cyclic {
            let mut names: Vec<&'static str> = scc.iter().map(|&i| nodes[i]).collect();
            names.sort_unstable();
            out.push(names);
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_detection_on_edge_lists() {
        assert!(cycles_in(&[("a", "b"), ("b", "c"), ("a", "c")]).is_empty());
        assert_eq!(
            cycles_in(&[("a", "b"), ("b", "a"), ("b", "c")]),
            vec![vec!["a", "b"]]
        );
        // Self-edge: same-name locks nested.
        assert_eq!(cycles_in(&[("x", "x")]), vec![vec!["x"]]);
        // Two disjoint cycles both reported.
        let got = cycles_in(&[("a", "b"), ("b", "a"), ("p", "q"), ("q", "p")]);
        assert_eq!(got, vec![vec!["a", "b"], vec!["p", "q"]]);
    }

    // The analyzer records edges only where it is compiled in; elsewhere
    // `cycles_among` always answers "no cycles".
    #[cfg(any(debug_assertions, feature = "model"))]
    #[test]
    fn known_lock_order_cycle_is_reported_from_one_benign_run() {
        // The satellite self-test: take two named locks in both orders —
        // no deadlock occurs (the orders are sequential), yet the analyzer
        // reports the hazard from this single run.
        let a = crate::sync::Mutex::named("lockorder.selftest.a", ());
        let b = crate::sync::Mutex::named("lockorder.selftest.b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        let cycles = cycles_among(&["lockorder.selftest.a", "lockorder.selftest.b"]);
        assert_eq!(
            cycles,
            vec![vec!["lockorder.selftest.a", "lockorder.selftest.b"]],
            "the a→b→a order inversion must be reported"
        );
    }

    #[test]
    fn consistent_order_stays_acyclic() {
        let outer = crate::sync::Mutex::named("lockorder.clean.outer", ());
        let inner = crate::sync::Mutex::named("lockorder.clean.inner", ());
        for _ in 0..3 {
            let _go = outer.lock();
            let _gi = inner.lock();
        }
        assert!(cycles_among(&["lockorder.clean.outer", "lockorder.clean.inner"]).is_empty());
        assert_acyclic("lockorder.clean.");
    }

    #[test]
    fn condvar_wait_releases_the_held_name() {
        // A waiter must not appear to hold the mutex while parked in
        // `Condvar::wait`: the guard handoff pops and re-pushes the name.
        let m = std::sync::Arc::new(crate::sync::Mutex::named("lockorder.cvwait.m", false));
        let cv = std::sync::Arc::new(crate::sync::Condvar::new());
        let other = crate::sync::Mutex::named("lockorder.cvwait.other", ());
        let (m2, cv2) = (m.clone(), cv.clone());
        let waiter = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                g = cv2.wait(g);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        *m.lock() = true;
        cv.notify_all();
        waiter.join().expect("waiter exits");
        let _g = other.lock();
        // If the waiter's held-stack leaked `cvwait.m`, edges from it would
        // accumulate under its thread; the direct check: this thread holds
        // only `other`, and no cycle exists among the two names.
        assert!(cycles_among(&["lockorder.cvwait.m", "lockorder.cvwait.other"]).is_empty());
    }
}

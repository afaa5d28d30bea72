//! Deterministic chaos injection: the [`FaultPlan`].
//!
//! A plan is a pure function from `(seed, connection id, request
//! sequence)` to a fault decision — no RNG state, no locks. The same plan
//! on the same request stream injects the same faults every run, so chaos
//! tests can precompute exactly which requests will panic, stall or drop
//! and assert the exact accounting that must survive them. Probabilities
//! are per-mille (‰): `panic_per_mille: 50` panics 5% of compute
//! requests.

use std::time::Duration;

/// What (if anything) to do to one compute request's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeFault {
    /// Panic the worker job (contained per-job; the request answers with
    /// an error and is billed as one).
    Panic,
    /// Sleep this long before executing (a slow macro / contended bank).
    Delay(Duration),
}

/// What (if anything) to do to one request's response delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseFault {
    /// Stall the connection's response writer this long before the write
    /// (a peer reading sluggishly; exercises the writer-thread path).
    Stall(Duration),
    /// Sever the connection instead of responding (a client vanishing
    /// mid-request).
    Drop,
}

/// A seeded, deterministic schedule of injected faults — the server's one
/// fault mechanism.
///
/// The default plan injects nothing; it is a handful of integer compares
/// on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the decision hash; same seed, same schedule.
    pub seed: u64,
    /// Per-mille of compute requests whose worker job panics.
    pub panic_per_mille: u16,
    /// Per-mille of compute requests delayed by `delay_ms` before running.
    pub delay_per_mille: u16,
    /// Injected execution delay, milliseconds.
    pub delay_ms: u64,
    /// Per-mille of responses whose writer stalls `stall_ms` first.
    pub stall_per_mille: u16,
    /// Injected writer stall, milliseconds.
    pub stall_ms: u64,
    /// Per-mille of responses replaced by severing the connection.
    pub drop_per_mille: u16,
}

impl FaultPlan {
    /// The inert plan: no injected faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the probabilistic schedule can fire at all.
    pub fn is_active(&self) -> bool {
        self.panic_per_mille > 0
            || self.delay_per_mille > 0
            || self.stall_per_mille > 0
            || self.drop_per_mille > 0
    }

    /// The execution fault (if any) for request `seq` on connection
    /// `conn`. Pure: tests and load generators call this to predict the
    /// schedule. Panic wins over delay when both would fire.
    pub fn compute_fault(&self, conn: u64, seq: u64) -> Option<ComputeFault> {
        if self.roll(conn, seq, 0x70616e6963, self.panic_per_mille) {
            return Some(ComputeFault::Panic);
        }
        if self.roll(conn, seq, 0x64656c6179, self.delay_per_mille) {
            return Some(ComputeFault::Delay(Duration::from_millis(self.delay_ms)));
        }
        None
    }

    /// The response-delivery fault (if any) for request `seq` on
    /// connection `conn`. Drop wins over stall when both would fire.
    pub fn response_fault(&self, conn: u64, seq: u64) -> Option<ResponseFault> {
        if self.roll(conn, seq, 0x64726f70, self.drop_per_mille) {
            return Some(ResponseFault::Drop);
        }
        if self.roll(conn, seq, 0x7374616c6c, self.stall_per_mille) {
            return Some(ResponseFault::Stall(Duration::from_millis(self.stall_ms)));
        }
        None
    }

    /// True when any fault in the plan targets connection `conn` within
    /// its first `requests` requests — chaos tests use this to find (by
    /// seed search) connections guaranteed fault-free.
    pub fn touches_conn(&self, conn: u64, requests: u64) -> bool {
        (0..requests).any(|seq| {
            self.compute_fault(conn, seq).is_some() || self.response_fault(conn, seq).is_some()
        })
    }

    fn roll(&self, conn: u64, seq: u64, salt: u64, per_mille: u16) -> bool {
        if per_mille == 0 {
            return false;
        }
        mix(self.seed ^ salt, conn, seq) % 1000 < per_mille as u64
    }
}

/// splitmix64-style avalanche over (seed, conn, seq): cheap, stateless,
/// and well distributed even for consecutive inputs.
fn mix(seed: u64, conn: u64, seq: u64) -> u64 {
    let mut z = seed
        .wrapping_add(conn.wrapping_mul(0x9e3779b97f4a7c15))
        .wrapping_add(seq.wrapping_mul(0xbf58476d1ce4e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for seq in 0..1000 {
            assert_eq!(plan.compute_fault(1, seq), None);
            assert_eq!(plan.response_fault(1, seq), None);
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let plan = FaultPlan {
            seed: 42,
            panic_per_mille: 100,
            delay_per_mille: 100,
            delay_ms: 5,
            stall_per_mille: 100,
            stall_ms: 5,
            drop_per_mille: 100,
        };
        let a: Vec<_> = (0..200).map(|s| plan.compute_fault(3, s)).collect();
        let b: Vec<_> = (0..200).map(|s| plan.compute_fault(3, s)).collect();
        assert_eq!(a, b, "same plan, same schedule");
        let other = FaultPlan { seed: 43, ..plan };
        let c: Vec<_> = (0..200).map(|s| other.compute_fault(3, s)).collect();
        assert_ne!(a, c, "a different seed reshuffles the schedule");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan {
            seed: 7,
            panic_per_mille: 100, // 10%
            ..FaultPlan::default()
        };
        let n = 10_000;
        let hits = (0..n)
            .filter(|&s| plan.compute_fault(1, s) == Some(ComputeFault::Panic))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((0.07..0.13).contains(&rate), "panic rate {rate}");
    }

    #[test]
    fn touches_conn_finds_clean_connections() {
        let plan = FaultPlan {
            seed: 1,
            panic_per_mille: 30,
            ..FaultPlan::default()
        };
        // Somewhere in the first hundred connections there is both a
        // touched one and a clean one for a 40-request run.
        let touched = (1..100).filter(|&c| plan.touches_conn(c, 40)).count();
        assert!(touched > 0, "some connection is touched");
        assert!(touched < 99, "some connection is clean");
    }
}

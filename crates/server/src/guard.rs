//! Per-session guardrails: resource limits and their exact metering.
//!
//! The paper's fixed cost model (Table I cycles, Table II energy) is what
//! makes these budgets *exact* rather than heuristic: every request is
//! billed the precise hardware cycles and femtojoules its job consumed
//! (from the executing macro's activity log), and a session's rate window
//! meters those same numbers against its per-second budgets. A tenant
//! that exhausts its budget gets a structured `limit_exceeded` error with
//! a retry-after hint instead of degrading every other session.

use bpimc_core::{ErrorBody, LimitKind};

/// The budget window: budgets are per second, metered over tumbling
/// one-second windows of wall-clock milliseconds.
const WINDOW_MS: u64 = 1000;

/// Per-session resource limits, enforced before a request touches any
/// array state. All rate/size limits default to `None` (unlimited), so a
/// default-configured server has zero guardrail cost on the hot path.
#[derive(Debug, Clone, Copy)]
pub struct SessionLimits {
    /// Hardware cycles one session may bill per second, metered against
    /// the exact per-request activity accounting.
    pub max_cycles_per_sec: Option<u64>,
    /// Energy (femtojoules) one session may bill per second.
    pub max_energy_fj_per_sec: Option<f64>,
    /// Most requests one connection may have in flight (queued or
    /// executing, response not yet produced) at once.
    pub max_inflight: Option<u64>,
    /// Longest instruction stream accepted by `exec_program` and
    /// `store_program`.
    pub max_program_instrs: Option<usize>,
    /// Stored programs one session may hold at once (`store_program`
    /// beyond this answers `limit_exceeded`; the cache is freed when the
    /// connection drops).
    pub max_stored_programs: usize,
}

impl Default for SessionLimits {
    fn default() -> Self {
        Self {
            max_cycles_per_sec: None,
            max_energy_fj_per_sec: None,
            max_inflight: None,
            max_program_instrs: None,
            max_stored_programs: 64,
        }
    }
}

impl SessionLimits {
    /// True when no per-second budget is configured — the admission check
    /// can skip taking a timestamp entirely.
    pub(crate) fn unmetered(&self) -> bool {
        self.max_cycles_per_sec.is_none() && self.max_energy_fj_per_sec.is_none()
    }

    /// Checks a submitted program's instruction count.
    ///
    /// # Errors
    ///
    /// A structured `limit_exceeded` naming `program_length`.
    pub(crate) fn check_program_len(&self, instrs: usize) -> Result<(), ErrorBody> {
        match self.max_program_instrs {
            Some(max) if instrs > max => Err(ErrorBody::limit(
                LimitKind::ProgramLength,
                None,
                format!("program has {instrs} instructions but the limit is {max}"),
            )),
            _ => Ok(()),
        }
    }

    /// Admission check for one metered request at `now_ms` against the
    /// session's rate window `(start unix-ms, cycles, energy_fj)`. It
    /// only reads the window — windows roll when requests settle
    /// ([`charge`]) — and a window `now_ms` falls outside of has nothing
    /// billed in the current second. Checks happen **before** execution
    /// (so an over-budget session is refused before any array state
    /// changes) against work already billed. The server settles each
    /// request before it admits the next, so the window holds the spend
    /// of every request before this one, pipelined or not: one request
    /// may overshoot the budget, but the overshoot is itself billed, so
    /// sustained throughput converges on the budget.
    ///
    /// # Errors
    ///
    /// A structured `limit_exceeded` naming the exhausted budget, with a
    /// retry-after hint of the window's remaining milliseconds.
    pub(crate) fn admit(
        &self,
        window: Option<(u64, u64, f64)>,
        now_ms: u64,
    ) -> Result<(), ErrorBody> {
        if self.unmetered() {
            return Ok(());
        }
        let Some((start, cycles, energy_fj)) = window.filter(|&(start, ..)| covers(start, now_ms))
        else {
            return Ok(());
        };
        let retry_ms = || Some(start + WINDOW_MS - now_ms);
        if let Some(max) = self.max_cycles_per_sec {
            if cycles >= max {
                return Err(ErrorBody::limit(
                    LimitKind::CycleRate,
                    retry_ms(),
                    format!(
                        "session cycle budget exhausted ({cycles} of {max} cycles this second)"
                    ),
                ));
            }
        }
        if let Some(max) = self.max_energy_fj_per_sec {
            if energy_fj >= max {
                return Err(ErrorBody::limit(
                    LimitKind::EnergyRate,
                    retry_ms(),
                    format!(
                        "session energy budget exhausted ({energy_fj:.1} of {max:.1} fJ this second)"
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// Whether `unix_ms` falls inside the window that started at `start_ms`,
/// i.e. in [start, start + 1 s).
fn covers(start_ms: u64, unix_ms: u64) -> bool {
    unix_ms
        .checked_sub(start_ms)
        .is_some_and(|age| age < WINDOW_MS)
}

/// Bills one settled request's exact activity at `unix_ms` into a rate
/// window, first starting a new window there when `unix_ms` falls outside
/// the current one. Keyed on the settle time alone, so replaying the
/// journal rolls exactly the windows serving rolled; a wall-clock step can
/// end a window early but never extend one. A request that billed nothing
/// leaves the window alone.
pub(crate) fn charge(
    window: &mut Option<(u64, u64, f64)>,
    unix_ms: u64,
    cycles: u64,
    energy_fj: f64,
) {
    if cycles == 0 && energy_fj == 0.0 {
        return;
    }
    match window {
        Some((start, c, e)) if covers(*start, unix_ms) => {
            *c += cycles;
            *e += energy_fj;
        }
        slot => *slot = Some((unix_ms, cycles, energy_fj)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpimc_core::ErrorKind;

    #[test]
    fn default_limits_are_unmetered() {
        let limits = SessionLimits::default();
        assert!(limits.unmetered());
        assert_eq!(limits.max_stored_programs, 64);
        let mut win = None;
        charge(&mut win, 1000, u64::MAX / 2, 1e30);
        assert!(limits.admit(win, 1000).is_ok());
        assert!(limits.check_program_len(usize::MAX).is_ok());
    }

    #[test]
    fn cycle_budget_trips_and_refills_on_window_roll() {
        let limits = SessionLimits {
            max_cycles_per_sec: Some(100),
            ..SessionLimits::default()
        };
        let mut win = None;
        let t0 = 5_000;
        assert!(limits.admit(win, t0).is_ok());
        charge(&mut win, t0, 100, 0.0);
        let err = limits.admit(win, t0).unwrap_err();
        assert_eq!(err.kind, ErrorKind::LimitExceeded);
        assert_eq!(err.limit, Some(LimitKind::CycleRate));
        assert!(err.retry_after_ms.is_some_and(|ms| ms <= 1000));
        // The next window refills the budget.
        assert!(limits.admit(win, t0 + 1001).is_ok());
        charge(&mut win, t0 + 1001, 1, 0.0);
        assert_eq!(win, Some((t0 + 1001, 1, 0.0)));
    }

    #[test]
    fn energy_budget_trips_independently() {
        let limits = SessionLimits {
            max_energy_fj_per_sec: Some(500.0),
            ..SessionLimits::default()
        };
        let mut win = None;
        charge(&mut win, 1000, 0, 500.0);
        let err = limits.admit(win, 1000).unwrap_err();
        assert_eq!(err.limit, Some(LimitKind::EnergyRate));
    }

    #[test]
    fn restore_preserves_live_windows_and_drops_stale_ones() {
        let limits = SessionLimits {
            max_cycles_per_sec: Some(100),
            ..SessionLimits::default()
        };
        // A window recovered 400 ms into its second still meters the spend…
        let win = Some((1000, 100, 1.5));
        assert!(limits.admit(win, 1400).is_err(), "budget stays exhausted");
        // …until the window it belonged to actually ends.
        assert!(limits.admit(win, 2001).is_ok());
        // A window older than a second holds nothing for now.
        assert!(limits.admit(win, 2000).is_ok());
    }

    /// The window rolls when a request settles, on the settle time: a
    /// request admitted 900 ms into a window and settled at 1,050 ms opens
    /// the next window, exactly as replaying its `Exec` does, and a
    /// backward clock step starts a new window instead of stretching the
    /// old one.
    #[test]
    fn windows_roll_on_the_settle_time_and_never_stretch() {
        let limits = SessionLimits {
            max_cycles_per_sec: Some(100),
            ..SessionLimits::default()
        };
        let mut win = None;
        charge(&mut win, 10_000, 60, 1.0);
        assert!(limits.admit(win, 10_900).is_ok());
        charge(&mut win, 11_050, 30, 0.5);
        assert_eq!(win, Some((11_050, 30, 0.5)));
        charge(&mut win, 11_999, 5, 0.25);
        assert_eq!(win, Some((11_050, 35, 0.75)));
        charge(&mut win, 11_000, 1, 0.125);
        assert_eq!(win, Some((11_000, 1, 0.125)), "a step back starts anew");
    }

    #[test]
    fn program_length_limit_names_itself() {
        let limits = SessionLimits {
            max_program_instrs: Some(8),
            ..SessionLimits::default()
        };
        assert!(limits.check_program_len(8).is_ok());
        let err = limits.check_program_len(9).unwrap_err();
        assert_eq!(err.limit, Some(LimitKind::ProgramLength));
    }
}

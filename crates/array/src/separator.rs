//! BL separator state.
//!
//! The separator is a pass-gate in each column between the main-array
//! bit-line segment and the short dummy-row segment. When a write-back
//! targets a dummy row the separator can disconnect the main segment so
//! only a few femtofarads swing. This type tracks the control state and
//! counts how many write-backs were shielded — the energy model consumes
//! those counts to produce the paper's "w/ BL Separator" rows of Table II.

/// Control and accounting state of the per-column BL separators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlSeparator {
    enabled: bool,
    shielded_writebacks: u64,
    exposed_writebacks: u64,
}

impl BlSeparator {
    /// A separator policy; `enabled` turns the feature on.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            shielded_writebacks: 0,
            exposed_writebacks: 0,
        }
    }

    /// Records one write-back; `to_dummy` says whether the target row is in
    /// the dummy array (only those can be shielded). Returns `true` when the
    /// write was shielded by the separator.
    pub fn record_writeback(&mut self, to_dummy: bool) -> bool {
        let shielded = self.enabled && to_dummy;
        if shielded {
            self.shielded_writebacks += 1;
        } else {
            self.exposed_writebacks += 1;
        }
        shielded
    }

    /// Write-backs that swung only the dummy segment.
    pub fn shielded(&self) -> u64 {
        self.shielded_writebacks
    }

    /// Write-backs that swung the full bit-line.
    pub fn exposed(&self) -> u64 {
        self.exposed_writebacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_separator_shields_dummy_writes_only() {
        let mut s = BlSeparator::new(true);
        assert!(s.record_writeback(true));
        assert!(!s.record_writeback(false));
        assert_eq!(s.shielded(), 1);
        assert_eq!(s.exposed(), 1);
    }

    #[test]
    fn disabled_separator_shields_nothing() {
        let mut s = BlSeparator::new(false);
        assert!(!s.record_writeback(true));
        assert!(!s.record_writeback(false));
        assert_eq!(s.shielded(), 0);
        assert_eq!(s.exposed(), 2);
    }
}

//! Device taxonomy: polarity, threshold flavor and process corner.

use std::fmt;
use std::str::FromStr;

/// Transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// N-channel device (pull-down / pass).
    Nmos,
    /// P-channel device (pull-up).
    Pmos,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceKind::Nmos => write!(f, "NMOS"),
            DeviceKind::Pmos => write!(f, "PMOS"),
        }
    }
}

/// Threshold-voltage flavor.
///
/// The paper's BL boosting circuit explicitly uses low-VT (LVT) devices for
/// its P0/N0/N1 transistors "to catch up the small BL swing" left by the
/// short word-line pulse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VtFlavor {
    /// Regular threshold (standard logic and the 6T cell).
    Rvt,
    /// Low threshold: faster, leakier. Used in the BL booster.
    Lvt,
    /// High threshold: slow, low leakage.
    Hvt,
}

impl fmt::Display for VtFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VtFlavor::Rvt => write!(f, "RVT"),
            VtFlavor::Lvt => write!(f, "LVT"),
            VtFlavor::Hvt => write!(f, "HVT"),
        }
    }
}

/// Global process corner, ordered as the paper's Fig. 7(a) x-axis.
///
/// The first letter is the NMOS corner, the second the PMOS corner
/// (S = slow, F = fast, N = nominal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Slow NMOS / fast PMOS.
    Sf,
    /// Slow NMOS / slow PMOS.
    Ss,
    /// Nominal / nominal (typical).
    Nn,
    /// Fast NMOS / slow PMOS.
    Fs,
    /// Fast NMOS / fast PMOS.
    Ff,
}

impl Corner {
    /// All corners in the paper's Fig. 7(a) plotting order.
    pub const ALL: [Corner; 5] = [Corner::Sf, Corner::Ss, Corner::Nn, Corner::Fs, Corner::Ff];

    /// Signed speed factor for the NMOS devices: -1 slow, 0 nominal, +1 fast.
    pub(crate) fn nmos_skew(&self) -> f64 {
        match self {
            Corner::Sf | Corner::Ss => -1.0,
            Corner::Nn => 0.0,
            Corner::Fs | Corner::Ff => 1.0,
        }
    }

    /// Signed speed factor for the PMOS devices: -1 slow, 0 nominal, +1 fast.
    pub(crate) fn pmos_skew(&self) -> f64 {
        match self {
            Corner::Ss | Corner::Fs => -1.0,
            Corner::Nn => 0.0,
            Corner::Sf | Corner::Ff => 1.0,
        }
    }
}

impl fmt::Display for Corner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Corner::Sf => "SF",
            Corner::Ss => "SS",
            Corner::Nn => "NN",
            Corner::Fs => "FS",
            Corner::Ff => "FF",
        };
        write!(f, "{s}")
    }
}

/// Error returned when parsing a [`Corner`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCornerError(String);

impl fmt::Display for ParseCornerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown process corner `{}`", self.0)
    }
}

impl std::error::Error for ParseCornerError {}

impl FromStr for Corner {
    type Err = ParseCornerError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "SF" => Ok(Corner::Sf),
            "SS" => Ok(Corner::Ss),
            "NN" | "TT" => Ok(Corner::Nn),
            "FS" => Ok(Corner::Fs),
            "FF" => Ok(Corner::Ff),
            other => Err(ParseCornerError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_order_matches_paper_axis() {
        assert_eq!(
            Corner::ALL.map(|c| c.to_string()),
            ["SF", "SS", "NN", "FS", "FF"]
        );
    }

    #[test]
    fn skews_are_consistent() {
        assert_eq!(Corner::Ss.nmos_skew(), -1.0);
        assert_eq!(Corner::Ss.pmos_skew(), -1.0);
        assert_eq!(Corner::Sf.nmos_skew(), -1.0);
        assert_eq!(Corner::Sf.pmos_skew(), 1.0);
        assert_eq!(Corner::Fs.nmos_skew(), 1.0);
        assert_eq!(Corner::Fs.pmos_skew(), -1.0);
        assert_eq!(Corner::Nn.nmos_skew(), 0.0);
    }

    #[test]
    fn corner_round_trips_through_str() {
        for c in Corner::ALL {
            let parsed: Corner = c.to_string().parse().expect("parse");
            assert_eq!(parsed, c);
        }
        assert!("XX".parse::<Corner>().is_err());
        assert_eq!("tt".parse::<Corner>(), Ok(Corner::Nn));
    }
}

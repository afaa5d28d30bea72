//! The per-figure / per-table experiment runners.

pub mod ablation;
pub mod fig2;
pub mod fig7a;
pub mod fig7b;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod vrange;

/// Pins an experiment's whole result bit for bit: FNV-1a over its `{:?}`
/// text. `Debug` prints every `f64` in its shortest round-trip form, so
/// the text is exact, not rounded, and a one-ulp move of any number
/// changes the hash.
#[cfg(test)]
pub(crate) fn assert_pinned(name: &str, result: &impl std::fmt::Debug, want: u64) {
    let text = format!("{result:?}");
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    assert_eq!(h, want, "{name} result moved: hash {h:#018x} of {text}");
}

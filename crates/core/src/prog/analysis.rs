//! Static dataflow analysis over [`Instr`] streams: def-use chains,
//! liveness, reaching definitions, value-range analysis and lint
//! diagnostics.
//!
//! The IR's executor already *validates* programs ([`Program::validate`])
//! and *prices* them (the static cost model); this module adds the third
//! leg — it *advises*. One linear pass resolves every register read to the
//! definition that produced its value, and every lint of [`Program::lint`]
//! is derived from that one def-use map.

use super::{Instr, Precision, ProgError, Program, Reg};
use crate::config::MacroConfig;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The program fails validation and will not run.
    Error,
    /// The program runs but provably wastes cycles (dead or unused work).
    Warn,
    /// An optimization opportunity: cycles, rows or lane capacity left on
    /// the table.
    Perf,
}

impl Severity {
    /// The wire name of this severity (`error` / `warn` / `perf`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Perf => "perf",
        }
    }

    /// Parses a wire severity name.
    pub(crate) fn from_name(name: &str) -> Option<Severity> {
        match name {
            "error" => Some(Severity::Error),
            "warn" => Some(Severity::Warn),
            "perf" => Some(Severity::Perf),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding from [`Program::lint`]: a stable code, a severity, the
/// instruction-index span it points at, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`E001`–`E012` for validation errors,
    /// `L001`–`L005` and `L007` for lints; see the module docs for the
    /// table).
    pub code: String,
    /// How bad it is.
    pub severity: Severity,
    /// The submitted-instruction index range this diagnostic points at
    /// (half-open; whole-program diagnostics span `0..len`).
    pub span: Range<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}..{}] {}",
            self.code, self.severity, self.span.start, self.span.end, self.message
        )
    }
}

impl Diagnostic {
    fn new(
        code: &str,
        severity: Severity,
        span: Range<usize>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code: code.to_string(),
            severity,
            span,
            message: message.into(),
        }
    }

    /// Folds a validation error into an `error`-severity diagnostic
    /// carrying the [`ProgError::code`] and the offending instruction's
    /// span.
    pub(crate) fn from_prog_error(e: &ProgError) -> Diagnostic {
        let span = e.instr().map_or(0..0, |i| i..i + 1);
        Diagnostic::new(e.code(), Severity::Error, span, e.to_string())
    }
}

/// The shared dataflow framework: reaching definitions, def-use chains and
/// liveness for one instruction stream, computed in a single linear pass.
///
/// A *definition* is an instruction that writes a register (its index
/// stands for the value it produced); a register read resolves to the most
/// recent definition of that register — the value it actually observes.
/// Every lint is built on this map.
#[derive(Debug)]
struct Dataflow {
    /// Per instruction, per source (in [`Instr::sources`] order): the
    /// defining instruction's index, or `None` for a read of a
    /// never-written register.
    reaching: Vec<Vec<Option<usize>>>,
    /// Per defining instruction: the indices of instructions that read the
    /// value it produced, ascending.
    users: Vec<Vec<usize>>,
    /// Per defining instruction: the later instruction that overwrites the
    /// same register (killing the value), if any.
    killed_by: Vec<Option<usize>>,
}

impl Dataflow {
    /// Analyzes an instruction stream.
    fn of(instrs: &[Instr]) -> Dataflow {
        let regs = instrs
            .iter()
            .flat_map(|i| i.sources().into_iter().chain(i.dst()).map(|r| r.row() + 1))
            .max()
            .unwrap_or(0);
        let n = instrs.len();
        let mut last_def: Vec<Option<usize>> = vec![None; regs];
        let mut reaching = Vec::with_capacity(n);
        let mut users = vec![Vec::new(); n];
        let mut killed_by = vec![None; n];
        for (idx, instr) in instrs.iter().enumerate() {
            // Sources resolve before the destination updates, so an
            // instruction reading the register it overwrites sees the old
            // value — matching the executor.
            let defs: Vec<Option<usize>> = instr
                .sources()
                .iter()
                .map(|src| last_def[src.row()])
                .collect();
            for def in defs.iter().flatten() {
                let list: &mut Vec<usize> = &mut users[*def];
                if list.last() != Some(&idx) {
                    list.push(idx);
                }
            }
            reaching.push(defs);
            if let Some(dst) = instr.dst() {
                if let Some(prev) = last_def[dst.row()] {
                    killed_by[prev] = Some(idx);
                }
                last_def[dst.row()] = Some(idx);
            }
        }
        Dataflow {
            reaching,
            users,
            killed_by,
        }
    }

    /// The reaching definition of each source of instruction `idx`, in
    /// [`Instr::sources`] order. `None` marks a use of a never-written
    /// register (the program fails validation).
    fn reaching_defs(&self, idx: usize) -> &[Option<usize>] {
        &self.reaching[idx]
    }

    /// The instructions that read the value defined at `def`, ascending.
    /// Empty for non-defining instructions.
    fn users(&self, def: usize) -> &[usize] {
        &self.users[def]
    }

    /// The instruction that overwrites `def`'s register after `def` (the
    /// value's kill point), or `None` if the value survives to the end.
    fn killed_by(&self, def: usize) -> Option<usize> {
        self.killed_by[def]
    }

    /// The last instruction that reads the value defined at `def` — the
    /// end of its live range. `None` for a value nobody reads.
    fn last_use(&self, def: usize) -> Option<usize> {
        self.users[def].last().copied()
    }
}

/// An inclusive interval of per-lane values a definition can hold, from
/// the value-range analysis ([`ranges_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ValueRange {
    /// Smallest possible lane value.
    lo: u64,
    /// Largest possible lane value.
    hi: u64,
}

/// The lane layout a definition was produced at — ranges only propagate
/// between producer and consumer when their layouts agree; any mismatch
/// (or a whole-row bitwise op) degrades to the layout's full range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Dense `P`-bit lanes (`write`, `add`, `shl`, …).
    Dense(Precision),
    /// `2P`-wide product lanes (`write_mult`, `mult`).
    Product(Precision),
}

impl Layout {
    fn mask(self) -> u64 {
        match self {
            Layout::Dense(p) => p.max_value(),
            Layout::Product(p) => {
                let bits = 2 * p.bits();
                if bits >= 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                }
            }
        }
    }

    fn top(self) -> ValueRange {
        ValueRange {
            lo: 0,
            hi: self.mask(),
        }
    }
}

/// Precision-aware value-range analysis: for each instruction that defines
/// a value, the layout it was produced at and the interval its lane values
/// provably lie in, or `None` when nothing can be proved (bitwise ops,
/// layout mismatches, non-defining instructions).
///
/// Intervals are sound for programs whose consumers read values at the
/// precision/layout they were produced at; a mismatched read degrades to
/// "unknown" rather than an unsound interval.
fn ranges_of(instrs: &[Instr], df: &Dataflow) -> Vec<Option<(Layout, ValueRange)>> {
    let mut out: Vec<Option<(Layout, ValueRange)>> = Vec::with_capacity(instrs.len());
    for (idx, instr) in instrs.iter().enumerate() {
        // The range of source `k`, provided its producer's layout matches.
        let src = |k: usize, want: Layout, out: &[Option<(Layout, ValueRange)>]| -> ValueRange {
            df.reaching_defs(idx)[k]
                .and_then(|def| out[def])
                .filter(|(layout, _)| *layout == want)
                .map_or(want.top(), |(_, r)| r)
        };
        let entry = match instr {
            Instr::Write {
                precision, values, ..
            } => Some((Layout::Dense(*precision), minmax(values))),
            Instr::WriteMult {
                precision, values, ..
            } => Some((Layout::Product(*precision), minmax(values))),
            Instr::Copy { .. } => df.reaching_defs(idx)[0].and_then(|def| out[def]),
            Instr::Shl { precision, .. } => {
                let layout = Layout::Dense(*precision);
                let a = src(0, layout, &out);
                Some((layout, shl_range(a, layout)))
            }
            Instr::Add { precision, .. } => {
                let layout = Layout::Dense(*precision);
                let (a, b) = (src(0, layout, &out), src(1, layout, &out));
                Some((layout, add_range(a, b, layout)))
            }
            Instr::AddShift { precision, .. } => {
                let layout = Layout::Dense(*precision);
                let (a, b) = (src(0, layout, &out), src(1, layout, &out));
                Some((layout, shl_range(add_range(a, b, layout), layout)))
            }
            Instr::Sub { precision, .. } => {
                let layout = Layout::Dense(*precision);
                let (a, b) = (src(0, layout, &out), src(1, layout, &out));
                let range = if a.lo >= b.hi {
                    ValueRange {
                        lo: a.lo - b.hi,
                        hi: a.hi - b.lo,
                    }
                } else {
                    layout.top() // may wrap
                };
                Some((layout, range))
            }
            Instr::Mult { precision, .. } => {
                let layout = Layout::Product(*precision);
                let (a, b) = (src(0, layout, &out), src(1, layout, &out));
                let range = match (a.lo.checked_mul(b.lo), a.hi.checked_mul(b.hi)) {
                    (Some(lo), Some(hi)) if hi <= layout.mask() => ValueRange { lo, hi },
                    _ => layout.top(),
                };
                Some((layout, range))
            }
            Instr::ReduceAdd {
                srcs, precision, ..
            } => {
                let layout = Layout::Dense(*precision);
                let mut acc = ValueRange { lo: 0, hi: 0 };
                let mut exact = true;
                for k in 0..srcs.len() {
                    let r = src(k, layout, &out);
                    match (acc.lo.checked_add(r.lo), acc.hi.checked_add(r.hi)) {
                        (Some(lo), Some(hi)) if hi <= layout.mask() => {
                            acc = ValueRange { lo, hi };
                        }
                        _ => {
                            exact = false;
                            break;
                        }
                    }
                }
                Some((layout, if exact { acc } else { layout.top() }))
            }
            // Whole-row bitwise ops have no lane-level interval; reads
            // define nothing.
            Instr::Logic { .. } | Instr::Not { .. } => None,
            Instr::Read { .. } | Instr::ReadProducts { .. } => None,
        };
        out.push(entry);
    }
    out
}

fn minmax(values: &[u64]) -> ValueRange {
    ValueRange {
        lo: values.iter().copied().min().unwrap_or(0),
        hi: values.iter().copied().max().unwrap_or(0),
    }
}

fn add_range(a: ValueRange, b: ValueRange, layout: Layout) -> ValueRange {
    match (a.lo.checked_add(b.lo), a.hi.checked_add(b.hi)) {
        (Some(lo), Some(hi)) if hi <= layout.mask() => ValueRange { lo, hi },
        _ => layout.top(), // may wrap in-lane
    }
}

fn shl_range(a: ValueRange, layout: Layout) -> ValueRange {
    match (a.lo.checked_mul(2), a.hi.checked_mul(2)) {
        (Some(lo), Some(hi)) if hi <= layout.mask() => ValueRange { lo, hi },
        _ => layout.top(), // the shift drops the lane's top bit
    }
}

/// One common-subexpression hit found by the CSE scan: instruction `idx`
/// recomputes the value instruction `prior` already produced (and that
/// value is still resident in `prior`'s register at `idx`).
struct CseHit {
    idx: usize,
    prior: usize,
    /// Cycles a 1-cycle `copy` (or outright removal) would save.
    saved: u64,
}

/// Value-numbering key for the multi-cycle deterministic compute ops.
/// Operand value numbers of commutative ops are sorted.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CseKey {
    Sub(Precision, usize, usize),
    Mult(Precision, usize, usize),
    Reduce(Precision, Vec<usize>),
}

/// Scans for redundant recomputation: each multi-cycle op whose value is
/// still resident in the register of an earlier op that computed it.
/// Returns the hits found, with indices into the stream.
///
/// Values are numbered by *definition site* (copies inherit their source's
/// number), never by content: two `write`s of identical values stay
/// distinct values, so rows bound to fresh data at `run_with_inputs` time
/// are never aliased.
fn cse_scan(instrs: &[Instr]) -> Vec<CseHit> {
    let regs = instrs
        .iter()
        .flat_map(|i| i.sources().into_iter().chain(i.dst()).map(|r| r.row() + 1))
        .max()
        .unwrap_or(0);
    let n = instrs.len();
    let mut last_def: Vec<Option<usize>> = vec![None; regs];
    let mut vn: Vec<usize> = (0..n).collect();
    let mut table: HashMap<CseKey, usize> = HashMap::new();
    let mut hits = Vec::new();
    for (idx, instr) in instrs.iter().enumerate() {
        let value_of = |r: Reg, last_def: &[Option<usize>]| -> Option<usize> {
            last_def.get(r.row()).copied().flatten().map(|d| vn[d])
        };
        let key = match instr {
            Instr::Sub {
                a, b, precision, ..
            } => value_of(*a, &last_def)
                .zip(value_of(*b, &last_def))
                .map(|(va, vb)| CseKey::Sub(*precision, va, vb)),
            Instr::Mult {
                a, b, precision, ..
            } => value_of(*a, &last_def)
                .zip(value_of(*b, &last_def))
                .map(|(va, vb)| CseKey::Mult(*precision, va.min(vb), va.max(vb))),
            Instr::ReduceAdd {
                srcs, precision, ..
            } => srcs
                .iter()
                .map(|s| value_of(*s, &last_def))
                .collect::<Option<Vec<usize>>>()
                .map(|mut vs| {
                    vs.sort_unstable();
                    CseKey::Reduce(*precision, vs)
                }),
            _ => None,
        };
        if let Some(key) = key {
            let prior = table.get(&key).copied().filter(|&p| {
                // The prior result must still be resident in its register.
                let pd = instrs[p].dst().expect("CSE candidates define");
                last_def[pd.row()] == Some(p)
            });
            if let Some(prior) = prior {
                let pd = instrs[prior].dst().expect("CSE candidates define");
                let dst = instr.dst().expect("CSE candidates define");
                // Recomputing into the register that already holds the
                // value is a pure no-op; anywhere else a 1-cycle copy
                // would do.
                let saved = if dst.row() == pd.row() {
                    instr.cycles()
                } else {
                    instr.cycles() - 1
                };
                hits.push(CseHit { idx, prior, saved });
                vn[idx] = vn[prior];
                last_def[dst.row()] = Some(idx);
                continue;
            }
            table.insert(key, idx);
        }
        if let Instr::Copy { src, .. } = instr {
            if let Some(v) = value_of(*src, &last_def) {
                vn[idx] = v;
            }
        }
        if let Some(dst) = instr.dst() {
            last_def[dst.row()] = Some(idx);
        }
    }
    hits
}

/// Linear-scan register packing: gives each *value* (definition) the
/// lowest-numbered register free over its live range and returns how many
/// registers that needs. The destination register is kept distinct from
/// the same instruction's source registers (conservative: multi-cycle ops
/// may stream their operands while writing the destination).
fn packed_reg_count(instrs: &[Instr]) -> usize {
    let df = Dataflow::of(instrs);
    let mut active: Vec<(u16, usize)> = Vec::new(); // (register, live-range end)
    let mut in_use: Vec<bool> = Vec::new();
    for (idx, instr) in instrs.iter().enumerate() {
        active.retain(|&(r, e)| {
            if e < idx {
                in_use[r as usize] = false;
                false
            } else {
                true
            }
        });
        if instr.dst().is_some() {
            // Values still live here (including this instruction's own
            // sources) hold their registers; take the lowest free one.
            let reg = (0..u16::MAX)
                .find(|&r| in_use.get(r as usize).copied() != Some(true))
                .expect("register demand never exceeds the original count");
            if reg as usize >= in_use.len() {
                in_use.resize(reg as usize + 1, false);
            }
            in_use[reg as usize] = true;
            active.push((reg, df.last_use(idx).unwrap_or(idx)));
        }
    }
    in_use.len()
}

impl Program {
    /// Lints the program against a macro configuration, returning
    /// diagnostics ordered by instruction span.
    ///
    /// A program that fails [`Program::validate`] returns exactly one
    /// `error` diagnostic carrying the error's stable code; further
    /// analysis of an invalid stream would be unreliable, so lints are
    /// only reported for valid programs.
    ///
    /// # Diagnostic codes
    ///
    /// | Code | Severity | Meaning |
    /// |------|----------|---------|
    /// | `E001`–`E012` | error | The program fails [`Program::validate`]; the code maps 1:1 to the [`ProgError`] variant (`E011` and `E013` are retired). |
    /// | `L001` | warn | Dead store: a result is overwritten before any instruction reads it. |
    /// | `L002` | warn | Unused result: a result is never read by any later instruction. |
    /// | `L003` | perf | Redundant recomputation: a multi-cycle op recomputes a value that is still resident in another row (a 1-cycle `copy` would do). |
    /// | `L004` | perf | Missed `add`+`shl` fusion: a `shl` of a sum that the lowering pass could not fuse (not adjacent, or the intermediate is read later). |
    /// | `L005` | perf | Recyclable registers: remapping registers would shrink the row budget. |
    /// | `L006` | — | Retired: it priced splitting a program across several macros, which no executor does. |
    /// | `L007` | perf | Over-wide precision: value-range analysis proves the operands and result fit a narrower lane width. |
    ///
    /// `error` diagnostics mean the program will not run; `warn` means it
    /// wastes cycles outright; `perf` marks an optimization opportunity.
    pub fn lint(&self, config: &MacroConfig) -> Vec<Diagnostic> {
        if let Err(e) = self.validate(config) {
            return vec![Diagnostic::from_prog_error(&e)];
        }
        let df = Dataflow::of(self.instrs());
        let mut out = Vec::new();
        self.lint_dead_and_unused(&df, &mut out);
        self.lint_redundant(&mut out);
        self.lint_missed_fusion(&df, &mut out);
        self.lint_recyclable_regs(&mut out);
        self.lint_over_wide(&df, &mut out);
        out.sort_by(|a, b| (a.span.start, &a.code).cmp(&(b.span.start, &b.code)));
        out
    }

    /// L001 (dead store) and L002 (unused result).
    fn lint_dead_and_unused(&self, df: &Dataflow, out: &mut Vec<Diagnostic>) {
        for (idx, instr) in self.instrs().iter().enumerate() {
            let Some(dst) = instr.dst() else { continue };
            if !df.users(idx).is_empty() {
                continue;
            }
            match df.killed_by(idx) {
                Some(kill) => out.push(Diagnostic::new(
                    "L001",
                    Severity::Warn,
                    idx..idx + 1,
                    format!(
                        "instr {idx}: {} result in {dst} is overwritten at instr {kill} \
                         before any instruction reads it",
                        instr.name()
                    ),
                )),
                None => out.push(Diagnostic::new(
                    "L002",
                    Severity::Warn,
                    idx..idx + 1,
                    format!(
                        "instr {idx}: {} result in {dst} is never used",
                        instr.name()
                    ),
                )),
            }
        }
    }

    /// L003 (redundant recomputation a copy could replace).
    fn lint_redundant(&self, out: &mut Vec<Diagnostic>) {
        for hit in cse_scan(self.instrs()) {
            out.push(Diagnostic::new(
                "L003",
                Severity::Perf,
                hit.idx..hit.idx + 1,
                format!(
                    "instr {}: recomputes the {} already computed at instr {}; \
                     a copy of the still-resident result would save {} cycle(s)",
                    hit.idx,
                    self.instrs()[hit.idx].name(),
                    hit.prior,
                    hit.saved
                ),
            ));
        }
    }

    /// L004 (missed add+shl fusion).
    fn lint_missed_fusion(&self, df: &Dataflow, out: &mut Vec<Diagnostic>) {
        // Submitted indices consumed by a fused pair: the billed index (the
        // add) plus the following shl.
        let mut fused = vec![false; self.instrs().len()];
        for (instr, idx) in self.lower_indexed() {
            if matches!(*instr, Instr::AddShift { .. })
                && matches!(self.instrs()[idx], Instr::Add { .. })
            {
                fused[idx] = true;
                fused[idx + 1] = true;
            }
        }
        for (idx, instr) in self.instrs().iter().enumerate() {
            let Instr::Shl { precision, .. } = instr else {
                continue;
            };
            if fused[idx] {
                continue;
            }
            let Some(def) = df.reaching_defs(idx)[0] else {
                continue;
            };
            let Instr::Add {
                dst: t,
                precision: add_p,
                ..
            } = &self.instrs()[def]
            else {
                continue;
            };
            if add_p != precision {
                continue;
            }
            let msg = if def + 1 == idx {
                let reader = df
                    .users(def)
                    .iter()
                    .copied()
                    .find(|&u| u > idx)
                    .unwrap_or(idx);
                format!(
                    "instr {idx}: add+shl pair does not fuse because the intermediate sum \
                     in {t} is read again at instr {reader}; copying the sum first would \
                     let the pair fuse into a 1-cycle add_shift"
                )
            } else {
                format!(
                    "instr {idx}: shl of the sum computed at instr {def}; if the shl \
                     immediately followed the add they would fuse into a 1-cycle add_shift"
                )
            };
            out.push(Diagnostic::new("L004", Severity::Perf, idx..idx + 1, msg));
        }
    }

    /// L005 (register remap would shrink the row budget).
    fn lint_recyclable_regs(&self, out: &mut Vec<Diagnostic>) {
        let new_regs = packed_reg_count(&self.lowered());
        if new_regs < self.reg_count() {
            out.push(Diagnostic::new(
                "L005",
                Severity::Perf,
                0..self.instrs().len(),
                format!(
                    "program uses {} registers where {} suffice; remapping \
                     would free {} row(s)",
                    self.reg_count(),
                    new_regs,
                    self.reg_count() - new_regs
                ),
            ));
        }
    }

    /// L007 (value ranges prove a narrower precision suffices).
    fn lint_over_wide(&self, df: &Dataflow, out: &mut Vec<Diagnostic>) {
        let ranges = ranges_of(self.instrs(), df);
        for (idx, instr) in self.instrs().iter().enumerate() {
            let (p, is_mult) = match instr {
                Instr::Write { precision, .. }
                | Instr::Shl { precision, .. }
                | Instr::Add { precision, .. }
                | Instr::AddShift { precision, .. }
                | Instr::Sub { precision, .. }
                | Instr::ReduceAdd { precision, .. } => (*precision, false),
                Instr::Mult { precision, .. } => (*precision, true),
                _ => continue,
            };
            // The op provably fits a narrower lane width only if its own
            // result and every operand do.
            let mut needed: u64 = 0;
            let mut exact = true;
            let mut consider = |entry: Option<(Layout, ValueRange)>| match entry {
                Some((_, r)) => needed = needed.max(r.hi),
                None => exact = false,
            };
            if is_mult {
                // Cycles scale with P: prove the *operands* fit narrower.
                for def in df.reaching_defs(idx) {
                    consider(def.and_then(|d| ranges[d]));
                }
            } else {
                consider(ranges[idx]);
                for def in df.reaching_defs(idx) {
                    consider(def.and_then(|d| ranges[d]));
                }
            }
            if !exact {
                continue;
            }
            // A top interval never fits a narrower width, so this is
            // self-limiting to genuinely proved ranges.
            let narrower = Precision::ALL
                .iter()
                .copied()
                .filter(|q| q.bits() < p.bits() && needed <= q.max_value())
                .min_by_key(|q| q.bits());
            if let Some(q) = narrower {
                let msg = if is_mult {
                    format!(
                        "instr {idx}: operands provably fit {} bits (max value {needed}); \
                         mult at P{} would take {} instead of {} cycles",
                        q.bits(),
                        q.bits(),
                        q.bits() + 2,
                        p.bits() + 2
                    )
                } else {
                    format!(
                        "instr {idx}: values provably fit {} bits (max value {needed}); \
                         P{} lanes would {}x the per-row capacity",
                        q.bits(),
                        q.bits(),
                        p.bits() / q.bits()
                    )
                };
                out.push(Diagnostic::new("L007", Severity::Perf, idx..idx + 1, msg));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MacroConfig {
        MacroConfig::paper_macro()
    }

    fn codes(instrs: Vec<Instr>) -> Vec<String> {
        Program::new(instrs)
            .lint(&cfg())
            .into_iter()
            .map(|d| d.code)
            .collect()
    }

    /// P2 keeps L007 quiet in triggers aimed at other codes: 3 saturates
    /// the narrowest lane width, so no narrower precision can fit.
    const P: Precision = Precision::P2;

    fn w(dst: u16, v: u64) -> Instr {
        Instr::Write {
            dst: Reg(dst),
            precision: P,
            values: vec![v],
        }
    }

    fn rd(src: u16) -> Instr {
        Instr::Read {
            src: Reg(src),
            precision: P,
            n: 1,
        }
    }

    #[test]
    fn dataflow_resolves_defs_uses_and_kills() {
        let instrs = vec![
            w(0, 3), // 0: defines r0
            w(1, 2), // 1: defines r1
            Instr::Add {
                a: Reg(0),
                b: Reg(1),
                dst: Reg(0), // 2: reads old r0, then kills 0
                precision: P,
            },
            rd(0), // 3: reads the sum
        ];
        let df = Dataflow::of(&instrs);
        assert_eq!(df.reaching_defs(2), &[Some(0), Some(1)]);
        assert_eq!(df.reaching_defs(3), &[Some(2)]);
        assert_eq!(df.users(0), &[2]);
        assert_eq!(df.users(2), &[3]);
        assert_eq!(df.killed_by(0), Some(2));
        assert_eq!(df.killed_by(2), None);
        assert_eq!(df.last_use(1), Some(2));
    }

    #[test]
    fn value_ranges_track_arithmetic_and_give_up_on_logic() {
        let p = Precision::P8;
        let prog = Program::new(vec![
            Instr::Write {
                dst: Reg(0),
                precision: p,
                values: vec![10, 20],
            },
            Instr::Write {
                dst: Reg(1),
                precision: p,
                values: vec![1, 2],
            },
            Instr::Add {
                a: Reg(0),
                b: Reg(1),
                dst: Reg(2),
                precision: p,
            },
            Instr::Logic {
                op: crate::LogicOp::Xor,
                a: Reg(0),
                b: Reg(1),
                dst: Reg(3),
            },
            Instr::Read {
                src: Reg(2),
                precision: p,
                n: 2,
            },
        ]);
        let ranges = ranges_of(prog.instrs(), &Dataflow::of(prog.instrs()));
        let dense = |lo, hi| Some((Layout::Dense(p), ValueRange { lo, hi }));
        assert_eq!(ranges[0], dense(10, 20));
        assert_eq!(ranges[2], dense(11, 22));
        assert_eq!(ranges[3], None); // bitwise: no lane interval
        assert_eq!(ranges[4], None); // reads define nothing
    }

    #[test]
    fn value_ranges_degrade_to_top_on_possible_wrap() {
        let prog = Program::new(vec![
            w(0, 3),
            w(1, 3),
            Instr::Add {
                a: Reg(0),
                b: Reg(1),
                dst: Reg(2),
                precision: P, // 3 + 3 wraps in a 2-bit lane
            },
            rd(2),
        ]);
        let ranges = ranges_of(prog.instrs(), &Dataflow::of(prog.instrs()));
        assert_eq!(
            ranges[2],
            Some((Layout::Dense(P), ValueRange { lo: 0, hi: 3 }))
        );
    }

    #[test]
    fn invalid_program_lints_as_one_error_diagnostic() {
        let diags = Program::new(vec![Instr::Add {
            a: Reg(0),
            b: Reg(1),
            dst: Reg(2),
            precision: P,
        }])
        .lint(&cfg());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "E002"); // UseBeforeDef
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].span, 0..1);
    }

    #[test]
    fn l001_dead_store_fires_and_is_silent_when_fixed() {
        let trigger = vec![w(0, 3), w(0, 2), rd(0)];
        let diags = Program::new(trigger).lint(&cfg());
        let l001: Vec<_> = diags.iter().filter(|d| d.code == "L001").collect();
        assert_eq!(l001.len(), 1);
        assert_eq!(l001[0].severity, Severity::Warn);
        assert_eq!(l001[0].span, 0..1);
        assert!(!codes(vec![w(0, 2), rd(0)]).contains(&"L001".to_string()));
    }

    #[test]
    fn l002_unused_result_fires_and_is_silent_when_fixed() {
        let trigger = vec![w(0, 3), w(1, 3), rd(0)];
        let diags = Program::new(trigger).lint(&cfg());
        let l002: Vec<_> = diags.iter().filter(|d| d.code == "L002").collect();
        assert_eq!(l002.len(), 1);
        assert_eq!(l002[0].span, 1..2);
        assert!(!codes(vec![w(0, 3), rd(0)]).contains(&"L002".to_string()));
    }

    #[test]
    fn l003_redundant_recompute_fires_and_is_silent_when_fixed() {
        let sub = |dst: u16| Instr::Sub {
            a: Reg(0),
            b: Reg(1),
            dst: Reg(dst),
            precision: P,
        };
        let trigger = vec![w(0, 3), w(1, 1), sub(2), sub(3), rd(2), rd(3)];
        let diags = Program::new(trigger).lint(&cfg());
        let l003: Vec<_> = diags.iter().filter(|d| d.code == "L003").collect();
        assert_eq!(l003.len(), 1);
        assert_eq!(l003[0].span, 3..4);
        let fixed = vec![
            w(0, 3),
            w(1, 1),
            sub(2),
            Instr::Copy {
                src: Reg(2),
                dst: Reg(3),
            },
            rd(2),
            rd(3),
        ];
        assert!(!codes(fixed).contains(&"L003".to_string()));
    }

    #[test]
    fn l004_missed_fusion_fires_and_is_silent_when_fixed() {
        let add = Instr::Add {
            a: Reg(0),
            b: Reg(1),
            dst: Reg(2),
            precision: P,
        };
        let shl = Instr::Shl {
            src: Reg(2),
            dst: Reg(3),
            precision: P,
        };
        // The pair is adjacent but the intermediate sum is read again
        // later, so the lowering pass cannot fuse it.
        let trigger = vec![w(0, 3), w(1, 3), add.clone(), shl.clone(), rd(3), rd(2)];
        let diags = Program::new(trigger).lint(&cfg());
        let l004: Vec<_> = diags.iter().filter(|d| d.code == "L004").collect();
        assert_eq!(l004.len(), 1);
        assert_eq!(l004[0].span, 3..4);
        // Without the extra read the pair fuses and the lint is silent.
        let fixed = vec![w(0, 3), w(1, 3), add, shl, rd(3)];
        assert!(!codes(fixed).contains(&"L004".to_string()));
    }

    #[test]
    fn l005_recyclable_registers_fires_and_is_silent_when_fixed() {
        let trigger = vec![w(0, 3), rd(0), w(1, 3), rd(1)];
        assert!(codes(trigger).contains(&"L005".to_string()));
        let fixed = vec![w(0, 3), rd(0), w(0, 3), rd(0)];
        assert!(!codes(fixed).contains(&"L005".to_string()));
    }

    #[test]
    fn l007_over_wide_precision_fires_and_is_silent_when_fixed() {
        let trigger = vec![
            Instr::Write {
                dst: Reg(0),
                precision: Precision::P8,
                values: vec![1, 2],
            },
            Instr::Read {
                src: Reg(0),
                precision: Precision::P8,
                n: 2,
            },
        ];
        let diags = Program::new(trigger).lint(&cfg());
        let l007: Vec<_> = diags.iter().filter(|d| d.code == "L007").collect();
        assert_eq!(l007.len(), 1);
        assert_eq!(l007[0].span, 0..1);
        let fixed = vec![
            Instr::Write {
                dst: Reg(0),
                precision: Precision::P8,
                values: vec![1, 255],
            },
            Instr::Read {
                src: Reg(0),
                precision: Precision::P8,
                n: 2,
            },
        ];
        assert!(!codes(fixed).contains(&"L007".to_string()));
    }

    #[test]
    fn diagnostics_are_sorted_by_span_then_code() {
        let diags = Program::new(vec![w(0, 3), w(0, 2), rd(0), w(1, 3), rd(1)]).lint(&cfg());
        let keys: Vec<_> = diags
            .iter()
            .map(|d| (d.span.start, d.code.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}

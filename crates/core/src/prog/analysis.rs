//! Static dataflow analysis over [`Instr`] streams: def-use chains,
//! liveness, reaching definitions, value-range analysis, lint diagnostics
//! and a semantics-preserving optimizer.
//!
//! The IR's executor already *validates* programs ([`Program::validate`])
//! and *prices* them (the static cost model); this module adds the third
//! leg — it *advises*. [`Dataflow`] is the shared framework: one linear
//! pass resolves every register read to the definition that produced its
//! value, and everything else — [`Program::lint`], [`Program::optimize`],
//! [`Program::partition`]'s dependence components — is derived from that
//! one def-use map.
//!
//! # Diagnostic codes
//!
//! [`Program::lint`] reports [`Diagnostic`]s with stable codes:
//!
//! | Code | Severity | Meaning |
//! |------|----------|---------|
//! | `E001`–`E012` | error | The program fails [`Program::validate`]; the code maps 1:1 to the [`ProgError`] variant (see [`ProgError::code`]; `E011` is retired). |
//! | `L001` | warn | Dead store: a result is overwritten before any instruction reads it. |
//! | `L002` | warn | Unused result: a result is never read by any later instruction. |
//! | `L003` | perf | Redundant recomputation: a multi-cycle op recomputes a value that is still resident in another row (a 1-cycle `copy` would do). |
//! | `L004` | perf | Missed `add`+`shl` fusion: a `shl` of a sum that the lowering pass could not fuse (not adjacent, or the intermediate is read later). |
//! | `L005` | perf | Recyclable registers: remapping registers would shrink the row budget. |
//! | `L006` | perf | Splittable: the program has multiple independent dependence components that separate macros could run side by side ([`Program::partition`], [`Program::predicted_makespan`]). |
//! | `L007` | perf | Over-wide precision: value-range analysis proves the operands and result fit a narrower lane width. |
//!
//! `error` diagnostics mean the program will not run; `warn` means it
//! wastes cycles outright; `perf` marks an optimization opportunity.
//!
//! # The optimizer
//!
//! [`Program::optimize`] applies copy propagation, common-subexpression
//! elimination, dead-store elimination and register remapping. It is
//! semantics-preserving by construction — read outputs are bit-identical
//! and [`Program::cycles`] never increases — and the differential property
//! suite (`tests/analysis_prop.rs`) enforces both over random programs at
//! every precision.

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
    pub fn from_name(name: &str) -> Option<Severity> {
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
    /// `L001`–`L007` for lints; see the module docs for the table).
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
    pub fn from_prog_error(e: &ProgError) -> Diagnostic {
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
/// [`Program::partition`], [`Program::lint`] and [`Program::optimize`] are
/// all built on this map.
#[derive(Debug, Clone)]
pub struct Dataflow {
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
    /// Analyzes a program's submitted stream.
    pub fn of(prog: &Program) -> Dataflow {
        Dataflow::of_instrs(prog.instrs())
    }

    pub(super) fn of_instrs(instrs: &[Instr]) -> Dataflow {
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

    /// Instructions analyzed.
    pub fn len(&self) -> usize {
        self.reaching.len()
    }

    /// True for an empty stream.
    pub fn is_empty(&self) -> bool {
        self.reaching.is_empty()
    }

    /// The reaching definition of each source of instruction `idx`, in
    /// [`Instr::sources`] order. `None` marks a use of a never-written
    /// register (the program fails validation).
    pub fn reaching_defs(&self, idx: usize) -> &[Option<usize>] {
        &self.reaching[idx]
    }

    /// The instructions that read the value defined at `def`, ascending.
    /// Empty for non-defining instructions.
    pub fn users(&self, def: usize) -> &[usize] {
        &self.users[def]
    }

    /// The instruction that overwrites `def`'s register after `def` (the
    /// value's kill point), or `None` if the value survives to the end.
    pub fn killed_by(&self, def: usize) -> Option<usize> {
        self.killed_by[def]
    }

    /// The last instruction that reads the value defined at `def` — the
    /// end of its live range. `None` for a value nobody reads.
    pub fn last_use(&self, def: usize) -> Option<usize> {
        self.users[def].last().copied()
    }

    /// The dependence component of each instruction: two instructions
    /// share a component when one reads a value the other defined
    /// (transitively). Components are numbered in order of their first
    /// instruction, so component ids are stable and ascending.
    pub fn components(&self) -> Vec<usize> {
        let n = self.len();
        let mut uf = UnionFind::new(n);
        for (idx, defs) in self.reaching.iter().enumerate() {
            for def in defs.iter().flatten() {
                uf.union(idx, *def);
            }
        }
        let mut comp_of_root: Vec<Option<usize>> = vec![None; n];
        let mut next = 0usize;
        (0..n)
            .map(|idx| {
                let root = uf.find(idx);
                *comp_of_root[root].get_or_insert_with(|| {
                    next += 1;
                    next - 1
                })
            })
            .collect()
    }
}

/// Disjoint-set forest over instruction indices (path-halving), for the
/// dependence components.
struct UnionFind(Vec<usize>);

impl UnionFind {
    fn new(n: usize) -> Self {
        Self((0..n).collect())
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] != x {
            self.0[x] = self.0[self.0[x]];
            x = self.0[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Root at the smaller index so component roots are stable.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.0[hi] = lo;
        }
    }
}

/// An inclusive interval of per-lane values a definition can hold, from
/// the value-range analysis ([`value_ranges`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueRange {
    /// Smallest possible lane value.
    pub lo: u64,
    /// Largest possible lane value.
    pub hi: u64,
}

impl ValueRange {
    /// True when every possible value fits `precision`'s lane width.
    pub fn fits(&self, precision: Precision) -> bool {
        self.hi <= precision.max_value()
    }
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
/// a value, the interval its lane values provably lie in, or `None` when
/// nothing can be proved (bitwise ops, layout mismatches, non-defining
/// instructions).
///
/// Intervals are sound for programs whose consumers read values at the
/// precision/layout they were produced at; a mismatched read degrades to
/// "unknown" rather than an unsound interval.
pub fn value_ranges(prog: &Program) -> Vec<Option<ValueRange>> {
    ranges_of(prog.instrs(), &Dataflow::of(prog))
        .into_iter()
        .map(|e| e.map(|(_, r)| r))
        .collect()
}

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

/// Scans for redundant recomputation and (when `apply` is set) rewrites
/// each hit into a 1-cycle `copy` from the row still holding the value —
/// or removes the instruction outright when it would rewrite its own
/// register with the value it already holds. Returns the hits found, with
/// indices into the stream as passed in.
///
/// Values are numbered by *definition site* (copies inherit their source's
/// number), never by content: two `write`s of identical values stay
/// distinct values, so rows bound to fresh data at `run_with_inputs` time
/// are never aliased.
fn cse_scan(instrs: &mut Vec<Instr>, apply: bool) -> Vec<CseHit> {
    let regs = instrs
        .iter()
        .flat_map(|i| i.sources().into_iter().chain(i.dst()).map(|r| r.row() + 1))
        .max()
        .unwrap_or(0);
    let n = instrs.len();
    let mut last_def: Vec<Option<usize>> = vec![None; regs];
    let mut vn: Vec<usize> = (0..n).collect();
    let mut table: HashMap<CseKey, usize> = HashMap::new();
    let mut keep = vec![true; n];
    let mut hits = Vec::new();
    for idx in 0..n {
        let value_of = |r: Reg, last_def: &[Option<usize>]| -> Option<usize> {
            last_def.get(r.row()).copied().flatten().map(|d| vn[d])
        };
        let key = match &instrs[idx] {
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
                let dst = instrs[idx].dst().expect("CSE candidates define");
                if dst.row() == pd.row() {
                    // Recomputing into the register that already holds the
                    // value: a pure no-op, remove it. The register's live
                    // definition stays `prior`.
                    hits.push(CseHit {
                        idx,
                        prior,
                        saved: instrs[idx].cycles(),
                    });
                    if apply {
                        keep[idx] = false;
                    } else {
                        last_def[dst.row()] = Some(idx);
                        vn[idx] = vn[prior];
                    }
                    continue;
                }
                hits.push(CseHit {
                    idx,
                    prior,
                    saved: instrs[idx].cycles() - 1,
                });
                if apply {
                    instrs[idx] = Instr::Copy { src: pd, dst };
                }
                vn[idx] = vn[prior];
                last_def[dst.row()] = Some(idx);
                continue;
            }
            table.insert(key, idx);
        }
        if let Instr::Copy { src, .. } = &instrs[idx] {
            if let Some(v) = value_of(*src, &last_def) {
                vn[idx] = v;
            }
        }
        if let Some(dst) = instrs[idx].dst() {
            last_def[dst.row()] = Some(idx);
        }
    }
    if apply && keep.iter().any(|k| !k) {
        let mut it = keep.iter();
        instrs.retain(|_| *it.next().expect("keep is instr-aligned"));
    }
    hits
}

/// Rewrites every source register through `f`, preserving the
/// per-variant order of [`Instr::sources`].
fn map_sources(instr: &mut Instr, mut f: impl FnMut(Reg) -> Reg) {
    match instr {
        Instr::Write { .. } | Instr::WriteMult { .. } => {}
        Instr::Read { src, .. }
        | Instr::ReadProducts { src, .. }
        | Instr::Not { src, .. }
        | Instr::Copy { src, .. }
        | Instr::Shl { src, .. } => *src = f(*src),
        Instr::Logic { a, b, .. }
        | Instr::Add { a, b, .. }
        | Instr::AddShift { a, b, .. }
        | Instr::Sub { a, b, .. }
        | Instr::Mult { a, b, .. } => {
            *a = f(*a);
            *b = f(*b);
        }
        Instr::ReduceAdd { srcs, .. } => {
            for s in srcs {
                *s = f(*s);
            }
        }
    }
}

/// Copy propagation: a source whose reaching definition is a `copy` reads
/// the copy's origin register directly, provided the origin still holds
/// the same value at the point of use (and the rewrite would not alias the
/// two operands of a dual-WL op). A `copy` duplicates the entire row, so
/// the rewrite is bit-exact even for raw-layout reads. Returns true if
/// anything changed.
fn copy_propagate(instrs: &mut [Instr]) -> bool {
    let regs = instrs
        .iter()
        .flat_map(|i| i.sources().into_iter().chain(i.dst()).map(|r| r.row() + 1))
        .max()
        .unwrap_or(0);
    let n = instrs.len();
    let mut last_def: Vec<Option<usize>> = vec![None; regs];
    // For each `copy` definition: its (origin register, origin's def).
    let mut copy_src: Vec<Option<(Reg, usize)>> = vec![None; n];
    let mut changed = false;
    for idx in 0..n {
        let resolve = |mut r: Reg, last_def: &[Option<usize>]| -> Reg {
            loop {
                let Some(def) = last_def.get(r.row()).copied().flatten() else {
                    return r;
                };
                let Some((origin, origin_def)) = copy_src[def] else {
                    return r;
                };
                // The origin register must still hold the value the copy
                // duplicated.
                if last_def.get(origin.row()).copied().flatten() != Some(origin_def) {
                    return r;
                }
                r = origin;
            }
        };
        match &mut instrs[idx] {
            // Dual-WL ops must keep distinct operand rows: skip the
            // rewrite entirely if propagation would alias them.
            Instr::Logic { a, b, .. } | Instr::Add { a, b, .. } | Instr::AddShift { a, b, .. } => {
                let (ra, rb) = (resolve(*a, &last_def), resolve(*b, &last_def));
                if ra != rb && (ra != *a || rb != *b) {
                    *a = ra;
                    *b = rb;
                    changed = true;
                }
            }
            other => map_sources(other, |r| {
                let nr = resolve(r, &last_def);
                changed |= nr != r;
                nr
            }),
        }
        if let Instr::Copy { src, .. } = &instrs[idx] {
            copy_src[idx] = last_def[src.row()].map(|d| (*src, d));
        }
        if let Some(dst) = instrs[idx].dst() {
            last_def[dst.row()] = Some(idx);
        }
    }
    changed
}

/// One dead-store-elimination sweep: removes every defining instruction
/// whose value has no users (reads are never candidates — they define
/// nothing — so the output shape is untouched). Returns true if anything
/// was removed; callers loop to a fixpoint since a removal can orphan the
/// defs that fed it.
fn dse_sweep(instrs: &mut Vec<Instr>) -> bool {
    let df = Dataflow::of_instrs(instrs);
    let dead: Vec<bool> = (0..instrs.len())
        .map(|i| instrs[i].dst().is_some() && df.users(i).is_empty())
        .collect();
    if !dead.contains(&true) {
        return false;
    }
    let mut it = dead.iter();
    instrs.retain(|_| !*it.next().expect("dead is instr-aligned"));
    true
}

/// Linear-scan register remap: assigns each *value* (definition) the
/// lowest-numbered register free over its live range, packing the row
/// budget. The destination register is kept distinct from the same
/// instruction's source registers (conservative: multi-cycle ops may
/// stream their operands while writing the destination). Returns the
/// rewritten stream and its register count, or `None` when the stream has
/// an unresolvable read.
fn compute_remap(instrs: &[Instr]) -> Option<(Vec<Instr>, usize)> {
    let df = Dataflow::of_instrs(instrs);
    let n = instrs.len();
    for idx in 0..n {
        if df.reaching_defs(idx).iter().any(Option::is_none) {
            return None;
        }
    }
    let end: Vec<usize> = (0..n).map(|i| df.last_use(i).unwrap_or(i)).collect();
    let mut assigned: Vec<Option<u16>> = vec![None; n];
    let mut active: Vec<(u16, usize)> = Vec::new(); // (register, live-range end)
    let mut in_use: Vec<bool> = Vec::new();
    let mut out = Vec::with_capacity(n);
    for (idx, instr) in instrs.iter().enumerate() {
        active.retain(|&(r, e)| {
            if e < idx {
                in_use[r as usize] = false;
                false
            } else {
                true
            }
        });
        let mut rewritten = instr.clone();
        // Sources first: they read values defined earlier.
        let defs = df.reaching_defs(idx);
        let mut k = 0usize;
        map_sources(&mut rewritten, |_| {
            let def = defs[k].expect("checked above");
            k += 1;
            Reg(assigned[def].expect("defs precede uses"))
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
            active.push((reg, end[idx]));
            assigned[idx] = Some(reg);
            set_dst(&mut rewritten, Reg(reg));
        }
        out.push(rewritten);
    }
    let new_regs = in_use.len();
    Some((out, new_regs))
}

fn set_dst(instr: &mut Instr, reg: Reg) {
    match instr {
        Instr::Read { .. } | Instr::ReadProducts { .. } => {}
        Instr::Write { dst, .. }
        | Instr::WriteMult { dst, .. }
        | Instr::Logic { dst, .. }
        | Instr::Not { dst, .. }
        | Instr::Copy { dst, .. }
        | Instr::Shl { dst, .. }
        | Instr::Add { dst, .. }
        | Instr::AddShift { dst, .. }
        | Instr::Sub { dst, .. }
        | Instr::Mult { dst, .. }
        | Instr::ReduceAdd { dst, .. } => *dst = reg,
    }
}

impl Program {
    /// Lints the program against a macro configuration, returning
    /// diagnostics ordered by instruction span (see the
    /// [module docs](self) for the code table).
    ///
    /// A program that fails [`Program::validate`] returns exactly one
    /// `error` diagnostic carrying the [`ProgError::code`]; further
    /// analysis of an invalid stream would be unreliable, so lints are
    /// only reported for valid programs.
    pub fn lint(&self, config: &MacroConfig) -> Vec<Diagnostic> {
        if let Err(e) = self.validate(config) {
            return vec![Diagnostic::from_prog_error(&e)];
        }
        let df = Dataflow::of(self);
        let mut out = Vec::new();
        self.lint_dead_and_unused(&df, &mut out);
        self.lint_redundant(&mut out);
        self.lint_missed_fusion(&df, &mut out);
        self.lint_recyclable_regs(&mut out);
        self.lint_splittable(&df, &mut out);
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
        let mut scratch = self.instrs().to_vec();
        for hit in cse_scan(&mut scratch, false) {
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
            if matches!(instr, Instr::AddShift { .. })
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
        let fused = self.lowered();
        if let Some((_, new_regs)) = compute_remap(&fused) {
            if new_regs < self.reg_count() {
                out.push(Diagnostic::new(
                    "L005",
                    Severity::Perf,
                    0..self.instrs().len(),
                    format!(
                        "program uses {} registers where {} suffice; remapping \
                         (Program::optimize) would free {} row(s)",
                        self.reg_count(),
                        new_regs,
                        self.reg_count() - new_regs
                    ),
                ));
            }
        }
    }

    /// L006 (independent components could run on separate macros).
    fn lint_splittable(&self, df: &Dataflow, out: &mut Vec<Diagnostic>) {
        let comp = df.components();
        let count = comp.iter().copied().max().map_or(0, |m| m + 1);
        if count > 1 {
            let makespan = self.predicted_makespan(count);
            out.push(Diagnostic::new(
                "L006",
                Severity::Perf,
                0..self.instrs().len(),
                format!(
                    "program splits into {count} independent components; spread across \
                     {count} macros it would finish in {makespan} of its {} cycles",
                    self.cycles()
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

    /// Optimizes the program without changing what it computes: copy
    /// propagation, common-subexpression elimination (multi-cycle ops whose
    /// value is still resident become 1-cycle copies), dead-store
    /// elimination to a fixpoint, and a register remap that packs the row
    /// budget (adopted only when it strictly shrinks it).
    ///
    /// Guarantees, enforced by the differential property suite:
    ///
    /// * **Bit-identical outputs** — every `read`/`read_products` returns
    ///   exactly the bits the original program returns, for any input
    ///   binding of the surviving writes.
    /// * **Cycles never increase** — [`Program::cycles`] of the result is
    ///   ≤ the original's (if a rewrite cannot win, the original is
    ///   returned unchanged).
    /// * **The static cost model stays exact** — the optimized program is
    ///   an ordinary [`Program`], so [`Program::run`] still asserts
    ///   `predicted_activity` against the execution log.
    ///
    /// The instruction *stream* may shrink (dead stores vanish, fusable
    /// `add`+`shl` pairs are materialized as explicit `add_shift`), so
    /// per-instruction reports and `run_with_inputs` bindings index the
    /// optimized stream, not the submitted one. Reads are never reordered
    /// or removed; surviving writes keep their relative order. A
    /// structurally invalid program (a read with no reaching definition)
    /// is returned unchanged — validation owns that reporting.
    pub fn optimize(&self) -> Program {
        let df = Dataflow::of(self);
        for idx in 0..df.len() {
            if df.reaching_defs(idx).iter().any(Option::is_none) {
                return self.clone();
            }
        }
        let mut instrs = self.instrs().to_vec();
        let mut changed = false;
        // To a fixpoint: a CSE rewrite introduces a copy that the next
        // round's propagation can forward and DSE can then collect, so one
        // pipeline pass is not always enough. Each productive round
        // strictly reduces (duplicates, copies or instructions), so this
        // terminates.
        loop {
            let mut round = copy_propagate(&mut instrs);
            round |= !cse_scan(&mut instrs, true).is_empty();
            while dse_sweep(&mut instrs) {
                round = true;
            }
            if !round {
                break;
            }
            changed = true;
        }
        // Materialize the fusion lowering would perform, so the register
        // remap cannot extend an intermediate sum's live range and un-fuse
        // a pair behind our back.
        let fused = Program::new(instrs).lowered();
        let fused_regs = Program::new(fused.clone()).reg_count();
        let final_instrs = match compute_remap(&fused) {
            Some((remapped, new_regs)) if new_regs < fused_regs => remapped,
            _ if changed => fused,
            _ => return self.clone(),
        };
        let optimized = Program::new(final_instrs);
        // Defensive: no rewrite is ever allowed to cost cycles.
        if optimized.cycles() > self.cycles() {
            self.clone()
        } else {
            optimized
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macroblock::ImcMacro;

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

    /// Outputs of both programs on fresh macros, for differential checks.
    fn outputs(prog: &Program) -> Vec<Vec<u64>> {
        let mut mac = ImcMacro::new(cfg());
        prog.run(&mut mac).unwrap().outputs
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
        let df = Dataflow::of_instrs(&instrs);
        assert_eq!(df.len(), 4);
        assert_eq!(df.reaching_defs(2), &[Some(0), Some(1)]);
        assert_eq!(df.reaching_defs(3), &[Some(2)]);
        assert_eq!(df.users(0), &[2]);
        assert_eq!(df.users(2), &[3]);
        assert_eq!(df.killed_by(0), Some(2));
        assert_eq!(df.killed_by(2), None);
        assert_eq!(df.last_use(1), Some(2));
        assert_eq!(df.components(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn components_split_independent_chains() {
        let df = Dataflow::of_instrs(&[w(0, 3), rd(0), w(1, 3), rd(1)]);
        assert_eq!(df.components(), vec![0, 0, 1, 1]);
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
        let ranges = value_ranges(&prog);
        assert_eq!(ranges[0], Some(ValueRange { lo: 10, hi: 20 }));
        assert_eq!(ranges[2], Some(ValueRange { lo: 11, hi: 22 }));
        assert_eq!(ranges[3], None); // bitwise: no lane interval
        assert_eq!(ranges[4], None); // reads define nothing
        assert!(ranges[2].unwrap().fits(Precision::P8));
        assert!(!ranges[2].unwrap().fits(Precision::P4));
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
        assert_eq!(value_ranges(&prog)[2], Some(ValueRange { lo: 0, hi: 3 }));
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
    fn l006_splittable_fires_and_is_silent_when_fixed() {
        let trigger = vec![w(0, 3), rd(0), w(1, 3), rd(1)];
        assert!(codes(trigger).contains(&"L006".to_string()));
        let fixed = vec![w(0, 3), rd(0)];
        assert!(!codes(fixed).contains(&"L006".to_string()));
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

    #[test]
    fn optimize_returns_clean_programs_unchanged() {
        let prog = Program::new(vec![
            w(0, 3),
            w(1, 2),
            Instr::Add {
                a: Reg(0),
                b: Reg(1),
                dst: Reg(1),
                precision: P,
            },
            rd(1),
        ]);
        let opt = prog.optimize();
        assert_eq!(opt.instrs(), prog.instrs());
        assert_eq!(opt.cycles(), prog.cycles());
    }

    #[test]
    fn optimize_eliminates_dead_stores() {
        let prog = Program::new(vec![w(0, 3), w(0, 2), rd(0), w(1, 1)]);
        let opt = prog.optimize();
        assert_eq!(opt.instrs(), vec![w(0, 2), rd(0)]);
        assert!(opt.cycles() < prog.cycles());
        assert_eq!(outputs(&opt), outputs(&prog));
    }

    #[test]
    fn optimize_rewrites_redundant_mult_into_copy() {
        let p = Precision::P8;
        let wm = |dst: u16, v: u64| Instr::WriteMult {
            dst: Reg(dst),
            precision: p,
            values: vec![v],
        };
        let mult = |dst: u16| Instr::Mult {
            a: Reg(0),
            b: Reg(1),
            dst: Reg(dst),
            precision: p,
        };
        let rp = |src: u16| Instr::ReadProducts {
            src: Reg(src),
            precision: p,
            n: 1,
        };
        let prog = Program::new(vec![wm(0, 7), wm(1, 9), mult(2), mult(3), rp(2), rp(3)]);
        let opt = prog.optimize();
        // The recomputed product becomes a copy, the copy is forwarded
        // into the read, and the dead copy is collected: the whole P+2
        // cycle recomputation vanishes.
        assert_eq!(opt.cycles(), prog.cycles() - (p.bits() as u64 + 2));
        assert_eq!(outputs(&opt), outputs(&prog));
        let mults = opt
            .instrs()
            .iter()
            .filter(|i| matches!(i, Instr::Mult { .. }))
            .count();
        assert_eq!(mults, 1);
    }

    #[test]
    fn optimize_propagates_copies_and_drops_them_dead() {
        let prog = Program::new(vec![
            w(0, 3),
            Instr::Copy {
                src: Reg(0),
                dst: Reg(1),
            },
            rd(1),
        ]);
        let opt = prog.optimize();
        assert_eq!(opt.instrs(), vec![w(0, 3), rd(0)]);
        assert_eq!(outputs(&opt), outputs(&prog));
    }

    #[test]
    fn optimize_remaps_registers_to_shrink_the_row_budget() {
        let prog = Program::new(vec![w(0, 3), rd(0), w(5, 2), rd(5)]);
        let opt = prog.optimize();
        assert!(opt.reg_count() < prog.reg_count());
        assert_eq!(outputs(&opt), outputs(&prog));
        assert_eq!(opt.cycles(), prog.cycles());
    }

    #[test]
    fn optimize_never_unfuses_an_add_shl_pair() {
        // add+shl fuses to one cycle; the optimizer must not rewrite the
        // stream into a shape the lowering pass can no longer fuse.
        let prog = Program::new(vec![
            w(0, 3),
            w(1, 2),
            Instr::Add {
                a: Reg(0),
                b: Reg(1),
                dst: Reg(2),
                precision: P,
            },
            Instr::Shl {
                src: Reg(2),
                dst: Reg(3),
                precision: P,
            },
            rd(3),
        ]);
        let opt = prog.optimize();
        assert!(opt.cycles() <= prog.cycles());
        assert_eq!(outputs(&opt), outputs(&prog));
    }

    #[test]
    fn optimize_leaves_invalid_programs_alone() {
        let instrs = vec![Instr::Not {
            src: Reg(0),
            dst: Reg(1),
        }];
        let prog = Program::new(instrs.clone());
        assert_eq!(prog.optimize().instrs(), instrs);
    }

    #[test]
    fn optimized_programs_still_assert_predicted_activity() {
        // `Program::run` asserts the static cost model against the
        // execution log; an optimized program must still satisfy it.
        let prog = Program::new(vec![
            w(0, 3),
            Instr::Copy {
                src: Reg(0),
                dst: Reg(2),
            },
            w(1, 1),
            Instr::Sub {
                a: Reg(2),
                b: Reg(1),
                dst: Reg(4),
                precision: P,
            },
            Instr::Sub {
                a: Reg(2),
                b: Reg(1),
                dst: Reg(5),
                precision: P,
            },
            rd(4),
            rd(5),
        ]);
        let opt = prog.optimize();
        assert!(opt.cycles() < prog.cycles());
        let mut mac = ImcMacro::new(cfg());
        let run = opt.run(&mut mac).unwrap(); // asserts internally
        assert_eq!(run.outputs, outputs(&prog));
    }
}

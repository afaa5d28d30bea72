//! A nearest-prototype classifier whose arithmetic runs on the IMC macro.

use crate::dataset::Dataset;
use crate::quant::QuantParams;
use bpimc_core::prog::{Instr, Program, ProgramBuilder};
use bpimc_core::{ImcMacro, MacroBank, MacroConfig, Precision};
use bpimc_metrics::paper_calibrated_params;

/// Classifier state: quantized class prototypes plus the macro bank that
/// evaluates the dot products (one macro per host worker, so independent
/// samples classify in parallel).
#[derive(Debug, Clone)]
pub struct PrototypeClassifier {
    precision: Precision,
    quant: QuantParams,
    prototypes_q: Vec<Vec<u64>>,
    bank: MacroBank,
}

/// Evaluation result over a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// Fraction of samples classified correctly.
    pub accuracy: f64,
    /// Total macro cycles spent (summed across the bank — identical to
    /// running every sample on one macro).
    pub(crate) cycles: u64,
    /// Total macro energy at 0.9 V, femtojoules (Table II-calibrated).
    pub(crate) energy_fj: f64,
    /// Samples evaluated.
    pub(crate) samples: usize,
}

impl EvalReport {
    /// Average cycles per classified sample.
    pub fn cycles_per_sample(&self) -> f64 {
        self.cycles as f64 / self.samples.max(1) as f64
    }

    /// Average energy per classified sample, femtojoules.
    pub fn energy_per_sample_fj(&self) -> f64 {
        self.energy_fj / self.samples.max(1) as f64
    }
}

/// Emits the dot-product pipeline `dot(x_q, w_q)` as a typed [`Program`]:
/// per product-lane chunk, both operands are staged into product lanes,
/// one bit-parallel MULT runs, and the products are read out. The three
/// working registers are recycled across chunks, so the row budget is
/// constant regardless of vector length and the instruction stream matches
/// the direct `ImcMacro` call sequence cycle for cycle.
///
/// # Panics
///
/// Panics when `2P` exceeds `cols` (no product lanes exist).
pub fn dot_program(precision: Precision, x_q: &[u64], w_q: &[u64], cols: usize) -> Program {
    let lanes = precision.product_lanes(cols);
    assert!(lanes > 0, "{precision} products do not fit {cols} columns");
    let mut b = ProgramBuilder::new();
    let rx = b.alloc();
    let rw = b.alloc();
    let rp = b.alloc();
    for (xc, wc) in x_q.chunks(lanes).zip(w_q.chunks(lanes)) {
        b.write_mult_to(rx, precision, xc.to_vec());
        b.write_mult_to(rw, precision, wc.to_vec());
        b.push(Instr::Mult {
            a: rx,
            b: rw,
            dst: rp,
            precision,
        });
        b.read_products(rp, precision, xc.len());
    }
    b.finish()
}

/// Computes `dot(x_q, w_q)` on one macro by building the pipeline with
/// [`dot_program`] and running it through the program executor; partial
/// products are summed on the host.
///
/// # Panics
///
/// Panics when operand values exceed the precision or the vectors differ in
/// length — callers serving untrusted input must validate first.
pub fn imc_dot(mac: &mut ImcMacro, precision: Precision, x_q: &[u64], w_q: &[u64]) -> u64 {
    let prog = dot_program(precision, x_q, w_q, mac.cols());
    let run = prog.run(mac).expect("dot pipeline validates");
    run.outputs.iter().flatten().sum()
}

/// Emits **one** fused program covering all `C` prototype dots of a
/// nearest-prototype classification — `dot(x_q, w_c)` for every class `c`,
/// concatenated with the same three recycled working registers — so a
/// classification costs a single trip through the program executor instead
/// of `C` (validation, lowering and per-run bookkeeping amortize `C`-fold).
///
/// The instruction stream is exactly the concatenation of the per-class
/// [`dot_program`] streams: hardware cycles, per-cycle activity and scores
/// are bit-identical to running the dots one program at a time.
///
/// Outputs group per class: with `k = chunks_per_class(...)` chunks per
/// dot, output vectors `[c*k, (c+1)*k)` are class `c`'s partial products;
/// [`classify_from_outputs`] folds them into the predicted class.
///
/// # Panics
///
/// Panics when `2P` exceeds `cols` (no product lanes exist) or
/// `prototypes_q` is empty.
pub fn classify_program(
    precision: Precision,
    prototypes_q: &[Vec<u64>],
    x_q: &[u64],
    cols: usize,
) -> Program {
    assert!(!prototypes_q.is_empty(), "at least one prototype");
    let lanes = precision.product_lanes(cols);
    assert!(lanes > 0, "{precision} products do not fit {cols} columns");
    let mut b = ProgramBuilder::new();
    let rx = b.alloc();
    let rw = b.alloc();
    let rp = b.alloc();
    for w_q in prototypes_q {
        for (xc, wc) in x_q.chunks(lanes).zip(w_q.chunks(lanes)) {
            b.write_mult_to(rx, precision, xc.to_vec());
            b.write_mult_to(rw, precision, wc.to_vec());
            b.push(Instr::Mult {
                a: rx,
                b: rw,
                dst: rp,
                precision,
            });
            b.read_products(rp, precision, xc.len());
        }
    }
    b.finish()
}

/// Chunks each prototype dot splits into at this precision and row width
/// (the per-class output-group size of [`classify_program`]).
pub fn chunks_per_class(precision: Precision, dim: usize, cols: usize) -> usize {
    dim.div_ceil(precision.product_lanes(cols).max(1)).max(1)
}

/// The input bindings that run a compiled [`classify_program`] template on
/// sample `x_q`: per class and chunk, the sample's product-lane chunk is
/// rebound (`Some`) and the baked prototype chunk is kept (`None`) —
/// matching the template's write interleave exactly. Lives here, next to
/// the program layout it mirrors, so the serving path and the benchmarks
/// cannot drift from it.
pub fn classify_bindings(
    precision: Precision,
    classes: usize,
    x_q: &[u64],
    cols: usize,
) -> Vec<Option<&[u64]>> {
    let lanes = precision.product_lanes(cols).max(1);
    let chunks = chunks_per_class(precision, x_q.len(), cols);
    let mut inputs = Vec::with_capacity(2 * classes * chunks);
    for _ in 0..classes {
        for xc in x_q.chunks(lanes) {
            inputs.push(Some(xc));
            inputs.push(None);
        }
    }
    inputs
}

/// Folds a [`classify_program`] run's outputs into the predicted class:
/// `argmax_c Σ products_c - |w_c|^2 / 2`, with ties resolved to the lowest
/// class index (the same rule the per-class loop used).
///
/// # Panics
///
/// Panics when the output count is not `norms.len() * chunks` or `norms`
/// is empty.
pub fn classify_from_outputs(outputs: &[Vec<u64>], chunks: usize, norms: &[u64]) -> usize {
    assert_eq!(
        outputs.len(),
        norms.len() * chunks,
        "one output group per class"
    );
    let mut best: Option<(usize, f64)> = None;
    for (c, &ww) in norms.iter().enumerate() {
        let xw: u64 = outputs[c * chunks..(c + 1) * chunks].iter().flatten().sum();
        let score = xw as f64 - ww as f64 / 2.0;
        if best.is_none() || score > best.expect("set").1 {
            best = Some((c, score));
        }
    }
    best.expect("at least one class").0
}

/// Computes every prototype's self-dot `|w_c|^2` on one macro.
///
/// Nearest-prototype scoring needs these once per prototype set, not once
/// per sample: compute them up front and pass the slice to
/// [`classify_quantized`] so a batch of samples amortizes the norm work
/// (the ROADMAP-flagged accounting change — see [`PrototypeClassifier`]).
pub fn prototype_norms(
    mac: &mut ImcMacro,
    precision: Precision,
    prototypes_q: &[Vec<u64>],
) -> Vec<u64> {
    prototypes_q
        .iter()
        .map(|w_q| imc_dot(mac, precision, w_q, w_q))
        .collect()
}

/// Classifies one quantized sample on one macro. Nearest-prototype scoring:
/// `argmax_c x.w_c - |w_c|^2 / 2`, equivalent to minimum Euclidean
/// distance; `norms` holds the precomputed `|w_c|^2` terms (see
/// [`prototype_norms`]).
///
/// All `C` prototype dots run as **one** fused [`classify_program`], so the
/// per-sample executor overhead (validation, lowering, run bookkeeping) is
/// paid once instead of once per class; the instruction stream — and
/// therefore the cycle/energy accounting and the scores — is bit-identical
/// to the per-class loop it replaces.
///
/// # Panics
///
/// Panics when `norms` is shorter than `prototypes_q` or the prototype set
/// is empty.
pub fn classify_quantized(
    mac: &mut ImcMacro,
    precision: Precision,
    prototypes_q: &[Vec<u64>],
    norms: &[u64],
    x_q: &[u64],
) -> usize {
    assert_eq!(
        prototypes_q.len(),
        norms.len(),
        "one precomputed |w|^2 per prototype"
    );
    let prog = classify_program(precision, prototypes_q, x_q, mac.cols());
    let run = prog.run(mac).expect("classify pipeline validates");
    let chunks = chunks_per_class(precision, x_q.len(), mac.cols());
    classify_from_outputs(&run.outputs, chunks, norms)
}

impl PrototypeClassifier {
    /// Builds a classifier from a dataset's generating prototypes at the
    /// requested datapath precision. The macro bank is sized to the host's
    /// parallelism.
    pub fn fit(data: &Dataset, precision: Precision) -> Self {
        Self::fit_with_bank(
            data,
            precision,
            MacroBank::with_host_parallelism(MacroConfig::paper_macro()),
        )
    }

    /// Builds a classifier evaluating on an explicit macro bank.
    pub(crate) fn fit_with_bank(data: &Dataset, precision: Precision, bank: MacroBank) -> Self {
        let quant = QuantParams::new(precision, data.max_feature().max(1e-9));
        let prototypes_q = data
            .prototypes
            .iter()
            .map(|p| quant.quantize_all(p))
            .collect();
        Self {
            precision,
            quant,
            prototypes_q,
            bank,
        }
    }

    /// Classifies one (real-valued) sample; returns the predicted class.
    ///
    /// Single-sample classification computes the prototype norms on the
    /// macro each call (there is no batch to amortize them over); use
    /// [`PrototypeClassifier::evaluate`] for datasets. The sample runs on
    /// macro 0 as one fused [`classify_quantized`] program, so its class,
    /// scores and total cycles are exactly the one-macro run's.
    pub fn classify(&mut self, x: &[f64]) -> usize {
        let x_q = self.quant.quantize_all(x);
        let mac = self.bank.macro_at(0);
        let norms = prototype_norms(mac, self.precision, &self.prototypes_q);
        classify_quantized(mac, self.precision, &self.prototypes_q, &norms, &x_q)
    }

    /// Evaluates accuracy, cycles and energy over a dataset, batching the
    /// independent samples across the macro bank.
    ///
    /// The prototype norms `|w_c|^2` are computed **once per evaluation**
    /// (on macro 0, included in the reported cycles/energy) instead of once
    /// per sample. This is a deliberate accounting change from the seed,
    /// which recomputed every self-dot for every sample: with `C` classes
    /// the per-sample dot-product work drops from `2C` to `C` dots, so
    /// reported cycles and energy per sample roughly halve on real batches
    /// while accuracy is bit-identical.
    pub fn evaluate(&mut self, data: &Dataset) -> EvalReport {
        self.bank.clear_activity();
        let precision = self.precision;
        let norms = prototype_norms(self.bank.macro_at(0), precision, &self.prototypes_q);
        let jobs: Vec<(&Vec<f64>, usize)> = data
            .samples
            .iter()
            .zip(data.labels.iter().copied())
            .collect();
        let quant = &self.quant;
        let prototypes_q = &self.prototypes_q;
        let outcomes = self.bank.try_run_batch(&jobs, |mac, &(x, label)| {
            let x_q = quant.quantize_all(x);
            classify_quantized(mac, precision, prototypes_q, &norms, &x_q) == label
        });
        let correct = outcomes
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| panic!("classify {p}")))
            .filter(|&ok| ok)
            .count();
        let params = paper_calibrated_params();
        let cycles = self.bank.total_cycles();
        let energy_fj: f64 = self
            .bank
            .macros()
            .map(|m| params.log_energy_fj(m.activity()))
            .sum();
        EvalReport {
            accuracy: correct as f64 / data.len() as f64,
            cycles,
            energy_fj,
            samples: data.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        Dataset::synthetic_blobs(4, 8, 30, 11)
    }

    #[test]
    fn high_precision_is_accurate() {
        let d = data();
        let mut clf = PrototypeClassifier::fit(&d, Precision::P8);
        let r = clf.evaluate(&d);
        assert!(r.accuracy > 0.9, "accuracy {}", r.accuracy);
        assert!(r.cycles > 0 && r.energy_fj > 0.0);
    }

    #[test]
    fn generated_programs_lint_clean() {
        // The emitted dot/classify pipelines must carry no error- or
        // warn-severity diagnostics (perf notes — e.g. recycled-register
        // headroom on tiny inputs — are fine): every store is read, no
        // work is recomputed, nothing is provably wasted.
        use bpimc_core::{MacroConfig, Severity};
        let cfg = MacroConfig::paper_macro();
        let p = Precision::P8;
        let x: Vec<u64> = (0..24).map(|i| (i * 11) % 256).collect();
        let w: Vec<u64> = (0..24).map(|i| (i * 7 + 3) % 256).collect();
        let protos: Vec<Vec<u64>> = (0..3)
            .map(|c| (0..24).map(|i| (i * 5 + c * 17) % 256).collect())
            .collect();
        for prog in [
            dot_program(p, &x, &w, 128),
            classify_program(p, &protos, &x, 128),
        ] {
            let bad: Vec<_> = prog
                .lint(&cfg)
                .into_iter()
                .filter(|d| d.severity != Severity::Perf)
                .collect();
            assert!(bad.is_empty(), "generated program lints dirty: {bad:?}");
        }
    }

    #[test]
    fn imc_dot_matches_host_arithmetic() {
        let d = data();
        let mut clf = PrototypeClassifier::fit(&d, Precision::P4);
        let x = vec![3u64, 7, 0, 15, 1, 2, 9, 4];
        let w = vec![5u64, 5, 15, 1, 0, 8, 2, 3];
        let got = imc_dot(clf.bank.macro_at(0), Precision::P4, &x, &w);
        let expect: u64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
        assert_eq!(got, expect);
    }

    #[test]
    fn lower_precision_costs_fewer_cycles() {
        let d = data();
        let mut hi = PrototypeClassifier::fit(&d, Precision::P8);
        let mut lo = PrototypeClassifier::fit(&d, Precision::P2);
        let rh = hi.evaluate(&d);
        let rl = lo.evaluate(&d);
        assert!(
            rl.cycles < rh.cycles,
            "P2 {} cycles !< P8 {} cycles",
            rl.cycles,
            rh.cycles
        );
        assert!(rl.energy_fj < rh.energy_fj);
    }

    #[test]
    fn accuracy_degrades_gracefully_not_catastrophically() {
        let d = data();
        let mut lo = PrototypeClassifier::fit(&d, Precision::P2);
        let r = lo.evaluate(&d);
        // 2-bit template matching is crude but far better than chance (25%).
        assert!(r.accuracy > 0.5, "accuracy {}", r.accuracy);
    }

    #[test]
    fn evaluate_amortizes_prototype_norms() {
        // The seed recomputed every |w|^2 self-dot per sample; evaluate()
        // now computes them once per batch. Reconstruct the seed's
        // accounting on a bare macro and check the batch run costs
        // markedly less (2C dots per sample down to C + C/batch).
        let d = data();
        let mut clf = PrototypeClassifier::fit_with_bank(
            &d,
            Precision::P4,
            MacroBank::new(1, MacroConfig::paper_macro()),
        );
        let r = clf.evaluate(&d);

        let mut mac = bpimc_core::ImcMacro::new(MacroConfig::paper_macro());
        for x in &d.samples {
            let x_q = clf.quant.quantize_all(x);
            let norms = prototype_norms(&mut mac, Precision::P4, &clf.prototypes_q);
            classify_quantized(&mut mac, Precision::P4, &clf.prototypes_q, &norms, &x_q);
        }
        let seed_cycles = mac.activity().total_cycles();
        assert!(
            3 * r.cycles < 2 * seed_cycles,
            "batched {} cycles should be well under the seed's {}",
            r.cycles,
            seed_cycles
        );
    }

    /// The pre-fusion reference: one [`dot_program`] per class, scored on
    /// the host — the loop `classify_quantized` replaced.
    fn classify_per_class_loop(
        mac: &mut bpimc_core::ImcMacro,
        precision: Precision,
        prototypes_q: &[Vec<u64>],
        norms: &[u64],
        x_q: &[u64],
    ) -> usize {
        let mut best: Option<(usize, f64)> = None;
        for (c, (w_q, &ww)) in prototypes_q.iter().zip(norms).enumerate() {
            let xw = imc_dot(mac, precision, x_q, w_q) as f64;
            let score = xw - ww as f64 / 2.0;
            if best.is_none() || score > best.expect("set").1 {
                best = Some((c, score));
            }
        }
        best.expect("at least one class").0
    }

    #[test]
    fn fused_classify_matches_per_class_loop_bit_for_bit() {
        // Same predicted class, same hardware cycles, same cycle-by-cycle
        // activity log: the fused program is the concatenation of the
        // per-class dot programs.
        let d = data();
        for p in [Precision::P2, Precision::P4, Precision::P8] {
            let clf = PrototypeClassifier::fit(&d, p);
            let mut fused_mac = bpimc_core::ImcMacro::new(MacroConfig::paper_macro());
            let mut loop_mac = bpimc_core::ImcMacro::new(MacroConfig::paper_macro());
            let norms = prototype_norms(&mut fused_mac, p, &clf.prototypes_q);
            prototype_norms(&mut loop_mac, p, &clf.prototypes_q);
            for x in d.samples.iter().take(12) {
                let x_q = clf.quant.quantize_all(x);
                let fused = classify_quantized(&mut fused_mac, p, &clf.prototypes_q, &norms, &x_q);
                let looped =
                    classify_per_class_loop(&mut loop_mac, p, &clf.prototypes_q, &norms, &x_q);
                assert_eq!(fused, looped, "P{} sample mismatch", p.bits());
            }
            assert_eq!(
                fused_mac.activity().total_cycles(),
                loop_mac.activity().total_cycles(),
                "P{} cycle accounting changed",
                p.bits()
            );
            assert_eq!(fused_mac.activity().cycles(), loop_mac.activity().cycles());
        }
    }

    #[test]
    fn fused_classify_handles_multi_chunk_dimensions() {
        // 24 features at P8 on a 128-column row = 3 product-lane chunks per
        // class; the per-class output grouping must stay aligned.
        let d = Dataset::synthetic_blobs(3, 24, 20, 7);
        let clf = PrototypeClassifier::fit(&d, Precision::P8);
        let mut mac = bpimc_core::ImcMacro::new(MacroConfig::paper_macro());
        assert_eq!(chunks_per_class(Precision::P8, 24, mac.cols()), 3);
        let norms = prototype_norms(&mut mac, Precision::P8, &clf.prototypes_q);
        for x in d.samples.iter().take(8) {
            let x_q = clf.quant.quantize_all(x);
            let fused =
                classify_quantized(&mut mac, Precision::P8, &clf.prototypes_q, &norms, &x_q);
            let looped =
                classify_per_class_loop(&mut mac, Precision::P8, &clf.prototypes_q, &norms, &x_q);
            assert_eq!(fused, looped);
        }
    }

    #[test]
    fn classify_matches_classify_quantized_and_bills_the_same_cycles() {
        // `PrototypeClassifier::classify` on a multi-macro bank is the
        // one-macro `classify_quantized` run (plus the per-call norms):
        // same class, same total cycles.
        let d = data();
        let mut clf = PrototypeClassifier::fit_with_bank(
            &d,
            Precision::P4,
            MacroBank::new(3, MacroConfig::paper_macro()),
        );
        let mut mac = bpimc_core::ImcMacro::new(MacroConfig::paper_macro());
        for x in d.samples.iter().take(6) {
            let norms = prototype_norms(&mut mac, Precision::P4, &clf.prototypes_q);
            let x_q = clf.quant.quantize_all(x);
            let single =
                classify_quantized(&mut mac, Precision::P4, &clf.prototypes_q, &norms, &x_q);
            assert_eq!(clf.classify(x), single);
        }
        assert_eq!(clf.bank.total_cycles(), mac.activity().total_cycles());
    }

    #[test]
    fn bank_evaluation_matches_single_macro_evaluation() {
        // Same dataset, 1-macro bank vs multi-macro bank: identical
        // accuracy, cycles and energy (the accounting is work, not time).
        let d = data();
        let mut single = PrototypeClassifier::fit_with_bank(
            &d,
            Precision::P4,
            MacroBank::new(1, MacroConfig::paper_macro()),
        );
        let mut wide = PrototypeClassifier::fit_with_bank(
            &d,
            Precision::P4,
            MacroBank::new(4, MacroConfig::paper_macro()),
        );
        let rs = single.evaluate(&d);
        let rw = wide.evaluate(&d);
        assert_eq!(rs.accuracy, rw.accuracy);
        assert_eq!(rs.cycles, rw.cycles);
        assert!((rs.energy_fj - rw.energy_fj).abs() < 1e-6 * rs.energy_fj.max(1.0));
    }
}

//! Executes one compute request on one macro, with exact per-request
//! cycle/energy accounting.
//!
//! Every arithmetic request runs as a [`CompiledProgram`], so there is
//! exactly one execution path from the wire to the array: `dot`, the
//! lane-wise ops and `exec_program` are lowered to a [`Program`] that is
//! compiled and run per request ([`Program::run`]), and `run_stored` and
//! `classify` rebind the writes of a program compiled once, at
//! `store_program` and `load_model`.

use crate::fault::ComputeFault;
use bpimc_core::prog::{CompiledProgram, Instr, Program, ProgramBuilder};
use bpimc_core::{
    ErrorBody, ImcMacro, LaneOp, LimitKind, Precision, ProgramReport, RequestBody, ResponseBody,
};
use bpimc_metrics::EnergyParams;
use bpimc_nn::{chunks_per_class, classify_bindings, classify_from_outputs, imc_dot};
use std::sync::Arc;

/// A classifier model loaded into a session by `load_model`.
#[derive(Debug)]
pub(crate) struct Model {
    /// Lane width the prototypes are quantized to.
    pub(crate) precision: Precision,
    /// One quantized weight vector per class.
    pub(crate) prototypes_q: Vec<Vec<u64>>,
    /// Precomputed `|w_c|^2` self-dots (computed on a macro at load time,
    /// billed to the `load_model` request).
    pub(crate) norms: Vec<u64>,
    /// The fused all-prototypes classify program, validated and lowered
    /// once at `load_model`; per request only the sample's chunks are
    /// rebound ([`CompiledProgram::run_with_inputs`]).
    pub(crate) template: CompiledProgram,
}

/// One compute request, admitted and ready to run on the server's macro.
///
/// Session state the request depends on (the classifier model, the stored
/// program) is snapshotted at admission (`Arc` clones), so a
/// `load_model`/`store_program` earlier in the same batch is visible.
pub(crate) struct ComputeJob<'a> {
    pub(crate) body: &'a RequestBody,
    pub(crate) model: Option<Arc<Model>>,
    pub(crate) stored: Option<Arc<CompiledProgram>>,
    /// Guardrail: longest accepted `exec_program` instruction stream.
    pub(crate) max_program_instrs: Option<usize>,
    /// Chaos: fault injected into this job's execution, if any.
    pub(crate) fault: Option<ComputeFault>,
}

/// True for request kinds that execute on the macro, in compute runs.
pub(crate) fn is_compute(body: &RequestBody) -> bool {
    matches!(
        body,
        RequestBody::Dot { .. }
            | RequestBody::Lanes { .. }
            | RequestBody::Classify { .. }
            | RequestBody::ExecProgram { .. }
            | RequestBody::RunStored { .. }
    )
}

/// Runs one compute job with activity capture: the macro's log is cleared
/// before and after, so the returned `(cycles, energy_fj)` are exactly this
/// request's hardware work and the macro's log stays bounded no matter how
/// long the server runs.
///
/// An injected chaos fault fires here, on the thread that holds the run
/// token, **before** `compute_body` touches the array — a panicked job
/// leaves the macro's state and activity log untouched for the next job.
pub(crate) fn run_compute(
    mac: &mut ImcMacro,
    job: &ComputeJob<'_>,
    params: &EnergyParams,
) -> (Result<ResponseBody, ErrorBody>, u64, f64) {
    match job.fault {
        Some(ComputeFault::Panic) => panic!("injected chaos fault (worker panic)"),
        Some(ComputeFault::Delay(d)) => std::thread::sleep(d),
        None => {}
    }
    mac.clear_activity();
    let out = compute_body(mac, job, params);
    let cycles = mac.activity().total_cycles();
    let energy_fj = params.log_energy_fj(mac.activity());
    mac.clear_activity();
    (out, cycles, energy_fj)
}

/// Multiplication (and therefore dot/classify) needs `2P`-bit product
/// lanes; rejects precisions too wide for the macro's row.
pub(crate) fn check_product_lanes(precision: Precision, cols: usize) -> Result<(), String> {
    if 2 * precision.bits() > cols {
        return Err(format!(
            "precision {} needs {}-bit product lanes but the macro has {cols} columns",
            precision.bits(),
            2 * precision.bits(),
        ));
    }
    Ok(())
}

fn check_words_fit(name: &str, words: &[u64], precision: Precision) -> Result<(), String> {
    match words.iter().find(|&&w| w > precision.max_value()) {
        Some(&w) => Err(format!(
            "'{name}' value {w} does not fit {} bits",
            precision.bits()
        )),
        None => Ok(()),
    }
}

fn compute_body(
    mac: &mut ImcMacro,
    job: &ComputeJob<'_>,
    params: &EnergyParams,
) -> Result<ResponseBody, ErrorBody> {
    match job.body {
        RequestBody::Dot { precision, x, w } => {
            if x.len() != w.len() {
                return Err(
                    format!("'x' ({}) and 'w' ({}) differ in length", x.len(), w.len()).into(),
                );
            }
            check_words_fit("x", x, *precision)?;
            check_words_fit("w", w, *precision)?;
            check_product_lanes(*precision, mac.cols())?;
            Ok(ResponseBody::Scalar(imc_dot(mac, *precision, x, w)))
        }
        RequestBody::Lanes {
            op,
            precision,
            a,
            b,
        } => {
            if a.len() != b.len() {
                return Err(
                    format!("'a' ({}) and 'b' ({}) differ in length", a.len(), b.len()).into(),
                );
            }
            check_words_fit("a", a, *precision)?;
            check_words_fit("b", b, *precision)?;
            let prog = lanes_program(*op, *precision, a, b, mac.cols())?;
            let run = prog.run(mac).map_err(|e| ErrorBody::from(&e))?;
            Ok(ResponseBody::Words(run.outputs.concat()))
        }
        RequestBody::Classify { x } => {
            let model = job
                .model
                .as_deref()
                .ok_or("no model loaded in this session")?;
            let dim = model.prototypes_q.first().map_or(0, Vec::len);
            if x.len() != dim {
                return Err(format!(
                    "sample has {} features but the model expects {dim}",
                    x.len()
                )
                .into());
            }
            check_words_fit("x", x, model.precision)?;
            // The fused classify template was compiled at `load_model`;
            // rebind just the sample's product-lane chunks (one fused
            // program per call — C dots, one executor trip, zero
            // validation/lowering). Instruction stream, cycles and scores
            // are bit-identical to building the program fresh.
            let classes = model.prototypes_q.len();
            let chunks = chunks_per_class(model.precision, dim, mac.cols());
            let inputs = classify_bindings(model.precision, classes, x, mac.cols());
            let outputs = model
                .template
                .run_outputs(mac, &inputs)
                .map_err(|e| ErrorBody::from(&e))?;
            Ok(ResponseBody::Class(classify_from_outputs(
                &outputs,
                chunks,
                &model.norms,
            )))
        }
        RequestBody::ExecProgram { instrs } => {
            // The program-length guardrail fires before any array state
            // changes — validation and execution never see an over-long
            // stream.
            if let Some(max) = job.max_program_instrs.filter(|&max| instrs.len() > max) {
                return Err(ErrorBody::limit(
                    LimitKind::ProgramLength,
                    None,
                    format!(
                        "program has {} instructions but the limit is {max}",
                        instrs.len()
                    ),
                ));
            }
            let prog = Program::new(instrs.clone());
            let run = prog.run(mac).map_err(|e| ErrorBody::from(&e))?;
            program_report(mac, params, run)
        }
        RequestBody::RunStored { target, inputs } => {
            let compiled = job
                .stored
                .as_deref()
                .ok_or(format!("no {target} in this session"))?;
            let bindings: Vec<Option<&[u64]>> = if inputs.is_empty() {
                vec![None; compiled.write_count()]
            } else {
                inputs.iter().map(|e| e.as_deref()).collect()
            };
            let run = compiled
                .run_with_inputs(mac, &bindings)
                .map_err(|e| ErrorBody::from(&e))?;
            program_report(mac, params, run)
        }
        other => Err(format!("not a compute request: {other:?}").into()),
    }
}

/// Folds a program run into the wire's `program` report, with exact
/// per-instruction energy from the activity-log spans the run recorded —
/// not a per-cycle average. Shared by `exec_program` and `run_stored`.
fn program_report(
    mac: &ImcMacro,
    params: &EnergyParams,
    run: bpimc_core::ProgramRun,
) -> Result<ResponseBody, ErrorBody> {
    let energy_fj = run
        .instr_spans
        .iter()
        .map(|span| params.cycles_energy_fj(&mac.activity().cycles()[span.clone()]))
        .collect();
    Ok(ResponseBody::Program(ProgramReport {
        outputs: run.outputs,
        cycles: run.instr_cycles,
        energy_fj,
    }))
}

/// Lowers one lane-wise two-operand request to a [`Program`], chunked to
/// the macro's lane capacity so vectors longer than one row still execute.
/// Each chunk recycles the same three registers (operand A, operand B,
/// result), so the row budget stays constant regardless of vector length
/// and the emitted instruction stream matches what a direct `ImcMacro`
/// caller would do cycle for cycle.
fn lanes_program(
    op: LaneOp,
    precision: Precision,
    a: &[u64],
    b: &[u64],
    cols: usize,
) -> Result<Program, String> {
    let lanes = match op {
        LaneOp::Mult => {
            check_product_lanes(precision, cols)?;
            precision.product_lanes(cols)
        }
        _ => precision.lanes(cols),
    };
    let mut bld = ProgramBuilder::new();
    let ra = bld.alloc();
    let rb = bld.alloc();
    let rd = bld.alloc();
    for (ac, bc) in a.chunks(lanes).zip(b.chunks(lanes)) {
        match op {
            LaneOp::Mult => {
                bld.write_mult_to(ra, precision, ac.to_vec());
                bld.write_mult_to(rb, precision, bc.to_vec());
                bld.push(Instr::Mult {
                    a: ra,
                    b: rb,
                    dst: rd,
                    precision,
                });
                bld.read_products(rd, precision, ac.len());
            }
            LaneOp::Add | LaneOp::Sub | LaneOp::Logic(_) => {
                bld.write_to(ra, precision, ac.to_vec());
                bld.write_to(rb, precision, bc.to_vec());
                bld.push(match op {
                    LaneOp::Add => Instr::Add {
                        a: ra,
                        b: rb,
                        dst: rd,
                        precision,
                    },
                    LaneOp::Sub => Instr::Sub {
                        a: ra,
                        b: rb,
                        dst: rd,
                        precision,
                    },
                    LaneOp::Logic(l) => Instr::Logic {
                        op: l,
                        a: ra,
                        b: rb,
                        dst: rd,
                    },
                    LaneOp::Mult => unreachable!("handled above"),
                });
                bld.read(rd, precision, ac.len());
            }
        }
    }
    Ok(bld.finish())
}
